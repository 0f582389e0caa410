"""Replay of the testnet delegation-sniping halt.

Four of six validators run the successor release (64% of power). A
pre-armed delegation lands two blocks after the delegate revert height,
the two camps disagree on its validity, and no side holds 2/3. The chain
stops at 7,684,492 until a fifth operator upgrades.
"""

import time

from luncsim import build_bundled, build_state, parse_scenario, run_scenario

genesis_cfg, scenario_cfg = build_bundled("rebel1-replay")
state = build_state(genesis_cfg)
scenario = parse_scenario(scenario_cfg)

t0 = time.time()
result = run_scenario(state, scenario)
elapsed = time.time() - t0

print(f"replayed {result.blocks_committed} blocks in {elapsed:.2f}s")
print("halt heights:", result.halt_heights)
print("terminal halt:", result.terminal_halted)

# the flagged row shows the halt before the recovered commit overwrote it;
# rows are height runs (first, last, *values), expanded here per height
for first, last, *values in result.rows:
    for height in (7_684_491, 7_684_492):
        if first <= height <= last:
            print("row", (height, *values))

final = result.final_state
versions = {address: v.software_version
            for address, v in final.staking.validators.items()}
print("final versions:", versions)
print("sniper's delegation landed:",
      final.staking.delegations["sniper"]["val1"], "shares on val1")
