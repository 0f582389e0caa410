"""
Walking one transfer through the fee and burn-tax pipeline
==========================================================

A 0.012 tax rate against a 1,000,000 uluna transfer, first quoted
off-chain, then actually admitted on-chain so the burn shows up in the
supply figures.
"""

from fractions import Fraction

from luncsim import MICRO, estimate_fee
from luncsim.ante import Msg, MsgKind, Tx, run_ante_pipeline
from luncsim.genesis import build_state

# off-chain quote, the way a wallet would show it
quote = estimate_fee(1_000_000, "uluna", 250, Fraction("0.012"))
print("quoted tax:      ", quote.tax)
print("quoted total fee:", quote.total_fee)

# the same rate capped at 50 uluna: large transfers stop scaling
big = estimate_fee(100_000 * MICRO, "uluna", 0, Fraction("0.012"), cap=50 * MICRO)
print("capped tax on 100k lunc:", big.tax, "(would be",
      int(Fraction("0.012") * 100_000 * MICRO), "uncapped)")

# now on-chain: a two-account genesis with the tax already active
state = build_state({
    "chain_id": "demo",
    "genesis_height": 0,
    "accounts": [
        {"address": "alice", "denom": "uluna", "amount": str(10_000 * MICRO)},
        {"address": "bob", "denom": "uluna", "amount": "0"},
    ],
    "treasury": {"tax_rate": "0.012"},
    "ante": {"tax_power_upgrade_height": 0, "gas_price": "0"},
})

supply_before = state.bank.total_supply("uluna")

tx = Tx(
    msgs=[Msg(MsgKind.SEND, {"sender": "alice", "recipient": "bob",
                             "coins": {"uluna": 1_000_000}})],
    fee_payer="alice",
    declared_fee={"uluna": 12_000},
    gas_limit=200_000,
)
burned = run_ante_pipeline(state.bank, state.treasury, state.ante, tx, height=5)
print("burned on admission:", burned)

state.bank.transfer("alice", "bob", {"uluna": 1_000_000})
print("supply shrank by:", supply_before - state.bank.total_supply("uluna"))
print("epoch burn ledger:", dict(state.treasury.epoch_burned))
