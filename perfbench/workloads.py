"""Seeded inputs for the benchmark workloads.

Each builder maps a seed to plain genesis and scenario dicts, the same JSON
trees `luncsim run` reads, together with the outcome the engine must reach
on them: tx outcome counts by status and error name, and the halt heights.
Every user tx is built so that its outcome follows from its own fields:

* sends and multi-sends declare gas plus the exact tax and move small
  amounts out of large balances, so they succeed;
* thin-fee sends declare less than the gas fee alone, so ante rejects them
  before touching state;
* overdrawn sends pay a full fee but move more than the whole supply, so
  they fail after admission and keep their fee;
* delegations and undelegations run with the height gates out of reach,
  against delegations made in earlier blocks.

That is what lets the benchmark check outputs on any seed, not only on the
pinned ones.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from luncsim.scenarios import build as build_bundled

DENOM = "uluna"
M = 1_000_000
BALANCE = 1_000_000 * M
GAS_PRICE = "0.01"          # uluna per gas unit
TAX_DIVISOR = 200           # tax rate 0.005
TAX_CAP = 10 * M
OVERDRAW = 10**18           # more than the whole supply of any workload

# Height gates far beyond every run: no rule differs between v20 and v21,
# so a mixed validator set always agrees.
FAR_GATES = {
    "staking_power_upgrade_height": 10**9,
    "delegate_power_revert_height": 10**9 + 1,
    "staking_power_revert_height": 10**9 + 2,
    "protect_power_height": 10**9 + 1,
}

OK = "ok"
REJECTED_FEE = "rejected:InsufficientFunds"
FAILED_FUNDS = "failed:InsufficientFunds"


@dataclass
class Inputs:
    genesis: dict
    scenario: dict
    outcomes: dict           # expected tx outcome counts, "status[:error]" -> n
    halts: list              # expected halt heights
    descriptors: dict = field(default_factory=dict)


def _coin(amount: int) -> dict:
    return {"denom": DENOM, "amount": str(amount)}


def _tax(amount: int) -> int:
    return min(amount // TAX_DIVISOR, TAX_CAP)


def _gas_fee(gas_limit: int) -> int:
    return gas_limit // 100


def _version_sensitive(msg: dict) -> bool:
    if msg["kind"] == "exec":
        return any(_version_sensitive(m) for m in msg["msgs"])
    return msg["kind"] in ("delegate", "create-validator")


SEND, MULTI_SEND, THIN_FEE, OVERDRAWN, STAKING = (
    "send", "multi-send", "thin-fee", "overdrawn", "staking")


def _mix(n: int) -> list:
    """Kinds of n user txs: sends first, then 15% multi-sends, 10% thin-fee
    and 10% overdrawn sends. Fixed counts keep the work the same on every
    seed."""
    odd = [MULTI_SEND] * (n * 15 // 100) + [THIN_FEE] * (n // 10) + [OVERDRAWN] * (n // 10)
    return [SEND] * (n - len(odd)) + odd


class _Traffic:
    """Draws user txs and remembers the outcome each one must have."""

    def __init__(self, rng: random.Random, accounts: list, validators: list):
        self.rng = rng
        self.accounts = accounts
        self.validators = validators
        self.outcomes: Counter = Counter()
        self.blocks: dict = {}     # height -> [tx dict, ...]
        # (delegator, validator) -> amount bonded in earlier blocks, so an
        # undelegation never asks for more than its delegator holds
        self.bonded: dict = {}

    def block(self, height: int, kinds: list) -> None:
        """Add one tx of each kind at `height`, in a random order."""
        kinds = list(kinds)
        self.rng.shuffle(kinds)
        made = [self._staking(height) if kind == STAKING else self._transfer(height, kind)
                for kind in kinds]
        for key, amount in filter(None, made):
            self.bonded[key] = self.bonded.get(key, 0) + amount

    def add(self, height: int, tx: dict, outcome: str) -> None:
        self.blocks.setdefault(height, []).append(tx)
        self.outcomes[outcome] += 1

    def _tx(self, payer: str, msg: dict, gas_limit: int, tax: int) -> dict:
        fee = _gas_fee(gas_limit) + tax + self.rng.randint(0, 1_000)
        return {"fee_payer": payer, "gas_limit": gas_limit,
                "declared_fee": [_coin(fee)], "msgs": [msg]}

    def _transfer(self, height: int, kind: str) -> None:
        rng = self.rng
        payer = rng.choice(self.accounts)
        if kind == MULTI_SEND:
            outputs = [{"recipient": rng.choice(self.accounts),
                        "coins": [_coin(rng.randint(1, 1_000) * M)]}
                       for _ in range(3)]
            tax = sum(_tax(int(o["coins"][0]["amount"])) for o in outputs)
            msg = {"kind": "multi-send", "sender": payer, "outputs": outputs}
            self.add(height, self._tx(payer, msg, 300_000, tax), OK)
            return
        amount = rng.randint(1, 1_000) * rng.choice([1, 1_000, M])
        if kind == OVERDRAWN:
            amount += OVERDRAW
        msg = {"kind": "send", "sender": payer,
               "recipient": rng.choice(self.accounts), "coins": [_coin(amount)]}
        tx = self._tx(payer, msg, 200_000, _tax(amount))
        if kind == SEND:
            self.add(height, tx, OK)
        elif kind == THIN_FEE:
            tx["declared_fee"] = [_coin(rng.randint(1, _gas_fee(200_000) - 1))]
            self.add(height, tx, REJECTED_FEE)
        else:
            self.add(height, tx, FAILED_FUNDS)

    def _staking(self, height: int):
        """A delegation, sometimes inside exec, or an undelegation.

        Returns (key, amount) for a delegation, which counts as bonded from
        the next block on.
        """
        rng = self.rng
        bonded = self.bonded
        if bonded and rng.random() < 0.3:
            (delegator, validator), held = rng.choice(sorted(bonded.items()))
            amount = rng.randint(1, held)
            bonded[(delegator, validator)] = held - amount
            if held == amount:
                del bonded[(delegator, validator)]
            msg = {"kind": "undelegate", "delegator": delegator,
                   "validator": validator, "amount": _coin(amount)}
            self.add(height, self._tx(delegator, msg, 250_000, 0), OK)
            return None
        delegator = rng.choice(self.accounts)
        validator = rng.choice(self.validators)
        amount = rng.randint(1, 2_000) * M
        msg = {"kind": "delegate", "delegator": delegator,
               "validator": validator, "amount": _coin(amount)}
        if rng.random() < 0.4:
            msg = {"kind": "exec", "sender": delegator, "msgs": [msg]}
        self.add(height, self._tx(delegator, msg, 250_000, 0), OK)
        return (delegator, validator), amount

    def events(self) -> list:
        return [{"at_height": h, "action": "submit-tx", "tx": tx}
                for h in sorted(self.blocks) for tx in self.blocks[h]]

    def descriptors(self) -> dict:
        n_tx = sum(self.outcomes.values())
        sensitive = sum(
            any(_version_sensitive(m) for tx in txs for m in tx["msgs"])
            for txs in self.blocks.values()
        )
        return {
            "tx_blocks": len(self.blocks),
            "txs": n_tx,
            "txs_per_tx_block": round(n_tx / max(1, len(self.blocks)), 2),
            "version_sensitive_tx_block_share": round(sensitive / max(1, len(self.blocks)), 4),
            "failed_or_rejected_tx_share":
                round((n_tx - self.outcomes[OK]) / max(1, n_tx), 4),
        }


def _genesis(chain_id: str, accounts: list, validators: list, versions: list,
             rng: random.Random, epoch: int, voting: int, unbonding: int) -> dict:
    return {
        "chain_id": chain_id,
        "genesis_height": 0,
        "accounts": [{"address": a, "denom": DENOM, "amount": str(BALANCE)}
                     for a in accounts],
        "staking": {
            "gates": dict(FAR_GATES),
            "unbonding_period_blocks": unbonding,
            "validators": [
                {"address": v, "tokens": str(rng.randint(5, 40) * 1_000 * M),
                 "version": ver}
                for v, ver in zip(validators, versions)
            ],
        },
        "treasury": {"tax_rate": "0.005", "reward_weight": "0.5",
                     "epoch_length_blocks": epoch, "default_tax_cap": str(TAX_CAP)},
        "distribution": {"community_tax": "0.02"},
        "governance": {"voting_period_blocks": voting},
        "ante": {"gas_price": GAS_PRICE, "gas_denom": DENOM,
                 "tax_power_upgrade_height": 0},
    }


def _proposal(rng: random.Random, height: int, pid: int, voters: list,
              voting: int) -> list:
    """A param-change proposal and validator votes inside its voting period."""
    if rng.random() < 0.5:
        changes = [
            {"subspace": "distribution", "key": "communitytax",
             "value": f"0.0{rng.randint(0, 9)}"},
            {"subspace": "distribution", "key": "bonusproposerreward",
             "value": f"0.0{rng.randint(0, 9)}"},
        ]
    else:
        changes = [{"subspace": "staking", "key": "UnbondingPeriodBlocks",
                    "value": str(rng.randint(3, 20))}]
    events = [{"at_height": height, "action": "submit-proposal",
               "proposer": voters[0],
               "proposal": {"kind": "param-change", "title": f"bench {pid}",
                            "changes": changes}}]
    for voter in voters:
        events.append({"at_height": height + rng.randint(1, voting // 2),
                       "action": "cast-vote", "voter": voter, "proposal_id": pid,
                       "option": rng.choice(["yes", "yes", "yes", "no", "abstain"])})
    return events


def _names(prefix: str, n: int) -> list:
    width = len(str(n))
    return [f"{prefix}{i:0{width}d}" for i in range(1, n + 1)]


def rebel1_replay(seed: int) -> Inputs:
    """The bundled scenario as is; the seed does not change it."""
    genesis, scenario = build_bundled("rebel1-replay")
    # The sniper's delegation halts 7684492 and commits once val5 upgrades.
    return Inputs(genesis, scenario, outcomes={OK: 1}, halts=[7_684_492],
                  descriptors={"accounts": 1, "validators": 6,
                               "version_mix": "v20 -> v21 upgrades",
                               "blocks": scenario["end_height"] - genesis["genesis_height"],
                               "tx_blocks": 1, "txs": 1})


TX_BLOCKS = 24
TXS_PER_BLOCK = 20


def tx_large_state(seed: int) -> Inputs:
    """10,000 accounts, one version, 20 txs in every block."""
    rng = random.Random(f"tx-large-state:{seed}")
    accounts = _names("acct", 10_000)
    validators = _names("val", 6)
    genesis = _genesis(f"large-{seed}", accounts, validators, ["v21"] * 6, rng,
                       epoch=8, voting=10, unbonding=6)
    traffic = _Traffic(rng, accounts, validators)
    for height in range(1, TX_BLOCKS + 1):
        traffic.block(height, _mix(TXS_PER_BLOCK))
    scenario = {"name": f"tx-large-state-{seed}", "end_height": TX_BLOCKS,
                "events": traffic.events()}
    return Inputs(genesis, scenario, dict(traffic.outcomes), [],
                  {"accounts": len(accounts), "validators": 6, "version_mix": "v21:6",
                   "blocks": TX_BLOCKS, **traffic.descriptors()})


MIXED_BLOCKS = 40


def tx_mixed_versions(seed: int) -> Inputs:
    """100 accounts, validators split between v20 and v21, 20 txs per block."""
    rng = random.Random(f"tx-mixed-versions:{seed}")
    accounts = _names("acct", 100)
    validators = _names("val", 6)
    versions = ["v20", "v21"] * 3
    rng.shuffle(versions)
    voting = 10
    genesis = _genesis(f"mixed-{seed}", accounts, validators, versions, rng,
                       epoch=10, voting=voting, unbonding=6)
    traffic = _Traffic(rng, accounts, validators)
    staking_blocks = set(rng.sample(range(1, MIXED_BLOCKS + 1), k=MIXED_BLOCKS // 4))
    for height in range(1, MIXED_BLOCKS + 1):
        kinds = _mix(TXS_PER_BLOCK)
        if height in staking_blocks:
            kinds[0] = STAKING     # in place of one send
        traffic.block(height, kinds)
    events = traffic.events()
    starts = sorted(rng.sample(range(2, MIXED_BLOCKS - voting), k=3))
    for pid, height in enumerate(starts, start=1):
        events += _proposal(rng, height, pid, validators, voting)
    scenario = {"name": f"tx-mixed-versions-{seed}", "end_height": MIXED_BLOCKS,
                "events": events}
    mix = Counter(versions)
    return Inputs(genesis, scenario, dict(traffic.outcomes), [],
                  {"accounts": len(accounts), "validators": 6,
                   "version_mix": f"v20:{mix['v20']},v21:{mix['v21']}",
                   "blocks": MIXED_BLOCKS, **traffic.descriptors()})


FORK_BLOCKS = 5_000
FORK_TXS = 50
FORK_PROPOSAL_AT = 1_000


def fork_replay(seed: int) -> Inputs:
    """Sparse traffic over a long run with one early rollback-to."""
    rng = random.Random(f"fork-replay:{seed}")
    accounts = _names("acct", 200)
    validators = _names("val", 6)
    voting = 200
    genesis = _genesis(f"fork-{seed}", accounts, validators, ["v21"] * 6, rng,
                       epoch=500, voting=voting, unbonding=100)
    rollback_at = rng.randint(200, 300)
    target = rollback_at - rng.randint(50, 100)
    traffic = _Traffic(rng, accounts, validators)
    # traffic starts after the rollback, so no tx is undone by it
    heights = rng.sample(range(rollback_at + 1, FORK_BLOCKS + 1), k=FORK_TXS)
    for height, kind in zip(sorted(heights), rng.sample(_mix(FORK_TXS), k=FORK_TXS)):
        traffic.block(height, [kind])
    events = [{"at_height": rollback_at, "action": "rollback-to",
               "target_height": target}]
    events += traffic.events()
    # at a fixed height, so every seed carries the proposal in as many snapshots
    events += _proposal(rng, FORK_PROPOSAL_AT, 1, validators, voting)
    scenario = {"name": f"fork-replay-{seed}", "end_height": FORK_BLOCKS,
                "events": events}
    return Inputs(genesis, scenario, dict(traffic.outcomes), [],
                  {"accounts": len(accounts), "validators": 6, "version_mix": "v21:6",
                   "blocks": FORK_BLOCKS, "rollback": f"{rollback_at}->{target}",
                   **traffic.descriptors()})


WORKLOADS = {
    "rebel1-replay": rebel1_replay,
    "tx-large-state": tx_large_state,
    "tx-mixed-versions": tx_mixed_versions,
    "fork-replay": fork_replay,
}
