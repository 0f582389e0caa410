"""The assembled chain state: one self-contained, branchable, hashable value.

Everything block production needs lives here -- balances, staking, treasury,
distribution, governance, the mempool, armed delegation snipers, proposer
rotation credit -- so a canonical serialization of two equal states hashes
identically. Amounts serialize as decimal strings and rationals as "p/q" so
the canonical form is stable and unbounded-precision safe.

A state branches through one `journal.Journal` shared by its bank, staking,
treasury and governance stores, so a tx or a version branch costs time in
the keys it touches, not in the size of the state. Only rollback snapshots
take a full deep copy (`clone`).
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii as _escape

from .ante import AnteConfig, Tx
from .coins import Coin
from .distribution import DistributionState
from .errors import InvariantViolation
from .governance import GovernanceState
from .journal import Journal
from .ledger import BONDED_POOL, NOT_BONDED_POOL, Bank
from .staking import StakingState, total_bonded
from .treasury import TreasuryState


@dataclass
class PendingTx:
    """A tx waiting in the mempool for its inclusion height."""

    tx: Tx
    inclusion_height: int
    seq: int

    def canonical(self) -> dict:
        return {
            "tx": self.tx.canonical(),
            "inclusion_height": self.inclusion_height,
            "seq": self.seq,
        }


@dataclass
class SniperState:
    """An armed delegation bot: fires once the chain reaches its target."""

    target_height: int
    delegator: str
    validator: str
    amount: Coin
    gas_limit: int = 0
    declared_fee: dict = field(default_factory=dict)
    fired: bool = False

    def canonical(self) -> dict:
        return {
            "target_height": self.target_height,
            "delegator": self.delegator,
            "validator": self.validator,
            "amount": {"denom": self.amount.denom, "amount": str(self.amount.amount)},
            "gas_limit": self.gas_limit,
            "declared_fee": {d: str(a) for d, a in sorted(self.declared_fee.items())},
            "fired": self.fired,
        }


@dataclass
class ChainState:
    bank: Bank
    staking: StakingState
    treasury: TreasuryState
    distribution: DistributionState
    governance: GovernanceState
    ante: AnteConfig
    chain_id: str = "sim-1"
    genesis_height: int = 0
    genesis_time: int = 0
    height: int = 0
    halted: bool = False
    transfer_params: dict = field(default_factory=lambda: {"SendEnabled": False,
                                                           "ReceiveEnabled": False})
    proposer_priority: dict = field(default_factory=dict)
    mempool: list = field(default_factory=list)
    snipers: list = field(default_factory=list)
    # [(effective_height, proposal_id, ParamChange), ...]
    pending_block_changes: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    next_seq: int = 0
    contract_counter: int = 0
    journal: Journal = field(default_factory=Journal, repr=False, compare=False)

    def __post_init__(self):
        for store in (self.bank, self.staking, self.treasury, self.governance):
            store.journal = self.journal

    def clone(self) -> "ChainState":
        """A full deep copy; only rollback snapshots need one."""
        return copy.deepcopy(self)

    def canonical(self) -> dict:
        """What `state_hash` commits to, but for the bank's account table,
        which is left empty for `state_hash` to write from the columns."""
        return {
            "chain_id": self.chain_id,
            "genesis_height": self.genesis_height,
            "genesis_time": self.genesis_time,
            "height": self.height,
            "halted": self.halted,
            "bank": self.bank.canonical(),
            "staking": self.staking.canonical(),
            "treasury": self.treasury.canonical(),
            "distribution": self.distribution.canonical(),
            "governance": self.governance.canonical(),
            "ante": self.ante.canonical(),
            "transfer": {k: self.transfer_params[k] for k in sorted(self.transfer_params)},
            "proposer_priority": {
                a: str(p) for a, p in sorted(self.proposer_priority.items())
            },
            "mempool": [p.canonical() for p in self.mempool],
            "snipers": [s.canonical() for s in self.snipers],
            "pending_block_changes": [
                {"effective_height": h, "proposal": pid, "change": c.canonical()}
                for h, pid, c in self.pending_block_changes
            ],
            "warnings": list(self.warnings),
            "next_seq": self.next_seq,
            "contract_counter": self.contract_counter,
        }


# account entries fed to the hasher per update
_ACCOUNT_CHUNK = 256

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def state_hash(state: ChainState) -> str:
    """sha256 of `_dumps(state.canonical())` with the account table filled in.

    The text is split at its first `"accounts":{}`, which is the bank's:
    `ante` is the only top-level key sorted before `bank`, and no JSON string
    holds an unescaped quote. In between, the table's entries are written
    straight from the balance columns as `_dumps` writes them (keys in `str`
    order, text escaped to ASCII, a genesis zero kept) and fed to the hasher
    `_ACCOUNT_CHUNK` at a time, so that a hash holds neither a second copy of
    every balance nor the whole text.
    """
    head, tail = _dumps(state.canonical()).split('"accounts":{}', 1)
    digest = hashlib.sha256((head + '"accounts":{').encode())
    cols = sorted((d, col) for d, col in state.bank.accounts.items() if col)
    if len(cols) == 1:   # one held denom: nothing to regroup
        (d, col), = cols
        mid = ":{" + _escape(d) + ':"'
        entries = (f'{_escape(a)}{mid}{col[a]}"}}' for a in sorted(col))
    else:   # regroup by owner over one sorted list of every column's keys, repeats skipped
        cols = [(_escape(d) + ':"', col) for d, col in cols]
        entries = (_escape(a) + ":{" + ",".join([f'{d}{col[a]}"' for d, col in cols if a in col])
                   + "}" for a, _ in groupby(sorted(chain.from_iterable(c for _, c in cols))))
    sep = ""
    while chunk := ",".join(islice(entries, _ACCOUNT_CHUNK)):
        digest.update((sep + chunk).encode())
        sep = ","
    digest.update(("}" + tail).encode())
    return digest.hexdigest()


def verify_invariants(state: ChainState) -> None:
    """Check the conservation identities; raises InvariantViolation."""
    state.bank.verify_supply_identity()

    shares_by_validator: dict = {}
    for per_val in state.staking.delegations.values():
        for val, shares in per_val.items():
            shares_by_validator[val] = shares_by_validator.get(val, 0) + shares
    for addr, v in state.staking.validators.items():
        total_shares = shares_by_validator.get(addr, 0)
        if total_shares != v.tokens:
            raise InvariantViolation(
                f"share identity broken for {addr}: shares {total_shares} != tokens {v.tokens}"
            )

    bond_denom = state.staking.params.bond_denom
    bonded = total_bonded(state.staking)
    pool = state.bank.module_balance(BONDED_POOL, bond_denom)
    if bonded != pool:
        raise InvariantViolation(
            f"stake conservation broken: validators hold {bonded}, bonded pool {pool}"
        )
    unbonding = sum(e.amount for e in state.staking.unbonding)
    not_bonded = state.bank.module_balance(NOT_BONDED_POOL, bond_denom)
    if unbonding != not_bonded:
        raise InvariantViolation(
            f"unbonding conservation broken: entries {unbonding}, pool {not_bonded}"
        )
