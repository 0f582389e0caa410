"""Deterministic block production with version-divergence halts.

Blocks are produced one height at a time. When the active validator set runs
more than one software version and a block carries a version-sensitive
transaction, the block is decided once per set of staking rules among the
versions, each in a journal branch of the live state that is rolled back; the
versions whose per-tx results match form an agreement class (equal results
make equal writes: a version only decides whether a msg is refused). If one
class holds at least 2/3 of the voting power, the txs are then applied once
to the live state, acting as that class's first version; otherwise the chain
halts at that height with the live state untouched. A halt is recoverable:
pending upgrade events (wall-clock operator actions) are consumed one at a
time and the halted height is re-processed until a class reaches 2/3 or
nothing is left to upgrade; the halt is reported once.

The two version behaviors differ only in staking-message gating: the patch
version rejects delegate/create-validator above the upgrade height forever,
while the successor re-enables them at their revert heights and enforces the
delegation power cap inside the protect window (`staking.version_rules`).
Everything else -- fee admission, tax burning, transfers, governance -- is
version-independent, so a block is applied with no decision, whatever the
version mix, when it has no delegate or create-validator msg at any exec
depth or when every version runs the same rules at its height.

Passed proposals act through `governance`, so `Chain` names no parameter: a
block first runs `governance.activate_block_changes`, and a tally that
passes runs `governance.schedule_changes`.

Scenario events at a height run before that block's transactions, in
declaration order; `submit-tx` events are included at exactly their height,
while snipers submit through the mempool and land after the configured
inclusion delay. Validator upgrades scheduled at a height take effect from
the next block.

A block runs its phases in one fixed order, listed once in
`Chain._phases` with their due heights: parameter activation, events,
snipers, txs, fees, unbonding maturities, tallies, epoch turnover, upgrades
and the rollback snapshot. A phase's due height is the first height at which
it has work, and a block runs the phases due at its height; after the txs
every block rotates proposer priority, which wakes no block. Most blocks of
a long replay are idle, with no phase due, so all they do is rotate the
proposer and, on the invariant cadence, check the invariants. `Chain.run()`
is one loop: after each block it takes the lowest due height and produces
the idle blocks before it in one pass: one proposer rotation, one report
run, and `verify_invariants` at exactly the heights a block-by-block replay
would check. With fixed powers the proposer priorities are periodic, so the
rotation skips every whole cycle it finds and costs time in the number of
distinct priority states, not in blocks. The results are the same as
producing the blocks one at a time, which `Chain.step()` still does: it
produces exactly one block.

Report rows are kept as height runs: `Chain.rows` (and `RunResult.rows`) is
a list of `(first, last, *values)` tuples, each standing for one blocks.csv
row `(height, *values)` per height from `first` through `last`. The values
are the supplies, cumulative burns and community-pool balances per denom,
then the halt flag. A block's row joins the previous run when it is the next
height with equal values, so `run()` and a `step()` loop build the same
list; a halt row, a recommit at the same height or a rollback to a lower
height starts a new run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from . import ante as ante_mod
from . import distribution as dist_mod
from . import governance as gov_mod
from . import staking as staking_mod
from . import treasury as treasury_mod
from .ante import (CREATE_VALIDATOR, DELEGATE, EXEC, EXECUTE_CONTRACT, INSTANTIATE_CONTRACT,
                   MULTI_SEND, SEND, SUBMIT_PROPOSAL, SWAP_SEND, UNDELEGATE, VOTE, Msg, Tx)
from .errors import (
    ChainHalted,
    MalformedProposal,
    ParseError,
    SimError,
    UnknownValidator,
)
from .governance import PASSED, VOTING
from .ledger import COMMUNITY_POOL, FEE_COLLECTOR
from .scenario import Scenario
from .state import ChainState, PendingTx, SniperState, state_hash, verify_invariants

log = logging.getLogger("luncsim.simulator")

TWO_THIRDS = Fraction(2, 3)
# with invariant_interval 0, idle blocks check the invariants this often
AUTO_INVARIANT_INTERVAL = 1000

COMMITTED = "committed"
HALTED = "halted"


@dataclass
class ConsensusOutcome:
    status: str
    height: int
    proposer: str | None = None


@dataclass
class RunResult:
    final_state: ChainState
    scenario_name: str
    end_height: int
    blocks_committed: int
    halt_heights: list
    terminal_halted: bool
    denoms: list
    rows: list  # (first, last, *values) report runs, see the module docstring
    tally_outcomes: dict
    warnings: list
    epoch_events: list
    tx_log: dict = field(default_factory=dict)

    @property
    def final_hash(self) -> str:
        return state_hash(self.final_state)


def execute_msg(state: ChainState, msg: Msg, height: int, version: str) -> None:
    """Apply one message's effects. Raises a SimError subclass to fail."""
    bank = state.bank
    kind, p = msg.kind, msg.payload
    if kind is SEND:
        bank.transfer(p["sender"], p["recipient"], p["coins"])
    elif kind is MULTI_SEND:
        for out in p["outputs"]:
            bank.transfer(p["sender"], out["recipient"], out["coins"])
    elif kind is SWAP_SEND:
        # the swap market is out of scope: the offered coins move as-is
        bank.transfer(p["sender"], p["recipient"], p["offer"].as_coins())
    elif kind is INSTANTIATE_CONTRACT:
        address = f"contract-{state.contract_counter}"
        state.journal.save(vars(state), "contract_counter")
        state.contract_counter += 1
        bank.transfer(p["sender"], address, p["funds"])
    elif kind is EXECUTE_CONTRACT:
        bank.transfer(p["sender"], p["contract"], p["funds"])
    elif kind is EXEC:
        for inner in p["msgs"]:
            execute_msg(state, inner, height, version)
    elif kind is DELEGATE:
        staking_mod.delegate(bank, state.staking, p["delegator"], p["validator"],
                             p["amount"], height, acting_version=version)
    elif kind is UNDELEGATE:
        staking_mod.undelegate(bank, state.staking, p["delegator"], p["validator"],
                               p["amount"], height)
    elif kind is CREATE_VALIDATOR:
        staking_mod.create_validator(state.staking, p["operator"], height,
                                     software_version=p["version"],
                                     acting_version=version)
    elif kind is VOTE:
        gov_mod.cast_vote(state.governance, p["voter"], p["proposal_id"], p["option"])
    elif kind is SUBMIT_PROPOSAL:
        try:
            prop = gov_mod.read_proposal(p)
        except ParseError as exc:   # a bad proposal fails the tx, as a bad change does
            raise MalformedProposal(str(exc)) from exc
        gov_mod.submit_proposal(state.governance, height=height, **prop)
    else:  # pragma: no cover - MsgKind is closed
        raise SimError(f"unhandled msg kind {msg.kind}")


def apply_txs(state: ChainState, pending: list, height: int, version: str) -> list:
    """Run txs against `state` in place; returns one (status, error) per tx.

    Each tx is atomic. The ante pipeline runs first, outside the tx's journal
    branch: it raises only before its first write, so a rejected tx leaves
    nothing to undo. The msgs then run in the tx's branch, which a msg
    failure rolls back to its one mark, so the fees stay collected. Inside an
    enclosing branch (one version's evaluation of a block) that branch
    records the ante writes, and each tx commits into it.
    """
    journal = state.journal
    results = []
    for ptx in pending:
        try:
            ante_mod.run_ante_pipeline(state.bank, state.treasury, state.ante,
                                       ptx.tx, height)
        except SimError as exc:
            results.append(("rejected", type(exc).__name__))
            continue
        restore = journal.begin()
        try:
            for msg in ptx.tx.msgs:
                execute_msg(state, msg, height, version)
            results.append(("ok", ""))
        except SimError as exc:
            journal.rollback(restore)
            results.append(("failed", type(exc).__name__))
        finally:
            journal.commit()
    return results


_VERSION_GATED = (DELEGATE, CREATE_VALIDATOR)


def _version_sensitive(msgs: list) -> bool:
    """True when some msg, at any exec depth, is gated by software version."""
    return any(m.kind in _VERSION_GATED
               or (m.kind is EXEC and _version_sensitive(m.payload["msgs"]))
               for m in msgs)


_ROLLED_BACK = "rolled-back"


class Chain:
    """Owns a ChainState and replays a scenario against it."""

    def __init__(self, state: ChainState, scenario: Scenario):
        self.state = state
        self.scenario = scenario
        # the chain's own copy: halt recovery deletes the events it pulls forward
        self.events = list(scenario.events)
        self._cursor = 0
        self._pending_upgrades: list = []
        # idle blocks check the invariants at the multiples of this
        self._invariant_every = scenario.invariant_interval or AUTO_INVARIANT_INTERVAL
        self.halt_heights: list = []
        self.tally_outcomes: dict = {}
        self.epoch_events: list = []
        self.tx_log: dict = {}
        self.rows: list = []
        self.denoms = sorted(state.bank.supply.totals)
        # Only a rollback target is ever restored, so only those heights,
        # the start included, keep a snapshot.
        self._snap_heights = {e.payload["target_height"] for e in self.events
                              if e.action == "rollback-to"}
        self._snapshots: dict = {}
        if state.height in self._snap_heights:
            self._snapshots[state.height] = state.clone()

    # -- event plumbing ----------------------------------------------------

    def _run_event(self, ev, height: int) -> str | None:
        """`_apply_event`, with an event the chain refuses raised as bad input."""
        try:
            return self._apply_event(ev, height)
        except SimError as exc:
            raise ParseError(f"{ev.action} event at height {height}: "
                             f"{type(exc).__name__}: {exc}") from exc

    def _apply_event(self, ev, height: int) -> str | None:
        state = self.state
        p = ev.payload
        if ev.action == "submit-tx":
            state.mempool.append(PendingTx(tx=p["tx"], inclusion_height=ev.at_height,
                                           seq=state.next_seq))
            state.next_seq += 1
        elif ev.action == "upgrade-validator":
            if p["validator"] not in state.staking.validators:
                raise UnknownValidator(p["validator"])
            self._pending_upgrades.append((p["validator"], p["version"]))
        elif ev.action == "submit-proposal":
            prop = gov_mod.submit_proposal(state.governance, height=height, **p)
            log.info("height %d: proposal %d submitted (%s)", height,
                     prop.proposal_id, p["kind"])
        elif ev.action == "cast-vote":
            gov_mod.cast_vote(state.governance, p["voter"], p["proposal_id"], p["option"])
        elif ev.action == "sniper-arm":
            state.snipers.append(SniperState(**p))
        elif ev.action == "community-spend":
            dist_mod.community_pool_spend(state.bank, p["recipient"], p["coins"])
        elif ev.action == "rollback-to":
            target = p["target_height"]
            snap = self._snapshots.get(target)
            if snap is None:
                raise ParseError(f"rollback-to {target}: no snapshot stored")
            restored = snap.clone()
            # A fork abandons the old mempool and any not-yet-fired snipers.
            # Queued upgrades are kept: an upgrade is an operator's off-chain
            # action, as in halt recovery, so it lands at the end of the new
            # fork's first block.
            restored.mempool = []
            for sniper in restored.snipers:
                sniper.fired = True
            self.state = restored
            log.info("rolled back to height %d", target)
            return _ROLLED_BACK
        return None

    def _fire_snipers(self, height: int) -> None:
        state = self.state
        for sniper in state.snipers:
            if sniper.fired or height < sniper.target_height:
                continue
            sniper.fired = True
            tx = Tx(
                msgs=[Msg(DELEGATE, {
                    "delegator": sniper.delegator,
                    "validator": sniper.validator,
                    "amount": sniper.amount,
                })],
                fee_payer=sniper.delegator,
                declared_fee=dict(sniper.declared_fee),
                gas_limit=sniper.gas_limit,
            )
            state.mempool.append(PendingTx(
                tx=tx,
                inclusion_height=height + self.scenario.inclusion_delay,
                seq=state.next_seq,
            ))
            state.next_seq += 1
            log.info("sniper fired at height %d, inclusion at %d", height,
                     height + self.scenario.inclusion_delay)

    # -- block production ----------------------------------------------------

    def _select_proposer(self, blocks: int = 1) -> str | None:
        """Rotate proposer priority over `blocks` blocks; returns the last proposer.

        Each block adds every validator's power to its priority and the
        highest priority, ties to the smallest address, proposes and pays
        back the total power. The powers are fixed across the blocks, so
        once the priorities come back to where they started they repeat
        with that period: the whole cycles left are skipped and only the
        remainder is stepped through. The last real step is in the same
        phase as the last block, so its proposer is the last proposer.
        """
        powers = {a: p for a, p in staking_mod.consensus_powers(self.state.staking).items()
                  if p}
        if not powers:
            return None
        pr = self.state.proposer_priority
        for addr in list(pr):
            if addr not in powers:
                del pr[addr]
        # in address order, so the first of equal priorities wins the tie
        addrs = list(powers)
        weights = [powers[a] for a in addrs]
        priority = [pr.get(a, 0) for a in addrs]
        total = sum(weights)
        start = priority
        step = 0
        while step < blocks:
            priority = list(map(add, priority, weights))
            i = priority.index(max(priority))
            priority[i] -= total
            step += 1
            if priority == start:
                step = blocks - (blocks - step) % step
        pr.update(zip(addrs, priority))
        return addrs[i]

    def _version_groups(self):
        """Consensus power summed per software version."""
        st = self.state.staking
        powers: dict = {}
        for addr, power in staking_mod.consensus_powers(st).items():
            version = st.validators[addr].software_version
            powers[version] = powers.get(version, 0) + power
        return powers

    def _phases(self):
        """Yield each block phase with its due height, in block order: the
        lowest height above the last block at which it has work (one at or
        below it means the next block), or None. Read lazily, a due height
        sees the writes of the phases before it in the block: a `submit-tx`
        event fills the mempool at its own height, txs fill the fee
        collector, events queue upgrades."""
        state = self.state
        last = state.height
        events, changes = self.events, state.pending_block_changes
        yield "activate", min(e[0] for e in changes) if changes else None
        yield "events", events[self._cursor].at_height if self._cursor < len(events) else None
        yield "snipers", min((s.target_height for s in state.snipers if not s.fired), default=None)
        yield "txs", min((p.inclusion_height for p in state.mempool), default=None)
        yield "fees", last + 1 if any(state.bank.module_balances(FEE_COLLECTOR).values()) else None
        unbonding = state.staking.unbonding
        yield "unbondings", unbonding[0].completion_height if unbonding else None
        yield "tallies", min((p.voting_end_height for p in state.governance.proposals.values()
                              if p.status == VOTING), default=None)
        epoch = state.treasury.epoch_length_blocks
        yield "epoch", (last // epoch + 1) * epoch
        yield "upgrades", last + 1 if self._pending_upgrades else None
        yield "snapshot", min((h for h in self._snap_heights if h > last), default=None)

    def _produce_block(self, height: int) -> ConsensusOutcome | str:
        """Run the phases due at `height`, in the order of `_phases`.

        A `rollback-to` event ends the block early, and so does a halt, which
        leaves the live state as the block found it. Past the txs the block
        commits and rotates the proposer, which wakes no block.
        """
        if self.state.halted:
            raise ChainHalted(f"chain is halted at height {self.state.height}")
        state = self.state
        activity = False
        compatible = Fraction(1)
        for phase, due in self._phases():
            if phase == "txs":   # grouped in every block that reaches the txs
                version_power = self._version_groups()
            elif phase == "fees":
                state.height = height
                proposer = self._select_proposer()
            if due is None or due > height:
                continue
            if phase == "activate":
                gov_mod.activate_block_changes(state, height)
            elif phase == "events":
                # one event at a time: after a `rollback-to` the events behind it
                # stay pending and run when the new fork reaches their height
                activity = True
                events = self.events
                while self._cursor < len(events) and events[self._cursor].at_height <= height:
                    ev = events[self._cursor]
                    self._cursor += 1
                    if self._run_event(ev, height) == _ROLLED_BACK:
                        return _ROLLED_BACK
            elif phase == "snipers":
                self._fire_snipers(height)
            elif phase == "txs":
                activity = True
                pending = [p for p in state.mempool if p.inclusion_height <= height]
                groups: dict = {}   # staking rules -> the powered versions running them
                for v in sorted(v for v, p in version_power.items() if p):
                    rules = staking_mod.version_rules(state.staking.gates, height, v)
                    groups.setdefault(rules, []).append(v)
                groups = list(groups.values())
                ver = groups[0][0] if groups else staking_mod.V21
                if len(groups) > 1 and any(_version_sensitive(p.tx.msgs) for p in pending):
                    ver, compatible = self._decide(pending, height, groups, version_power)
                    if compatible < TWO_THIRDS:
                        state.halted = True
                        log.warning("halt at height %d: best agreement class holds %s of power",
                                    height, compatible)
                        return ConsensusOutcome(status=HALTED, height=height)
                self.tx_log[height] = apply_txs(state, pending, height, ver)
                state.mempool = [p for p in state.mempool if p.inclusion_height > height]
            elif phase == "fees" and proposer is not None:
                activity = True
                # genesis may seed a zero entry in the collector
                fees = {d: a for d, a in state.bank.module_balances(FEE_COLLECTOR).items() if a}
                precommit = self.scenario.precommit_overrides.get(height, compatible)
                dist_mod.allocate_block_fees(state.bank, state.distribution, state.staking,
                                             fees, proposer, precommit)
            elif phase == "unbondings":
                activity = True
                staking_mod.mature_unbondings(state.bank, state.staking, height)
            elif phase == "tallies":
                activity = True
                gov = state.governance
                for pid, prop in sorted(gov.proposals.items()):
                    if prop.status == VOTING and prop.voting_end_height <= height:
                        status = gov_mod.tally(gov, state.staking, pid, height)
                        self.tally_outcomes[pid] = status
                        log.info("height %d: proposal %d %s", height, pid, status)
                        if status == PASSED:
                            gov_mod.schedule_changes(state, prop, height)
            elif phase == "epoch":
                activity = True
                summary = treasury_mod.epoch_transition(
                    state.bank, state.treasury, state.distribution, state.staking, height)
                summary["height"] = height
                self.epoch_events.append(summary)
                for pid, _key in summary["policies_applied"]:
                    gov_mod.mark_activated(state, pid)
            elif phase == "upgrades":
                for validator, version in self._pending_upgrades:
                    state.staking.validators[validator].software_version = version
                self._pending_upgrades = []
            elif phase == "snapshot":
                self._snapshots[height] = state.clone()
        self._check_invariants(height, activity)
        self._add_rows(height, height)
        return ConsensusOutcome(status=COMMITTED, height=height, proposer=proposer)

    def _decide(self, pending: list, height: int, groups: list, version_power: dict):
        """Decide the block's txs once per rule group; returns (version, compatible).

        Each group of versions runs the txs in a journal branch of the live
        state, acting as its first version, joins the class of its per-tx
        results, and is rolled back, so the live state is left as it was. The
        class with the most power wins; `version` is its first version and
        `compatible` its share of the power.
        """
        journal = self.state.journal
        classes: dict = {}  # results -> versions
        for group in groups:
            base = journal.begin()
            results = tuple(apply_txs(self.state, pending, height, group[0]))
            classes.setdefault(results, []).extend(group)
            journal.rollback(base)
            journal.commit()
        best = max(classes, key=lambda r: (sum(version_power[v] for v in classes[r]), r))
        winners = classes[best]
        return winners[0], Fraction(sum(version_power[v] for v in winners),
                                    sum(version_power.values()))

    def _check_invariants(self, height: int, activity: bool) -> None:
        # with the automatic cadence, every block with activity is checked too
        if height % self._invariant_every == 0 or \
                (activity and not self.scenario.invariant_interval):
            verify_invariants(self.state)

    def _report_row(self) -> tuple:
        """The report values of the current state: a blocks.csv row without its height."""
        bank = self.state.bank
        supply = bank.supply
        row = [supply.totals.get(d, 0) for d in self.denoms]
        row.extend(supply.cumulative_burned.get(d, 0) for d in self.denoms)
        row.extend(bank.module_balance(COMMUNITY_POOL, d) for d in self.denoms)
        row.append(1 if self.state.halted else 0)
        return tuple(row)

    def _add_rows(self, first: int, last: int) -> None:
        """Report heights first..last with the current state's values.

        They extend the last run when it ends just below `first` with the
        same values, so however the blocks were produced, no two neighbouring
        runs could be merged. A halt row never joins a run: its halt flag is
        set, and the row before it is a committed block's, whose flag is not.
        """
        values = self._report_row()
        rows = self.rows
        if rows and rows[-1][1] == first - 1 and rows[-1][2:] == values:
            rows[-1] = (rows[-1][0], last) + values
        else:
            rows.append((first, last) + values)

    def _apply_one_recovery_upgrade(self) -> bool:
        """During a halt, apply the next upgrade (a wall-clock operator action).

        A queued upgrade goes first, else the next upgrade event is pulled forward.
        """
        if not self._pending_upgrades:
            events = self.events
            idx = next((i for i in range(self._cursor, len(events))
                        if events[i].action == "upgrade-validator"), None)
            if idx is None:
                return False
            ev = events.pop(idx)
            self._run_event(ev, ev.at_height)
        validator, version = self._pending_upgrades.pop(0)
        self.state.staking.validators[validator].software_version = version
        log.info("halt recovery: %s upgraded to %s", validator, version)
        return True

    def _next_busy_height(self, end: int) -> int:
        """The first height above the current one at which a phase is due, or
        `end`. Every block before it only rotates the proposer and, on the
        invariant cadence, checks the invariants."""
        due = [d for _, d in self._phases() if d is not None]
        return max(self.state.height + 1, min(due + [end]))

    def _produce_idle_blocks(self, last: int) -> None:
        """Commit the idle blocks from the next height through `last` in one pass.

        Proposer priority rotates once per block and the invariants are
        checked at the heights `_check_invariants` picks for a block without
        activity, on the state that block would leave. An idle block changes
        no reported value, so all of them are one report run, which usually
        extends the run of the block before.
        """
        state = self.state
        first = state.height + 1
        every = self._invariant_every
        for height in range(-(-first // every) * every, last + 1, every):
            self._select_proposer(height - state.height)
            state.height = height
            verify_invariants(state)
        if last > state.height:
            self._select_proposer(last - state.height)
            state.height = last
        self._add_rows(first, last)

    def step(self) -> ConsensusOutcome | str:
        """Produce the next block; halts are returned, not recovered."""
        return self._produce_block(self.state.height + 1)

    def run(self) -> RunResult:
        """Replay to `end_height`, producing each run of idle blocks in one pass."""
        end = self.scenario.end_height
        if end < self.state.height:
            raise ParseError(f"end_height {end} is before the current height "
                             f"{self.state.height}")
        blocks = 0
        halted = False   # the last block produced here halted
        while self.state.height < end:
            if halted:   # recover: one upgrade, then the same height again
                if not self._apply_one_recovery_upgrade():
                    break   # none left: the chain stays halted
                self.state.halted = False
            elif not self.state.halted:   # a chain handed in halted raises below
                last_idle = self._next_busy_height(end) - 1
                if last_idle > self.state.height:
                    blocks += last_idle - self.state.height
                    self._produce_idle_blocks(last_idle)
            height = self.state.height + 1
            outcome = self._produce_block(height)
            if outcome == _ROLLED_BACK:
                halted = False
            elif outcome.status == COMMITTED:
                halted = False
                blocks += 1
            elif not halted:   # a halt episode at `height`, recorded once
                halted = True
                self.halt_heights.append(height)
                self._add_rows(height, height)
                if self.scenario.strict_halt:
                    break
        verify_invariants(self.state)
        return RunResult(
            final_state=self.state,
            scenario_name=self.scenario.name,
            end_height=end,
            blocks_committed=blocks,
            halt_heights=list(self.halt_heights),
            terminal_halted=halted,
            denoms=list(self.denoms),
            rows=self.rows,
            tally_outcomes=dict(self.tally_outcomes),
            warnings=list(self.state.warnings),
            epoch_events=list(self.epoch_events),
            tx_log=dict(self.tx_log),
        )


def run_scenario(state: ChainState, scenario: Scenario) -> RunResult:
    """Replay a scenario from `state`, which the replay advances in place:
    `result.final_state is state` unless a `rollback-to` replaced it."""
    return Chain(state, scenario).run()
