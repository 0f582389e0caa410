"""Scenario files: a timeline of operator and user actions to replay.

Schema:

    {
      "name": "rebel1-replay",
      "end_height": 7684600,            # required: last block to produce
      "inclusion_delay": 2,             # blocks between sniper fire and inclusion
      "strict_halt": false,             # halt ends the run instead of recovering
      "invariant_interval": 0,          # 0 = auto (event blocks + every 1000)
      "precommit_overrides": {"7684495": "0.8"},
      "events": [ {"at_height": H, "action": ..., ...}, ... ]
    }

`inclusion_delay` and `invariant_interval` are non-negative integers,
`strict_halt` is a JSON boolean, `events` is a list and
`precommit_overrides` maps integer heights to rationals in [2/3, 1].
Every field is checked once, by a reader per action and per msg kind, and
anything else is a ParseError that names the field (raised by `inputs`).

Actions:

    submit-tx           tx: {fee_payer, gas_limit, declared_fee: [coin...],
                             msgs: [msg...]}  (included exactly at at_height)
    upgrade-validator   validator, version          (effective next block)
    submit-proposal     proposal: {kind, title, changes: [...]}
    cast-vote           voter, proposal_id, option
    sniper-arm          target_height, delegator, validator,
                        amount: coin [, gas_limit, declared_fee]
    community-spend     recipient ("burn" to destroy), coins: [coin...]
    rollback-to         target_height  (restore that block's snapshot, drop mempool)

Msg encoding: {"kind": "send", "sender": ..., "recipient": ...,
"coins": [{"denom": ..., "amount": ...}]} and so on per kind; "exec" wraps
{"sender": ..., "msgs": [...]}, and is refused nested past `MAX_EXEC_DEPTH` levels;
a submit-proposal msg's proposal is refused nested past `MAX_PROPOSAL_DEPTH`.
Events at the same height run in declaration order.

Addresses, versions, vote options and denoms are strings; a sniper's
delegator, the fee payer of the tx it fires, is a non-empty one, and gas
limits are integers >= 0. An event's proposal and a user tx's are read by
the same `governance.read_proposal` (kind a string, title a string, changes
a list), and its changes are checked when it is submitted: a bad proposal or
change fails the user tx that carries it, or exits 4 as an event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import attrgetter

from .ante import Msg, MsgKind, Tx
from .coins import coins_from_config
from .errors import ParseError
from .governance import read_proposal
from .inputs import coin, flag, fraction, integer, load, read, section, string


@dataclass
class ScenarioEvent:
    at_height: int
    action: str
    payload: dict


@dataclass
class Scenario:
    end_height: int
    name: str = "unnamed"
    events: list = field(default_factory=list)
    inclusion_delay: int = 2
    strict_halt: bool = False
    invariant_interval: int = 0
    precommit_overrides: dict = field(default_factory=dict)


# The hot readers check their fields with `type(...) is` and call `read` or
# `integer` only when a check fails, to raise the error that names the field;
# the others read through `inputs` directly.

def _send(raw: dict) -> dict:
    sender, recipient = raw.get("sender"), raw.get("recipient")
    if type(sender) is not str or type(recipient) is not str:
        sender, recipient = read(raw, "sender", str), read(raw, "recipient", str)
    return {"sender": sender, "recipient": recipient, "coins": coins_from_config(raw["coins"])}


# How deep exec may nest. The deepest engine walk (`Msg.canonical`, when a
# halted block's mempool is hashed) takes six frames a level, so a tx at this
# depth runs from a stack 200 frames deeper than the command line's.
MAX_EXEC_DEPTH = 100


def _exec(raw: dict, depth: int = 1) -> dict:
    """An exec msg `depth` levels deep. Its inner execs are read here, not
    through `parse_msg`, so that only exec msgs pay for counting the depth."""
    if depth > MAX_EXEC_DEPTH:
        raise ParseError("bad tx: msgs nested too deep")
    return {"sender": read(raw, "sender", str), "msgs": [
        Msg(MsgKind.EXEC, _exec(m, depth + 1))
        if type(m) is dict and m.get("kind") == "exec" else parse_msg(m)
        for m in raw["msgs"]]}


# How deep a submit-proposal msg's raw proposal may nest, the proposal mapping
# counting as one level. `Msg.canonical` takes two frames a level, so a proposal
# at this depth, at the bottom of `MAX_EXEC_DEPTH` execs, still runs from a
# stack 200 frames deeper than the command line's. Real proposals nest a few
# levels.
MAX_PROPOSAL_DEPTH = 50


def _nests_within(value, limit: int) -> bool:
    """True when no list or mapping in `value` lies more than `limit` levels
    deep, `value` itself being level one. It walks one level at a time and
    stops at the limit, so it needs no stack however deep `value` is."""
    level = [value]
    for _ in range(limit):
        level = [x for v in level if isinstance(v, (list, dict))
                 for x in (v.values() if isinstance(v, dict) else v)]
        if not level:
            return True
    return not any(isinstance(v, (list, dict)) for v in level)


def _proposal(raw: dict) -> dict:
    """`governance.read_proposal` reads the proposal when the msg runs; only its
    nesting is bounded here, so that hashing the msg cannot overflow the stack."""
    proposer, proposal = read(raw, "proposer", str), raw["proposal"]
    if not _nests_within(proposal, MAX_PROPOSAL_DEPTH):
        raise ParseError("bad tx: proposal nested too deep")
    return {"proposer": proposer, "proposal": proposal}


def _stake(name: str):
    return lambda raw: {"delegator": read(raw, "delegator", str),
                        "validator": read(raw, "validator", str),
                        "amount": coin(raw["amount"], name)}


_MSG_READERS = {
    MsgKind.SEND: _send,
    MsgKind.MULTI_SEND: lambda raw: {"sender": read(raw, "sender", str), "outputs": [
        {"recipient": read(o, "recipient", str), "coins": coins_from_config(o["coins"])}
        for o in raw["outputs"]]},
    MsgKind.SWAP_SEND: lambda raw: {
        "sender": read(raw, "sender", str), "recipient": read(raw, "recipient", str),
        "offer": coin(raw["offer"], "swap-send offer"), "ask_denom": read(raw, "ask_denom", str)},
    MsgKind.INSTANTIATE_CONTRACT: lambda raw: {
        "sender": read(raw, "sender", str), "funds": coins_from_config(raw.get("funds", [])),
        "label": read(raw, "label", str, "")},
    MsgKind.EXECUTE_CONTRACT: lambda raw: {
        "sender": read(raw, "sender", str), "contract": read(raw, "contract", str),
        "funds": coins_from_config(raw.get("funds", []))},
    MsgKind.EXEC: _exec,
    MsgKind.DELEGATE: _stake("delegate"),
    MsgKind.UNDELEGATE: _stake("undelegate"),
    MsgKind.CREATE_VALIDATOR: lambda raw: {
        "operator": read(raw, "operator", str), "version": read(raw, "version", str, "v21")},
    MsgKind.VOTE: lambda raw: {
        "voter": read(raw, "voter", str),
        "proposal_id": integer(raw["proposal_id"], "proposal_id"),
        "option": read(raw, "option", str)},
    MsgKind.SUBMIT_PROPOSAL: _proposal,
}
# looked up by the kind's text: hashing an enum member runs Python code
_KINDS = {kind.value: (kind, reader) for kind, reader in _MSG_READERS.items()}


def parse_msg(raw: dict) -> Msg:
    try:
        kind, reader = _KINDS[raw["kind"]]
    except (KeyError, TypeError) as exc:   # no kind, an unknown one, or no mapping
        raise ParseError(f"bad msg kind in {raw!r}") from exc
    try:
        return Msg(kind, reader(raw))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"msg {kind.value} missing field: {exc}") from exc


def _submit_tx(event: dict) -> dict:
    raw = event.get("tx")
    try:
        msgs = list(map(parse_msg, raw["msgs"]))
        fee_payer, gas_limit = raw.get("fee_payer"), raw.get("gas_limit", 0)
        if type(fee_payer) is not str:
            fee_payer = read(raw, "fee_payer", str)
        declared_fee = coins_from_config(raw.get("declared_fee", []))
        if type(gas_limit) is not int or gas_limit < 0:
            gas_limit = integer(gas_limit, "gas_limit", low=0)
        return {"tx": Tx(msgs, fee_payer, declared_fee, gas_limit)}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tx: {exc}") from exc


def _sniper_arm(raw: dict) -> dict:
    delegator = read(raw, "delegator", str)
    if not delegator:   # it pays the fee of the tx the sniper fires
        raise ParseError("sniper-arm delegator must not be empty")
    return {
        "target_height": integer(raw.get("target_height"), "target_height"),
        "delegator": delegator,
        "validator": read(raw, "validator", str),
        "amount": coin(raw.get("amount"), "amount"),
        "gas_limit": integer(raw.get("gas_limit", 0), "gas_limit", low=0),
        "declared_fee": coins_from_config(raw.get("declared_fee", [])),
    }


_EVENT_READERS = {
    "submit-tx": _submit_tx,
    "upgrade-validator": lambda raw: {
        "validator": read(raw, "validator", str), "version": read(raw, "version", str)},
    "submit-proposal": read_proposal,
    "cast-vote": lambda raw: {
        "voter": read(raw, "voter", str),
        "proposal_id": integer(raw.get("proposal_id"), "proposal_id"),
        "option": read(raw, "option", str)},
    "sniper-arm": _sniper_arm,
    "community-spend": lambda raw: {
        "recipient": read(raw, "recipient", str), "coins": coins_from_config(raw.get("coins"))},
    "rollback-to": lambda raw: {
        "target_height": integer(raw.get("target_height"), "target_height")},
}


def parse_event(raw: dict) -> ScenarioEvent:
    action, at_height = ((raw.get("action"), raw.get("at_height")) if type(raw) is dict
                         else (None, None))
    if type(action) is not str or type(at_height) is not int:
        action, at_height = read(raw, "action", str), integer(raw.get("at_height"), "at_height")
    reader = _EVENT_READERS.get(action)
    if reader is None:
        raise ParseError(f"unknown action {action!r}")
    return ScenarioEvent(at_height, action, reader(raw))


# the scenario's optional scalar fields; one left out keeps `Scenario`'s default
_HEADER = {"name": string, "inclusion_delay": partial(integer, low=0), "strict_halt": flag,
           "invariant_interval": partial(integer, low=0)}


def parse_scenario(cfg: dict) -> Scenario:
    end_height = integer(read(cfg, "end_height"), "end_height")
    # a stable sort keeps the declaration order of events at one height
    events = sorted(map(parse_event, read(cfg, "events", list, [])),
                    key=attrgetter("at_height"))
    overrides = {
        integer(h, "precommit_overrides height"):
            fraction(frac, f"precommit_overrides[{h!r}]", Fraction(2, 3), 1)
        for h, frac in read(cfg, "precommit_overrides", dict, {}).items()
    }
    return Scenario(end_height=end_height, events=events, precommit_overrides=overrides,
                    **section(cfg, "", _HEADER))


def load_scenario_file(path: str) -> dict:
    """Read a scenario JSON file; pair with parse_scenario for the object."""
    return load(path, "scenario")
