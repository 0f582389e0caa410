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
Every field is read through `inputs`, and anything else is a ParseError
that names the field.

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
{"sender": ..., "msgs": [...]}. Events at the same height run in declaration
order.

Addresses, versions, vote options and denoms are strings; a sniper's
delegator, the fee payer of the tx it fires, is a non-empty one, and gas
limits are integers >= 0. A proposal's changes are checked when it is
submitted: a bad change fails the user tx that carries it, or exits 4 as an
event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ante import Msg, MsgKind, Tx
from .coins import coins_from_config
from .errors import ParseError
from .inputs import coin, fraction, integer, load, read


@dataclass
class ScenarioEvent:
    at_height: int
    action: str
    payload: dict


@dataclass
class Scenario:
    name: str
    end_height: int
    events: list = field(default_factory=list)
    inclusion_delay: int = 2
    strict_halt: bool = False
    invariant_interval: int = 0
    precommit_overrides: dict = field(default_factory=dict)


_KINDS = {kind.value: kind for kind in MsgKind}


def parse_msg(raw: dict) -> Msg:
    try:
        kind = _KINDS[raw["kind"]]
    except (KeyError, TypeError) as exc:   # no kind, an unknown one, or no mapping
        raise ParseError(f"bad msg kind in {raw!r}") from exc
    try:
        if kind == MsgKind.SEND:
            payload = {
                "sender": read(raw, "sender", str),
                "recipient": read(raw, "recipient", str),
                "coins": coins_from_config(raw["coins"]),
            }
        elif kind == MsgKind.MULTI_SEND:
            payload = {
                "sender": read(raw, "sender", str),
                "outputs": [
                    {"recipient": read(o, "recipient", str),
                     "coins": coins_from_config(o["coins"])}
                    for o in raw["outputs"]
                ],
            }
        elif kind == MsgKind.SWAP_SEND:
            payload = {
                "sender": read(raw, "sender", str),
                "recipient": read(raw, "recipient", str),
                "offer": coin(raw["offer"], "swap-send offer"),
                "ask_denom": read(raw, "ask_denom", str),
            }
        elif kind == MsgKind.INSTANTIATE_CONTRACT:
            payload = {
                "sender": read(raw, "sender", str),
                "funds": coins_from_config(raw.get("funds", [])),
                "label": read(raw, "label", str, ""),
            }
        elif kind == MsgKind.EXECUTE_CONTRACT:
            payload = {
                "sender": read(raw, "sender", str),
                "contract": read(raw, "contract", str),
                "funds": coins_from_config(raw.get("funds", [])),
            }
        elif kind == MsgKind.EXEC:
            payload = {
                "sender": read(raw, "sender", str),
                "msgs": [parse_msg(m) for m in raw["msgs"]],
            }
        elif kind == MsgKind.DELEGATE or kind == MsgKind.UNDELEGATE:
            payload = {
                "delegator": read(raw, "delegator", str),
                "validator": read(raw, "validator", str),
                "amount": coin(raw["amount"], kind.value),
            }
        elif kind == MsgKind.CREATE_VALIDATOR:
            payload = {
                "operator": read(raw, "operator", str),
                "version": read(raw, "version", str, "v21"),
            }
        elif kind == MsgKind.VOTE:
            payload = {
                "voter": read(raw, "voter", str),
                "proposal_id": integer(raw["proposal_id"], "proposal_id"),
                "option": read(raw, "option", str),
            }
        else:  # MsgKind.SUBMIT_PROPOSAL: governance checks the proposal when it runs
            payload = {
                "proposer": read(raw, "proposer", str),
                "proposal": raw["proposal"],
            }
    except (KeyError, TypeError) as exc:
        raise ParseError(f"msg {kind.value} missing field: {exc}") from exc
    return Msg(kind=kind, payload=payload)


def parse_tx(raw: dict) -> Tx:
    try:
        msgs = [parse_msg(m) for m in raw["msgs"]]
        return Tx(
            msgs=msgs,
            fee_payer=read(raw, "fee_payer", str),
            declared_fee=coins_from_config(raw.get("declared_fee", [])),
            gas_limit=integer(raw.get("gas_limit", 0), "gas_limit", low=0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tx: {exc}") from exc


def parse_event(raw: dict) -> ScenarioEvent:
    action = read(raw, "action", str)
    at_height = integer(raw.get("at_height"), "at_height")
    payload: dict
    if action == "submit-tx":
        payload = {"tx": parse_tx(raw.get("tx"))}
    elif action == "upgrade-validator":
        payload = {"validator": read(raw, "validator", str),
                   "version": read(raw, "version", str)}
    elif action == "submit-proposal":
        prop = read(raw, "proposal", dict)
        payload = {
            "kind": read(prop, "kind", str, name="proposal.kind"),
            "title": read(prop, "title", str, "", name="proposal.title"),
            "changes": read(prop, "changes", list, [], name="proposal.changes"),
        }
    elif action == "cast-vote":
        payload = {
            "voter": read(raw, "voter", str),
            "proposal_id": integer(raw.get("proposal_id"), "proposal_id"),
            "option": read(raw, "option", str),
        }
    elif action == "sniper-arm":
        delegator = read(raw, "delegator", str)
        if not delegator:   # it pays the fee of the tx the sniper fires
            raise ParseError("sniper-arm delegator must not be empty")
        payload = {
            "target_height": integer(raw.get("target_height"), "target_height"),
            "delegator": delegator,
            "validator": read(raw, "validator", str),
            "amount": coin(raw.get("amount"), "amount"),
            "gas_limit": integer(raw.get("gas_limit", 0), "gas_limit", low=0),
            "declared_fee": coins_from_config(raw.get("declared_fee", [])),
        }
    elif action == "community-spend":
        payload = {
            "recipient": read(raw, "recipient", str),
            "coins": coins_from_config(raw.get("coins")),
        }
    elif action == "rollback-to":
        payload = {"target_height": integer(raw.get("target_height"), "target_height")}
    else:
        raise ParseError(f"unknown action {action!r}")
    return ScenarioEvent(at_height=at_height, action=action, payload=payload)


def parse_scenario(cfg: dict) -> Scenario:
    end_height = integer(read(cfg, "end_height"), "end_height")
    # a stable sort keeps the declaration order of events at one height
    events = sorted(map(parse_event, read(cfg, "events", list, [])),
                    key=lambda e: e.at_height)
    overrides = {
        integer(h, "precommit_overrides height"):
            fraction(frac, f"precommit_overrides[{h!r}]", Fraction(2, 3), 1)
        for h, frac in read(cfg, "precommit_overrides", dict, {}).items()
    }
    return Scenario(
        name=read(cfg, "name", str, "unnamed"),
        end_height=end_height,
        events=events,
        inclusion_delay=integer(cfg.get("inclusion_delay", 2), "inclusion_delay", low=0),
        strict_halt=read(cfg, "strict_halt", bool, False),
        invariant_interval=integer(cfg.get("invariant_interval", 0), "invariant_interval",
                                   low=0),
        precommit_overrides=overrides,
    )


def load_scenario_file(path: str) -> dict:
    """Read a scenario JSON file; pair with parse_scenario for the object."""
    return load(path, "scenario")
