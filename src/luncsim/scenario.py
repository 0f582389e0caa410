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

`inclusion_delay` and `invariant_interval` are non-negative integers and
`strict_halt` is a JSON boolean; anything else is a ParseError, as is an
`events` that is not a list or a `precommit_overrides` that is not a
mapping of integer heights.

Actions:

    submit-tx           tx: {fee_payer, gas_limit, declared_fee: [coin...],
                             msgs: [msg...]}  (included exactly at at_height)
    upgrade-validator   validator, version          (effective next block)
    submit-proposal     proposer, proposal: {kind, title, changes: [...]}
    cast-vote           voter, proposal_id, option
    sniper-arm          target_height, delegator, validator,
                        amount: coin [, gas_limit, declared_fee]
    community-spend     recipient ("burn" to destroy), coins: [coin...]
    rollback-to         target_height  (restore that block's snapshot, drop mempool)

Msg encoding: {"kind": "send", "sender": ..., "recipient": ...,
"coins": [{"denom": ..., "amount": ...}]} and so on per kind; "exec" wraps
{"sender": ..., "msgs": [...]}. Events at the same height run in declaration
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .ante import Msg, MsgKind, Tx
from .coins import Coin, coins_from_config
from .errors import ParseError

ACTIONS = (
    "submit-tx",
    "upgrade-validator",
    "submit-proposal",
    "cast-vote",
    "sniper-arm",
    "community-spend",
    "rollback-to",
)


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


def _coin(raw, label: str) -> Coin:
    try:
        return Coin(raw["denom"], int(raw["amount"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad coin for {label}: {raw!r}") from exc


def _string(raw: dict, key: str, default: str | None = None) -> str:
    """raw[key], an address or a version; anything but a string would abort the run."""
    value = raw[key] if default is None else raw.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"{key} must be a string, got {value!r}")
    return value


def parse_msg(raw: dict) -> Msg:
    try:
        kind = MsgKind(raw["kind"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad msg kind in {raw!r}") from exc
    try:
        if kind == MsgKind.SEND:
            payload = {
                "sender": _string(raw, "sender"),
                "recipient": _string(raw, "recipient"),
                "coins": coins_from_config(raw["coins"]),
            }
        elif kind == MsgKind.MULTI_SEND:
            payload = {
                "sender": _string(raw, "sender"),
                "outputs": [
                    {"recipient": _string(o, "recipient"),
                     "coins": coins_from_config(o["coins"])}
                    for o in raw["outputs"]
                ],
            }
        elif kind == MsgKind.SWAP_SEND:
            payload = {
                "sender": _string(raw, "sender"),
                "recipient": _string(raw, "recipient"),
                "offer": _coin(raw["offer"], "swap-send offer"),
                "ask_denom": raw["ask_denom"],
            }
        elif kind == MsgKind.INSTANTIATE_CONTRACT:
            payload = {
                "sender": _string(raw, "sender"),
                "funds": coins_from_config(raw.get("funds", [])),
                "label": raw.get("label", ""),
            }
        elif kind == MsgKind.EXECUTE_CONTRACT:
            payload = {
                "sender": _string(raw, "sender"),
                "contract": _string(raw, "contract"),
                "funds": coins_from_config(raw.get("funds", [])),
            }
        elif kind == MsgKind.EXEC:
            payload = {
                "sender": _string(raw, "sender"),
                "msgs": [parse_msg(m) for m in raw["msgs"]],
            }
        elif kind == MsgKind.DELEGATE or kind == MsgKind.UNDELEGATE:
            payload = {
                "delegator": _string(raw, "delegator"),
                "validator": _string(raw, "validator"),
                "amount": _coin(raw["amount"], kind.value),
            }
        elif kind == MsgKind.CREATE_VALIDATOR:
            payload = {
                "operator": _string(raw, "operator"),
                "version": _string(raw, "version", "v21"),
            }
        elif kind == MsgKind.VOTE:
            payload = {
                "voter": _string(raw, "voter"),
                "proposal_id": int(raw["proposal_id"]),
                "option": raw["option"],
            }
        else:  # MsgKind.SUBMIT_PROPOSAL
            payload = {
                "proposer": raw["proposer"],
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
            fee_payer=_string(raw, "fee_payer"),
            declared_fee=coins_from_config(raw.get("declared_fee", [])),
            gas_limit=int(raw.get("gas_limit", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tx: {exc}") from exc


def parse_event(raw: dict) -> ScenarioEvent:
    try:
        at_height = int(raw["at_height"])
        action = raw["action"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"event needs at_height and action: {raw!r}") from exc
    if action not in ACTIONS:
        raise ParseError(f"unknown action {action!r}")
    payload: dict
    try:
        if action == "submit-tx":
            payload = {"tx": parse_tx(raw["tx"])}
        elif action == "upgrade-validator":
            payload = {"validator": _string(raw, "validator"),
                       "version": _string(raw, "version")}
        elif action == "submit-proposal":
            prop = raw["proposal"]
            payload = {
                "proposer": raw.get("proposer", ""),
                "kind": prop["kind"],
                "title": prop.get("title", ""),
                "changes": prop.get("changes", []),
            }
        elif action == "cast-vote":
            payload = {
                "voter": _string(raw, "voter"),
                "proposal_id": int(raw["proposal_id"]),
                "option": raw["option"],
            }
        elif action == "sniper-arm":
            payload = {
                "target_height": int(raw["target_height"]),
                "delegator": _string(raw, "delegator"),
                "validator": _string(raw, "validator"),
                "amount": _coin(raw["amount"], "sniper amount"),
                "gas_limit": int(raw.get("gas_limit", 0)),
                "declared_fee": coins_from_config(raw.get("declared_fee", [])),
            }
        elif action == "community-spend":
            payload = {
                "recipient": _string(raw, "recipient"),
                "coins": coins_from_config(raw["coins"]),
            }
        else:  # rollback-to
            payload = {"target_height": int(raw["target_height"])}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"event {action} missing field: {exc}") from exc
    return ScenarioEvent(at_height=at_height, action=action, payload=payload)


def _count(cfg: dict, key: str, default: int) -> int:
    """cfg[key] as a non-negative integer."""
    value = cfg.get(key, default)
    try:
        count = int(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key} must be an integer, got {value!r}") from exc
    if count < 0:
        raise ParseError(f"{key} must be non-negative, got {value!r}")
    return count


def parse_scenario(cfg: dict) -> Scenario:
    if not isinstance(cfg, dict):
        raise ParseError("scenario must be a mapping")
    try:
        end_height = int(cfg["end_height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("scenario needs an integer end_height") from exc
    raw_events = cfg.get("events", [])
    if not isinstance(raw_events, list):
        raise ParseError(f"events must be a list, got {raw_events!r}")
    # a stable sort keeps the declaration order of events at one height
    events = sorted(map(parse_event, raw_events), key=lambda e: e.at_height)
    raw_overrides = cfg.get("precommit_overrides", {})
    if not isinstance(raw_overrides, dict):
        raise ParseError(f"precommit_overrides must be a mapping, got {raw_overrides!r}")
    overrides = {}
    for h, frac in raw_overrides.items():
        try:
            height = int(h)
            value = Fraction(str(frac))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad precommit_overrides entry {h!r}: {frac!r}") from exc
        if not Fraction(2, 3) <= value <= 1:
            raise ParseError(f"precommit_overrides entry {h!r} outside [2/3, 1]: {frac!r}")
        overrides[height] = value
    strict_halt = cfg.get("strict_halt", False)
    if not isinstance(strict_halt, bool):
        raise ParseError(f"strict_halt must be true or false, got {strict_halt!r}")
    return Scenario(
        name=cfg.get("name", "unnamed"),
        end_height=end_height,
        events=events,
        inclusion_delay=_count(cfg, "inclusion_delay", 2),
        strict_halt=strict_halt,
        invariant_interval=_count(cfg, "invariant_interval", 0),
        precommit_overrides=overrides,
    )


def load_scenario_file(path: str) -> dict:
    """Read a scenario JSON file; pair with parse_scenario for the object."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("scenario config must be a JSON object")
    return cfg
