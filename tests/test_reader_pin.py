"""Golden pins of the input reader: what it accepts, what it builds, what it says.

The leaf pin swaps every leaf of the `test_input_shapes` fixtures for every
value there (2,079 cases); the deletion pin deletes every mapping key of the
fixtures, one at a time (230 cases), so it sees each default the reader
fills in. Each case reads the genesis and scenario with `build_state` and
`parse_scenario`. A refused case is recorded by its ParseError message; an
accepted one by the scenario's fields and a canonical rendering of each
parsed event (height, action and payload, with `Tx.canonical()` and
`Msg.canonical()` and the payloads' own types) plus the genesis state hash.
The digest of each pin's cases is pinned, so a rewrite of the reader that is
meant to change nothing, error messages included, must leave both as they
are. A change that alters the reader on purpose prints the new values of
both pins with

    PYTHONPATH=src python tests/test_reader_pin.py

and says why in its change notes.
"""

import hashlib
import json
from fractions import Fraction

from luncsim.ante import Msg, Tx
from luncsim.coins import Coin
from luncsim.errors import ParseError
from luncsim.genesis import build_state
from luncsim.scenario import parse_scenario
from luncsim.state import state_hash

from test_input_shapes import DOCS, LEAVES, VALUES

DIGEST = "0041059be7283640e71c4459e6be9f988f41be10de5f8a213ef8ae10eeef9c1a"
ACCEPTED, REFUSED = 704, 1375
DELETION_DIGEST = "0b759dff5053239d4bd8e14dadc5f703605f7b42563a2a437a162045bf2f41df"
DELETION_ACCEPTED, DELETION_REFUSED = 109, 121

DELETE = object()   # `_case`'s value that deletes the key instead of setting it


def _enc(v):
    # canonical() renders every int as a string; the payload beside it keeps the types
    if isinstance(v, Tx):
        return [v.canonical(), _enc(v.declared_fee), v.gas_limit, _enc(v.msgs)]
    if isinstance(v, Msg):
        return [v.canonical(), _enc(v.payload)]
    if isinstance(v, Coin):
        return {"denom": v.denom, "amount": v.amount}
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _enc(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_enc(x) for x in v]
    return v


def _case(doc: str, path: tuple, value) -> list:
    trees = {name: json.loads(text) for name, text in DOCS.items()}
    node = trees[doc]
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        state = build_state(trees["genesis"])
        scn = parse_scenario(trees["scenario"])
    except ParseError as exc:
        return ["refused", str(exc)]
    events = [[e.at_height, e.action, _enc(e.payload)] for e in scn.events]
    return ["accepted", state_hash(state), scn.name, scn.end_height, scn.inclusion_delay,
            scn.strict_halt, scn.invariant_interval, _enc(scn.precommit_overrides), events]


def _keys(node, path=()):
    """The path of every mapping key in `node`, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _keys(value, path + (key,))


def _pin(cases: list) -> tuple:
    blob = json.dumps(cases, sort_keys=True, separators=(",", ":"))
    accepted = sum(c[-1][0] == "accepted" for c in cases)
    return hashlib.sha256(blob.encode()).hexdigest(), accepted, len(cases) - accepted


def observe():
    return _pin([[doc, list(path), repr(value), _case(doc, path, value)]
                 for doc, path in LEAVES for value in VALUES])


def observe_deletions():
    return _pin([[doc, list(path), _case(doc, path, DELETE)]
                 for doc, text in DOCS.items() for path in _keys(json.loads(text))])


def test_reader_matches_its_pin():
    assert observe() == (DIGEST, ACCEPTED, REFUSED)


def test_reader_matches_its_deletion_pin():
    assert observe_deletions() == (DELETION_DIGEST, DELETION_ACCEPTED, DELETION_REFUSED)


if __name__ == "__main__":
    print("leaf pin:", observe())
    print("deletion pin:", observe_deletions())
