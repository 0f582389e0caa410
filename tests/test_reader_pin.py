"""Golden pin of the input reader: what it accepts, what it builds, what it says.

Every leaf of the `test_input_shapes` fixtures is swapped for every value
there (2,079 cases), and the genesis and scenario are read with
`build_state` and `parse_scenario`. A refused case is recorded by its
ParseError message; an accepted one by the scenario's fields and a
canonical rendering of each parsed event (height, action and payload, with
`Tx.canonical()` and `Msg.canonical()` and the payloads' own types) plus
the genesis state hash. The digest of all the cases is pinned, so a rewrite
of the reader that is meant to change nothing, error messages included,
must leave it as it is. A change that alters the reader on purpose prints
the new values with

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

DIGEST = "10ed2ce4a17271c7cad47dcecb8241aa8565154dff76521950f799a192a9ec4c"
ACCEPTED, REFUSED = 713, 1366


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
    node[path[-1]] = value
    try:
        state = build_state(trees["genesis"])
        scn = parse_scenario(trees["scenario"])
    except ParseError as exc:
        return ["refused", str(exc)]
    events = [[e.at_height, e.action, _enc(e.payload)] for e in scn.events]
    return ["accepted", state_hash(state), scn.name, scn.end_height, scn.inclusion_delay,
            scn.strict_halt, scn.invariant_interval, _enc(scn.precommit_overrides), events]


def observe():
    cases = [[doc, list(path), repr(value), _case(doc, path, value)]
             for doc, path in LEAVES for value in VALUES]
    blob = json.dumps(cases, sort_keys=True, separators=(",", ":"))
    accepted = sum(c[3][0] == "accepted" for c in cases)
    return hashlib.sha256(blob.encode()).hexdigest(), accepted, len(cases) - accepted


def test_reader_matches_its_pin():
    assert observe() == (DIGEST, ACCEPTED, REFUSED)


if __name__ == "__main__":
    print(observe())
