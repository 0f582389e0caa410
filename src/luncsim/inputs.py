"""Outside input: how a raw JSON value becomes an engine value.

Genesis and scenario fields are read here once, before anything runs, as
Cosmos SDK's stateless `ValidateBasic` checks a msg at the edge; so are a
proposal's changes when it is submitted. Each reader returns the engine
type or raises a ParseError that names the field: `typed` checks a value's
JSON type and `read` takes a field out of a mapping and checks it the same
way; `integer`, `fraction` and `coin` parse a value and check its range;
`section` reads the fields of a mapping through a table of such readers;
`load` reads a JSON object from a file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial

from .coins import Coin
from .errors import ParseError

REQUIRED = object()  # `read`'s default: the field must be present

# `fraction` refuses longer text or a larger decimal exponent before it parses:
# "1e-1000000" has a 3.3-million-bit denominator. Every finite double fits.
MAX_RATIONAL_CHARS, MAX_EXPONENT = 100, 400

_TYPE_NAMES = {str: "a string", bool: "true or false", dict: "a mapping", list: "a list"}


def load(path: str, what: str) -> dict:
    """The JSON object in the file at `path`; `what` names the file in errors."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bytes that are not UTF-8, text that is not JSON or an integer
        # of more than 4,300 digits; RecursionError: arrays or objects nested too deep
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError(f"{what} config must be a JSON object")
    return cfg


def typed(value, name: str, kind: type):
    """`value` when it is an instance of `kind`; `name` is the field's dotted path."""
    if not isinstance(value, kind):
        raise ParseError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


string, flag = partial(typed, kind=str), partial(typed, kind=bool)


def read(raw, key: str, kind: type = object, default=REQUIRED, name: str | None = None):
    """raw[key], an instance of `kind`, or `default` when absent; `name`
    (default `key`) is the field's dotted path in errors."""
    try:
        value = raw.get(key, default)
    except AttributeError:   # JSON gives no other type with a `get`
        where, _, field = (name or key).rpartition(".")
        raise ParseError(f"{where or 'the'} entry holding {field} must be a mapping, "
                         f"got {raw!r}") from None
    if value is REQUIRED:
        raise ParseError(f"{name or key} is missing")
    return typed(value, name or key, kind)


def section(raw: dict, prefix: str, readers: dict) -> dict:
    """Each field of `raw` that `readers` ({field: reader}) names, read as
    `reader(value, prefix + field)` in table order. An absent field is left
    out, so the record the result fills keeps its own default."""
    return {key: reader(raw[key], prefix + key) for key, reader in readers.items()
            if key in raw}


def integer(value, name: str, low: int | None = None) -> int:
    """A JSON integer or a decimal string as an int, at least `low`."""
    n = value
    if type(n) is str:
        try:
            n = int(n)
        except ValueError:
            pass
    if type(n) is not int:   # nor is a bool, a float or a string that did not parse
        raise ParseError(f"{name} must be an integer, got {value!r}")
    if low is not None and n < low:
        raise ParseError(f"{name} must be at least {low}, got {value!r}")
    return n


def fraction(value, name: str, low=None, high=None) -> Fraction:
    """A JSON number or a string such as "0.012" or "3/250", within [low, high]."""
    try:
        text = str(value)   # str() of a bool, null or container never parses
        if (len(text) > MAX_RATIONAL_CHARS
                or abs(int(text.lower().partition("e")[2] or 0)) > MAX_EXPONENT):
            raise ParseError(f"{name} must be at most {MAX_RATIONAL_CHARS} characters with an "
                             f"exponent in [-{MAX_EXPONENT}, {MAX_EXPONENT}], got {value!r}")
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{name} must be a rational, got {value!r}") from exc
    if (low is not None and f < low) or (high is not None and f > high):
        raise ParseError(f"{name} must lie in [{low}, {'inf' if high is None else high}], "
                         f"got {value!r}")
    return f


def coin(raw, name: str) -> Coin:
    """A `{"denom", "amount"}` mapping: a non-empty string and an integer >= 0."""
    denom = read(raw, "denom", str, name=name + ".denom")
    if not denom:
        raise ParseError(f"{name}.denom must not be empty")
    return Coin(denom, integer(raw.get("amount"), name + ".amount", low=0))
