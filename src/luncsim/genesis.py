"""Genesis configuration: a JSON tree describing the chain's starting state.

Schema (all sections optional unless noted; amounts accept int or string,
rationals accept "0.012" or "3/250"):

    {
      "chain_id": "rebel-1-sim",
      "genesis_height": 7561000,
      "genesis_time": 0,
      "accounts": [{"address": "alice", "denom": "uluna", "amount": "1000000"}],
      "module_accounts": [{"module": "CommunityPool", "denom": "uluna", "amount": 0}],
      "staking": {
        "gates": {"staking_power_upgrade_height": ...,  # mainnet set if omitted
                   "delegate_power_revert_height": ...,
                   "staking_power_revert_height": ...,
                   "protect_power_height": ...},        # optional
        "bond_denom": "uluna",
        "power_reduction": 1000000,
        "unbonding_period_blocks": 259200,
        "max_delegation_power_fraction": "1/4",
        "float32_power_cap": false,
        "validators": [{"address": "val1", "tokens": "9600000000",
                         "version": "v20"}]
      },
      "treasury": {"tax_rate": "0", "reward_weight": "1",
                    "epoch_length_blocks": 86400,
                    "tax_caps": {"uusd": "50000000"},
                    "default_tax_cap": "...",
                    "tax_policy": {...}, "reward_policy": {...}},
      "distribution": {"community_tax": "0", "base_proposer_reward": "0.01",
                        "bonus_proposer_reward": "0.04"},
      "governance": {"quorum": "0.4", "pass_threshold": "0.5",
                      "veto_threshold": "0.334", "voting_period_blocks": 12343},
      "ante": {"tax_power_upgrade_height": 0, "exempt_denoms": ["stake"],
                "gas_price": "0", "gas_denom": "uluna"},
      "transfer": {"SendEnabled": false, "ReceiveEnabled": false}
    }

Validator stakes are credited to the operator account and immediately
self-bonded, so the bonded pool and the share identity are consistent from
block one.

Anything that does not fit this schema -- a section of the wrong type, an
address, denom or version that is not a string, an integer field that does
not parse, a zero `power_reduction` -- is a ParseError naming the field.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .ante import AnteConfig
from .distribution import DistributionParams, DistributionState
from .errors import MalformedProposal, ParseError, UnknownModule
from .governance import GovernanceState, GovParams
from .ledger import DEFAULT_MODULE_ACCOUNTS, Bank
from .staking import (
    PROTECT_WINDOW_BLOCKS,
    HeightGates,
    StakingParams,
    StakingState,
    genesis_bond,
    mainnet_gates,
)
from .state import ChainState
from .treasury import PolicyConstraints, TreasuryState
from . import treasury as treasury_mod


def _fraction(value, label: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational for {label}: {value!r}") from exc


def _integer(value, label: str, what: str = "integer") -> int:
    try:
        return int(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad {what} for {label}: {value!r}") from exc


def _amount(value, label: str) -> int:
    n = _integer(value, label, "amount")
    if n < 0:
        raise ParseError(f"negative amount for {label}: {value!r}")
    return n


def _typed(cfg: dict, key: str, label: str, default):
    """cfg[key], which must have the type of `default`, or `default` when absent."""
    value = cfg.get(key, default)
    if not isinstance(value, type(default)):
        what = "a mapping" if isinstance(default, dict) else "a list"
        raise ParseError(f"{label} must be {what}, got {value!r}")
    return value


def _string(value, label: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{label} must be a string, got {value!r}")
    return value


def _string_keys(table: dict, label: str) -> None:
    """Every key of `table` is a string: one pass in C over the keys."""
    if not set(map(type, table)) <= {str}:
        bad = next(k for k in table if not isinstance(k, str))
        raise ParseError(f"{label} must be a string, got {bad!r}")


def _bad_entry(entry, label: str, key: str) -> ParseError:
    """The error for an entry whose credit raised: its shape, `key` or denom."""
    if not isinstance(entry, dict):
        return ParseError(f"{label} entry must be a mapping, got {entry!r}")
    key = key if not isinstance(entry[key], str) else "denom"
    return ParseError(f"{label}.{key} must be a string, got {entry[key]!r}")


def load_genesis_file(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read genesis {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("genesis config must be a JSON object")
    return cfg


def build_state(cfg: dict) -> ChainState:
    """Validate a genesis config tree and assemble the starting ChainState."""
    if not isinstance(cfg, dict):
        raise ParseError("genesis config must be a mapping")
    staking_cfg = _typed(cfg, "staking", "staking", {})
    gates_cfg = staking_cfg.get("gates")
    if gates_cfg:
        try:
            delegate_revert = int(gates_cfg["delegate_power_revert_height"])
            gates = HeightGates(
                staking_power_upgrade_height=int(gates_cfg["staking_power_upgrade_height"]),
                delegate_power_revert_height=delegate_revert,
                staking_power_revert_height=int(gates_cfg["staking_power_revert_height"]),
                protect_power_height=int(
                    gates_cfg.get("protect_power_height",
                                  delegate_revert + PROTECT_WINDOW_BLOCKS)
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"bad staking.gates: {exc}") from exc
    else:
        gates = mainnet_gates()

    params = StakingParams(
        bond_denom=_string(staking_cfg.get("bond_denom", "uluna"), "staking.bond_denom"),
        power_reduction=_amount(staking_cfg.get("power_reduction", 1_000_000),
                                "staking.power_reduction"),
        unbonding_period_blocks=_amount(
            staking_cfg.get("unbonding_period_blocks", StakingParams().unbonding_period_blocks),
            "staking.unbonding_period_blocks"),
        max_delegation_power_fraction=_fraction(
            staking_cfg.get("max_delegation_power_fraction", "1/4"),
            "staking.max_delegation_power_fraction"),
        float32_power_cap=bool(staking_cfg.get("float32_power_cap", False)),
    )
    if params.power_reduction == 0:
        raise ParseError("staking.power_reduction must be positive")
    staking_state = StakingState(gates=gates, params=params)

    bank = Bank(DEFAULT_MODULE_ACCOUNTS)
    for entry in _typed(cfg, "accounts", "accounts", []):
        try:
            bank.genesis_credit_account(entry["address"], entry["denom"],
                                        _amount(entry["amount"], "accounts[]"))
        except KeyError as exc:
            raise ParseError(f"account entry missing {exc}") from exc
        except TypeError as exc:   # an entry that is no mapping, an unhashable key
            raise _bad_entry(entry, "accounts[]", "address") from exc
    _string_keys(bank.accounts, "accounts[].address")
    _string_keys(bank.supply.totals, "accounts[].denom")
    for entry in _typed(cfg, "module_accounts", "module_accounts", []):
        try:
            bank.genesis_credit_module(entry["module"], entry["denom"],
                                       _amount(entry["amount"], "module_accounts[]"))
        except KeyError as exc:
            raise ParseError(f"module account entry missing {exc}") from exc
        except TypeError as exc:
            raise _bad_entry(entry, "module_accounts[]", "module") from exc
        except UnknownModule as exc:
            raise ParseError(f"module_accounts[].module: unknown module "
                             f"{entry['module']!r}") from exc
    _string_keys(bank.supply.totals, "module_accounts[].denom")

    for v in _typed(staking_cfg, "validators", "staking.validators", []):
        if not isinstance(v, dict):
            raise ParseError(f"staking.validators[] entry must be a mapping, got {v!r}")
        try:
            operator = _string(v["address"], "staking.validators[].address")
            tokens = _amount(v["tokens"], f"validator {operator}")
            version = _string(v.get("version", "v21"), "staking.validators[].version")
        except KeyError as exc:
            raise ParseError(f"validator entry missing {exc}") from exc
        if operator in staking_state.validators:
            raise ParseError(f"duplicate validator {operator!r}")
        # stake is genesis supply: credit the operator, then self-bond
        bank.genesis_credit_account(operator, params.bond_denom, tokens)
        genesis_bond(bank, staking_state, operator, tokens, version)

    tre_cfg = _typed(cfg, "treasury", "treasury", {})
    tre = TreasuryState(
        tax_rate=_fraction(tre_cfg.get("tax_rate", 0), "treasury.tax_rate"),
        reward_weight=_fraction(tre_cfg.get("reward_weight", 1), "treasury.reward_weight"),
        epoch_length_blocks=_amount(
            tre_cfg.get("epoch_length_blocks", treasury_mod.DEFAULT_EPOCH_LENGTH_BLOCKS),
            "treasury.epoch_length_blocks"),
        tax_caps={d: _amount(a, f"tax cap {d}")
                  for d, a in _typed(tre_cfg, "tax_caps", "treasury.tax_caps", {}).items()},
        default_tax_cap=_amount(tre_cfg.get("default_tax_cap", treasury_mod.DEFAULT_TAX_CAP),
                                "treasury.default_tax_cap"),
    )
    if tre.epoch_length_blocks <= 0:
        raise ParseError("treasury.epoch_length_blocks must be positive")
    try:
        if "tax_policy" in tre_cfg:
            tre.tax_policy = PolicyConstraints.from_config(tre_cfg["tax_policy"])
            tre.tax_rate = tre.tax_policy.clamp(tre.tax_rate)
        if "reward_policy" in tre_cfg:
            tre.reward_policy = PolicyConstraints.from_config(tre_cfg["reward_policy"])
            tre.reward_weight = tre.reward_policy.clamp(tre.reward_weight)
    except MalformedProposal as exc:
        raise ParseError(f"bad treasury policy: {exc}") from exc

    dist_cfg = _typed(cfg, "distribution", "distribution", {})
    try:
        dist = DistributionState(params=DistributionParams(
            community_tax=_fraction(dist_cfg.get("community_tax", 0),
                                    "distribution.community_tax"),
            base_proposer_reward=_fraction(dist_cfg.get("base_proposer_reward", "0.01"),
                                           "distribution.base_proposer_reward"),
            bonus_proposer_reward=_fraction(dist_cfg.get("bonus_proposer_reward", "0.04"),
                                            "distribution.bonus_proposer_reward"),
        ))
    except ValueError as exc:
        raise ParseError(f"bad distribution params: {exc}") from exc

    gov_cfg = _typed(cfg, "governance", "governance", {})
    gov = GovernanceState(params=GovParams(
        quorum=_fraction(gov_cfg.get("quorum", "0.4"), "governance.quorum"),
        pass_threshold=_fraction(gov_cfg.get("pass_threshold", "0.5"),
                                 "governance.pass_threshold"),
        veto_threshold=_fraction(gov_cfg.get("veto_threshold", "0.334"),
                                 "governance.veto_threshold"),
        voting_period_blocks=_amount(
            gov_cfg.get("voting_period_blocks", GovParams().voting_period_blocks),
            "governance.voting_period_blocks"),
    ))

    ante_cfg_raw = _typed(cfg, "ante", "ante", {})
    exempt = _typed(ante_cfg_raw, "exempt_denoms", "ante.exempt_denoms", ["stake"])
    for denom in exempt:
        _string(denom, "ante.exempt_denoms[]")
    ante_cfg = AnteConfig(
        tax_power_upgrade_height=_integer(ante_cfg_raw.get("tax_power_upgrade_height", 0),
                                          "ante.tax_power_upgrade_height"),
        exempt_denoms=frozenset(exempt),
        gas_price=_fraction(ante_cfg_raw.get("gas_price", 0), "ante.gas_price"),
        gas_denom=ante_cfg_raw.get("gas_denom", "uluna"),
    )
    if ante_cfg.gas_price < 0:
        raise ParseError("ante.gas_price must be non-negative")

    transfer_cfg = _typed(cfg, "transfer", "transfer", {})
    transfer = {
        "SendEnabled": bool(transfer_cfg.get("SendEnabled", False)),
        "ReceiveEnabled": bool(transfer_cfg.get("ReceiveEnabled", False)),
    }

    genesis_height = _integer(cfg.get("genesis_height", 0), "genesis_height")
    state = ChainState(
        bank=bank,
        staking=staking_state,
        treasury=tre,
        distribution=dist,
        governance=gov,
        ante=ante_cfg,
        chain_id=cfg.get("chain_id", "sim-1"),
        genesis_height=genesis_height,
        genesis_time=_integer(cfg.get("genesis_time", 0), "genesis_time"),
        height=genesis_height,
        transfer_params=transfer,
    )
    state.proposer_priority = {a: 0 for a in sorted(staking_state.validators)}
    return state
