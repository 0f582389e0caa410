"""Genesis configuration: a JSON tree describing the chain's starting state.

Schema. Every section and field is optional except the three gate heights
once `staking.gates` is given; a field left out takes the default of the
record it fills (`ChainState`, `StakingParams`, `TreasuryState`,
`DistributionParams`, `GovParams`, `AnteConfig`). Integers and amounts
accept a JSON integer or a decimal string, rationals a number or a string
such as "0.012" or "3/250", booleans only JSON true/false:

    {
      "chain_id": str, "genesis_height": int, "genesis_time": int,
      "accounts": [{"address": str, "denom": str, "amount": int >= 0}],
      "module_accounts": [{"module": "CommunityPool", "denom": str, "amount": int >= 0}],
      "staking": {
        "gates": {"staking_power_upgrade_height": int,  # mainnet set if omitted
                   "delegate_power_revert_height": int,
                   "staking_power_revert_height": int,
                   "protect_power_height": int},        # optional
        "bond_denom": str, "power_reduction": int >= 1,
        "unbonding_period_blocks": int >= 0,
        "max_delegation_power_fraction": rational in (0, 1],
        "float32_power_cap": bool,
        "validators": [{"address": str, "tokens": int >= 0, "version": str}]
      },
      "treasury": {"tax_rate": rational in [0, 1], "reward_weight": rational in [0, 1],
                    "epoch_length_blocks": int >= 1, "tax_caps": {denom: int >= 0},
                    "default_tax_cap": int >= 0,
                    "tax_policy": policy, "reward_policy": policy},
      "distribution": {"community_tax": rational, "base_proposer_reward": rational,
                        "bonus_proposer_reward": rational},  # in [0, 1], at most 1 in sum
      "governance": {"quorum": rational in [0, 1], "pass_threshold": rational in [0, 1],
                      "veto_threshold": rational in [0, 1], "voting_period_blocks": int >= 0},
      "ante": {"tax_power_upgrade_height": int, "exempt_denoms": [str],
                "gas_price": rational >= 0, "gas_denom": str},
      "transfer": {"SendEnabled": bool, "ReceiveEnabled": bool}
    }

Validator stakes are credited to the operator account and immediately
self-bonded, so the bonded pool and the share identity are consistent from
block one.

Every field is read through `inputs`. Anything that does not fit this
schema is a ParseError naming the field, as is a rational longer than 100
characters or with a decimal exponent above 400 in size, or gate heights
out of order.
"""

from __future__ import annotations

from functools import partial

from .ante import AnteConfig
from .distribution import DistributionParams, DistributionState
from .errors import MalformedProposal, ParseError, UnknownModule
from .governance import GovernanceState, GovParams, power_fraction
from .inputs import flag, fraction, integer, load, read, section, string, typed
from .ledger import Bank
from .staking import (
    PROTECT_WINDOW_BLOCKS,
    HeightGates,
    StakingParams,
    StakingState,
    genesis_bond,
    mainnet_gates,
)
from .state import ChainState
from .treasury import PolicyConstraints, TreasuryState, set_policy


def _exempt_denoms(value, name: str) -> frozenset:
    if not set(map(type, typed(value, name, list))) <= {str}:
        raise ParseError(f"{name}[] must be strings, got {value!r}")
    return frozenset(value)


def _tax_caps(value, name: str) -> dict:
    return {d: integer(a, f"{name}.{d}", low=0) for d, a in typed(value, name, dict).items()}


# The fields each genesis section may set, with their readers (`inputs.section`);
# a field left out takes the default of the record it fills.
_RATE = partial(fraction, low=0, high=1)
_STAKING = {"bond_denom": string, "power_reduction": partial(integer, low=1),
            "unbonding_period_blocks": partial(integer, low=0),
            "max_delegation_power_fraction": power_fraction, "float32_power_cap": flag}
_TREASURY = {"tax_rate": _RATE, "reward_weight": _RATE,
             "epoch_length_blocks": partial(integer, low=1), "tax_caps": _tax_caps,
             "default_tax_cap": partial(integer, low=0)}
_DISTRIBUTION = dict.fromkeys(("community_tax", "base_proposer_reward",
                               "bonus_proposer_reward"), fraction)
_GOVERNANCE = {"quorum": _RATE, "pass_threshold": _RATE, "veto_threshold": _RATE,
               "voting_period_blocks": partial(integer, low=0)}
_ANTE = {"tax_power_upgrade_height": integer, "exempt_denoms": _exempt_denoms,
         "gas_price": partial(fraction, low=0), "gas_denom": string}
_TRANSFER = {"SendEnabled": flag, "ReceiveEnabled": flag}
_HEADER = {"chain_id": string, "genesis_height": integer, "genesis_time": integer}
# required whenever `staking.gates` is given; protect_power_height is optional
_GATES = ("staking_power_upgrade_height", "delegate_power_revert_height",
          "staking_power_revert_height")


def load_genesis_file(path: str) -> dict:
    return load(path, "genesis")


def build_state(cfg: dict) -> ChainState:
    """Validate a genesis config tree and assemble the starting ChainState."""
    staking_cfg = read(cfg, "staking", dict, {})
    gates_cfg = read(staking_cfg, "gates", dict, {}, name="staking.gates")
    if not gates_cfg:
        gates = mainnet_gates()
    else:
        heights = {key: integer(gates_cfg.get(key), "staking.gates." + key) for key in _GATES}
        protect = gates_cfg.get("protect_power_height",
                                heights["delegate_power_revert_height"] + PROTECT_WINDOW_BLOCKS)
        try:
            gates = HeightGates(**heights, protect_power_height=integer(
                protect, "staking.gates.protect_power_height"))
        except ValueError as exc:   # the heights are out of order
            raise ParseError(f"bad staking.gates: {exc}") from exc

    params = StakingParams(**section(staking_cfg, "staking.", _STAKING))
    staking_state = StakingState(gates=gates, params=params)

    bank = Bank()
    columns: dict = {}   # {denom: {address: amount}}; the bank sums each for its supply
    try:   # one pass, one column write an entry: `integer` is called only to raise its error
        for entry in read(cfg, "accounts", list, []):
            address, denom, amount = entry["address"], entry["denom"], entry["amount"]
            if type(amount) is str:
                try:
                    amount = int(amount)
                except ValueError:
                    pass
            if (type(amount) is not int or amount < 0
                    or type(address) is not str or type(denom) is not str):
                integer(entry["amount"], "accounts[].amount", low=0)
                key = "address" if type(address) is not str else "denom"
                raise ParseError(f"accounts[].{key} must be a string, got {entry[key]!r}")
            col = columns.get(denom)
            if col is None:
                col = columns[denom] = {}
            col[address] = col[address] + amount if address in col else amount
    except KeyError as exc:
        raise ParseError(f"account entry missing {exc}") from exc
    except TypeError as exc:   # an entry that is no mapping
        raise ParseError(f"accounts[] entry must be a mapping, got {entry!r}") from exc
    bank.genesis_credit_accounts(columns)
    for entry in read(cfg, "module_accounts", list, []):
        module = read(entry, "module", str, name="module_accounts[].module")
        try:
            bank.genesis_credit_module(
                module, read(entry, "denom", str, name="module_accounts[].denom"),
                integer(entry.get("amount"), "module_accounts[].amount", low=0))
        except UnknownModule as exc:
            raise ParseError(f"module_accounts[].module: unknown module {module!r}") from exc

    for v in read(staking_cfg, "validators", list, [], name="staking.validators"):
        operator = read(v, "address", str, name="staking.validators[].address")
        tokens = integer(v.get("tokens"), "staking.validators[].tokens", low=0)
        version = read(v, "version", str, "v21", name="staking.validators[].version")
        if operator in staking_state.validators:
            raise ParseError(f"duplicate validator {operator!r}")
        # stake is genesis supply: credit the operator, then self-bond
        bank.genesis_credit_account(operator, params.bond_denom, tokens)
        genesis_bond(bank, staking_state, operator, tokens, version)

    tre_cfg = read(cfg, "treasury", dict, {})
    tre = TreasuryState(**section(tre_cfg, "treasury.", _TREASURY))
    try:
        for key, name in (("TaxPolicy", "tax_policy"), ("RewardPolicy", "reward_policy")):
            if name in tre_cfg:
                set_policy(tre, key, PolicyConstraints.from_config(tre_cfg[name]))
    except MalformedProposal as exc:
        raise ParseError(f"bad treasury policy: {exc}") from exc

    try:
        dist = DistributionState(params=DistributionParams(**section(
            read(cfg, "distribution", dict, {}), "distribution.", _DISTRIBUTION)))
    except ValueError as exc:   # a share outside [0, 1], or shares above 1 in total
        raise ParseError(f"bad distribution params: {exc}") from exc

    gov = GovernanceState(params=GovParams(**section(
        read(cfg, "governance", dict, {}), "governance.", _GOVERNANCE)))
    ante_cfg = AnteConfig(**section(read(cfg, "ante", dict, {}), "ante.", _ANTE))
    transfer = section(read(cfg, "transfer", dict, {}), "transfer.", _TRANSFER)

    state = ChainState(bank=bank, staking=staking_state, treasury=tre, distribution=dist,
                       governance=gov, ante=ante_cfg, **section(cfg, "", _HEADER))
    state.height = state.genesis_height
    state.transfer_params.update(transfer)
    state.proposer_priority = {a: 0 for a in sorted(staking_state.validators)}
    return state
