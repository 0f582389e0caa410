"""Genesis configuration: a JSON tree describing the chain's starting state.

Schema (all sections optional unless noted; integers and amounts accept
a JSON integer or a decimal string, rationals a number or a string such as
"0.012" or "3/250", booleans only JSON true/false):

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

Every field is read through `inputs`. Anything that does not fit this
schema is a ParseError naming the field: a section of the wrong type; an
address, denom (of every account entry, zero amounts too), version,
`chain_id` or `gas_denom` that is not a string; a boolean that is not a JSON
boolean; an integer that does not parse; a zero `power_reduction` or
`epoch_length_blocks`; a negative amount or `gas_price`; a `tax_rate` or
`reward_weight` outside [0, 1]; a rational longer than 100 characters or
with a decimal exponent above 400 in size.
"""

from __future__ import annotations

from .ante import AnteConfig
from .distribution import DistributionParams, DistributionState
from .errors import MalformedProposal, ParseError, UnknownModule
from .governance import GovernanceState, GovParams
from .inputs import fraction, integer, load, read
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
from .treasury import PolicyConstraints, TreasuryState
from . import treasury as treasury_mod


def load_genesis_file(path: str) -> dict:
    return load(path, "genesis")


def build_state(cfg: dict) -> ChainState:
    """Validate a genesis config tree and assemble the starting ChainState."""
    staking_cfg = read(cfg, "staking", dict, {})
    gates_cfg = read(staking_cfg, "gates", dict, {}, name="staking.gates")
    if not gates_cfg:
        gates = mainnet_gates()
    else:
        revert = integer(gates_cfg.get("delegate_power_revert_height"),
                         "staking.gates.delegate_power_revert_height")
        try:
            gates = HeightGates(
                staking_power_upgrade_height=integer(
                    gates_cfg.get("staking_power_upgrade_height"),
                    "staking.gates.staking_power_upgrade_height"),
                delegate_power_revert_height=revert,
                staking_power_revert_height=integer(
                    gates_cfg.get("staking_power_revert_height"),
                    "staking.gates.staking_power_revert_height"),
                protect_power_height=integer(
                    gates_cfg.get("protect_power_height", revert + PROTECT_WINDOW_BLOCKS),
                    "staking.gates.protect_power_height"),
            )
        except ValueError as exc:   # the heights are out of order
            raise ParseError(f"bad staking.gates: {exc}") from exc

    params = StakingParams(
        bond_denom=read(staking_cfg, "bond_denom", str, "uluna", name="staking.bond_denom"),
        power_reduction=integer(staking_cfg.get("power_reduction", 1_000_000),
                                "staking.power_reduction", low=1),
        unbonding_period_blocks=integer(
            staking_cfg.get("unbonding_period_blocks", StakingParams().unbonding_period_blocks),
            "staking.unbonding_period_blocks", low=0),
        max_delegation_power_fraction=fraction(
            staking_cfg.get("max_delegation_power_fraction", "1/4"),
            "staking.max_delegation_power_fraction"),
        float32_power_cap=read(staking_cfg, "float32_power_cap", bool, False,
                               name="staking.float32_power_cap"),
    )
    staking_state = StakingState(gates=gates, params=params)

    bank = Bank()
    columns: dict = {}
    totals: dict = {}
    try:   # one pass, converting inline: `integer` is called only to raise its error
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
            col = columns.setdefault(denom, {})
            col[address] = col.get(address, 0) + amount
            totals[denom] = totals.get(denom, 0) + amount
    except KeyError as exc:
        raise ParseError(f"account entry missing {exc}") from exc
    except TypeError as exc:   # an entry that is no mapping
        raise ParseError(f"accounts[] entry must be a mapping, got {entry!r}") from exc
    bank.genesis_credit_accounts(columns, totals)
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
    tre = TreasuryState(
        tax_rate=fraction(tre_cfg.get("tax_rate", 0), "treasury.tax_rate", 0, 1),
        reward_weight=fraction(tre_cfg.get("reward_weight", 1), "treasury.reward_weight", 0, 1),
        epoch_length_blocks=integer(
            tre_cfg.get("epoch_length_blocks", treasury_mod.DEFAULT_EPOCH_LENGTH_BLOCKS),
            "treasury.epoch_length_blocks", low=1),
        tax_caps={d: integer(a, f"treasury.tax_caps.{d}", low=0) for d, a in
                  read(tre_cfg, "tax_caps", dict, {}, name="treasury.tax_caps").items()},
        default_tax_cap=integer(tre_cfg.get("default_tax_cap", treasury_mod.DEFAULT_TAX_CAP),
                                "treasury.default_tax_cap", low=0),
    )
    try:
        if "tax_policy" in tre_cfg:
            tre.tax_policy = PolicyConstraints.from_config(tre_cfg["tax_policy"])
            tre.tax_rate = tre.tax_policy.clamp(tre.tax_rate)
        if "reward_policy" in tre_cfg:
            tre.reward_policy = PolicyConstraints.from_config(tre_cfg["reward_policy"])
            tre.reward_weight = tre.reward_policy.clamp(tre.reward_weight)
    except MalformedProposal as exc:
        raise ParseError(f"bad treasury policy: {exc}") from exc

    dist_cfg = read(cfg, "distribution", dict, {})
    try:
        dist = DistributionState(params=DistributionParams(
            community_tax=fraction(dist_cfg.get("community_tax", 0),
                                   "distribution.community_tax"),
            base_proposer_reward=fraction(dist_cfg.get("base_proposer_reward", "0.01"),
                                          "distribution.base_proposer_reward"),
            bonus_proposer_reward=fraction(dist_cfg.get("bonus_proposer_reward", "0.04"),
                                           "distribution.bonus_proposer_reward"),
        ))
    except ValueError as exc:   # a share outside [0, 1], or shares above 1 in total
        raise ParseError(f"bad distribution params: {exc}") from exc

    gov_cfg = read(cfg, "governance", dict, {})
    gov = GovernanceState(params=GovParams(
        quorum=fraction(gov_cfg.get("quorum", "0.4"), "governance.quorum"),
        pass_threshold=fraction(gov_cfg.get("pass_threshold", "0.5"),
                                "governance.pass_threshold"),
        veto_threshold=fraction(gov_cfg.get("veto_threshold", "0.334"),
                                "governance.veto_threshold"),
        voting_period_blocks=integer(
            gov_cfg.get("voting_period_blocks", GovParams().voting_period_blocks),
            "governance.voting_period_blocks", low=0),
    ))

    ante_raw = read(cfg, "ante", dict, {})
    exempt = read(ante_raw, "exempt_denoms", list, ["stake"], name="ante.exempt_denoms")
    if not set(map(type, exempt)) <= {str}:
        raise ParseError(f"ante.exempt_denoms[] must be strings, got {exempt!r}")
    ante_cfg = AnteConfig(
        tax_power_upgrade_height=integer(ante_raw.get("tax_power_upgrade_height", 0),
                                         "ante.tax_power_upgrade_height"),
        exempt_denoms=frozenset(exempt),
        gas_price=fraction(ante_raw.get("gas_price", 0), "ante.gas_price", low=0),
        gas_denom=read(ante_raw, "gas_denom", str, "uluna", name="ante.gas_denom"),
    )

    transfer_cfg = read(cfg, "transfer", dict, {})
    transfer = {
        "SendEnabled": read(transfer_cfg, "SendEnabled", bool, False,
                            name="transfer.SendEnabled"),
        "ReceiveEnabled": read(transfer_cfg, "ReceiveEnabled", bool, False,
                               name="transfer.ReceiveEnabled"),
    }

    genesis_height = integer(cfg.get("genesis_height", 0), "genesis_height")
    state = ChainState(
        bank=bank,
        staking=staking_state,
        treasury=tre,
        distribution=dist,
        governance=gov,
        ante=ante_cfg,
        chain_id=read(cfg, "chain_id", str, "sim-1"),
        genesis_height=genesis_height,
        genesis_time=integer(cfg.get("genesis_time", 0), "genesis_time"),
        height=genesis_height,
        transfer_params=transfer,
    )
    state.proposer_priority = {a: 0 for a in sorted(staking_state.validators)}
    return state
