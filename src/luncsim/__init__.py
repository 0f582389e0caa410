"""Deterministic simulator of Luna Classic emergency-management mechanics.

The package models the height-gated staking freeze and its staged revert,
the 25% delegation power cap, the burn-tax fee pipeline, treasury epoch
seigniorage, block fee distribution, and parameter governance, then replays
them block by block so historical episodes (notably the testnet consensus
halt at 7,684,492) reproduce exactly.
"""

from .blocktime import SECONDS_PER_BLOCK, blocks_for_days, blocks_for_seconds
from .coins import MICRO, Coin, coins_add
from .errors import (
    ChainHalted,
    InsufficientFunds,
    InvariantViolation,
    MsgNotSupported,
    NonNativeAsset,
    ParseError,
    PowerCapExceeded,
    SimError,
)
from .fees import FeeEstimate, estimate_fee
from .genesis import build_state, load_genesis_file
from .ledger import Bank
from .scenario import Scenario, load_scenario_file, parse_scenario
from .scenarios import BUILDERS as BUNDLED_SCENARIOS, build as build_bundled
from .simulator import Chain, RunResult, run_scenario
from .staking import (
    MAINNET_DELEGATE_POWER_REVERT_HEIGHT,
    MAINNET_STAKING_POWER_REVERT_HEIGHT,
    MAINNET_STAKING_POWER_UPGRADE_HEIGHT,
    TESTNET_DELEGATE_POWER_REVERT_HEIGHT,
    HeightGates,
    check_power_cap,
    mainnet_gates,
)
from .state import ChainState, state_hash, verify_invariants
from .treasury import PolicyConstraints

__all__ = [
    "BUNDLED_SCENARIOS",
    "Bank",
    "Chain",
    "ChainHalted",
    "ChainState",
    "Coin",
    "FeeEstimate",
    "HeightGates",
    "InsufficientFunds",
    "InvariantViolation",
    "MAINNET_DELEGATE_POWER_REVERT_HEIGHT",
    "MAINNET_STAKING_POWER_REVERT_HEIGHT",
    "MAINNET_STAKING_POWER_UPGRADE_HEIGHT",
    "MICRO",
    "MsgNotSupported",
    "NonNativeAsset",
    "ParseError",
    "PolicyConstraints",
    "PowerCapExceeded",
    "RunResult",
    "Scenario",
    "SECONDS_PER_BLOCK",
    "SimError",
    "TESTNET_DELEGATE_POWER_REVERT_HEIGHT",
    "blocks_for_days",
    "blocks_for_seconds",
    "build_bundled",
    "build_state",
    "check_power_cap",
    "coins_add",
    "estimate_fee",
    "load_genesis_file",
    "load_scenario_file",
    "mainnet_gates",
    "parse_scenario",
    "run_scenario",
    "state_hash",
    "verify_invariants",
]

__version__ = "0.1.0"
