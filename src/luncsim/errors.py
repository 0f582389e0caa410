"""Error types raised by the chain state machine.

Every rejection the engine can produce is a distinct class so tests and
scenario reports can match on the failure kind rather than on message text.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class ParseError(SimError):
    """Genesis or scenario input could not be parsed or failed validation."""


class InsufficientFunds(SimError):
    """Raised as InsufficientFunds(template, *values). The text,
    `template.format(*values)`, is built only when read: a failed tx keeps
    only the class name."""

    def __str__(self) -> str:
        return self.args[0].format(*self.args[1:])


class UnknownModule(SimError):
    pass


class UnknownValidator(SimError):
    pass


class DuplicateValidator(SimError):
    pass


class UnknownDelegation(SimError):
    pass


class InsufficientShares(SimError):
    pass


class InvalidCoin(SimError):
    """A message amount is in the wrong denomination or is zero."""


class MsgNotSupported(SimError):
    """Message kind disabled at the current height by a version gate."""


class PowerCapExceeded(SimError):
    """Delegation would push a validator above the voting-power cap."""


class UnknownProposer(SimError):
    pass


class MalformedProposal(SimError):
    pass


class StillInVoting(SimError):
    pass


class NonNativeAsset(SimError):
    """Tax helpers only operate on native coin denominations."""


class InvariantViolation(SimError):
    """A conservation identity failed; the run must stop."""


class ChainHalted(SimError):
    """Block production was attempted while the chain is halted."""
