"""Exception hierarchy shared by the whole stack.

Protocol-level rejections carry a stable ``code`` string (e.g. "BadCounter",
"InsufficientFunds") so tests and the CLI can match on them without parsing
messages.
"""
from __future__ import annotations


class DeskchainError(Exception):
    """Base class for every error raised by this package."""


class CodecError(DeskchainError):
    """Malformed canonical encoding."""


class LedgerError(DeskchainError):
    """A protocol rule was violated; ``code`` names the rule."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


class TxError(LedgerError):
    """Transaction rejected before or during application."""


class BlockError(LedgerError):
    """Block or header rejected."""


class VmFailure(DeskchainError):
    """A VM run did not halt cleanly; ``status`` is the VmResult status."""

    def __init__(self, status: str, message: str = ""):
        self.status = status
        super().__init__(f"{status}: {message}" if message else status)


class ScenarioError(DeskchainError):
    """Scenario script rejected; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")
