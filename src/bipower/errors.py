"""Exception types shared across the package."""

from __future__ import annotations

from typing import Any


class BipowerError(Exception):
    """Base class for all package errors."""


class InputError(BipowerError):
    """Bad input data or a violated operation precondition (CLI exit 2)."""


class CapacityError(BipowerError):
    """An exhaustive enumeration exceeded ``harness.ENUMERATION_CAP``.

    Library-only: no command-line verb enumerates graphs.
    """


class TheoremCounterexample(BipowerError):
    """A closure property that should always hold failed on a concrete instance.

    Carries a serializable ``report`` describing the instance so it can be
    re-checked from the command line.  Campaigns treat these as data, not
    crashes (CLI exit 3).
    """

    def __init__(self, message: str, report: dict[str, Any]):
        super().__init__(message)
        self.report = report
