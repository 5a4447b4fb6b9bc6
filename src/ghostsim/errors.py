"""Exception hierarchy.

Every error the library raises deliberately derives from GhostSimError so
callers (and the CLI exit-code mapping) can tell physics/numerics failures
apart from plain bugs.
"""

from __future__ import annotations

__all__ = [
    "GhostSimError",
    "InvalidArgumentError",
    "GridMismatchError",
    "SamplingCriterionError",
    "DegenerateStatisticsError",
    "UnsupportedProfileError",
    "NotMeasurableError",
    "ConfigError",
]


class GhostSimError(Exception):
    """Base class for all errors raised by ghostsim."""


class InvalidArgumentError(GhostSimError, ValueError):
    """An argument violates a documented precondition."""


class GridMismatchError(GhostSimError, ValueError):
    """Two objects that must share a grid were built on different grids."""


class SamplingCriterionError(GhostSimError):
    """Grid spacing too coarse to sample the Fresnel chirp without aliasing."""


class DegenerateStatisticsError(GhostSimError):
    """An estimator was asked to normalize by a quantity that is zero.

    Typical causes: an opaque mask (no light in the bucket), an empty
    coincidence baseline, or a source with no power.
    """


class UnsupportedProfileError(GhostSimError):
    """A closed-form result was requested for a profile it does not cover."""


class NotMeasurableError(GhostSimError):
    """The requested quantity is swamped by noise or instrument response.

    Raised for example when timing jitter is so large that the coherence
    time cannot be recovered from a coincidence histogram. This is an
    honest physical outcome, not a bug.
    """


class ConfigError(GhostSimError):
    """A scenario file failed to parse or validate.

    Carries the offending key and line number when known so the CLI can
    print a usable diagnostic, "line N: key 'k': message"; parse_scenario
    fills in the line of a key the file sets.
    """

    def __init__(self, message: str, *, line: int | None = None, key: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.key = key

    def __str__(self) -> str:
        line = "" if self.line is None else f"line {self.line}: "
        key = "" if self.key is None else f"key '{self.key}': "
        return line + key + self.message
