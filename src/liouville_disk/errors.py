"""Exception hierarchy and warning categories.

Exceptions are grouped by how the CLI maps them to exit codes:
input problems (exit 1), numerical-guard trips (exit 2), and
theorem-contradiction signals (exit 3, the highest severity).
"""


class LiouvilleDiskError(Exception):
    """Base class for all package errors."""


class InputError(LiouvilleDiskError):
    """Caller supplied data violating a documented precondition (exit code 1)."""


class GuardError(LiouvilleDiskError):
    """A numerical guard tripped; the result would be unreliable (exit code 2)."""


# --- input errors ---------------------------------------------------------

class InvalidInput(InputError):
    pass


class InvalidRadius(InputError):
    pass


class PoleOfProjection(InputError):
    """Stereographic projection evaluated at -i."""


class NotIntegrable(InputError):
    pass


# --- numerical guards -----------------------------------------------------

class UnderResolved(GuardError):
    """Resolution guard tripped: spectrum or series tail carries too much energy."""


class NotHolomorphic(GuardError):
    """Boundary data has significant negative-frequency content."""


class SingularMismatch(GuardError):
    """Dirac mass present where none is declared (or vice versa)."""


class NotGenericPosition(GuardError):
    """Near-tangential or corner-adjacent crossing; jitter may resolve it."""


class JitterTooLarge(GuardError):
    """Perturbation changed the rotation index."""


class ArrangementCorrupt(GuardError):
    """Euler relation V - E + F = 2 failed for the arrangement graph."""


class RayCastFailed(GuardError):
    """No admissible escape ray among the candidate directions."""


class DecompositionCorrupt(GuardError):
    """Seifert pieces' signed orientations do not sum to the rotation index."""


class NumericalInconsistency(GuardError):
    """Total turning is not close enough to an integer multiple of 2*pi."""


class TieBreakAmbiguous(GuardError):
    """Left/right probe at a pi exterior angle was inconclusive."""


class CenterUnstable(GuardError):
    """Concentration center drifted across the sequence beyond the finest radius."""


class InconclusiveLimit(GuardError):
    """Non-monotone tail in k; the nested-limit proxy cannot be trusted."""


class InconclusiveMesh(GuardError):
    """Mesh tolerance exceeds the distance gap being measured."""


# --- highest severity -----------------------------------------------------

class TheoremViolation(LiouvilleDiskError):
    """A quantization bound failed on validated data (exit code 3).

    This is a test-failure signal, not a recoverable condition.
    """


# --- warnings -------------------------------------------------------------

class BandLimitWarning(UserWarning):
    """Top decile of the spectrum carries more than 1% of the energy."""


class IllConditioned(UserWarning):
    """Singular anchors closer than two grid cells apart."""


class FitWarning(UserWarning):
    """Least-squares tail fit has a large residual or non-monotone data."""
