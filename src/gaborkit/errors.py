"""Exception hierarchy for the toolkit.

All toolkit errors derive from :class:`GaborkitError` so callers can catch
one base class.  Numerical-failure errors derive from :class:`CutoffError`
and carry the offending singular value and the cutoff that rejected it.
"""


class GaborkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(GaborkitError, ValueError):
    """An input array has the wrong shape, or samples no window or signal can have."""


class LatticeError(GaborkitError, ValueError):
    """Lattice parameters violate a divisibility or positivity constraint."""


class MemoryGuardError(GaborkitError):
    """A dense matrix was requested beyond the explicit-matrix size cap."""


class CutoffError(GaborkitError):
    """A smallest singular value fell at or below its cutoff; both are kept."""

    def __init__(self, message, sigma_min, cutoff):
        super().__init__(f"{message} (sigma_min={sigma_min:.6e}, cutoff={cutoff:.6e})")
        self.sigma_min = sigma_min
        self.cutoff = cutoff


class SingularAlgebraError(CutoffError):
    """Inversion was requested for a sequence whose convolution operator is
    numerically singular."""


class NotAFrameError(CutoffError):
    """A dual window was requested but the system is not a frame at the
    working tolerance."""


class NonCommutativeLatticeError(GaborkitError):
    """The commutative-case index was requested on a lattice whose shifts do
    not mutually commute."""


class PartitionOfUnityError(GaborkitError, ValueError):
    """The window does not satisfy the claimed partition-of-unity identity."""


class ConfigError(GaborkitError, ValueError):
    """A configuration field is invalid.  ``field`` names the offender."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
