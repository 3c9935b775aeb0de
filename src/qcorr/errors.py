"""Exception types shared across the package."""


class QcorrError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(QcorrError):
    """Input matrix deviates from Hermiticity beyond tolerance."""


class NotPositive(QcorrError):
    """Input matrix has an eigenvalue below the negativity tolerance."""


class TraceDeviation(QcorrError):
    """Input matrix trace deviates from one beyond tolerance."""


class LayoutMismatch(QcorrError):
    """Bipartite layout inconsistent with the state dimension."""


class InvalidQ(QcorrError):
    """Entropic index outside the valid range (q > 0, q != 1)."""


class DimensionMismatch(QcorrError):
    """Operation requires a state of a different dimension."""


class UnsupportedFamily(QcorrError):
    """Entropy family not supported by this operation."""


class TooLarge(QcorrError):
    """Chain longer than the exact-diagonalization cap (``spinchain.MAX_SITES``)."""


class IndexOutOfRange(QcorrError):
    """Site index outside the chain."""


class GammaTooLarge(QcorrError):
    """Field angle at or beyond the factorization cone."""


class InvalidTheta(QcorrError):
    """Cant angle outside the open-closed interval (0, pi/2]."""


class UnsupportedGeometry(QcorrError):
    """Chain or field outside the domain of a parity-sector or sign-map routine."""


class SweepConfigError(QcorrError):
    """Malformed sweep configuration."""


class ZeroEigenvalueLog(UserWarning):
    """A zero eigenvalue was floored before taking a logarithm."""
