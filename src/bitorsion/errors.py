"""Exception hierarchy shared by all bitorsion modules."""


class BitorsionError(Exception):
    """Base class for everything this package raises on purpose."""


class DimensionError(BitorsionError):
    """Operand shapes are incompatible with the requested operation."""


class InvalidMatrixError(BitorsionError):
    """Matrix data is malformed (non-finite entries, wrong dtype layout)."""


class ConvergenceError(BitorsionError):
    """An iterative eigenvalue computation failed to converge."""


class AmbiguousCutError(BitorsionError):
    """An eigenvalue sits too close to a spectral-cut boundary."""


class DegenerateFormError(BitorsionError):
    """A bilinear form fails symmetry or nondegeneracy requirements."""


class ShapeError(BitorsionError):
    """Cohomology/chain data does not match the complex it claims to describe."""


class ConditioningError(BitorsionError):
    """A Gram matrix along the torsion computation is numerically singular."""


class ChainComplexError(BitorsionError):
    """The assembled differential does not square to zero."""

    def __init__(self, message, offending_pair=None):
        super().__init__(message)
        self.offending_pair = offending_pair


class EulerCharacteristicError(BitorsionError):
    """An operation requiring vanishing Euler characteristic got chi != 0."""


class UnsupportedSystemError(BitorsionError):
    """Operation restricted to circle-shaped Morse systems got something else."""


class PresentationError(BitorsionError):
    """A knot presentation violates the deficiency-1 / conjugation shape rules."""


class HolonomyError(BitorsionError):
    """A holonomy value or representation image is unusable (zero, singular)."""


class HomotopyClassError(BitorsionError):
    """A bilinear density with winding would change the holonomy class."""


class ZeroModeError(BitorsionError):
    """Plain determinant requested where the operator has a kernel."""


class GridError(BitorsionError):
    """Grid resolution too small, or critical points not resolved by the grid."""


class ResolutionError(BitorsionError):
    """A spectral count is unreliable: an eigenvalue hugs the threshold."""


class ThetaNotZeroError(BitorsionError):
    """Comparison requested outside the zero relative-density regime."""


class SchemaError(BitorsionError):
    """A JSON input file violates the documented schema."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
