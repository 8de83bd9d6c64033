"""Exception types shared across the package."""


class DensymError(Exception):
    """Base class for all package errors."""


class RingMismatchError(DensymError):
    """Operands live over different base geometries (line vs circle)."""


class UnsupportedFunctionalError(DensymError):
    """A circle-only functional (the mean) was requested on the line."""


class WeightMismatchError(DensymError):
    """Density weights do not satisfy the operation's precondition."""


class InapplicableSymmetryError(DensymError):
    """A cataloged map was requested at weights where it is not defined."""


class TruncationOverflowError(DensymError):
    """An image left the truncated test space instead of being cut off."""


class NotInKernelError(DensymError):
    """Inverse of right-composition with d applied outside its range."""


class SpanNotClosedError(DensymError):
    """Pairwise products of the given maps leave their linear span."""


class SpanMismatchError(DensymError):
    """Catalog generators disagree with the computed symmetry space.

    They fail to span its dimension, violate the recurrence, or are not
    jet maps; the two classification routes disagreeing raises it too.
    """
