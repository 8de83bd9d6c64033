"""Exception types shared across the package."""


class DensymError(Exception):
    """Base class for all package errors."""


class RingMismatchError(DensymError):
    """Operands live over different base geometries (line vs circle)."""


class UnsupportedFunctionalError(DensymError):
    """A circle-only functional (the mean) was requested on the line."""


class WeightMismatchError(DensymError):
    """Weights do not fit the operation, or a density is not in D^0_{0,nu}."""


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

    They fail to span its dimension or violate the recurrence; the two
    classification routes disagreeing raises it too.
    """
