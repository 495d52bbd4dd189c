"""Exception types shared across the package."""


class ArfrfError(Exception):
    """Base class for all domain errors raised by this package."""


class NotNumerical(ArfrfError):
    """The generator set does not generate a numerical semigroup (gcd != 1)."""

    def __init__(self, gens, gcd):
        super().__init__(
            f"generators {tuple(gens)} have gcd {gcd}; a numerical semigroup needs gcd 1"
        )


class NotPseudoFrobenius(ArfrfError):
    """The requested integer is not a pseudo-Frobenius number of the semigroup;
    ``value`` None: the semigroup is N, which has none."""

    def __init__(self, value, pf):
        super().__init__("no pseudo-Frobenius numbers (S covers all of N)" if value is None
                         else f"{value} is not a pseudo-Frobenius number; PF = {list(pf)}")


class InvalidFamily(ArfrfError):
    """A family spec violates its congruence / range constraints."""


class DimensionMismatch(ArfrfError):
    """Vector length does not match the ambient dimension."""


class NotSublattice(ArfrfError):
    """A claimed sublattice has a generator outside the ambient lattice."""


class UnknownClaim(ArfrfError):
    """Requested claim id is not registered."""


class GridTooLarge(ArfrfError):
    """Requested sweep grid exceeds the configured safety cap."""


class TooManyMatrices(ArfrfError):
    """RF enumeration would exceed the caller-imposed cap."""

    def __init__(self, count, cap):
        noun = "matrix" if count == 1 else "matrices"
        super().__init__(f"enumeration would produce {count} {noun}, above the cap {cap}")
