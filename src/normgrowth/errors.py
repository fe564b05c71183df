"""Exception types shared across the package."""


class NormGrowthError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(NormGrowthError):
    """An enumeration grew past its configured cap."""


class NotBijective(NormGrowthError):
    """A permutation input is not a bijection on its points."""


class KeyCollision(NormGrowthError):
    """A closure's row keys collided, so some element times a generator is no enumerated row."""


class NotPrimePower(NormGrowthError):
    """A field size is not a supported prime power."""


class UnsupportedPrimePower(NotPrimePower):
    """A field size is a prime power that the builders do not support."""


class DegenerateSpectrum(NormGrowthError):
    """Every random combination of class matrices had colliding eigenvalues."""


class NonIntegralDegree(NormGrowthError):
    """A recovered character degree is too far from an integer."""


class OnlyTrivial(NormGrowthError):
    """The character table has no nontrivial row."""


class EmptySubset(NormGrowthError):
    """A subset argument is empty where a nonempty one is required."""


class TrivialSubset(NormGrowthError):
    """A normal subset is empty or equal to {identity}."""


class NotNormal(NormGrowthError):
    """A subset is not a union of conjugacy classes."""


class NotSimple(NormGrowthError, ValueError):
    """A census that assumes a simple group was given one that is not."""


class InvalidWeights(NormGrowthError, ValueError):
    """Distribution weights are not a probability vector within `dist-unit`."""


class ClassPartitionError(NormGrowthError):
    """A class table's blocks are not exactly the conjugacy classes of its group."""


class CountMismatch(NormGrowthError):
    """Class-tensor pair counts disagree with a brute-force count on the elements."""


class NoConvergence(NormGrowthError):
    """An eigensolve overran its step bound or failed its certificate, or lambda left [0, 1]."""


class NotLieType(NormGrowthError):
    """The group does not carry a defining field order."""


class SchemaError(NormGrowthError):
    """A character-table document does not match the expected schema."""


class OrthogonalityError(NormGrowthError):
    """A character table failed orthogonality certification."""


class ParseError(NormGrowthError):
    """A group spec, subset expression, or word string cannot be parsed."""


class EmptyWord(ParseError):
    """A group word is empty or freely reduces to the empty word."""
