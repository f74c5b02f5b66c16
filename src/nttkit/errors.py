"""Exception types raised by nttkit.

Everything derives from NttError so callers can catch library failures
with a single except clause; the CLI maps these to exit status 2.
"""


class NttError(Exception):
    """Base class for all nttkit errors."""


class NotInvertible(NttError):
    """gcd(a, m) != 1, so a has no inverse mod m."""


class NoSuchRoot(NttError):
    """No root of unity of the requested order exists in the ring."""


class InvalidRoot(NttError):
    """A supplied root fails the primitive/principal root test."""


class OrderMismatch(NttError):
    """Twiddle table order or direction does not match the transform."""


class SpecViolation(NttError):
    """Transform spec is internally inconsistent or illegal for the input."""


class RingMismatch(NttError):
    """Operands or tables belong to different rings."""


class ModulusMismatch(NttError):
    """Operands carry different coefficient moduli."""


class FormMismatch(NttError):
    """Ring modulus polynomial has the wrong form for this operation."""


class LengthMismatch(NttError):
    """Operand lengths disagree or are not the required power of two."""


class SpecMismatch(NttError):
    """Transform-domain values from incompatible specs were combined."""


class BadAlpha(NttError):
    """Splitting depth does not divide the ring degree."""


class ParameterCondition(NttError):
    """A congruence or primality precondition on (n, q) fails, or a caller's
    operand profile or basis is malformed."""


class BoundTooSmall(NttError):
    """Working modulus is too small for exact recovery of the product."""


class NotCoprime(NttError):
    """Residue-number-system primes are not pairwise distinct."""


class PadTooSmall(NttError):
    """Padded length cannot hold the full product without wraparound."""


class BadShape(NttError):
    """Array or matrix dimensions do not match the declared layout."""


class ShapeCondition(NttError):
    """A structural requirement between block sizes fails (e.g. n >= m)."""


class ChainMismatch(NttError):
    """Consecutive embedding steps do not agree on their rings."""


class PlanMismatch(NttError):
    """Transform-domain data was produced under a different plan."""


class NoStrategy(NttError):
    """No implemented multiplication route applies to the ring."""


class UnknownPreset(NttError):
    """Preset name is not in the registry."""


class ParseError(NttError):
    """Polynomial file did not parse; carries line and column."""

    def __init__(self, message, line, column=0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class IncompatibleRings(NttError):
    """Two polynomial files declare different rings."""
