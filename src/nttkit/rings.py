"""Quotient-ring descriptors and coefficient-vector polynomials: a ``Poly``
is one checked, read-only int64 array, which every product path reads
and returns."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormMismatch, RingMismatch
from .modarith import check_modulus

XN_MINUS_1 = "x^n-1"
XN_PLUS_1 = "x^n+1"
TRINOMIAL = "x^n-x^(n/2)+1"
XN_MINUS_X_MINUS_1 = "x^n-x-1"
GENERAL = "general"

FORMS = (XN_MINUS_1, XN_PLUS_1, TRINOMIAL, XN_MINUS_X_MINUS_1, GENERAL)


def is_pow2(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


@dataclass(frozen=True)
class RingSpec:
    """Z_q[x]/(phi(x)) with phi in one of the recognized forms.

    ``phi`` is only stored for GENERAL (monic, ascending coefficients,
    length n+1); the named forms derive it on demand.
    """

    form: str
    n: int
    q: int
    phi: tuple | None = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise FormMismatch(f"unknown ring form {self.form!r}")
        if self.n < 1:
            raise ValueError("ring degree must be positive")
        check_modulus(self.q)
        if self.form == TRINOMIAL:
            if self.n % 3 != 0 or not is_pow2(self.n // 3) or self.n // 3 < 2:
                raise FormMismatch("trinomial ring needs n = 3*2^e with e >= 1")
        if self.form == XN_MINUS_X_MINUS_1 and self.n < 2:
            raise FormMismatch("x^n - x - 1 needs n >= 2")
        if self.form == GENERAL:
            if self.phi is None or len(self.phi) != self.n + 1:
                raise FormMismatch("general ring needs phi of length n+1")
            if self.phi[-1] % self.q != 1:
                raise FormMismatch("phi must be monic")
        elif self.phi is not None:
            raise FormMismatch("phi is only stored for general rings")

    @cached_property
    def reduction_terms(self) -> tuple:
        """(j, r_j) for each nonzero coefficient of x^n mod phi, mod q (r_j =
        -phi_j), ascending in j; built once per ring."""
        return tuple((j, -c % self.q) for j, c in enumerate(self.phi_coeffs()[: self.n]) if c)

    def phi_coeffs(self) -> list:
        """Ascending coefficients of phi, reduced mod q."""
        n, q = self.n, self.q
        if self.form == GENERAL:
            return [c % q for c in self.phi]
        c = [0] * (n + 1)
        c[n] = 1
        if self.form == XN_MINUS_1:
            c[0] = (-1) % q
        elif self.form == XN_PLUS_1:
            c[0] = 1
        elif self.form == TRINOMIAL:
            c[0] = 1
            c[n // 2] = (-1) % q
        elif self.form == XN_MINUS_X_MINUS_1:
            c[0] = (-1) % q
            c[1] = (-1) % q
        return c


def canonical(values, q: int) -> np.ndarray:
    """``values``, a list or an array of any shape, as an integer array
    (numpy ints, or ``object`` past int64), checked once as a whole: every
    entry an integer (Python or numpy, never a bool) and canonical in
    [0, q).  An integer array is checked without a loop over its entries;
    the entry types of a list are scanned for bools, since numpy reads a
    bool among ints as an int.  The one check of coefficients and
    transform-domain values from outside."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":  # bools, floats, or ints past int64 (object): check each
        a = np.array(values, dtype=object)
        if not all(isinstance(v, (int, np.integer)) and type(v) is not bool for v in a.flat):
            raise ValueError("coefficients must be integers")
    elif not isinstance(values, np.ndarray):  # numpy reads a bool among ints as an int
        kinds = set(map(type, values if a.ndim == 1 else np.array(values, dtype=object).flat))
        if bool in kinds or np.bool_ in kinds:
            raise ValueError("coefficients must be integers")
    if a.size and (a.min() < 0 or a.max() >= q):
        raise ValueError("coefficients must be canonical in [0, q)")
    return a


class Poly:
    """Length-n canonical coefficient vector over its ring (ascending).

    The constructor checks a list or an array of integers (Python or
    numpy) once, as a whole: length, integrality and range.  ``array`` is
    its fresh read-only int64 copy (every q up to 2^42 fits); ``coeffs``
    is a new list of Python ints on every read.
    """

    __slots__ = ("array", "ring")

    def __init__(self, values, ring: RingSpec):
        a = canonical(values, ring.q)
        if a.shape != (ring.n,):
            raise ValueError(f"expected {ring.n} coefficients, got shape {a.shape}")
        self.array = a.astype(np.int64)
        self.array.flags.writeable = False
        self.ring = ring

    @property
    def coeffs(self) -> list:
        return self.array.tolist()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.ring == other.ring
                and np.array_equal(self.array, other.array))

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r}, {self.ring!r})"

    @classmethod
    def from_ints(cls, ints, ring: RingSpec) -> "Poly":
        """Reduce arbitrary integers (shorter vectors are zero-padded)."""
        q = ring.q
        c = [v % q for v in ints]
        if len(c) > ring.n:
            raise ValueError("too many coefficients for the ring degree")
        c += [0] * (ring.n - len(c))
        return cls(c, ring)

    @classmethod
    def zero(cls, ring: RingSpec) -> "Poly":
        return cls([0] * ring.n, ring)

    @classmethod
    def one(cls, ring: RingSpec) -> "Poly":
        return cls.from_ints([1], ring)

    @classmethod
    def random(cls, ring: RingSpec, rng) -> "Poly":
        return cls([rng.randrange(ring.q) for _ in range(ring.n)], ring)

    @classmethod
    def random_small(cls, ring: RingSpec, rng, bound: int) -> "Poly":
        """Uniform centered coefficients in [-bound, bound], stored canonically."""
        q = ring.q
        return cls([rng.randint(-bound, bound) % q for _ in range(ring.n)], ring)

    def add(self, other: "Poly") -> "Poly":
        return self._apply(np.add, other)

    def sub(self, other: "Poly") -> "Poly":
        return self._apply(np.subtract, other)

    def _apply(self, ufunc, other: "Poly") -> "Poly":
        if self.ring != other.ring:
            raise RingMismatch("polynomials belong to different rings")
        return Poly(ufunc(self.array, other.array) % self.ring.q, self.ring)
