"""Large-modulus multiplication, and the executor every plan runs on.

The product is computed exactly over the integers by working modulo a
large N: either one NTT-friendly prime, a residue number system over
several, or the composite N itself with a principal root of unity.  A
residue number system is also how a planned route runs a working
modulus N >= 2^31: on primes below 2^31, so its transforms stay int64.
Coefficients cross the boundary in centered form; the two conversion
functions below are the only places the sign convention appears, and
``garner`` is the one CRT, for recovery and the composite root search.
``LiftedExecutor`` is the base of every plan executor; the unlifted
routes run on it with N == q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from . import bounds, modarith, polymul, transforms
from .errors import (
    BoundTooSmall,
    InvalidRoot,
    NoSuchRoot,
    NotCoprime,
    ParameterCondition,
    RingMismatch,
)
from .modarith import MODULUS_CEILING, is_prime, is_principal_root
from .rings import Poly, RingSpec

FULL_FULL = "full*full"
FULL_SMALL = "full*small"
MATVEC = "matvec"


_PROFILE_ARGS = {FULL_FULL: (), FULL_SMALL: ("mu",), MATVEC: ("k", "mu")}


def required_bound(n: int, q: int, profile=(FULL_FULL,)) -> int:
    """Minimal admissible working modulus for an operand profile.

    full*full keeps the stated n*q^2 (centered operands would allow
    half); full*small(mu) and matvec(k, mu) use k*n*q*mu/2, k = 1 for
    full*small.  A malformed profile raises ParameterCondition.
    """
    kind, args = (profile[0], tuple(profile[1:])) if len(profile) else (None, ())
    names = _PROFILE_ARGS.get(kind)
    if names is None:
        raise ParameterCondition(
            f"unknown operand profile {profile!r}; kinds: {', '.join(_PROFILE_ARGS)}")
    if len(args) != len(names) or not all(type(x) is int for x in args):
        spell = ", ".join((repr(kind), *names))
        raise ParameterCondition(
            f"operand profile {profile!r}: expected ({spell}) with integer parameters")
    if kind == FULL_FULL:
        return n * q * q
    k, mu = args if kind == MATVEC else (1, *args)
    return k * n * q * mu // 2


# ---------------------------------------------------------------------------
# centered lifting and recovery


@dataclass(frozen=True)
class LiftedPoly:
    """Centered lift of a coefficient array, remembering its magnitude."""

    coeffs: np.ndarray  # int64 representatives in [-q/2, q/2)
    centered_bound: int
    effective_len: int  # coefficients up to the last nonzero one


def lift_centered(x: np.ndarray, q: int) -> LiftedPoly:
    """The canonical residues ``x`` mod q as a fresh int64 array of
    centered representatives (any q <= 2^42 fits), with the magnitude and
    length the operand check reads."""
    c = np.array(x, dtype=np.int64)
    c -= (c > (q - 1) // 2) * q
    nonzero = np.flatnonzero(c)
    eff = int(nonzero[-1]) + 1 if nonzero.size else 0
    return LiftedPoly(c, int(np.abs(c).max()), eff)


def garner(residues, moduli) -> np.ndarray:
    """Per array entry, the v in [0, P) with v = residues[i] mod moduli[i],
    P <= 2^42 the product of the distinct primes ``moduli``, by Garner's
    mixed-radix CRT, one modulus at a time; the residues are never mutated.
    The result is int64 while every modulus after the first is
    ``bounds.vectorized`` (which derives the digit bounds), and ``object``
    otherwise.
    """
    dtype = np.int64 if all(map(bounds.vectorized, moduli[1:])) else object
    v, P = np.array(residues[0], dtype=dtype), moduli[0]
    for r, p in zip(residues[1:], moduli[1:]):
        d = (r - v) % p
        d *= modarith.mod_inv(P % p, p)
        d %= p
        d *= P
        v += d
        P *= p
    return v


def recover_centered(residues, moduli, q: int) -> np.ndarray:
    """Map one residue array per working modulus back into Z_q, as an
    int64 array; the residues are never mutated.

    ``garner`` gives v in [0, P); v then goes through [-P/2, P/2) into Z_q.
    With several moduli each is below 2^31, so all of it is int64 (an
    ``object`` residue buffer of a lone modulus >= 2^31 converts).
    """
    v, P = garner(residues, moduli), prod(moduli)
    v -= (v > (P - 1) // 2) * P
    v %= q
    return v


def _check_dynamic_bound(la: LiftedPoly, lb: LiftedPoly, N: int):
    # any wrapped-convolution coefficient sums at most min(eff_a, eff_b)
    # products, each bounded by the centered magnitudes
    terms = min(la.effective_len, lb.effective_len)
    if 2 * terms * la.centered_bound * lb.centered_bound > N - 1:
        raise BoundTooSmall(
            f"N={N} cannot hold {terms} products of magnitudes "
            f"{la.centered_bound}*{lb.centered_bound}"
        )


def bound_check(N: int, ring: RingSpec, profile, what: str) -> tuple:
    """(description, ok): the one comparison of a working modulus with the
    profile bound; N must exceed it."""
    bound = required_bound(ring.n, ring.q, profile)
    return f"{what} > bound {bound}", N > bound


class LiftedExecutor:
    """Exact product of two ring elements modulo a working modulus N: the
    base of every plan executor.

    A route defines ``__init__`` (its checks), ``table(p)`` (its tables
    mod one working modulus p, built on first use and kept in ``tables``)
    and ``run(x, y, table)`` (its product of two arrays mod p, returned as
    a buffer).  ``product`` is the one path of every route, on int64
    coefficient arrays; ``multiply``, the only ring check of a planned
    product, passes it each operand's ``Poly.array`` and builds the one
    Poly of the result.  The working moduli are N, or a
    ``basis`` of distinct primes below 2^31 in its place, with product P.
    Both operands are lifted once, centered, and checked against P; the
    route runs once per working modulus; Garner recovery mod P, centered,
    gives the product mod q.  With N == q (the direct, split, trinomial
    and chain routes, and an unlifted terminal) the arithmetic wraps mod
    q by design, and ``run`` gets the operands as they are.  ``reads``,
    when a route sets it, is how many leading coefficients of each
    operand can be nonzero: only those are lifted, ``run`` then gets just
    those, and only the 2 reads - 1 leading entries of its products that
    can be nonzero are recovered.
    """

    reads = None

    def __init__(self, ring: RingSpec, N: int, basis=()):
        self.ring, self.N = ring, N
        self.moduli = tuple(basis) or (N,)
        if len(self.moduli) > 1 and not all(map(bounds.vectorized, self.moduli)):
            raise ParameterCondition(f"basis {self.moduli}: every basis prime must be below 2^31")
        self.P = prod(self.moduli)

    @cached_property
    def tables(self) -> tuple:
        return tuple(self.table(p) for p in self.moduli)

    def multiply(self, a: Poly, b: Poly) -> Poly:
        if a.ring != self.ring or b.ring != self.ring:
            raise RingMismatch("operands do not live in the executor's ring")
        return Poly(self.product(a.array, b.array), self.ring)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The ring product of two int64 arrays of canonical coefficients,
        as a buffer of canonical residues mod q."""
        if self.N == self.ring.q:
            return self.run(x, y, self.tables[0])
        q, n = self.ring.q, self.ring.n
        la, lb = lift_centered(x[: self.reads], q), lift_centered(y[: self.reads], q)
        _check_dynamic_bound(la, lb, self.P)
        keep = n if self.reads is None else min(n, 2 * self.reads - 1)
        residues = [self.run(la.coeffs % p, lb.coeffs % p, t)[:keep]
                    for p, t in zip(self.moduli, self.tables)]
        v = recover_centered(residues, self.moduli, q)
        return v if keep == n else np.concatenate((v, np.zeros(n - keep, dtype=v.dtype)))


def _one_shot(route: LiftedExecutor, a: Poly, b: Poly, profile) -> Poly:
    """Check the profile bound, then run a freshly built executor."""
    if route.N != a.ring.q:
        desc, ok = bound_check(route.P, a.ring, profile, f"N={route.P}")
        if not ok:
            raise BoundTooSmall(f"profile bound fails: {desc}")
    return route.multiply(a, b)


# ---------------------------------------------------------------------------
# method 1: one NTT-friendly large prime


class BigPrimeExecutor(LiftedExecutor):
    """Plan executor of the big-prime and RNS routes, one cropped pipeline
    per working modulus, and, with N == q, of the full and incomplete
    routes; also every Good and plain chain terminal.  ``source``, when
    given, is how many leading coefficients of either operand can be
    nonzero (a padded chain's source length): its pairs truncate their
    schedules to it (``polymul.TransformPair``), and only that prefix of
    each operand is lifted and reduced (``reads``)."""

    root = None  # make_transform_pair searches the smallest

    def __init__(self, ring: RingSpec, N: int, beta: int = 0, basis=(), source: int | None = None):
        polymul.check_pair_ring(ring, beta)
        super().__init__(ring, N, basis)
        self.beta, self.reads = beta, source

    def table(self, p: int) -> polymul.TransformPair:
        big = RingSpec(self.ring.form, self.ring.n, p)
        return polymul.make_transform_pair(big, self.beta, root=self.root, source=self.reads)

    def run(self, x, y, pair):
        return pair.product(x, y)


def bigprime_multiply(a: Poly, b: Poly, N: int, beta: int = 0, profile=(FULL_FULL,)) -> Poly:
    """Lift to Z_N, run one cropped pipeline there, reduce back mod q."""
    if not is_prime(N):
        raise ParameterCondition(f"N={N} is not prime")
    return _one_shot(BigPrimeExecutor(a.ring, N, beta), a, b, profile)


# ---------------------------------------------------------------------------
# method 2: residue number system


@dataclass(frozen=True)
class RnsBasis:
    """Distinct NTT-friendly primes whose product is the working modulus."""

    primes: tuple

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise NotCoprime("basis primes must be distinct")
        for p in self.primes:
            if not is_prime(p):
                raise NotCoprime(f"basis element {p} is not prime")
        if self.product > MODULUS_CEILING:
            raise ParameterCondition(f"basis {self.primes}: product {self.product} exceeds the "
                                     "2^42 modulus ceiling")

    @cached_property
    def product(self) -> int:
        return prod(self.primes)


class RnsExecutor(BigPrimeExecutor):
    """Plan executor of the RNS route: the big-prime pipeline over each
    basis prime, recombined by Garner's algorithm."""

    def __init__(self, ring: RingSpec, basis: RnsBasis, beta: int = 0):
        super().__init__(ring, basis.product, beta, basis.primes)
        self.basis = basis


def rns_multiply(a: Poly, b: Poly, basis: RnsBasis, beta: int = 0, profile=(FULL_FULL,)) -> Poly:
    """Independent per-prime pipelines recombined by Garner's algorithm."""
    return _one_shot(RnsExecutor(a.ring, basis, beta), a, b, profile)


# ---------------------------------------------------------------------------
# method 3: composite-modulus ring with a principal root


ROOT_SEARCH_CHUNK = 1 << 16  # CRT lifts per chunk of the composite root search


def find_principal_root_composite(k: int, basis: RnsBasis) -> int:
    """Smallest principal k-th root of unity mod the basis product.

    A residue is principal mod N exactly when it reduces to a principal
    (= primitive, the factors being prime) k-th root mod every basis
    prime, so the candidate set is the CRT lift of the per-prime sets.
    The grid of lifts runs in chunks of the first prime's candidates, as
    many per chunk as keep it within ``ROOT_SEARCH_CHUNK`` lifts (at least
    one), so its memory does not grow with the number of primes.
    """
    for p in basis.primes:
        if (p - 1) % k != 0:
            raise NoSuchRoot(f"{k} does not divide {p}-1 (gcd condition fails)")
    first, *rest = [list(modarith.root_candidates_prime(k, p)) for p in basis.primes]
    step = max(1, ROOT_SEARCH_CHUNK // prod(map(len, rest)))
    best = min(int(garner(np.meshgrid(first[i : i + step], *rest), basis.primes).min())
               for i in range(0, len(first), step))
    if not is_principal_root(best, k, basis.product):
        raise InvalidRoot(f"CRT lift {best} is not a principal {k}-th root mod {basis.product}")
    return best


def find_principal_root_for_modulus(k: int, m: int) -> int:
    """find_root delegate for composite m: factor, then CRT-enumerate."""
    fs = modarith.prime_factors(m)
    if prod(fs) != m:
        raise NoSuchRoot(f"modulus {m} is not squarefree")
    if len(fs) < 2:
        raise NoSuchRoot(f"modulus {m} is not a product of distinct primes")
    return find_principal_root_composite(k, RnsBasis(tuple(fs)))


class CompositeExecutor(BigPrimeExecutor):
    """Plan executor of the composite route: one pipeline over Z_N, N the
    basis product, with a principal root found on first use."""

    def __init__(self, ring: RingSpec, basis: RnsBasis, beta: int = 0):
        super().__init__(ring, basis.product, beta)
        self.basis = basis
        self.order = transforms.root_order(ring.form, ring.n, beta)
        for p in basis.primes:
            if (p - 1) % self.order != 0:
                raise ParameterCondition(f"{self.order} does not divide {p}-1 (gcd condition fails)")

    @cached_property
    def root(self) -> int:
        return find_principal_root_composite(self.order, self.basis)


def composite_multiply(a: Poly, b: Poly, basis: RnsBasis, beta: int = 0, profile=(FULL_FULL,)) -> Poly:
    """One pipeline over Z_N itself, N composite, using a principal root."""
    return _one_shot(CompositeExecutor(a.ring, basis, beta), a, b, profile)
