"""Large-modulus multiplication for NTT-unfriendly coefficient moduli.

The product is computed exactly over the integers by working modulo a
large N: either one NTT-friendly prime, a residue number system over
several, or the composite N itself with a principal root of unity.
Coefficients cross the boundary in centered form; the two conversion
functions below are the only places the sign convention appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iterproduct
from math import prod

from . import modarith, polymul
from .errors import (
    BoundTooSmall,
    InvalidRoot,
    NoSuchRoot,
    NotCoprime,
    ParameterCondition,
    RingMismatch,
)
from .modarith import MODULUS_CEILING, is_prime, is_principal_root
from .rings import XN_PLUS_1, Poly, RingSpec

FULL_FULL = "full*full"
FULL_SMALL = "full*small"
MATVEC = "matvec"


def required_bound(n: int, q: int, profile=(FULL_FULL,)) -> int:
    """Minimal admissible working modulus for an operand profile.

    full*full keeps the stated n*q^2 (centered operands would allow
    half); full*small(mu) and matvec(k, mu) use k*n*q*mu/2.
    """
    kind = profile[0]
    if kind == FULL_FULL:
        return n * q * q
    if kind == FULL_SMALL:
        (mu,) = profile[1:]
        return n * q * mu // 2
    if kind == MATVEC:
        k, mu = profile[1:]
        return k * n * q * mu // 2
    raise ValueError(f"unknown operand profile {profile!r}")


# ---------------------------------------------------------------------------
# centered lifting


def centered(x: int, q: int) -> int:
    """Representative of x in [-q/2, q/2)."""
    return x - q if x > (q - 1) // 2 else x


@dataclass(frozen=True)
class LiftedPoly:
    """Centered lift of a Poly into Z_N, remembering its magnitude."""

    coeffs: tuple
    modulus: int
    centered_bound: int
    effective_len: int  # coefficients up to the last nonzero one


def lift_centered(a: Poly, N: int) -> LiftedPoly:
    q = a.ring.q
    cent = [centered(c, q) for c in a.coeffs]
    bound = max((abs(c) for c in cent), default=0)
    eff = 0
    for i, c in enumerate(cent):
        if c:
            eff = i + 1
    return LiftedPoly(tuple(c % N for c in cent), N, bound, eff)


def recover_centered(values, N: int, q: int):
    """Map canonical Z_N values back through [-N/2, N/2) into Z_q."""
    half = (N - 1) // 2
    return [(v - N if v > half else v) % q for v in values]


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
    """Exact product of two ring elements, computed modulo a large N.

    ``multiply`` is the one path of every large-modulus route: centered
    lift of both operands into Z_N, the operand-magnitude check, the
    route's own product there (``run``, on coefficient lists mod N) and
    centered recovery mod q.  With N == q (an unlifted terminal) the
    arithmetic wraps mod q by design: ``run`` gets the operands as they
    are, with no lift, check or recovery.  Subclasses build their tables
    on first use.
    """

    def __init__(self, ring: RingSpec, N: int):
        self.ring, self.N = ring, N

    def multiply(self, a: Poly, b: Poly) -> Poly:
        if a.ring != self.ring or b.ring != self.ring:
            raise RingMismatch("operands do not live in the executor's ring")
        if self.N == self.ring.q:
            return Poly(self.run(list(a.coeffs), list(b.coeffs)), self.ring)
        la, lb = lift_centered(a, self.N), lift_centered(b, self.N)
        _check_dynamic_bound(la, lb, self.N)
        c = self.run(list(la.coeffs), list(lb.coeffs))
        return Poly(recover_centered(c, self.N, self.ring.q), self.ring)


def _one_shot(route: LiftedExecutor, a: Poly, b: Poly, profile) -> Poly:
    """Check the profile bound, then run a freshly built executor."""
    if route.N != a.ring.q:
        desc, ok = bound_check(route.N, a.ring, profile, f"N={route.N}")
        if not ok:
            raise BoundTooSmall(f"profile bound fails: {desc}")
    return route.multiply(a, b)


# ---------------------------------------------------------------------------
# method 1: one NTT-friendly large prime


class BigPrimeExecutor(LiftedExecutor):
    """Plan executor of the big-prime route: one cropped pipeline over Z_N
    itself; the pair is built on first use."""

    root = None  # make_transform_pair searches the smallest

    def __init__(self, ring: RingSpec, N: int, beta: int = 0):
        polymul.check_pair_ring(ring, beta)
        super().__init__(ring, N)
        self.beta = beta

    @cached_property
    def pair(self) -> polymul.TransformPair:
        big = RingSpec(self.ring.form, self.ring.n, self.N)
        return polymul.make_transform_pair(big, self.beta, root=self.root)

    def run(self, x, y):
        big = self.pair.ring
        return polymul.ntt_multiply(Poly(x, big), Poly(y, big), self.pair).coeffs


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
            raise ValueError("basis product exceeds the 2^42 modulus ceiling")

    @cached_property
    def product(self) -> int:
        return prod(self.primes)

    @cached_property
    def _garner(self) -> tuple:
        N = self.product
        out = []
        for p in self.primes:
            M = N // p
            out.append((M, modarith.mod_inv(M % p, p)))
        return tuple(out)

    def reduce(self, value: int) -> tuple:
        return tuple(value % p for p in self.primes)


def crt_recombine(residues, basis: RnsBasis) -> int:
    """The unique value in [0, N) matching every residue."""
    if len(residues) != len(basis.primes):
        raise ValueError("residue count does not match the basis")
    N = basis.product
    acc = 0
    for r, p, (M, Minv) in zip(residues, basis.primes, basis._garner):
        acc = (acc + (r * Minv % p) * M) % N
    return acc


class RnsExecutor(LiftedExecutor):
    """Plan executor of the RNS route: one pipeline per basis prime,
    recombined coefficientwise by CRT; the pairs are built on first use."""

    def __init__(self, ring: RingSpec, basis: RnsBasis, beta: int = 0):
        polymul.check_pair_ring(ring, beta)
        super().__init__(ring, basis.product)
        self.basis, self.beta = basis, beta

    @cached_property
    def pairs(self) -> tuple:
        form, n = self.ring.form, self.ring.n
        return tuple(polymul.make_transform_pair(RingSpec(form, n, p), self.beta)
                     for p in self.basis.primes)

    def run(self, x, y):
        per_prime = []
        for p, pair in zip(self.basis.primes, self.pairs):
            xp = Poly([c % p for c in x], pair.ring)
            yp = Poly([c % p for c in y], pair.ring)
            per_prime.append(polymul.ntt_multiply(xp, yp, pair).coeffs)
        return [crt_recombine(col, self.basis) for col in zip(*per_prime)]


def rns_multiply(a: Poly, b: Poly, basis: RnsBasis, beta: int = 0, profile=(FULL_FULL,)) -> Poly:
    """Independent per-prime pipelines recombined coefficientwise by CRT."""
    return _one_shot(RnsExecutor(a.ring, basis, beta), a, b, profile)


# ---------------------------------------------------------------------------
# method 3: composite-modulus ring with a principal root


def find_principal_root_composite(k: int, basis: RnsBasis) -> int:
    """Smallest principal k-th root of unity mod the basis product.

    A residue is principal mod N exactly when it reduces to a principal
    (= primitive, the factors being prime) k-th root mod every basis
    prime, so the candidate set is the CRT lift of the per-prime sets.
    """
    for p in basis.primes:
        if (p - 1) % k != 0:
            raise NoSuchRoot(f"{k} does not divide {p}-1 (gcd condition fails)")
    sets = [modarith.root_candidates_prime(k, p) for p in basis.primes]
    best = min(crt_recombine(combo, basis) for combo in iterproduct(*sets))
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
        m = ring.n >> beta
        self.order = 2 * m if ring.form == XN_PLUS_1 else m
        for p in basis.primes:
            if (p - 1) % self.order != 0:
                raise ParameterCondition(f"{self.order} does not divide {p}-1 (gcd condition fails)")

    @cached_property
    def root(self) -> int:
        return find_principal_root_composite(self.order, self.basis)


def composite_multiply(a: Poly, b: Poly, basis: RnsBasis, beta: int = 0, profile=(FULL_FULL,)) -> Poly:
    """One pipeline over Z_N itself, N composite, using a principal root."""
    return _one_shot(CompositeExecutor(a.ring, basis, beta), a, b, profile)
