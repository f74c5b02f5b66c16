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
from math import gcd

from . import modarith, polymul
from .errors import (
    BoundTooSmall,
    InvalidRoot,
    NoSuchRoot,
    NotCoprime,
    ParameterCondition,
    RecoveryMismatch,
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
    origin_q: int
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
    return LiftedPoly(tuple(c % N for c in cent), q, N, bound, eff)


def recover_centered(values, N: int, q: int):
    """Map canonical Z_N values back through [-N/2, N/2) into Z_q."""
    half = (N - 1) // 2
    return [(v - N if v > half else v) % q for v in values]


def _check_dynamic_bound(la: LiftedPoly, lb: LiftedPoly, N: int):
    # any wrapped-convolution coefficient sums at most min(eff_a, eff_b)
    # products, each bounded by the centered magnitudes
    if N == la.origin_q:  # self-lift: arithmetic wraps mod q by design
        return
    terms = min(la.effective_len, lb.effective_len)
    if 2 * terms * la.centered_bound * lb.centered_bound > N - 1:
        raise BoundTooSmall(
            f"N={N} cannot hold {terms} products of magnitudes "
            f"{la.centered_bound}*{lb.centered_bound}"
        )


def _debug_exact_product(a: Poly, b: Poly, N: int):
    """Integer wrapped convolution of the centered lifts (debug mode)."""
    q = a.ring.q
    n = a.ring.n
    x = [centered(c, q) for c in a.coeffs]
    y = [centered(c, q) for c in b.coeffs]
    sign = -1 if a.ring.form == XN_PLUS_1 else 1
    out = [0] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                k = i + j
                if k < n:
                    out[k] += xi * yj
                else:
                    out[k - n] += sign * xi * yj
    limit = (N - 1) // 2
    for v in out:
        if abs(v) > limit:
            raise BoundTooSmall(f"integer coefficient {v} exceeds (N-1)/2 = {limit}")
    return out


def _recover_poly(values, N, ring, debug_ints=None):
    got = recover_centered(values, N, ring.q)
    if debug_ints is not None and got != [v % ring.q for v in debug_ints]:
        raise RecoveryMismatch("recovered product differs from the exact integer product")
    return Poly(got, ring)


# ---------------------------------------------------------------------------
# method 1: one NTT-friendly large prime


def bigprime_multiply(
    a: Poly,
    b: Poly,
    N: int,
    beta: int = 0,
    profile=(FULL_FULL,),
    unsafe_bound: bool = False,
    debug_check: bool = False,
) -> Poly:
    """Lift to Z_N, run one cropped pipeline there, reduce back mod q."""
    ring = a.ring
    if not is_prime(N):
        raise ParameterCondition(f"N={N} is not prime")
    if not unsafe_bound and N < required_bound(ring.n, ring.q, profile):
        raise BoundTooSmall(
            f"N={N} below the profile bound {required_bound(ring.n, ring.q, profile)}"
        )
    la, lb = lift_centered(a, N), lift_centered(b, N)
    _check_dynamic_bound(la, lb, N)
    big = RingSpec(ring.form, ring.n, N)
    pair = polymul.make_transform_pair(big, beta)
    c = polymul.ntt_multiply(Poly(list(la.coeffs), big), Poly(list(lb.coeffs), big), pair)
    dbg = _debug_exact_product(a, b, N) if debug_check else None
    return _recover_poly(c.coeffs, N, ring, dbg)


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
        N = 1
        for p in self.primes:
            N *= p
        return N

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


def rns_multiply(
    a: Poly,
    b: Poly,
    basis: RnsBasis,
    beta: int = 0,
    profile=(FULL_FULL,),
    unsafe_bound: bool = False,
    debug_check: bool = False,
) -> Poly:
    """Independent per-prime pipelines recombined coefficientwise by CRT."""
    ring = a.ring
    N = basis.product
    if not unsafe_bound and N < required_bound(ring.n, ring.q, profile):
        raise BoundTooSmall(f"basis product {N} below the profile bound")
    la, lb = lift_centered(a, N), lift_centered(b, N)
    _check_dynamic_bound(la, lb, N)
    per_prime = []
    for p in basis.primes:
        small = RingSpec(ring.form, ring.n, p)
        pair = polymul.make_transform_pair(small, beta)
        ap = Poly([c % p for c in la.coeffs], small)
        bp = Poly([c % p for c in lb.coeffs], small)
        per_prime.append(polymul.ntt_multiply(ap, bp, pair).coeffs)
    vals = [crt_recombine([cp[i] for cp in per_prime], basis) for i in range(ring.n)]
    dbg = _debug_exact_product(a, b, N) if debug_check else None
    return _recover_poly(vals, N, ring, dbg)


# ---------------------------------------------------------------------------
# method 3: composite-modulus ring with a principal root


def _order_k_elements(k: int, p: int):
    """All order-k elements mod prime p, via powers of any one of them."""
    e = (p - 1) // k
    for x in range(1, p):
        y = pow(x, e, p)
        if modarith.is_primitive_root(y, k, p):
            return sorted(pow(y, j, p) for j in range(1, k + 1) if gcd(j, k) == 1)
    raise NoSuchRoot(f"no order-{k} element mod {p}")


def find_principal_root_composite(k: int, basis: RnsBasis) -> int:
    """Smallest principal k-th root of unity mod the basis product.

    A residue is principal mod N exactly when it reduces to a principal
    (= primitive, the factors being prime) k-th root mod every basis
    prime, so the candidate set is the CRT lift of the per-prime sets.
    """
    for p in basis.primes:
        if (p - 1) % k != 0:
            raise NoSuchRoot(f"{k} does not divide {p}-1 (gcd condition fails)")
    sets = [_order_k_elements(k, p) for p in basis.primes]
    best = None
    for combo in iterproduct(*sets):
        v = crt_recombine(combo, basis)
        if best is None or v < best:
            best = v
    if not is_principal_root(best, k, basis.product):
        raise InvalidRoot(f"CRT lift {best} is not a principal {k}-th root mod {basis.product}")
    return best


def find_principal_root_for_modulus(k: int, m: int) -> int:
    """find_root delegate for composite m: factor, then CRT-enumerate."""
    fs = []
    rem = m
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            fs.append(d)
            rem //= d
            if rem % d == 0:
                raise NoSuchRoot(f"modulus {m} is not squarefree")
        d += 1
    if rem > 1:
        fs.append(rem)
    if len(fs) < 2:
        raise NoSuchRoot(f"modulus {m} is not a product of distinct primes")
    return find_principal_root_composite(k, RnsBasis(tuple(fs)))


def composite_multiply(
    a: Poly,
    b: Poly,
    basis: RnsBasis,
    beta: int = 0,
    profile=(FULL_FULL,),
    unsafe_bound: bool = False,
    debug_check: bool = False,
) -> Poly:
    """One pipeline over Z_N itself, N composite, using a principal root."""
    ring = a.ring
    N = basis.product
    if not unsafe_bound and N < required_bound(ring.n, ring.q, profile):
        raise BoundTooSmall(f"basis product {N} below the profile bound")
    m = ring.n >> beta
    order = 2 * m if ring.form == XN_PLUS_1 else m
    for p in basis.primes:
        if (p - 1) % order != 0:
            raise ParameterCondition(
                f"{order} does not divide gcd of basis primes minus one ({p}-1 fails)"
            )
    la, lb = lift_centered(a, N), lift_centered(b, N)
    _check_dynamic_bound(la, lb, N)
    root = find_principal_root_composite(order, basis)
    big = RingSpec(ring.form, ring.n, N)
    pair = polymul.make_transform_pair(big, beta, root=root)
    c = polymul.ntt_multiply(Poly(list(la.coeffs), big), Poly(list(lb.coeffs), big), pair)
    dbg = _debug_exact_product(a, b, N) if debug_check else None
    return _recover_poly(c.coeffs, N, ring, dbg)
