"""Large-modulus multiplication, and the executor every plan runs on.

The product is computed exactly over the integers by working modulo a
large N: either one NTT-friendly prime, a residue number system over
several, or the composite N itself with a principal root of unity.  A
residue number system is also how a planned route runs a working
modulus N >= 2^31: on primes below 2^31, so its transforms stay int64.
Operands cross the boundary as one centered stack (``lift_centered``) and
come back through ``recover_centered``; ``garner`` is the one CRT, for
recovery and the composite root search.
``LiftedExecutor`` is the base of every plan executor, one per plan (a
chain's is its terminal's); the unlifted routes run on it with N == q.
Each ``run`` owns its one kind of input, an operand stack, each
``product`` returns the keep prefix, and ``multiply`` folds it mod phi.
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
    seq = profile if isinstance(profile, (tuple, list)) else ()
    kind, args = (seq[0], tuple(seq[1:])) if seq else (None, ())
    names = _PROFILE_ARGS.get(kind)
    if names is None:
        raise ParameterCondition(
            f"unknown operand profile {profile!r}; kinds: {', '.join(_PROFILE_ARGS)}")
    if len(args) != len(names) or not all(type(x) is int and x > 0 for x in args):
        spell = ", ".join((repr(kind), *names))
        raise ParameterCondition(
            f"operand profile {profile!r}: expected ({spell}) with positive integer parameters")
    if kind == FULL_FULL:
        return n * q * q
    k, mu = args if kind == MATVEC else (1, *args)
    return k * n * q * mu // 2


def small_bound(profile) -> int | None:
    """The largest magnitude mu // 2 of the small operand b under
    full*small(mu) and matvec(k, mu), or None under full*full (b uniform).
    A malformed profile raises ParameterCondition."""
    required_bound(1, 1, profile)  # the one parse of a profile
    return None if profile[0] == FULL_FULL else profile[-1] // 2


# ---------------------------------------------------------------------------
# centered lifting and recovery


def lift_centered(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """Canonical residues ``x`` and ``y`` mod q, of one length, as a fresh
    (2, len) int64 stack centered in place, in [-q/2, q/2) (q <= 2^42)."""
    s = np.array((x, y), dtype=np.int64)
    s -= (s > (q - 1) // 2) * q
    return s


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
    """Map one residue array per working modulus back into Z_q, in int64
    (several moduli are each below 2^31): ``garner`` gives v in [0, P), or
    a lone modulus's residues are v, centered and reduced in place (an
    ``object`` buffer converts), and v goes through [-P/2, P/2) into Z_q."""
    P = prod(moduli)
    v = np.asarray(residues[0], dtype=np.int64) if len(moduli) == 1 else garner(residues, moduli)
    v -= (v > (P - 1) // 2) * P
    v %= q
    return v


def _check_dynamic_bound(s: np.ndarray, N: int):
    """Refuse (``BoundTooSmall``) a centered operand stack whose product
    N cannot hold: a coefficient sums min(eff_a, eff_b) products (eff: up
    to an operand's last nonzero entry) of the rows' largest magnitudes,
    eff read only where the full length fails, as no in-profile pair does."""
    ca, cb = np.abs(s).max(axis=1).tolist()
    terms = s.shape[1] if 2 * s.shape[1] * ca * cb <= N - 1 else min(
        int(nz[-1]) + 1 if nz.size else 0 for nz in map(np.flatnonzero, s))
    if 2 * terms * ca * cb > N - 1:
        raise BoundTooSmall(f"N={N} cannot hold {terms} products of magnitudes {ca}*{cb}")


def bound_check(N: int, ring: RingSpec, profile, what: str) -> tuple:
    """(description, ok): the one comparison of a working modulus with the
    profile bound; N must exceed it."""
    bound = required_bound(ring.n, ring.q, profile)
    return f"{what} > bound {bound}", N > bound


class LiftedExecutor:
    """Exact product of two ring elements modulo a working modulus N: the
    base of every plan executor, one per plan.

    A route defines ``__init__`` (its checks), ``table(p)`` (its tables
    mod one working modulus p, built on first use and kept in ``tables``)
    and ``run(X, table)``, its product mod p of an operand stack X, a
    fresh (2, len) working buffer of p's dtype that ``run`` owns and may
    overwrite, len the route's ``reads`` (n when None); it returns at least
    the keep = min(n, 2 reads - 1) leading coefficients, all that can be
    nonzero.  ``product``, the one path of every route, returns those keep
    coefficients mod q; ``multiply``, the only ring check of a planned
    product, passes it each operand's ``Poly.array`` and folds the result
    mod phi (``polymul.fold_mod_phi``, which zero-extends n or fewer).  The
    operands live in ``source``, a chain's source ring (``chain``), whose
    n is ``reads``, or else in ``ring``.  With N == q the arithmetic wraps
    mod q by design, and ``run`` gets the stack as it is; otherwise it is
    lifted (centered), checked once, run mod every working modulus (N, or
    a ``basis`` of primes below 2^31, with product P) and recovered once.
    """

    source = chain = None
    reads = property(lambda self: self.source.n if self.source else None)

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
        ring = self.source or self.ring
        if a.ring != ring or b.ring != ring:
            raise RingMismatch("operands do not live in the executor's ring")
        return Poly(polymul.fold_mod_phi(self.product(a.array, b.array), ring), ring)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The keep leading coefficients mod q of the ring product of two
        int64 arrays of canonical coefficients, from one stack of their
        ``reads`` leading coefficients (all a route finds can be nonzero).
        Lifted, every modulus but the last runs a copy of it, each reduced
        mod p where ``centered_input`` fails, a lone p >= 2^31 as ``object``."""
        q, n, r = self.ring.q, self.ring.n, self.reads
        keep = n if r is None else min(n, 2 * r - 1)
        if self.N == q:
            return self.run(transforms.buffer((x[:r], y[:r]), q), self.tables[0])[:keep]
        s = lift_centered(x[:r], y[:r], q)
        _check_dynamic_bound(s, self.P)
        if not bounds.vectorized(self.moduli[0]):
            s = s.astype(object)
        stacks = [s.copy() for _ in self.moduli[1:]] + [s]
        residues = [self.run(S if bounds.centered_input(q, p) else S % p, t)[:keep]
                    for S, p, t in zip(stacks, self.moduli, self.tables)]
        return recover_centered(residues, self.moduli, q)


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
    routes; also the executor of every Good and plain chain, over the
    pad's ring.  ``source``, when given, is the ring of a padded chain's
    operands: its pairs truncate their schedules to its n coefficients
    (``polymul.TransformPair``), and only that prefix of each operand is
    read (``reads``), onto the stack the pair runs on."""

    root = None  # make_transform_pair searches the smallest

    def __init__(self, ring: RingSpec, N: int, beta: int = 0, basis=(), source: RingSpec | None = None):
        polymul.check_pair_ring(ring, beta)
        super().__init__(ring, N, basis)
        self.beta, self.source = beta, source

    def table(self, p: int) -> polymul.TransformPair:
        big = RingSpec(self.ring.form, self.ring.n, p)
        return polymul.make_transform_pair(big, self.beta, root=self.root, source=self.reads)

    def run(self, X, pair):
        return pair.product(X)


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
