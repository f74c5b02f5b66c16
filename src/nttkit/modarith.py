"""Exact modular integer arithmetic, roots of unity and twiddle tables.

All residues are canonical unsigned integers in [0, m).  Python integers
are exact at any width, so products never wrap; the 2^42 modulus ceiling
is still enforced because every downstream bound analysis assumes it.
The transforms and leaf products work on numpy buffers, int64 or Python
ints as ``bounds.vectorized`` picks.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .errors import InvalidRoot, NoSuchRoot, NotInvertible

MODULUS_CEILING = 1 << 42

NATURAL = "natural"
BIT_REVERSED = "bit_reversed"


def check_modulus(m: int) -> int:
    if not 2 <= m <= MODULUS_CEILING:
        raise ValueError(f"modulus must be in [2, 2^42], got {m}")
    return m


# ---------------------------------------------------------------------------
# operation counting


@dataclass
class OpCounter:
    """Tally of modular operations inside a counting() region.

    forward/inverse transform tallies are not paper-level quantities but
    are needed for the transform-count assertions (matrix-vector and
    split-ring strategies).
    """

    mults: int = 0
    adds: int = 0
    subs: int = 0
    forward_transforms: int = 0
    inverse_transforms: int = 0

    def reset(self) -> None:
        self.mults = self.adds = self.subs = 0
        self.forward_transforms = self.inverse_transforms = 0

    def total(self) -> int:
        return self.mults + self.adds + self.subs


_active: ContextVar[OpCounter | None] = ContextVar("nttkit_op_counter", default=None)


def active_counter() -> OpCounter | None:
    return _active.get()


@contextmanager
def counting(counter: OpCounter | None = None):
    """Activate an OpCounter for the dynamic extent of the with-block.

    The counter is scoped to the current context: another thread (or
    asyncio task) counting at the same time tallies into its own counter,
    and a new thread starts with no counter active.
    """
    if counter is None:
        counter = OpCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)


@contextmanager
def uncounted():
    """Suspend the active OpCounter: building a table is not product work."""
    token = _active.set(None)
    try:
        yield
    finally:
        _active.reset(token)


# ---------------------------------------------------------------------------
# scalar ops


def mod_mul(a: int, b: int, m: int) -> int:
    c = _active.get()
    if c is not None:
        c.mults += 1
    return a * b % m


def mod_add(a: int, b: int, m: int) -> int:
    c = _active.get()
    if c is not None:
        c.adds += 1
    return (a + b) % m


def mod_sub(a: int, b: int, m: int) -> int:
    c = _active.get()
    if c is not None:
        c.subs += 1
    return (a - b) % m


def mod_inv(a: int, m: int) -> int:
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse mod {m}") from None


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin, valid far beyond 2^42)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # bases 2, 7 and 61 alone are exact below 4,759,123,141 (Jaeschke)
    for a in _MR_BASES if n >= 4_759_123_141 else (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


# ---------------------------------------------------------------------------
# roots of unity


def is_primitive_root(psi: int, k: int, m: int) -> bool:
    """True iff psi has multiplicative order exactly k mod m.

    psi^k = 1 plus psi^(k/p) != 1 for each prime p | k pins the order in
    any finite abelian group, so the maximal-divisor test is exact for
    composite m as well.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if pow(psi, k, m) != 1:
        return False
    return all(pow(psi, k // p, m) != 1 for p in prime_factors(k))


def is_principal_root(psi: int, k: int, m: int) -> bool:
    """psi^k = 1 and sum_j psi^(j*l) = 0 mod m for every l in 1..k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if pow(psi, k, m) != 1:
        return False
    for l in range(1, k):
        t = pow(psi, l, m)
        s = 0
        x = 1
        for _ in range(k):
            s += x
            x = x * t % m
        if s % m != 0:
            return False
    return True


def root_candidates_prime(k: int, m: int):
    """All order-k elements of Z_m^* for prime m with k | m-1."""
    e = (m - 1) // k
    r0 = None
    for x in range(1, m):
        y = pow(x, e, m)
        if is_primitive_root(y, k, m):
            r0 = y
            break
    if r0 is None:  # cannot happen for prime m with k | m-1
        raise NoSuchRoot(f"no primitive {k}-th root mod {m}")
    return (pow(r0, j, m) for j in range(1, k + 1) if gcd(j, k) == 1)


def find_root(k: int, m: int) -> int:
    """Smallest principal k-th root of unity mod m; for prime m, where
    primitive and principal coincide, the smallest primitive one.

    For prime m the order-k elements are exactly the powers r0^j with
    gcd(j, k) = 1 of any one of them, so taking the minimum over that set
    equals an exhaustive ascending search at a fraction of the cost.
    Composite m is handled by the residue-system module (delegated).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_modulus(m)
    if not is_prime(m):
        from . import bigmod  # deferred: bigmod depends on this module

        return bigmod.find_principal_root_for_modulus(k, m)
    if (m - 1) % k != 0:
        raise NoSuchRoot(f"{k} does not divide {m}-1")
    best = min(root_candidates_prime(k, m))
    if not is_primitive_root(best, k, m):
        raise NoSuchRoot(f"no primitive {k}-th root mod {m}")
    return best


# ---------------------------------------------------------------------------
# bit reversal


def bitrev(b: int, n: int) -> int:
    """Reverse the log2(n)-bit binary expansion of b (n a power of two)."""
    bits = n.bit_length() - 1
    r = 0
    for _ in range(bits):
        r = (r << 1) | (b & 1)
        b >>= 1
    return r


def bitrev_permutation(n: int) -> list:
    """[bitrev(i, n) for i in range(n)] in O(n), n a power of two."""
    top = (n >> 1) if n > 1 else 0
    rev = [0] * n
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | (top if i & 1 else 0)
    return rev


# ---------------------------------------------------------------------------
# twiddle tables


@dataclass(frozen=True)
class TwiddleTable:
    """Immutable table of root-of-unity powers in a declared storage order.

    powers[i] holds root^i (natural) or root^brv(i) (bit_reversed); for
    inverse tables the exponents are negated.  ``reordered`` holds the
    same powers in the other order (empty unless the order is a power of
    two), built with the table, so that every twiddle vector a transform
    level needs is a strided slice of one of the two.  ``schedules`` keeps
    the transform schedules built over this table, one per (spec, n)
    (``transforms.make_schedule``).  Safe to share across threads once
    built.
    """

    root: int
    order: int
    modulus: int
    powers: tuple
    storage_order: str = NATURAL
    inverse: bool = False
    reordered: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        k = self.order
        if not self.reordered and k & (k - 1) == 0 and len(self.powers) == k:
            rev = bitrev_permutation(k)
            object.__setattr__(self, "reordered", tuple(map(self.powers.__getitem__, rev)))

    @cached_property
    def schedules(self) -> dict:
        return {}

    def ordered(self, storage_order: str) -> tuple:
        """All powers in the given storage order."""
        return self.powers if storage_order == self.storage_order else self.reordered

    def power_of_base(self, e: int) -> int:
        """root^e (root^-e for inverse tables), e taken mod order."""
        return self.ordered(NATURAL)[e % self.order]


def build_twiddles(
    root: int,
    k: int,
    m: int,
    storage_order: str = NATURAL,
    inverse: bool = False,
) -> TwiddleTable:
    """Materialize the k powers of a validated k-th root of unity mod m."""
    check_modulus(m)
    if storage_order not in (NATURAL, BIT_REVERSED):
        raise ValueError(f"unknown storage order {storage_order!r}")
    if storage_order == BIT_REVERSED and k & (k - 1):
        raise ValueError("bit_reversed storage needs a power-of-two order")
    ok = is_primitive_root(root, k, m) if is_prime(m) else is_principal_root(root, k, m)
    if not ok:
        raise InvalidRoot(f"{root} is not a valid {k}-th root mod {m}")
    base = mod_inv(root, m) if inverse else root
    nat = [0] * k
    x = 1
    for i in range(k):
        nat[i] = x
        x = x * base % m
    natural = tuple(nat)
    if k & (k - 1):
        return TwiddleTable(root, k, m, natural, storage_order, inverse)
    rev = tuple(map(nat.__getitem__, bitrev_permutation(k)))
    if storage_order == BIT_REVERSED:
        return TwiddleTable(root, k, m, rev, storage_order, inverse, natural)
    return TwiddleTable(root, k, m, natural, storage_order, inverse, rev)
