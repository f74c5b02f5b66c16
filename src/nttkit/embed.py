"""Ring embeddings that manufacture transform-friendly structure.

Four routes into rings where fast transforms exist: zero-padding into a
larger wraparound-free ring, the odd-times-power-of-two re-indexing
(Good), and the two block embeddings whose root of unity is the
indeterminate itself (Schoenhage for x^N - 1, Nussbaumer for x^N + 1),
which place no root-of-unity condition on the coefficient modulus.
Chains compose these steps and finish with the source-ring reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import bigmod, modarith, polymul, transforms
from .errors import (
    BadShape,
    ChainMismatch,
    PadTooSmall,
    ParameterCondition,
    RingMismatch,
    ShapeCondition,
)
from .modarith import mod_inv
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, RingSpec
from .transforms import CYCLIC_BLOCK_PAIR, NttDomainPoly

SCHOOLBOOK_FLOOR = 8  # inner rings at or below this length multiply directly


# ---------------------------------------------------------------------------
# zero padding


def zero_pad_multiply(a: Poly, b: Poly, n_prime: int, backend, form: str = XN_MINUS_1) -> Poly:
    """Multiply in x^n_prime +- 1 (no wraparound), then reduce to the source.

    ``backend(a', b')`` multiplies two Polys in the padded ring over the
    source modulus and returns the product there.
    """
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    src = a.ring
    if n_prime < 2 * src.n - 1:
        raise PadTooSmall(f"n'={n_prime} cannot hold a degree-{2 * src.n - 2} product")
    big = RingSpec(form, n_prime, src.q)
    ap = Poly(a.coeffs + [0] * (n_prime - src.n), big)
    bp = Poly(b.coeffs + [0] * (n_prime - src.n), big)
    c = backend(ap, bp)
    return polymul.reduce_mod_phi(c.coeffs, src)


# ---------------------------------------------------------------------------
# Good's re-indexing


@dataclass
class GoodLayout:
    """h x 2^k matrix view of a length h*2^k cyclic polynomial."""

    h: int
    k: int
    rows: list  # rows[i][j] = a_l with i = l mod h, j = l mod 2^k


def good_map(coeffs, h: int, k: int) -> GoodLayout:
    two_k = 1 << k
    if h % 2 == 0 or len(coeffs) != h * two_k:
        raise BadShape(f"need odd h and length h*2^k, got h={h}, len={len(coeffs)}")
    rows = [[0] * two_k for _ in range(h)]
    for l, c in enumerate(coeffs):
        rows[l % h][l % two_k] = c
    return GoodLayout(h, k, rows)


def good_unmap(layout: GoodLayout) -> list:
    """Inverse re-indexing: l = (2^-k mod h)*2^k*i + (h^-1 mod 2^k)*h*j."""
    h, two_k = layout.h, 1 << layout.k
    n = h * two_k
    u = mod_inv(two_k % h, h) * two_k % n
    v = mod_inv(h % two_k, two_k) * h % n
    out = [0] * n
    for i in range(h):
        row = layout.rows[i]
        for j in range(two_k):
            out[(u * i + v * j) % n] = row[j]
    return out


class GoodExecutor(bigmod.LiftedExecutor):
    """Good's route over Z_N: row transforms, column cyclic products, row
    inverses, unmap.

    Operands live in x^(h*2^k) - 1 over their own q and take the lift
    path into Z_N (no lift when N == q).  The row pair is built on first
    use.
    """

    def __init__(self, ring: RingSpec, h: int, k: int, N: int):
        if ring.form != XN_MINUS_1 or ring.n != h * (1 << k):
            raise BadShape(f"ring must be x^(h*2^k) - 1 of degree {h * (1 << k)}")
        if (N - 1) % (1 << k) != 0:
            raise ParameterCondition(f"inner modulus {N} fails N = 1 (mod 2^k)")
        super().__init__(ring, N)
        self.h, self.k = h, k

    @cached_property
    def pair(self) -> polymul.TransformPair:
        return polymul.make_transform_pair(RingSpec(XN_MINUS_1, 1 << self.k, self.N), 0)

    def run(self, x, y):
        h, k, pair = self.h, self.k, self.pair
        two_k = 1 << k
        row_ring, col_ring = pair.ring, RingSpec(XN_MINUS_1, h, self.N)
        da = [pair.forward(Poly(r, row_ring)) for r in good_map(x, h, k).rows]
        db = [pair.forward(Poly(r, row_ring)) for r in good_map(y, h, k).rows]
        out_vals = [[0] * two_k for _ in range(h)]
        for j in range(two_k):
            u = Poly([da[i].values[j] for i in range(h)], col_ring)
            v = Poly([db[i].values[j] for i in range(h)], col_ring)
            w = polymul.schoolbook_cyclic(u, v)
            for i in range(h):
                out_vals[i][j] = w.coeffs[i]
        rows = [pair.inverse(NttDomainPoly(vals, pair.fwd_spec, row_ring, 1)).coeffs
                for vals in out_vals]
        return good_unmap(GoodLayout(h, k, rows))


def good_multiply(a: Poly, b: Poly, h: int, k: int, inner_modulus: int) -> Poly:
    """Good's route over Z_inner_modulus with freshly built tables."""
    return GoodExecutor(a.ring, h, k, inner_modulus).multiply(a, b)


# ---------------------------------------------------------------------------
# block vectors over Z_q[x]/(x^L + 1): helpers for the two block embeddings


def _neg_rotate(block, t: int, q: int):
    """x^t * block in Z_q[x]/(x^L + 1); t may be any integer, L = len.

    Pure rotate-and-negate: entries that wrap past x^L pick up a sign,
    and t >= L flips every sign once more.  No multiplications.
    """
    L = len(block)
    t %= 2 * L
    neg = t >= L
    if neg:
        t -= L
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.subs += L - t if neg else t
    head = block[L - t :]  # wraps: negated unless neg cancels it
    tail = block[: L - t]
    if neg:
        return list(head) + [(q - x) % q for x in tail]
    return [(q - x) % q for x in head] + list(tail)


def _block_add(u, v, q):
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.adds += len(u)
    return [(x + y) % q for x, y in zip(u, v)]


def _block_sub(u, v, q):
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.subs += len(u)
    return [(x - y) % q for x, y in zip(u, v)]


def _block_scale(u, s, q):
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += len(u)
    return [x * s % q for x in u]


def _nega_mul(u, v, q):
    """Negacyclic block product with the recursion floor at length 8."""
    L = len(u)
    if L <= SCHOOLBOOK_FLOOR:
        ring = RingSpec(XN_PLUS_1, L, q) if L > 1 else None
        if L == 1:
            return [u[0] * v[0] % q]
        return polymul.schoolbook_nwc(Poly(list(u), ring), Poly(list(v), ring)).coeffs
    m = 1 << ((L.bit_length() - 2) // 2)  # balanced split, n >= m
    n = L // (2 * m)
    return nussbaumer_multiply(
        Poly(list(u), RingSpec(XN_PLUS_1, L, q)),
        Poly(list(v), RingSpec(XN_PLUS_1, L, q)),
        m,
        n,
    ).coeffs


def _block_ntt(blocks, root_stride: int, q: int, inverse: bool):
    """In-place cyclic transform of a vector of x^L + 1 blocks.

    Twiddles are powers of x^root_stride, i.e. pure negacyclic rotations;
    no modular multiplications occur.  Forward runs the natural-input
    CT schedule, inverse the bit-reversed-input GS schedule (reorder-free
    pairing), with the final 1/len scaling left to the caller.
    """
    for _, L, exps in transforms.level_geometry(CYCLIC_BLOCK_PAIR[inverse], len(blocks)):
        for i, e in enumerate(exps):
            e *= root_stride
            pos = 2 * L * i
            for j in range(pos, pos + L):
                if not inverse:
                    t = _neg_rotate(blocks[j + L], e, q)
                    u = blocks[j]
                    blocks[j] = _block_add(u, t, q)
                    blocks[j + L] = _block_sub(u, t, q)
                else:
                    u = blocks[j]
                    v = blocks[j + L]
                    blocks[j] = _block_add(u, v, q)
                    blocks[j + L] = _neg_rotate(_block_sub(u, v, q), -e, q)
    return blocks


# ---------------------------------------------------------------------------
# Schoenhage: x^(2mn) - 1 via (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1)


def schonhage_multiply(a: Poly, b: Poly, m: int, n: int) -> Poly:
    """Cyclic product of length 2mn using the synthetic 4m-th root x.

    Blocks of m coefficients become y-coefficients; the 2n-point cyclic
    transform over Z_q[x]/(x^2m + 1) twiddles by rotations of x, block
    products recurse (Nussbaumer) or fall back to schoolbook at the
    floor, and y = x^m substitutes back at the end.
    """
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    src = a.ring
    q = src.q
    if src.form != XN_MINUS_1 or src.n != 2 * m * n:
        raise BadShape(f"ring must be x^(2mn) - 1 with 2mn = {2 * m * n}")
    if m < 1 or n < 1 or (2 * m) % n != 0:
        raise BadShape("need n | 2m so x^(2m/n) has order 2n")
    if gcd(2 * n, q) != 1:
        raise ParameterCondition(f"2n = {2 * n} must be invertible mod q = {q}")
    L = 2 * m
    stride = 2 * m // n  # x^stride has order 2n in x^2m + 1
    blocks_a = [a.coeffs[j * m : (j + 1) * m] + [0] * m for j in range(2 * n)]
    blocks_b = [b.coeffs[j * m : (j + 1) * m] + [0] * m for j in range(2 * n)]
    _block_ntt(blocks_a, stride, q, inverse=False)
    _block_ntt(blocks_b, stride, q, inverse=False)
    prod = [_nega_mul(u, v, q) for u, v in zip(blocks_a, blocks_b)]
    _block_ntt(prod, stride, q, inverse=True)
    s = mod_inv(2 * n, q)
    prod = [_block_scale(blk, s, q) for blk in prod]
    out = [0] * (2 * m * n)
    size = 2 * m * n
    for j, blk in enumerate(prod):  # substitute y = x^m
        base = m * j
        for i, val in enumerate(blk):
            if val:
                out[(base + i) % size] = (out[(base + i) % size] + val) % q
    return Poly(out, src)


# ---------------------------------------------------------------------------
# Nussbaumer: x^(2mn) + 1 via (Z_q[y]/(y^2n + 1))[x]/(x^m - y)


def nussbaumer_multiply(a: Poly, b: Poly, m: int, n: int) -> Poly:
    """Negacyclic product of length 2mn using the synthetic 4n-th root y."""
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    src = a.ring
    q = src.q
    if src.form != XN_PLUS_1 or src.n != 2 * m * n:
        raise BadShape(f"ring must be x^(2mn) + 1 with 2mn = {2 * m * n}")
    if n < m:
        raise ShapeCondition("need n >= m so x-products avoid wraparound")
    if m < 2:  # m = 1 would recurse on an inner ring of the same length
        raise ShapeCondition("need m >= 2 for a strictly smaller inner ring")
    if gcd(2 * n, q) != 1:
        raise ParameterCondition(f"2n = {2 * n} must be invertible mod q = {q}")
    L = 2 * n
    # part i collects coefficients congruent to i mod m, as a y-poly
    parts_a = [list(a.coeffs[i::m]) for i in range(m)] + [[0] * L for _ in range(L - m)]
    parts_b = [list(b.coeffs[i::m]) for i in range(m)] + [[0] * L for _ in range(L - m)]
    _block_ntt(parts_a, 2, q, inverse=False)  # y^2 has order 2n in y^2n + 1
    _block_ntt(parts_b, 2, q, inverse=False)
    prod = [_nega_mul(u, v, q) for u, v in zip(parts_a, parts_b)]
    _block_ntt(prod, 2, q, inverse=True)
    s = mod_inv(L, q)
    prod = [_block_scale(blk, s, q) for blk in prod]
    # fold x^m = y: true x-degree is < 2m - 1 <= L
    for t in range(m, min(2 * m - 1, L)):
        prod[t - m] = _block_add(prod[t - m], _neg_rotate(prod[t], 1, q), q)
    out = [0] * (2 * m * n)
    for i in range(m):
        for j in range(L):
            out[m * j + i] = prod[i][j]
    return Poly(out, src)


# ---------------------------------------------------------------------------
# embedding chains


@dataclass(frozen=True)
class ZeroPad:
    n_prime: int
    form: str = XN_MINUS_1


@dataclass(frozen=True)
class LiftModulus:
    modulus: int


@dataclass(frozen=True)
class Good:
    h: int
    k: int


@dataclass(frozen=True)
class Schonhage:
    m: int
    n: int


@dataclass(frozen=True)
class Nussbaumer:
    m: int
    n: int


@dataclass(frozen=True)
class PlainNtt:
    beta: int = 0


@dataclass(frozen=True)
class EmbedChain:
    """Ordered embedding steps: optional ZeroPad, optional LiftModulus,
    then one terminal multiplier (PlainNtt when omitted)."""

    steps: tuple

    def __post_init__(self):
        seen_terminal = False
        for i, s in enumerate(self.steps):
            if isinstance(s, ZeroPad) and i != 0:
                raise ChainMismatch("ZeroPad must be the first step")
            if isinstance(s, LiftModulus) and i > 1:
                raise ChainMismatch("LiftModulus must precede the terminal step")
            if isinstance(s, (Good, Schonhage, Nussbaumer, PlainNtt)):
                if seen_terminal:
                    raise ChainMismatch("chain has more than one terminal step")
                seen_terminal = True


class BlockExecutor(bigmod.LiftedExecutor):
    """A Schoenhage or Nussbaumer terminal over Z_N (N == q: no lift); no tables."""

    def __init__(self, ring: RingSpec, step, N: int):
        super().__init__(ring, N)
        self.step = step
        self.big = RingSpec(ring.form, ring.n, N)

    def run(self, x, y):
        s = self.step
        block = schonhage_multiply if isinstance(s, Schonhage) else nussbaumer_multiply
        return block(Poly(x, self.big), Poly(y, self.big), s.m, s.n).coeffs


class ChainExecutor:
    """Plan executor of an embedding chain: pad into a wraparound-free ring,
    run the terminal step there (over the lift modulus when there is one),
    then reduce mod phi, mod q.

    The chain's shape is checked here; the terminal step's executor and
    its tables are built on first use.  ``step`` is the terminal step, or
    None when the chain names none (a plain transform then).
    """

    def __init__(self, ring: RingSpec, chain: EmbedChain):
        pad = lift = step = None
        for s in chain.steps:
            if isinstance(s, ZeroPad):
                pad = s
            elif isinstance(s, LiftModulus):
                lift = s
            else:
                step = s
        if pad is None:
            raise ChainMismatch("general-phi chains start with ZeroPad")
        self.in_place = pad.n_prime == ring.n and pad.form == ring.form
        if isinstance(step, (Good, Schonhage, Nussbaumer)):
            expected = step.h << step.k if isinstance(step, Good) else 2 * step.m * step.n
            if pad.n_prime != expected:
                raise ChainMismatch(f"terminal step expects length {expected}, pad gives {pad.n_prime}")
        self.ring, self.chain, self.pad, self.lift, self.step = ring, chain, pad, lift, step

    @cached_property
    def terminal(self):
        ring, pad, step = self.ring, self.pad, self.step or PlainNtt()
        work = ring if self.in_place else RingSpec(pad.form, pad.n_prime, ring.q)
        N = self.lift.modulus if self.lift else ring.q
        if isinstance(step, Good):
            return GoodExecutor(work, step.h, step.k, N)
        if not isinstance(step, PlainNtt):
            return BlockExecutor(work, step, N)
        if self.lift:
            return bigmod.BigPrimeExecutor(work, N, step.beta)
        return polymul.DirectExecutor(work, step.beta)

    def multiply(self, a: Poly, b: Poly) -> Poly:
        if a.ring != b.ring:
            raise RingMismatch("operands belong to different rings")
        if self.in_place:  # ring already has the terminal shape: no embedding
            return self.terminal.multiply(a, b)
        return zero_pad_multiply(a, b, self.pad.n_prime, self.terminal.multiply, self.pad.form)


def general_phi_multiply(a: Poly, b: Poly, chain: EmbedChain) -> Poly:
    """Run the chain in a wraparound-free big ring, then reduce mod phi, mod q."""
    return ChainExecutor(a.ring, chain).multiply(a, b)
