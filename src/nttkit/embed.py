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

import numpy as np

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
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, RingSpec, is_pow2
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
        h, k, pair, N = self.h, self.k, self.pair, self.N

        def columns(coeffs):  # transformed rows, one column per leaf
            return _array([pair.forward(Poly(r, pair.ring)).values
                           for r in good_map(coeffs, h, k).rows], N).T

        out_vals = _schoolbook_rows(columns(x), columns(y), N, 1).T.tolist()
        rows = [pair.inverse(NttDomainPoly(vals, pair.fwd_spec, pair.ring, 1)).coeffs
                for vals in out_vals]
        return good_unmap(GoodLayout(h, k, rows))


def good_multiply(a: Poly, b: Poly, h: int, k: int, inner_modulus: int) -> Poly:
    """Good's route over Z_inner_modulus with freshly built tables."""
    return GoodExecutor(a.ring, h, k, inner_modulus).multiply(a, b)


# ---------------------------------------------------------------------------
# block arrays: shape (batch, blocks, L), one residue of Z_q[x]/(x^L + 1)
# per block, int64 below modarith.VECTOR_LIMIT and Python ints above


def _array(values, q: int):
    return np.array(values, dtype=np.int64 if modarith.vectorized(q) else object)


def block_shape_fault(step) -> str | None:
    """Why a Schonhage or Nussbaumer step's shape cannot multiply, or None:
    the block transform is radix 2, and Schoenhage blocks longer than the
    floor take balanced Nussbaumer splits."""
    m, n = step.m, step.n
    if isinstance(step, Nussbaumer) and n < m:
        return "need n >= m so x-products avoid wraparound"
    if isinstance(step, Nussbaumer) and m < 2:  # m = 1 recurses on the same length
        return "need m >= 2 for a strictly smaller inner ring"
    if not is_pow2(2 * n):
        return f"need 2n = {2 * n} a power of two for the radix-2 block transform"
    if isinstance(step, Schonhage) and 2 * m > SCHOOLBOOK_FLOOR and not is_pow2(2 * m):
        return f"need 2m = {2 * m} <= {SCHOOLBOOK_FLOOR} or a power of two for the block products"
    return None


def _block_modulus(a: Poly, b: Poly, step) -> int:
    """Check two operands of a block embedding and its shape; returns q."""
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    m, n, q = step.m, step.n, a.ring.q
    form = XN_MINUS_1 if isinstance(step, Schonhage) else XN_PLUS_1
    if a.ring.form != form or a.ring.n != 2 * m * n:
        raise BadShape(f"ring must be {form} with n = 2mn = {2 * m * n}")
    if isinstance(step, Schonhage) and (m < 1 or n < 1 or (2 * m) % n != 0):
        raise BadShape("need n | 2m so x^(2m/n) has order 2n")
    fault = block_shape_fault(step)
    if fault:
        raise ShapeCondition(fault)
    if gcd(2 * n, q) != 1:
        raise ParameterCondition(f"2n = {2 * n} must be invertible mod q = {q}")
    return q


def _rotate(X, t, q: int):
    """x^t * X in Z_q[x]/(x^L + 1), L = X.shape[-1], one exponent per block
    (``t`` broadcasts against X.shape[:-1]): a signed gather that counts one
    subtraction per negated entry.  Entries that wrap past x^L change sign,
    and t >= L (mod 2L) flips every sign once more."""
    L = X.shape[-1]
    t = np.asarray(t)[..., None] % (2 * L)
    r, k = t % L, np.arange(L)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.subs += int(np.broadcast_to(np.minimum(t, 2 * L - t), X.shape[:-1] + (1,)).sum())
    g = np.take_along_axis(X, np.broadcast_to((k - r) % L, X.shape), axis=-1)
    return np.where((k < r) != (t >= L), (q - g) % q, g)


def _schoolbook_rows(U, V, q: int, sign: int):
    """Row-wise products of two (rows, L) arrays mod x^L - sign, uncounted.
    Each product is reduced before summing, so int64 sums cannot overflow."""
    rows, L = U.shape
    t = np.zeros((rows, 2 * L - 1), dtype=U.dtype)
    for i in range(L):
        t[:, i : i + L] += U[:, i : i + 1] * V % q
    out = t[:, :L]
    out[:, : L - 1] += sign * t[:, L:]
    return out % q


def _block_ntt(X, stride: int, q: int, inverse: bool):
    """In-place cyclic transform along axis 1 with twiddles x^(stride*e).

    Forward runs the natural-input CT levels, inverse the bit-reversed-input
    GS levels, without the 1/blocks scaling.  Each level is one reshape,
    one signed rotation and one reduction; nothing is multiplied.
    """
    batch, blocks, L = X.shape
    ctr = modarith.active_counter()
    for nblocks, half, exps in transforms.level_geometry(CYCLIC_BLOCK_PAIR[inverse], blocks):
        y = X.reshape(batch, nblocks, 2, half, L)
        u, v = y[:, :, 0], y[:, :, 1]
        e = stride * np.array(exps)[:, None]  # one exponent per transform block
        if inverse:
            d = _rotate((u - v) % q, -e, q)
            u += v
            v[...] = d
        else:
            t = _rotate(v, e, q)
            np.subtract(u, t, out=v)
            u += t
        X %= q
        if ctr is not None:
            ctr.adds += X.size // 2
            ctr.subs += X.size // 2
    return X


def _nega_mul(U, V, q: int):
    """Row-wise products in Z_q[x]/(x^L + 1), recursing on the whole batch."""
    L = U.shape[1]
    if L <= SCHOOLBOOK_FLOOR:
        return _schoolbook_rows(U, V, q, -1)
    m = 1 << ((L.bit_length() - 2) // 2)  # balanced split, n >= m
    return _nussbaumer(U, V, m, L // (2 * m), q)


def _block_convolve(A, B, stride: int, q: int):
    """Cyclic convolution along axis 1 of two block arrays: forward (both
    in one batch), block products, inverse, 1/blocks scaling."""
    blocks, L = A.shape[1:]
    F = _block_ntt(np.concatenate((A, B)), stride, q, inverse=False).reshape(2, -1, L)
    P = _block_ntt(_nega_mul(F[0], F[1], q).reshape(A.shape), stride, q, inverse=True)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += P.size
    P *= mod_inv(blocks, q)
    P %= q
    return P


def schonhage_multiply(a: Poly, b: Poly, m: int, n: int) -> Poly:
    """Cyclic product of length 2mn via (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1).

    Blocks of m coefficients become y-coefficients; x^(2m/n) is the
    synthetic 2n-th root, and y = x^m substitutes back at the end.
    """
    q = _block_modulus(a, b, Schonhage(m, n))

    def blocks(coeffs):  # block j: coefficients jm .. jm + m - 1, zero-padded to 2m
        X = _array(coeffs, q).reshape(1, 2 * n, m)
        return np.concatenate((X, np.zeros_like(X)), axis=2)

    P = _block_convolve(blocks(a.coeffs), blocks(b.coeffs), 2 * m // n, q)[0]
    # y = x^m: block j's upper half lands on block j + 1
    return Poly(((P[:, :m] + np.roll(P[:, m:], 1, axis=0)) % q).ravel().tolist(), a.ring)


def _nussbaumer(U, V, m: int, n: int, q: int):
    """Row-wise negacyclic products of two (rows, 2mn) arrays via
    (Z_q[y]/(y^2n + 1))[x]/(x^m - y), y^2 the synthetic 2n-th root."""
    rows, L = U.shape[0], 2 * n

    def parts(X):  # part i collects coefficients congruent to i mod m, as a y-poly
        P = np.zeros((rows, L, L), dtype=X.dtype)
        P[:, :m] = X.reshape(rows, L, m).transpose(0, 2, 1)
        return P

    P = _block_convolve(parts(U), parts(V), 2, q)
    c = min(m - 1, L - m)  # fold x^m = y: true x-degree is < 2m - 1 <= L
    P[:, :c] += _rotate(P[:, m : m + c], 1, q)
    P[:, :c] %= q
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.adds += rows * c * L
    return P[:, :m].transpose(0, 2, 1).reshape(rows, 2 * m * n)


def nussbaumer_multiply(a: Poly, b: Poly, m: int, n: int) -> Poly:
    """Negacyclic product of length 2mn using the synthetic 4n-th root y."""
    q = _block_modulus(a, b, Nussbaumer(m, n))
    return Poly(_nussbaumer(_array([a.coeffs], q), _array([b.coeffs], q), m, n, q)[0].tolist(),
                a.ring)


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
