"""Ring embeddings that manufacture transform-friendly structure.

Four routes into rings where fast transforms exist: zero-padding into a
larger wraparound-free ring, the odd-times-power-of-two re-indexing
(Good), and the two block embeddings whose root of unity is the
indeterminate itself (Schoenhage for x^N - 1, Nussbaumer for x^N + 1),
which place no root-of-unity condition on the coefficient modulus.
Chains compose these steps and finish with the source-ring reduction.
Each executor is a ``bigmod.LiftedExecutor``; a chain's, over q, holds
its terminal step's executor as its one table.

The block embeddings run in a ``BlockWorkspace``, int64 buffers shaped
by the block schedule, so a product allocates nothing of the route's
size.  A ``BlockExecutor`` owns a pool of them: none when the plan is
built, one built on a product that finds the pool empty, one per thread
that multiplied at once at most (5.2 MiB each for Schonhage(32, 32)).
A workspace serves one product at a time; the one-shot functions build
one per call.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field
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
from .polymul import _mod
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, RingSpec, is_pow2
from .transforms import CYCLIC_BLOCK_PAIR

SCHOOLBOOK_FLOOR = 8  # inner rings at or below this length multiply directly


# ---------------------------------------------------------------------------
# zero padding


def zero_pad_multiply(a: Poly, b: Poly, n_prime: int, backend, form: str = XN_MINUS_1) -> Poly:
    """Multiply in x^n_prime +- 1 (no wraparound), then reduce to the source.

    ``backend(a', b')`` multiplies two Polys in the padded ring over the
    source modulus and returns the product there; ``padded_product`` pads
    and folds.
    """
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    big = RingSpec(form, n_prime, a.ring.q)

    def product(x, y):
        return backend(Poly(x, big), Poly(y, big)).array

    return Poly(padded_product(a.array, b.array, a.ring, n_prime, product), a.ring)


def padded_product(x, y, ring: RingSpec, n_prime: int, product) -> np.ndarray:
    """x*y in ``ring`` for two int64 coefficient arrays: ``product`` runs
    on their zero-padded length-n_prime copies, whose product has no
    wraparound, and its 2n - 1 low coefficients fold mod phi
    (``polymul.fold_mod_phi``)."""
    n = ring.n
    if n_prime < 2 * n - 1:
        raise PadTooSmall(f"n'={n_prime} cannot hold a degree-{2 * n - 2} product")
    xp, yp = np.zeros((2, n_prime), dtype=np.int64)
    xp[:n], yp[:n] = x, y
    return polymul.fold_mod_phi(product(xp, yp)[: 2 * n - 1], ring)


# ---------------------------------------------------------------------------
# Good's re-indexing


def good_index(h: int, k: int) -> np.ndarray:
    """Good's re-indexing of a length h*2^k cyclic polynomial, as one
    read-only (h, 2^k) gather index: entry (i, j) is the l with l = i
    (mod h) and l = j (mod 2^k), so ``x[index]`` is the h x 2^k matrix of
    x, and ``out[index] = rows`` maps a matrix back."""
    if h < 1 or h % 2 == 0:
        raise BadShape(f"need odd h, got h={h}")
    two_k = 1 << k
    l = np.arange(h * two_k)
    index = np.empty((h, two_k), dtype=np.intp)
    index[l % h, l % two_k] = l
    return transforms.read_only(index)


class GoodExecutor(bigmod.LiftedExecutor):
    """Good's route over Z_N: row transforms, column cyclic products, row
    inverses, unmap.

    Operands live in x^(h*2^k) - 1 over their own q and take the lift
    path into Z_N (no lift when N == q), once per working modulus, each
    below 2^31.  The row pairs and the gather index are built on first
    use.
    """

    def __init__(self, ring: RingSpec, h: int, k: int, N: int, basis=()):
        if ring.form != XN_MINUS_1 or ring.n != h * (1 << k):
            raise BadShape(f"ring must be x^(h*2^k) - 1 of degree {h * (1 << k)}")
        super().__init__(ring, N, basis)
        for p in self.moduli:
            if (p - 1) % (1 << k) != 0:
                raise ParameterCondition(f"inner modulus {p} fails N = 1 (mod 2^k)")
            if not modarith.vectorized(p):
                raise ParameterCondition(f"inner modulus {p} is not below 2^31 (int64 column products)")
        self.h, self.k = h, k

    @cached_property
    def index(self) -> np.ndarray:
        return good_index(self.h, self.k)

    def table(self, p: int) -> polymul.TransformPair:  # the row pair
        return polymul.make_transform_pair(RingSpec(XN_MINUS_1, 1 << self.k, p), 0)

    def run(self, x, y, pair):
        """Both operands' h rows forward as one batch, the cyclic products
        of their columns (one per leaf), the h product rows back as one
        inverse batch."""
        h, index, q = self.h, self.index, pair.ring.q
        X = transforms.ntt_forward(transforms.buffer(np.concatenate((x[index], y[index])), q),
                                   pair.fwd_tw, pair.fwd_spec, schedule=pair.fwd_sched)
        P = polymul.leaf_products(X[:h], X[h:], 1, q)
        polymul._count_leaves(h, False, P.size // h)
        out = np.empty(len(x), dtype=np.int64)
        out[index] = transforms.ntt_inverse(P, pair.inv_tw, pair.inv_spec, schedule=pair.inv_sched)
        return out


def good_multiply(a: Poly, b: Poly, h: int, k: int, inner_modulus: int) -> Poly:
    """Good's route over Z_inner_modulus with freshly built tables."""
    return GoodExecutor(a.ring, h, k, inner_modulus).multiply(a, b)


# ---------------------------------------------------------------------------
# block arrays: shape (blocks, L, batch), one residue of Z_q[x]/(x^L + 1)
# per block and batch column, int64 (q below modarith.VECTOR_LIMIT).  The
# batch axis is last, so each gather copies whole rows and each add runs
# over long contiguous runs.  Rows of products are (L, rows), one column
# per product.


def block_shape_fault(step) -> str | None:
    """Why a Schonhage or Nussbaumer step's shape cannot multiply, or None:
    x^(2m/n) must be a 2n-th root for Schoenhage, the block transform is
    radix 2, and Schoenhage blocks longer than the floor take balanced
    Nussbaumer splits."""
    m, n = step.m, step.n
    if m < 1 or n < 1:
        return f"need m, n >= 1, got m = {m}, n = {n}"
    if isinstance(step, Schonhage) and (2 * m) % n != 0:
        return f"need n | 2m so x^(2m/n) has order 2n, got 2m = {2 * m}, n = {n}"
    if isinstance(step, Nussbaumer) and n < m:
        return "need n >= m so x-products avoid wraparound"
    if isinstance(step, Nussbaumer) and m < 2:  # m = 1 recurses on the same length
        return "need m >= 2 for a strictly smaller inner ring"
    if not is_pow2(2 * n):
        return f"need 2n = {2 * n} a power of two for the radix-2 block transform"
    if isinstance(step, Schonhage) and 2 * m > SCHOOLBOOK_FLOOR and not is_pow2(2 * m):
        return f"need 2m = {2 * m} <= {SCHOOLBOOK_FLOOR} or a power of two for the block products"
    return None


def _block_modulus(ring: RingSpec, step, schedule: tuple | None) -> int:
    """Check a ring of a block embedding, its shape, the schedule (empty:
    built later) and q (below 2^31, for int64 blocks); returns q."""
    m, n, q = step.m, step.n, ring.q
    form = XN_MINUS_1 if isinstance(step, Schonhage) else XN_PLUS_1
    if ring.form != form or ring.n != 2 * m * n:
        raise BadShape(f"ring must be {form} with n = 2mn = {2 * m * n}")
    fault = block_shape_fault(step)
    if fault:
        raise ShapeCondition(fault)
    if schedule and schedule[0].step != step:
        raise ShapeCondition(f"schedule was built for {schedule[0].step}, not {step}")
    if gcd(2 * n, q) != 1:
        raise ParameterCondition(f"2n = {2 * n} must be invertible mod q = {q}")
    if not modarith.vectorized(q):
        raise ParameterCondition(f"q = {q} is not below 2^31: block arrays are int64")
    return q


def _operand_modulus(a: Poly, b: Poly, step, schedule: tuple | None) -> int:
    """``_block_modulus`` of two operands' common ring."""
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    return _block_modulus(a.ring, step, schedule)


def _rotation(t, L: int):
    """Gather index and signs of x^t in Z[x]/(x^L + 1), one exponent per
    entry of ``t``: (x^t X)[..., k] = sign[..., k] * X[..., index[..., k]].
    Entries that wrap past x^L change sign, and t >= L (mod 2L) flips every
    sign once more."""
    t = np.asarray(t)[..., None] % (2 * L)
    r, k = t % L, np.arange(L)
    return (k - r) % L, 1 - 2 * ((k < r) ^ (t >= L))


@dataclass(frozen=True)
class BlockLevel:
    """One butterfly level of a block transform, for every row alike.

    ``index`` gathers, from the flat (blocks * L, batch) view, the rows
    that the level rotates: the upper butterfly halves (forward) or the
    compact (nblocks, half, L) differences u - v (inverse).  ``sign``
    negates those that wrapped, and ``subs`` counts the negations of one
    batch column.
    """

    nblocks: int
    half: int
    index: np.ndarray
    sign: np.ndarray
    subs: int


@dataclass(frozen=True)
class BlockDepth:
    """One recursion depth of the block route: the Schonhage or Nussbaumer
    step whose 2n blocks it transforms, their length L (2m for a
    Schoenhage step, 2n for a Nussbaumer one), and the levels of both
    directions."""

    step: object
    L: int
    forward: tuple
    inverse: tuple


def _block_levels(blocks: int, L: int, stride: int, inverse: bool) -> tuple:
    """The BlockLevels of one direction of a ``blocks``-point transform of
    length-L blocks with twiddles x^(stride * e)."""
    levels = []
    for nblocks, half, exps in transforms.level_geometry(CYCLIC_BLOCK_PAIR[inverse], blocks):
        e = stride * np.array(exps)  # one exponent per transform block
        index, sign = _rotation(-e if inverse else e, L)
        first = np.arange(nblocks) * half if inverse else (2 * np.arange(nblocks) + 1) * half
        at = (first[:, None] + np.arange(half))[:, :, None] * L + index[:, None, :]
        sign = np.repeat(sign[:, None, :], half, axis=1).reshape(-1, 1)
        levels.append(BlockLevel(nblocks, half, at.ravel(), sign, int((sign < 0).sum())))
    return tuple(levels)


def block_schedule(step) -> tuple:
    """The compiled block route of a Schonhage or Nussbaumer step: one
    BlockDepth per recursion depth, outermost first.  The innermost
    depth's block products run at the schoolbook floor.  Depends on the
    shape alone, never on the modulus."""
    m, n = step.m, step.n
    L, stride = (2 * m, 2 * m // n) if isinstance(step, Schonhage) else (2 * n, 2)
    depths = []
    while True:
        depths.append(BlockDepth(step, L, _block_levels(2 * n, L, stride, False),
                                 _block_levels(2 * n, L, stride, True)))
        if L <= SCHOOLBOOK_FLOOR:
            return tuple(depths)
        m = 1 << ((L.bit_length() - 2) // 2)  # balanced Nussbaumer split, n >= m
        n, stride = L // (2 * m), 2
        L, step = 2 * n, Nussbaumer(m, n)


class BlockWorkspace:
    """The int64 buffers one block product runs in, shaped by a block
    schedule alone.  Depth d, whose 2n blocks of length L each carry
    ``rows`` batch columns (1 at the top, 2n * rows one depth down), has:

    - ``forward[d]``, (2n, L, 2 rows): both operands' blocks, A's columns
      then B's, transformed in place;
    - ``inverse[d]``, (2n, L, rows): their block products, transformed
      back and scaled in place;
    - ``scratch[d]``, 2n * L * 2 rows entries: the gathers and quotients
      of both transforms, and at the floor the leaf kernel's scratch;

    and the floor has the leaf kernel's operands ``floor``, (2, L, 2n,
    rows), both halves of its forward array copied contiguous, and its
    accumulator ``acc``, (2L - 1, 2n, rows).  A product writes only into
    these, so it allocates nothing of the route's size; one workspace
    serves one product at a time.
    """

    def __init__(self, schedule: tuple):
        self.schedule = schedule
        self.forward, self.inverse, self.scratch = [], [], []
        rows = 1
        for depth in schedule:
            blocks, L = 2 * depth.step.n, depth.L
            self.forward.append(np.empty((blocks, L, 2 * rows), dtype=np.int64))
            self.inverse.append(np.empty((blocks, L, rows), dtype=np.int64))
            self.scratch.append(np.empty(blocks * L * 2 * rows, dtype=np.int64))
            floor, rows = (L, blocks, rows), blocks * rows
        self.floor = np.empty((2, *floor), dtype=np.int64)
        self.acc = np.empty((2 * floor[0] - 1, *floor[1:]), dtype=np.int64)


def _block_ntt(X, levels: tuple, q: int, inverse: bool, live: int | None = None,
               work=None, reduce: bool = True):
    """Cyclic transform along axis 0 of a block array, in place on a
    contiguous copy when X is not contiguous; returns it reduced, or with
    ``reduce`` False as the levels leave it.

    Forward runs the natural-input CT levels, inverse the bit-reversed-input
    GS levels, without the 1/blocks scaling.  Each level is one signed
    gather, one add and one subtract; nothing is multiplied mod q.  On
    canonical input the entries stay at most 2^l (q-1) in magnitude after
    l levels (int64 cannot overflow below modarith.VECTOR_LIMIT), so they
    are reduced once at the end.  ``work``, X.size int64 entries, takes
    the gathers and quotients (fresh when omitted); the gathers use
    ``mode="clip"`` (every index is in range) because ``np.take`` copies
    through a fresh buffer into ``out`` in its default mode.  When only
    the first ``live`` blocks of a forward input can be nonzero, each
    level whose halves are at least ``live`` blocks long has all-zero
    lower inputs, so it copies its upper halves (counted as the
    butterflies it stands for).
    """
    X = np.ascontiguousarray(X)
    blocks, L, batch = X.shape
    if work is None:
        work = np.empty(X.size, dtype=X.dtype)
    half = X.size // 2
    gathered = work[:half].reshape(-1, batch)
    flat = X.reshape(blocks * L, batch)
    ctr = modarith.active_counter()
    live = blocks if live is None else live
    for lv in levels:
        y = X.reshape(lv.nblocks, 2, lv.half * L, batch)
        u, v = y[:, 0], y[:, 1]
        if not inverse and live <= lv.half:  # v = 0: (u + x^e v, u - x^e v) = (u, u)
            v[...] = u
        elif inverse:
            d = np.subtract(u, v, out=work[half:].reshape(u.shape))
            t = np.take(d.reshape(-1, batch), lv.index, axis=0, out=gathered, mode="clip")
            t *= lv.sign
            u += v
            v[...] = t.reshape(v.shape)
        else:
            t = np.take(flat, lv.index, axis=0, out=gathered, mode="clip")
            t *= lv.sign
            t = t.reshape(v.shape)
            np.subtract(u, t, out=v)
            u += t
        if ctr is not None:
            ctr.adds += X.size // 2
            ctr.subs += X.size // 2 + batch * lv.subs
    return _mod(X, q, work.reshape(X.shape)) if reduce else X


def _scale_unreduced(X, s: int, q: int, work):
    """X * s mod q in place, reduced once: for |X| (q-1) < 2^63."""
    X *= s
    return _mod(X, q, work)


def _scale_reduced(X, s: int, q: int, work):
    """X * s mod q in place for any int64 X, reduced before the product."""
    _mod(X, q, work)
    X *= s
    return _mod(X, q, work)


def _block_convolve(ws: BlockWorkspace, d: int, q: int, live: int | None = None):
    """Cyclic convolution along axis 0 of the two block arrays that
    ``ws.forward[d]`` holds, by ``ws.schedule[d]``: forward (both in one
    batch), block products in Z_q[x]/(x^L + 1) (an inner Nussbaumer split
    of every column, or the leaf kernel at the floor), inverse, 1/blocks
    scaling; returns ``ws.inverse[d]``.  Only the first ``live`` blocks
    (default: all) of A and B may be nonzero.

    One reduction per depth: the inverse takes canonical block products,
    so after its l levels no entry exceeds 2^l (q-1) in magnitude, and
    times 1/blocks (canonical, at most q-1) 2^l (q-1)^2.  While that stays
    below 2^63 the unreduced output is scaled and reduced once; otherwise
    it is reduced first.
    """
    depth = ws.schedule[d]
    F, P, work = ws.forward[d], ws.inverse[d], ws.scratch[d]
    blocks, L, rows = P.shape
    _block_ntt(F, depth.forward, q, False, live, work)
    if d + 1 < len(ws.schedule):
        # part j of the inner split takes coefficients i*m + j of each column
        m = ws.schedule[d + 1].step.m
        np.copyto(ws.forward[d + 1][:m].reshape(m, L // m, 2, blocks, rows),
                  F.reshape(blocks, L // m, m, 2, rows).transpose(2, 1, 3, 0, 4))
        np.copyto(P.reshape(blocks, L // m, m, rows).transpose(2, 1, 0, 3),
                  _nussbaumer(ws, d + 1, q).reshape(m, L // m, blocks, rows))
    else:  # one column per (block, batch column), on contiguous operands
        np.copyto(ws.floor, F.reshape(blocks, L, 2, rows).transpose(2, 1, 0, 3))
        U, V = ws.floor
        np.copyto(P, polymul.leaf_products(U, V, -1, q, ws.acc, work.reshape(2, L, blocks, rows))
                  .transpose(1, 0, 2))
        polymul._count_leaves(L, False, blocks * rows)
    _block_ntt(P, depth.inverse, q, True, work=work[: P.size], reduce=False)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += P.size
    lazy = (1 << len(depth.inverse)) * (q - 1) ** 2 < 1 << 63
    scale = _scale_unreduced if lazy else _scale_reduced
    return scale(P, mod_inv(blocks, q), q, work[: P.size].reshape(P.shape))


def _schonhage(x, y, ws: BlockWorkspace, q: int):
    """Cyclic product of two length-2mn int64 arrays via
    (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1), with (m, n) taken from
    ``ws.schedule[0].step``, as a fresh array.

    Blocks of m coefficients become y-coefficients; x^(2m/n) is the
    synthetic 2n-th root, and y = x^m substitutes back at the end.
    """
    m, n = ws.schedule[0].step.m, ws.schedule[0].step.n
    F = ws.forward[0]  # block j: coefficients jm .. jm + m - 1, zero-padded to 2m
    F[:, :m, 0], F[:, :m, 1] = x.reshape(2 * n, m), y.reshape(2 * n, m)
    F[:, m:] = 0
    P = _block_convolve(ws, 0, q)[..., 0]
    # y = x^m: block j's upper half lands on block j + 1
    return _mod(P[:, :m] + np.roll(P[:, m:], 1, axis=0), q).ravel()


def schonhage_multiply(a: Poly, b: Poly, m: int, n: int, schedule: tuple | None = None) -> Poly:
    """Cyclic product of length 2mn via (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1).
    ``schedule`` is ``block_schedule(Schonhage(m, n))``, built here when
    omitted; the product runs in a workspace built for this call."""
    return _block_one_shot(a, b, Schonhage(m, n), schedule)


def _nussbaumer(ws: BlockWorkspace, d: int, q: int):
    """Column-wise negacyclic products of depth d via
    (Z_q[y]/(y^2n + 1))[x]/(x^m - y), y^2 the synthetic 2n-th root, with
    (m, n) taken from ``ws.schedule[d].step``.  The caller has put both
    operands' parts, the (2n, rows) y-polynomials of the coefficients
    congruent to j mod m, in ``ws.forward[d][:m]``; returns the m parts
    of the products, an (m, 2n, rows) view of ``ws.inverse[d]``."""
    m, L = ws.schedule[d].step.m, ws.schedule[d].L
    ws.forward[d][m:] = 0
    P = _block_convolve(ws, d, q, live=m)
    rows = P.shape[2]
    c = min(m - 1, L - m)  # fold x^m = y: true x-degree is < 2m - 1 <= L
    P[:c, 1:] += P[m : m + c, :-1]
    P[:c, 0] -= P[m : m + c, -1]  # y^L = -1
    _mod(P[:c], q, ws.scratch[d][: c * L * rows].reshape(c, L, rows))
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.adds += rows * c * L
        ctr.subs += rows * c
    return P[:m]


def _nussbaumer_product(x, y, ws: BlockWorkspace, q: int):
    """Negacyclic product of two length-2mn int64 arrays by
    ``_nussbaumer`` on one column, as a fresh array."""
    m, L = ws.schedule[0].step.m, ws.schedule[0].L
    F = ws.forward[0]  # part j: coefficients i*m + j, one per y-degree i
    F[:m, :, 0], F[:m, :, 1] = x.reshape(L, m).T, y.reshape(L, m).T
    return _nussbaumer(ws, 0, q)[:, :, 0].T.flatten()


def _block_product(x, y, ws: BlockWorkspace, q: int):
    """The product of the workspace's step, Schoenhage or Nussbaumer."""
    if isinstance(ws.schedule[0].step, Schonhage):
        return _schonhage(x, y, ws, q)
    return _nussbaumer_product(x, y, ws, q)


def nussbaumer_multiply(a: Poly, b: Poly, m: int, n: int, schedule: tuple | None = None) -> Poly:
    """Negacyclic product of length 2mn using the synthetic 4n-th root y.
    ``schedule`` is ``block_schedule(Nussbaumer(m, n))``, built here when
    omitted; the product runs in a workspace built for this call."""
    return _block_one_shot(a, b, Nussbaumer(m, n), schedule)


def _block_one_shot(a: Poly, b: Poly, step, schedule: tuple | None) -> Poly:
    """A block product of two Polys in a workspace built for it."""
    q = _operand_modulus(a, b, step, schedule)
    ws = BlockWorkspace(schedule or block_schedule(step))
    return Poly(_block_product(a.array, b.array, ws, q), a.ring)


# ---------------------------------------------------------------------------
# embedding chains


@dataclass(frozen=True)
class ZeroPad:
    n_prime: int
    form: str = XN_MINUS_1


@dataclass(frozen=True)
class LiftModulus:
    """Lift into Z_modulus; ``basis``, when the planner fills it in, holds
    the primes below 2^31 whose product runs in place of a modulus >= 2^31."""

    modulus: int
    basis: tuple = ()


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
    """Ordered embedding steps: ZeroPad, optional LiftModulus, optional
    terminal multiplier, parsed once, here, into ``pad``, ``lift`` (or
    None) and ``terminal`` (``PlainNtt()`` when the chain names none)."""

    steps: tuple
    pad: ZeroPad = field(init=False, repr=False, compare=False)
    lift: LiftModulus | None = field(init=False, repr=False, compare=False)
    terminal: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.steps or not isinstance(self.steps[0], ZeroPad):
            raise ChainMismatch("general-phi chains start with ZeroPad")
        pad, lift, terminal = self.steps[0], None, None
        for s in self.steps[1:]:
            if isinstance(s, ZeroPad):
                raise ChainMismatch("ZeroPad must be the first step")
            if isinstance(s, LiftModulus):
                if lift is not None or terminal is not None:
                    raise ChainMismatch("LiftModulus must precede the terminal step")
                lift = s
            elif isinstance(s, (Good, Schonhage, Nussbaumer, PlainNtt)):
                if terminal is not None:
                    raise ChainMismatch("chain has more than one terminal step")
                terminal = s
            else:
                raise ChainMismatch(f"unknown chain step {s!r}")
        if isinstance(terminal, (Good, Schonhage, Nussbaumer)):
            expected = (terminal.h << terminal.k if isinstance(terminal, Good)
                        else 2 * terminal.m * terminal.n)
            if pad.n_prime != expected:
                raise ChainMismatch(f"terminal step expects length {expected}, pad gives {pad.n_prime}")
        object.__setattr__(self, "pad", pad)
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "terminal", terminal or PlainNtt())

    @property
    def congruence(self) -> int:
        """What every working modulus of the terminal must be 1 mod: 2^k for
        Good, the padded transform order for a plain transform, and 2 (odd,
        so 2n is invertible) for the block terminals."""
        s = self.terminal
        if isinstance(s, Good):
            return 1 << s.k
        if isinstance(s, PlainNtt):
            return (self.pad.n_prime >> s.beta) * (2 if self.pad.form == XN_PLUS_1 else 1)
        return 2


class BlockExecutor(bigmod.LiftedExecutor):
    """A Schoenhage or Nussbaumer terminal over Z_N (N == q: no lift), run
    once per working modulus on the block core; its block schedule, the
    same for every modulus, is built on first use.

    The executor owns a pool of ``BlockWorkspace``s, empty when the plan
    is built.  Each product takes one from the pool, or builds one when
    the pool is empty, and puts it back when it ends, raised or not, so
    no two threads ever share a workspace and the pool holds at most one
    per thread that multiplied at once.  A workspace serves every working
    modulus; for ``ntruprime-761-schonhage`` (Schonhage(32, 32)) it holds
    5.2 MiB.
    """

    def __init__(self, ring: RingSpec, step, N: int, basis=()):
        super().__init__(ring, N, basis)
        self.step = step
        self.workspaces = queue.SimpleQueue()

    @cached_property
    def schedule(self) -> tuple:
        return block_schedule(self.step)

    def table(self, p: int) -> int:  # the modulus the blocks run over, checked
        return _block_modulus(RingSpec(self.ring.form, self.ring.n, p), self.step, ())

    def run(self, x, y, p):
        try:
            ws = self.workspaces.get_nowait()
        except queue.Empty:
            ws = BlockWorkspace(self.schedule)
        try:
            return _block_product(x, y, ws, p)
        finally:
            self.workspaces.put(ws)


class ChainExecutor(bigmod.LiftedExecutor):
    """Plan executor of an embedding chain, over q: pad into a
    wraparound-free ring, run the terminal step there (over the lift
    modulus, or the basis that replaces it, when there is one), then fold
    mod phi, mod q.  ``pad``, ``lift`` and ``step`` are the chain's
    parsed steps; ``step`` is its terminal, a plain transform when the
    chain names none.  Its table is the terminal step's executor.
    """

    def __init__(self, ring: RingSpec, chain: EmbedChain):
        super().__init__(ring, ring.q)
        self.chain, self.pad, self.lift, self.step = chain, chain.pad, chain.lift, chain.terminal
        self.in_place = chain.pad.n_prime == ring.n and chain.pad.form == ring.form

    def table(self, p: int) -> bigmod.LiftedExecutor:  # the terminal step's executor
        ring, pad, step = self.ring, self.pad, self.step
        work = ring if self.in_place else RingSpec(pad.form, pad.n_prime, ring.q)
        N, basis = (self.lift.modulus, self.lift.basis) if self.lift else (ring.q, ())
        if isinstance(step, Good):
            return GoodExecutor(work, step.h, step.k, N, basis)
        if isinstance(step, PlainNtt):
            return bigmod.BigPrimeExecutor(work, N, step.beta, basis)
        return BlockExecutor(work, step, N, basis)

    def run(self, x, y, terminal):
        if self.in_place:  # ring already has the terminal shape: no embedding
            return terminal.product(x, y)
        return padded_product(x, y, self.ring, self.pad.n_prime, terminal.product)


def general_phi_multiply(a: Poly, b: Poly, chain: EmbedChain) -> Poly:
    """Run the chain in a wraparound-free big ring, then reduce mod phi, mod q."""
    return ChainExecutor(a.ring, chain).multiply(a, b)
