"""Ring embeddings that manufacture transform-friendly structure.

Four routes into rings where fast transforms exist: zero-padding into a
larger wraparound-free ring, the odd-times-power-of-two re-indexing
(Good), and the two block embeddings whose root of unity is the
indeterminate itself (Schoenhage for x^N - 1, Nussbaumer for x^N + 1),
which place no root-of-unity condition on the coefficient modulus.
Chains compose these steps and finish with the source-ring reduction.
Each executor is a ``bigmod.LiftedExecutor``; a chain's, over q, holds
its terminal step's executor as its one table.

The block embeddings run in a ``BlockWorkspace``, int32 or int64 buffers
(``block_route``) shaped by the block schedule, so a product allocates
nothing of the route's size.  A ``BlockExecutor`` owns a pool of them
per dtype: none when the plan is built, one built on a product that
finds its pool empty, one per thread that multiplied at once at most
(2.4 MiB each for Schonhage(32, 32) over q = 4591, int32).  A workspace
serves one product at a time; each one-shot runs its own executor.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd, prod

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
                                   pair.fwd_tw, pair.fwd_spec)
        P = polymul.leaf_products(X[:h], X[h:], 1, q)
        polymul._count_leaves(h, False, P.size // h)
        out = np.empty(len(x), dtype=np.int64)
        out[index] = transforms.ntt_inverse(P, pair.inv_tw, pair.inv_spec)
        return out


def good_multiply(a: Poly, b: Poly, h: int, k: int, inner_modulus: int) -> Poly:
    """Good's route over Z_inner_modulus with freshly built tables."""
    return GoodExecutor(a.ring, h, k, inner_modulus).multiply(a, b)


# ---------------------------------------------------------------------------
# block arrays: shape (blocks, L, batch), one residue of Z_q[x]/(x^L + 1)
# per block and batch column, int32 or int64 as ``block_route`` picks for
# q.  The batch axis is last, so each gather copies whole rows and each
# add runs over long contiguous runs.  Rows of products are (L, rows),
# one column per product.


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


def _block_modulus(ring: RingSpec, step) -> int:
    """Check a ring of a block embedding, its shape and q (below 2^31, for
    int32 or int64 blocks); returns q."""
    m, n, q = step.m, step.n, ring.q
    form = XN_MINUS_1 if isinstance(step, Schonhage) else XN_PLUS_1
    if ring.form != form or ring.n != 2 * m * n:
        raise BadShape(f"ring must be {form} with n = 2mn = {2 * m * n}")
    fault = block_shape_fault(step)
    if fault:
        raise ShapeCondition(fault)
    if gcd(2 * n, q) != 1:
        raise ParameterCondition(f"2n = {2 * n} must be invertible mod q = {q}")
    if not modarith.vectorized(q):
        raise ParameterCondition(f"q = {q} is not below 2^31: block arrays are int32 or int64")
    return q


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
    negates those that wrapped: one column in a schedule, the depth's
    whole batch width in a route (``block_route``), and None there on a
    level that gathers nothing.  ``subs`` counts the negations of one
    batch column.
    """

    nblocks: int
    half: int
    index: np.ndarray
    sign: np.ndarray | None
    subs: int


@dataclass(frozen=True)
class BlockDepth:
    """One recursion depth of the block route: the Schonhage or Nussbaumer
    step whose 2n blocks it transforms, their length L (2m for a
    Schoenhage step, 2n for a Nussbaumer one), ``live``, how many leading
    input blocks can be nonzero, ``keep``, how many leading output blocks
    are read, and the levels of both directions.  A Schoenhage step
    (always the top depth) reads and writes all 2n blocks; a Nussbaumer
    step's input is its m parts, and its fold reads m + min(m - 1, L - m)
    parts of the output."""

    step: object
    L: int
    live: int
    keep: int
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
        live, keep = (m, m + min(m - 1, L - m)) if isinstance(step, Nussbaumer) else (2 * n, 2 * n)
        depths.append(BlockDepth(step, L, live, keep, _block_levels(2 * n, L, stride, False),
                                 _block_levels(2 * n, L, stride, True)))
        if L <= SCHOOLBOOK_FLOOR:
            return tuple(depths)
        m = 1 << ((L.bit_length() - 2) // 2)  # balanced Nussbaumer split, n >= m
        n, stride = L // (2 * m), 2
        L, step = 2 * n, Nussbaumer(m, n)


BLOCK_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))  # the buffer classes, narrowest first


@dataclass(frozen=True)
class BlockRoute:
    """A block schedule compiled for a working modulus q (``block_route``):
    its buffer class ``dtype``, its ``depths`` with the signs of every
    level that gathers in that dtype, where a product reduces
    (``reduce``, see ``_reductions``), ``leaf_bound``, the magnitude bound
    of the floor's leaf operands, and ``scale``, 1 over the block counts of
    all depths mod q, the product's one scaling."""

    q: int
    dtype: np.dtype
    depths: tuple
    reduce: tuple
    leaf_bound: int
    scale: int


def _reductions(schedule: tuple, q: int, limit: int) -> tuple | None:
    """Where a product over q reduces to keep every entry below ``limit``
    in magnitude, and the bound of the floor's leaf operands; None if a
    step passes the limit even on reduced input.  Per depth, four flags:
    reduce its live input blocks before its forward transform, all its
    blocks after it, its kept blocks after its inverse, its fold's result.

    A bound on every entry walks the steps in order from q - 1:

    - a depth's forward transform multiplies it by 2^g, g its levels that
      are not copies;
    - the floor's leaf products, on operands bounded by B, sum raw
      products while L B^2 stays below the limit, and peak there
      (``polymul.leaf_rule``); otherwise they take canonical operands.
      Either way they return canonical residues;
    - each inverse level, pruned or not, and each fold doubles it;
    - the final scale, in int64, multiplies it by q - 1.

    A reduction, to q - 1, goes right before a step that would reach the
    limit, and nowhere else, with one exception.  Right after a forward
    transform it would reduce all of the depth's 2n blocks; when
    (q - 1) 2^g, the growth from q - 1 through that transform, still fits
    the step after it, the reduction goes before the transform instead,
    on its ``live`` input blocks, the only ones that can be nonzero.  The
    step after then starts from (q - 1) 2^g, which it takes, and the walk
    goes on from its peak; it also reaches every step that it reached
    with the reduction after the transform, since each step fits when it
    starts from q - 1.

    Schonhage(32, 32) over q = 4591 in int32: the forward bounds are
    2^6, 2^8 and 2^9 (q - 1), and the floor cannot take 2^9 (q - 1)
    operands.  Its forward transform has one level that is not a copy,
    and 8 (2 (q - 1))^2 < 2^31 (up to q = 8191), so its two live input
    blocks are reduced instead of its eight blocks after the transform,
    and the leaves sum raw products of 2 (q - 1)-bounded operands.  The
    inverse and fold bounds then stay below 2^31 up to the final scale.
    """
    top, D, L = q - 1, len(schedule), schedule[-1].L
    steps = [1 << sum(lv.half < d.live for lv in d.forward) for d in schedule]  # forward, outermost first
    steps += [0] + [g for d in schedule[::-1] for g in (1 << len(d.inverse), 2)] + [top]

    def peak(i, bound):  # step i's largest entry on input bounded by ``bound``, None past its limit
        lim = 1 << 63 if i == len(steps) - 1 else limit
        if steps[i]:
            p = bound * steps[i]
        else:
            lazy, p = polymul.leaf_rule(L, q, lim, bound)
            if not lazy and bound > top:  # reduce-first leaves take canonical operands
                return None
        return p if p < lim else None

    bound, live, before = top, [False] * D, []  # before[i]: reduce the input of step i
    for i in range(len(steps)):
        reduce = peak(i, bound) is None
        if reduce and 0 < i <= D and peak(i, top * steps[i - 1]) is not None:
            live[i - 1], reduce, bound = True, False, top * steps[i - 1]
        before.append(reduce)
        if reduce:
            bound = top
        if i == D:
            leaf_bound = bound
        p = peak(i, bound)
        if p is None:
            return None
        bound = top if i == D else p
    # step D + 1 + 2j is depth D-1-j's inverse, step D + 2 + 2j its fold
    flags = zip(live, before[1 : D + 1], before[3 * D : D + 1 : -2], before[3 * D + 1 : D + 2 : -2])
    return tuple(flags), leaf_bound


def block_route(schedule: tuple, q: int) -> BlockRoute:
    """``schedule`` compiled for q, in the first of ``BLOCK_DTYPES`` whose
    limit (``polymul.dtype_limit``) the walk of ``_reductions`` keeps.

    Every level that gathers gets its signs in that dtype, already
    broadcast to its depth's batch width (2 rows forward, rows inverse,
    as ``BlockWorkspace`` lays them out), so its sign multiply is one
    contiguous pass; the forward levels that copy and the inverse levels
    that are pruned (``_block_ntt``) get none.  For Schonhage(32, 32) in
    int32 that is 0.86 MiB of signs per route."""
    for dtype in BLOCK_DTYPES:
        walk = _reductions(schedule, q, polymul.dtype_limit(dtype))
        if walk is not None:
            break
    else:
        raise ParameterCondition(f"q = {q}: the block route's bounds pass 2^63")

    def signed(levels, span, width):  # levels whose halves reach ``span`` gather nothing
        return tuple(replace(lv, sign=None if lv.half >= span else transforms.read_only(
            np.array(np.broadcast_to(lv.sign, (len(lv.sign), width)), dtype=dtype))) for lv in levels)

    depths, rows = [], 1
    for d in schedule:
        depths.append(replace(d, forward=signed(d.forward, d.live, 2 * rows),
                              inverse=signed(d.inverse, d.keep, rows)))
        rows *= 2 * d.step.n
    return BlockRoute(q, dtype, tuple(depths), *walk, mod_inv(prod(2 * d.step.n for d in schedule), q))


class BlockWorkspace:
    """The buffers one block product runs in, of the modulus's ``dtype``
    (``block_route``) and shaped by a block schedule.  Depth d, whose 2n
    blocks of length L each carry ``rows`` batch columns (1 at the top,
    2n * rows one depth down), has:

    - ``forward[d]``, (2n, L, 2 rows): both operands' blocks, A's columns
      then B's, transformed in place;
    - ``inverse[d]``, (2n, L, rows): their block products, transformed
      back in place;
    - ``scratch[d]``, 2n * L * 2 rows entries: the gathers and quotients
      of both transforms, and at the floor the leaf kernel's scratch;

    and the floor has the leaf kernel's operands ``floor``, (2, L, 2n,
    rows), both halves of its forward array copied contiguous, and its
    accumulator ``acc``, (L, 2n, rows).  A product writes only into
    these, so it allocates nothing of the route's size; one workspace
    serves one product at a time.
    """

    def __init__(self, schedule: tuple, dtype):
        self.forward, self.inverse, self.scratch = [], [], []
        rows = 1
        for depth in schedule:
            blocks, L = 2 * depth.step.n, depth.L
            self.forward.append(np.empty((blocks, L, 2 * rows), dtype=dtype))
            self.inverse.append(np.empty((blocks, L, rows), dtype=dtype))
            self.scratch.append(np.empty(blocks * L * 2 * rows, dtype=dtype))
            floor, rows = (L, blocks, rows), blocks * rows
        self.floor = np.empty((2, *floor), dtype=dtype)
        self.acc = np.empty(floor, dtype=dtype)


def _block_ntt(X, levels: tuple, inverse: bool, live: int | None = None, keep: int | None = None,
               work=None):
    """Cyclic transform along axis 0 of a block array, in place on a
    contiguous copy when X is not contiguous; returns it unreduced.

    Forward runs the natural-input CT levels, inverse the bit-reversed-input
    GS levels, without the 1/blocks scaling.  Each level is one signed
    gather, one add and one subtract in X's dtype, the levels' signs in
    it; nothing is multiplied mod q, and nothing reduced, each level at
    most doubling the largest magnitude (``_reductions`` places the
    reductions).  ``work``, X.size entries of X's dtype, takes the gathers
    and differences (fresh when omitted); the gathers use ``mode="clip"``
    (every index is in range) because ``take`` copies through a fresh
    buffer into ``out`` in its default mode.

    Two kinds of level gather nothing, and each is counted as the
    butterflies it stands for.  When only the first ``live`` blocks of a
    forward input can be nonzero, each level whose halves are at least
    ``live`` blocks long has all-zero lower inputs, so it copies its
    upper halves.  When only the first ``keep`` blocks of an inverse
    output are read, each level whose halves are at least ``keep`` blocks
    long (the last ones) computes only its sums u + v: every block read
    after it lies in the first halves u of this level and of every later
    one, so its differences are never read.
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
    keep = blocks if keep is None else keep
    for lv in levels:
        y = X.reshape(lv.nblocks, 2, lv.half * L, batch)
        u, v = y[:, 0], y[:, 1]
        if inverse and keep <= lv.half:  # only u + v is read
            u += v
        elif inverse:
            d = np.subtract(u, v, out=work[half:].reshape(u.shape))
            t = d.reshape(-1, batch).take(lv.index, axis=0, out=gathered, mode="clip")
            t *= lv.sign
            u += v
            v[...] = t.reshape(v.shape)
        elif live <= lv.half:  # v = 0: (u + x^e v, u - x^e v) = (u, u)
            v[...] = u
        else:
            t = flat.take(lv.index, axis=0, out=gathered, mode="clip")
            t *= lv.sign
            t = t.reshape(v.shape)
            np.subtract(u, t, out=v)
            u += t
        if ctr is not None:
            ctr.adds += X.size // 2
            ctr.subs += X.size // 2 + batch * lv.subs
    return X


def _reduce(Y, q: int, work):
    """Y mod q in place (``_mod``), its quotients in the leading entries of ``work``."""
    return _mod(Y, q, work[: Y.size].reshape(Y.shape))


def _block_convolve(ws: BlockWorkspace, route: BlockRoute, d: int):
    """Cyclic convolution along axis 0 of the two block arrays that
    ``ws.forward[d]`` holds, by ``route.depths[d]``: forward (both in one
    batch), block products in Z_q[x]/(x^L + 1) (an inner Nussbaumer split
    of every column, or the leaf kernel at the floor), inverse; returns
    ``ws.inverse[d]``, whose first ``keep`` blocks hold the result (see
    ``BlockDepth``).  Only the first ``live`` blocks of A and B may be
    nonzero.  It reduces where ``route.reduce[d]`` says.  The 1/blocks
    scaling, left to the route's one final scale, is counted here as the
    scaling it stands for."""
    depth, q = route.depths[d], route.q
    live_input, after_forward, after_inverse, _ = route.reduce[d]
    F, P, work = ws.forward[d], ws.inverse[d], ws.scratch[d]
    blocks, L, rows = P.shape
    if live_input:
        _reduce(F[: depth.live], q, work)
    _block_ntt(F, depth.forward, False, live=depth.live, work=work)
    if after_forward:
        _reduce(F, q, work)
    if d + 1 < len(route.depths):
        # part j of the inner split takes coefficients i*m + j of each column
        m = route.depths[d + 1].step.m
        np.copyto(ws.forward[d + 1][:m].reshape(m, L // m, 2, blocks, rows),
                  F.reshape(blocks, L // m, m, 2, rows).transpose(2, 1, 3, 0, 4))
        np.copyto(P.reshape(blocks, L // m, m, rows).transpose(2, 1, 0, 3),
                  _nussbaumer(ws, route, d + 1).reshape(m, L // m, blocks, rows))
    else:  # one column per (block, batch column), on contiguous operands
        np.copyto(ws.floor, F.reshape(blocks, L, 2, rows).transpose(2, 1, 0, 3))
        U, V = ws.floor
        np.copyto(P, polymul.leaf_products(U, V, -1, q, ws.acc, work.reshape(2, L, blocks, rows),
                                           route.leaf_bound).transpose(1, 0, 2))
        polymul._count_leaves(L, False, blocks * rows)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += P.size
    _block_ntt(P, depth.inverse, True, keep=depth.keep, work=work[: P.size])
    if after_inverse:
        _reduce(P[: depth.keep], q, work)
    return P


def _nussbaumer(ws: BlockWorkspace, route: BlockRoute, d: int):
    """Column-wise negacyclic products of depth d via
    (Z_q[y]/(y^2n + 1))[x]/(x^m - y), y^2 the synthetic 2n-th root, with
    (m, n) taken from ``route.depths[d].step``.  The caller has put both
    operands' parts, the (2n, rows) y-polynomials of the coefficients
    congruent to j mod m, in ``ws.forward[d][:m]``; returns the m parts
    of the unscaled products, an (m, 2n, rows) view of ``ws.inverse[d]``."""
    m, L = route.depths[d].step.m, route.depths[d].L
    ws.forward[d][m : 1 << (m - 1).bit_length()] = 0  # the forward's copy levels write the rest
    P = _block_convolve(ws, route, d)
    rows = P.shape[2]
    c = min(m - 1, L - m)  # fold x^m = y: true x-degree is < 2m - 1 <= L
    P[:c, 1:] += P[m : m + c, :-1]
    P[:c, 0] -= P[m : m + c, -1]  # y^L = -1
    if route.reduce[d][3]:
        _reduce(P[:m], route.q, ws.scratch[d])
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.adds += rows * c * L
        ctr.subs += rows * c
    return P[:m]


def _block_product(x, y, ws: BlockWorkspace, route: BlockRoute):
    """The product of two length-2mn int64 arrays by the route's step, as a
    fresh int64 array: cyclic via (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1) for
    Schoenhage (blocks of m coefficients become y-coefficients, x^(2m/n)
    is the synthetic 2n-th root, y = x^m substitutes back at the end),
    negacyclic by ``_nussbaumer`` on one column; scaled last, in int64."""
    m, L, F = route.depths[0].step.m, route.depths[0].L, ws.forward[0]
    if isinstance(route.depths[0].step, Nussbaumer):  # part j: coefficients i*m + j, one per y-degree i
        F[:m, :, 0], F[:m, :, 1] = x.reshape(L, m).T, y.reshape(L, m).T
        out = _nussbaumer(ws, route, 0)[:, :, 0].T
    else:  # block j: coefficients jm .. jm + m - 1, zero-padded to 2m
        F[:, :m, 0], F[:, :m, 1] = x.reshape(-1, m), y.reshape(-1, m)
        F[:, m:] = 0
        P = _block_convolve(ws, route, 0)[..., 0]
        out = P[:, :m].copy()  # y = x^m: upper halves move one block up
        out[1:] += P[:-1, m:]
        out[0] += P[-1, m:]
        if route.reduce[0][3]:
            _mod(out, route.q)
    return _mod(np.multiply(out, route.scale, dtype=np.int64), route.q).ravel()


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
    """A Schoenhage or Nussbaumer step over Z_N (N == q: no lift), a chain's
    terminal or a one-shot's product, run once per working modulus on the
    block core; its schedule, the same for every modulus, is built on first
    use, and its table mod p is that schedule compiled for p (``block_route``).

    The executor owns a pool of ``BlockWorkspace``s per dtype, empty when
    the plan is built.  Each product takes one of its route's dtype, or
    builds one when that pool is empty, and puts it back when it ends,
    raised or not, so no two threads ever share a workspace and a pool
    holds at most one per thread that multiplied at once.  A workspace
    serves every working modulus of its dtype; for
    ``ntruprime-761-schonhage`` (int32) it holds 2.4 MiB, and its route
    0.86 MiB of level signs.
    """

    def __init__(self, ring: RingSpec, step, N: int, basis=()):
        super().__init__(ring, N, basis)
        self.step = step
        self.workspaces = {dtype: queue.SimpleQueue() for dtype in BLOCK_DTYPES}

    @cached_property
    def schedule(self) -> tuple:
        return block_schedule(self.step)

    def table(self, p: int) -> BlockRoute:
        q = _block_modulus(RingSpec(self.ring.form, self.ring.n, p), self.step)
        return block_route(self.schedule, q)

    def run(self, x, y, route):
        pool = self.workspaces[route.dtype]
        try:
            ws = pool.get_nowait()
        except queue.Empty:
            ws = BlockWorkspace(self.schedule, route.dtype)
        try:
            return _block_product(x, y, ws, route)
        finally:
            pool.put(ws)


def schonhage_multiply(a: Poly, b: Poly, m: int, n: int) -> Poly:
    """Cyclic product of length 2mn via (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1),
    on a block executor built for the call."""
    return BlockExecutor(a.ring, Schonhage(m, n), a.ring.q).multiply(a, b)


def nussbaumer_multiply(a: Poly, b: Poly, m: int, n: int) -> Poly:
    """Negacyclic product of length 2mn using the synthetic 4n-th root y,
    on a block executor built for the call."""
    return BlockExecutor(a.ring, Nussbaumer(m, n), a.ring.q).multiply(a, b)


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
