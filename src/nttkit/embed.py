"""Ring embeddings that manufacture transform-friendly structure.

Four routes into rings where fast transforms exist: zero-padding into a
larger wraparound-free ring, Good's trick on odd-times-power-of-two
rings, and the two block embeddings whose root of unity is the
indeterminate itself (Schoenhage for x^N - 1, Nussbaumer for x^N + 1),
which place no root-of-unity condition on the coefficient modulus.
Chains compose these steps and finish with the source-ring reduction.
Each executor is a ``bigmod.LiftedExecutor``; a chain's, over q, holds
its terminal step's executor as its one table, which reads (and lifts)
only the source prefix of each operand and returns only the 2n - 1
coefficients that the chain folds mod phi: no product pads its operands.
A ``Good`` terminal is the plain terminal of x^(h*2^k) - 1, on chunks of
h coefficients (``transforms``): no re-indexing, the same lift and truncation.

The block embeddings run in a ``BlockWorkspace``, int32 or int64 buffers
(``block_route``) shaped by the block schedule, so a product allocates
nothing of the route's size.  A ``BlockExecutor`` owns a pool of them
per dtype: none when the plan is built, one built on a product that
finds its pool empty, one per thread that multiplied at once at most
(1.4 MiB each for ``ntruprime-761-schonhage``, int32).  A workspace
serves one product at a time; each one-shot runs its own executor.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd, prod

import numpy as np

from . import bigmod, bounds, modarith, polymul, transforms
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
    source modulus and returns the product there: the operands' zero-padded
    length-n_prime copies, whose product has no wraparound, so its 2n - 1
    low coefficients fold mod phi (``polymul.fold_mod_phi``).
    """
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    n = a.ring.n
    if n_prime < 2 * n - 1:
        raise PadTooSmall(f"n'={n_prime} cannot hold a degree-{2 * n - 2} product")
    big = RingSpec(form, n_prime, a.ring.q)
    xp, yp = np.zeros((2, n_prime), dtype=np.int64)
    xp[:n], yp[:n] = a.array, b.array
    c = backend(Poly(xp, big), Poly(yp, big)).array
    return Poly(polymul.fold_mod_phi(c[: 2 * n - 1], a.ring), a.ring)


# ---------------------------------------------------------------------------
# Good's trick


def good_multiply(a: Poly, b: Poly, h: int, k: int, inner_modulus: int) -> Poly:
    """Good's route over Z_inner_modulus with freshly built tables: the
    transform pair of x^(h*2^k) - 1, h odd, on chunks of h coefficients."""
    if h % 2 == 0 or a.ring.form != XN_MINUS_1 or a.ring.n != h << k:
        raise BadShape(f"need x^(h*2^k) - 1 with h odd, got h={h}, k={k} for {a.ring}")
    return bigmod.BigPrimeExecutor(a.ring, inner_modulus).multiply(a, b)


# ---------------------------------------------------------------------------
# block transforms: each depth holds one residue of Z_q[x]/(x^L + 1) per
# block and batch column, int32 or int64 as ``block_route`` picks for q,
# in rows of coefficients with the batch last, so each gather copies whole
# rows and each add runs on whole contiguous arrays.  A depth's batch is
# (operand, rows): rows 1 at the top and, one depth down, a column for
# each block of every depth above.  Where each block's coefficient lies
# between two steps is compiled into the gathers (``_levels``,
# ``block_schedule``).


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
    if not bounds.vectorized(q):
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
    """One butterfly level of a block transform, for every row alike, as
    one row gather and whole-array arithmetic: the sums u + v and, unless
    ``sums``, the differences u - v of what it gathers.

    ``index`` gathers the level's upper halves v, then its last ``ups``
    rows the lower halves u, from the rows of its input: one output row
    per entry, the concatenation of the chunks that the trailing index
    axes name, each of ``width`` entries (None: the input's own row
    width).  A level writes its sums and differences as the two
    contiguous halves of its output, rows in the order (group, row of its
    half, coefficient), each row a run of as many coefficients as every
    rotation of the level keeps together, so each add runs on whole
    arrays; the schedule tracks where each block's coefficient lands.

    Forward, v arrives rotated by its group's twiddle, and a row that
    wrapped is negated: its sum is the butterfly's lower output and its
    difference the upper one, swapped, where the schedule says.  The last
    level of a depth writes a layout that the next step reads whole, so
    ``sign`` negates its wrapped rows instead.  Inverse, the next level
    reads the differences rotated, and a difference whose rotation wraps
    is gathered as v - u.

    ``rows`` is nblocks * half * L, the rows of a half in the natural
    layout, and ``subs`` counts the negations of one batch column.  A
    level without ``index`` gathers nothing (see ``_run``).  The
    index stays writable: numpy's ``take`` copies a read-only index on
    every call.
    """

    nblocks: int
    half: int
    rows: int
    subs: int
    index: np.ndarray | None = None
    ups: int = 0
    width: int | None = None
    sign: np.ndarray | None = None
    sums: bool = False


@dataclass(frozen=True)
class BlockDepth:
    """One recursion depth of the block route: the Schonhage or Nussbaumer
    step whose 2n blocks it transforms, their length L (2m for a
    Schoenhage step, 2n for a Nussbaumer one), ``live``, how many leading
    input blocks can be nonzero, ``keep``, how many leading output blocks
    are read, the levels of both directions (``_levels``), and the gathers
    that finish its product: a Nussbaumer depth's ``fold``, the rows that
    x^m = y adds to its first min(m - 1, L - m) parts, and the top's
    ``unblock``, the rows of its block products' low and high halves that
    y = x^m adds (Schoenhage).  ``source`` is how many coefficients of
    each operand the top depth reads (0 below it).  A Schoenhage step
    (always the top depth) has ceil(source/m) live blocks and writes all
    2n; a Nussbaumer step's input is its m parts, and its fold reads
    m + min(m - 1, L - m) parts of the output."""

    step: object
    L: int
    live: int
    keep: int
    source: int
    forward: tuple
    inverse: tuple
    fold: np.ndarray | None = None
    unblock: tuple = ()


def _widen(index: np.ndarray, width) -> tuple:
    """A gather index of chunks, (rows, ..., n), and its chunk width, as
    one of wider chunks: the longest runs of d consecutive, aligned chunks
    along its last axis become single chunks d times wider, repeated while
    whole axes merge, so each gather copies rows as wide as it can."""
    while index.ndim > 1 and width is not None:
        n = index.shape[-1]
        for d in range(n, 0, -1):  # d = 1 always merges
            runs = index.reshape(*index.shape[:-1], -1, d) if n % d == 0 else None
            if runs is not None and np.array_equal(runs, runs[..., :1] + np.arange(d)) and not (runs[..., 0] % d).any():
                index, width = runs[..., 0] // d, width * d
                break
        if d < n:
            break
        index = index[..., 0]
    return np.ascontiguousarray(index), width


def _levels(at: np.ndarray, width, L: int, stride: int, inverse: bool, span: int | None = None,
            ops: int = 1, own=None) -> tuple:
    """The BlockLevels of one direction of a ``len(at)``-point transform of
    length-L blocks with twiddles x^(stride * e), and where each block's
    coefficient lands after the last level.

    ``at``, (blocks, L, *chunks), names the input's rows: block b's
    coefficient l is the concatenation of chunks ``at[b, l]``, each of
    ``width`` entries (None: the input's own rows).  The levels whose
    halves hold at least ``span`` blocks gather nothing: forward, the
    leading ones that find only zero upper halves (all but the last), so
    block k holds input block k mod (blocks >> c) after c of them, and the
    first level that gathers reads through that map, its lower halves
    once for every group when c > 0; inverse, the trailing ones whose
    differences are never read, which gather and add only (their upper
    halves map to row 0: no kept block reads them).  A level's output
    rows have ``ops`` chunks of ``own`` entries.  With ``ops`` > 1 (the
    two operands, forward) the last level's rows are (operand,
    coefficient, group, row of its half) instead, each of ``own``
    entries, so each of its halves holds, for every operand and
    coefficient, half the blocks side by side.  Returns (levels, map), the
    map an ``at`` of the output, or with ``ops`` > 1 the column each block
    lands in."""
    blocks = len(at)
    geometry = list(transforms.level_geometry(CYCLIC_BLOCK_PAIR[inverse], blocks))
    free = 0 if span is None else sum(h >= span for _, h, _ in geometry)
    copies = 0 if inverse else min(free, len(geometry) - 1)
    wrap, levels = blocks >> copies, []
    for k, (nb, h, exps) in enumerate(geometry):
        e = (-1 if inverse else 1) * stride * np.array(exps)
        index, sign = _rotation(e, L)
        subs = h * int((sign < 0).sum())
        if k < copies:
            levels.append(BlockLevel(nb, h, nb * h * L, subs))
            continue
        g, i, l = np.ogrid[:nb, :h, :L]
        lower, upper = (2 * h * g + i) % wrap, (2 * h * g + h + i) % wrap
        rot = index[g, l]
        signs = np.broadcast_to(sign[g, l], (nb, h, L))
        last = ops > 1 and k == len(geometry) - 1
        gi, ii, li = np.broadcast_arrays(g, i, l)
        if inverse:  # difference row (g, i, rot[l]) lands at coefficient l of block 2hg + h + i
            u, v = at[lower, l], at[upper, l]
            flipped = np.empty((nb, h, L), dtype=bool)
            flipped[gi, ii, rot[gi, 0, li]] = signs < 0
            flipped = flipped.reshape(*flipped.shape, *[1] * (u.ndim - 3))
            u, v = np.where(flipped, v, u), np.where(flipped, u, v)
        else:
            u, v = at[lower[:1] if k == copies > 0 and not last else lower, l], at[upper, rot]
        if last:  # rows (operand, coefficient, group, row of its half)
            order = (3, 2, 0, 1, *range(4, u.ndim))
            u, v, signs = u.transpose(order), v.transpose(order), np.broadcast_to(
                signs.transpose(2, 0, 1), (ops, L, nb, h))
            c, chunks = 1, u.shape[4:]
        else:  # rows of c coefficients: every rotation moves whole runs of c
            c, chunks = int(np.gcd.reduce(np.append(e % L, L))), u.shape[3:]
        u, v = u.reshape(-1, c, *chunks), v.reshape(-1, c, *chunks)
        both, w = _widen(np.concatenate((v, u)), width)
        sign = transforms.read_only(signs.reshape(-1, 1).copy()) if last else None
        pruned = inverse and span is not None and h >= span
        levels.append(BlockLevel(nb, h, nb * h * L, subs, both, len(u), w, sign, pruned))
        if last:  # block 2hg + sh + i lands in column s*blocks/2 + g*h + i
            g, rest = np.divmod(np.arange(blocks), 2 * h)
            return tuple(levels), rest // h * (blocks // 2) + g * h + rest % h
        half, row = blocks * L // 2, (gi * h + ii) * L
        swap = 0 if inverse else half * (signs < 0)  # forward: a wrapped row's sum is the upper output
        phys = np.zeros((blocks, L), dtype=np.int64)
        phys[2 * h * gi + ii, li] = row + li + swap
        if not pruned:
            phys[2 * h * gi + h + ii, li] = half + row + (rot[gi, 0, li] if inverse else li) - swap
        at = phys[..., None] * ops + np.arange(ops) if ops > 1 else phys
        wrap, width = blocks, own
    return tuple(levels), at


def block_schedule(step, source: int | None = None) -> tuple:
    """The compiled block route of a Schonhage or Nussbaumer step: one
    BlockDepth per recursion depth, outermost first.  The innermost
    depth's block products run at the schoolbook floor.  ``source``, how
    many leading coefficients of either operand can be nonzero (all 2mn
    when omitted), sets a Schoenhage step's live top blocks.  Depends on
    the shape alone, never on the modulus.

    Each depth's batch is (operand, rows), rows the columns that the
    depth above's blocks became.  The top reads the operands' ``source``
    leading coefficients, side by side in a (source + L, 2) array whose
    last L rows are zero: block k's coefficient l is row k*m + l
    (Schoenhage, past the live blocks and the low m coefficients row
    source + l, a zero) or l*m + k (Nussbaumer part k, zero from k = m
    on).  Each depth's last forward level leaves, per half, operand and
    coefficient, half its blocks side by side (``_levels``): one depth
    down, part j's coefficient i of an operand is coefficient i*m + j of
    that operand in both halves, and the zero chunk that follows; at the
    floor, (2, L, blocks, rows) are the leaf operands.  The leaf products land in (L, blocks, rows),
    where the last depth's inverse reads them, and each depth above reads
    part j's coefficient i of its block b from row j*L + i of the depth
    below's folded output, at b's column."""
    m, n = step.m, step.n
    k, l = np.ogrid[: 2 * n, : 2 * m if isinstance(step, Schonhage) else 2 * n]
    if isinstance(step, Schonhage):
        L, stride, live = 2 * m, 2 * m // n, 2 * n
        if source is not None:
            live = max(1, min(live, -(-source // m)))
        keep, reads = 2 * n, live * m
        at = np.where((k < live) & (l < m), k * m + l, reads + l)
    else:
        L, stride, live, keep, reads = 2 * n, 2, m, m + min(m - 1, 2 * n - m), 2 * m * n
        at = np.where(k < m, l * m + k, reads + l)
    at, width, r, plan = at[..., None] * 2 + np.arange(2), 1, 1, []
    while True:
        blocks = 2 * step.n
        forward, columns = _levels(at, width, L, stride, False, live, 2, r)
        plan.append((step, L, stride, live, keep, reads, forward, r, columns))
        if L <= SCHOOLBOOK_FLOOR:
            break
        m = 1 << ((L.bit_length() - 2) // 2)  # balanced Nussbaumer split, n >= m
        n = L // (2 * m)
        k, l, op, half = np.ogrid[: 2 * n, : 2 * n, :2, :2]
        at = np.where(k < m, half * 2 * L + op * L + l * m + k, 4 * L)
        width, reads, r = blocks * r // 2, 0, r * blocks
        step, L, stride, live, keep = Nussbaumer(m, n), 2 * n, 2, m, m + min(m - 1, 2 * n - m)
    at = np.arange(L) * blocks + columns[:, None]
    depths = []
    for step, L, stride, live, keep, reads, forward, r, columns in reversed(plan):
        blocks, m = 2 * step.n, step.m
        if depths:
            below, l = depths[-1], np.arange(L)
            at = ((l % below.step.m) * below.L + l // below.step.m) * blocks + columns[:, None]
        inverse, done = _levels(at, r, L, stride, True, keep, own=r)
        fold, unblock = None, ()
        if isinstance(step, Nussbaumer):  # the last inverse level leaves part j's coefficient i at row j*L + i
            j, i = np.ogrid[: min(m - 1, L - m), :L]
            fold = np.ascontiguousarray(done[m + j, (i - 1) % L].ravel())
        else:
            b, i = np.ogrid[:blocks, :m]
            unblock = tuple(np.ascontiguousarray(a.ravel()) for a in (done[b, i], done[(b - 1) % blocks, m + i]))
        depths.append(BlockDepth(step, L, live, keep, reads, forward, inverse, fold, unblock))
    return tuple(depths[::-1])


@dataclass(frozen=True)
class BlockRoute:
    """A block schedule compiled for a working modulus q (``block_route``):
    its buffer class ``dtype``, its ``depths`` with the signs of every
    level that gathers in that dtype, ``reduce``, whether a product
    reduces right before each of its steps (``block_route``),
    ``leaf_bound``, the magnitude bound of the floor's leaf operands, and
    ``scale``, 1 over the block counts of all depths mod q, the product's
    one scaling."""

    q: int
    dtype: np.dtype
    depths: tuple
    reduce: tuple
    leaf_bound: int
    scale: int


def block_route(schedule: tuple, q: int) -> BlockRoute:
    """``schedule`` compiled for q, in int32 where ``bounds.walk`` keeps
    every step of a product within int32, else in int64; a schedule whose
    bounds pass int64 raises.  The steps of D depths, in order: each
    depth's forward transform, the floor's leaf products, then per depth,
    innermost first, its inverse and its fold, and the final scale, so
    ``reduce`` holds 3D + 2 flags.  A reduction due after a depth's
    forward transform may go before it, on its live input blocks.

    The level that negates, the last forward level of each depth, gets
    its signs in that dtype, already broadcast to the width of the rows
    it gathers, so its sign multiply is one contiguous pass.  For
    ``ntruprime-761-schonhage`` in int32 that is 0.33 MiB of signs."""
    top, D = q - 1, len(schedule)
    for dtype in (np.dtype(np.int32), np.dtype(np.int64)):
        steps = [bounds.grow(1 << sum(lv.half < d.live for lv in d.forward), dtype) for d in schedule]
        steps.append(bounds.leaves(schedule[-1].L, q, dtype))
        for d in schedule[::-1]:
            steps += [bounds.grow(1 << len(d.inverse), dtype), bounds.grow(2, dtype)]
        steps.append(bounds.grow(top, np.int64))
        walk = bounds.walk(steps, top, top, early=range(1, D + 1))
        if walk is not None:
            break
    else:
        raise ParameterCondition(f"q = {q}: the block route's bounds pass 2^63")
    reduce, inputs = walk

    def signed(levels, half):  # half: the entries of one butterfly half of the depth
        return tuple(lv if lv.sign is None else replace(lv, sign=transforms.read_only(
            np.array(np.broadcast_to(lv.sign, (len(lv.sign), half // len(lv.sign))), dtype=dtype)))
            for lv in levels)

    depths, rows = [], 1
    for d in schedule:
        half = d.step.n * d.L * rows  # of each operand
        depths.append(replace(d, forward=signed(d.forward, 2 * half), inverse=signed(d.inverse, half)))
        rows *= 2 * d.step.n
    return BlockRoute(q, dtype, tuple(depths), reduce, inputs[D], mod_inv(prod(2 * d.step.n for d in schedule), q))


class BlockWorkspace:
    """The buffers one block product runs in, of the modulus's ``dtype``
    (``block_route``) and shaped by a block schedule, for depths whose 2n
    blocks of length L carry ``rows`` batch columns per operand (1 at the
    top, 2n * rows one depth down):

    - ``operands``, (source + L, 2), the top's source (``block_schedule``),
      its last L rows zero, and so are the rows past the leading ones that
      a product writes (``_block_product``);
    - ``blocks[d]``, flat, where depth d's levels run: its forward output,
      2n * L * 2 rows entries, then n * rows zeros that the next depth
      reads as its zero parts, and later its inverse, 2n * L * rows; None
      for the last depth when one level of its forward gathers (its
      inverse runs in ``acc``);
    - the floor's operands ``floor``, (2, L, 2n, rows), and its
      accumulator ``acc``, (L, 2n, rows);
    - ``scratch``, as large as ``floor``: every gather, every reduction's
      quotients and the leaf kernel's scratch.

    The zero rows are zeroed once and never written.  A product writes
    only into these, so it allocates nothing of the route's size; one
    workspace serves one product at a time.
    """

    def __init__(self, schedule: tuple, dtype):
        self.operands = np.zeros((schedule[0].source + schedule[0].L, 2), dtype=dtype)
        self.blocks, rows = [], 1
        for depth in schedule:
            size, last = 4 * depth.step.n * depth.L * rows, depth is schedule[-1]
            if last and sum(lv.index is not None for lv in depth.forward) == 1:
                self.blocks.append(None)
            else:
                self.blocks.append(np.zeros(size + (0 if last else depth.step.n * rows), dtype=dtype))
            floor, rows = (depth.L, 2 * depth.step.n, rows), 2 * depth.step.n * rows
        self.floor = np.empty((2, *floor), dtype=dtype)
        self.acc = np.empty(floor, dtype=dtype)
        self.scratch = np.empty(self.floor.size, dtype=dtype)
        last = len(schedule) - 1
        self.forward = tuple(_bind(
            self.blocks[d], depth.forward, self.scratch, self.blocks[d - 1] if d else self.operands,
            self.floor.reshape(2, depth.L, 2, -1).transpose(2, 0, 1, 3) if d == last else None)
            for d, depth in enumerate(schedule))
        self.inverse = tuple(_bind(self.acc if d == last else self.blocks[d], depth.inverse, self.scratch,
                                   self.acc if d + 1 >= last else self.blocks[d + 1])
                             for d, depth in enumerate(schedule))


def _bind(X, levels: tuple, work, source=None, out=None) -> tuple:
    """The levels of one direction that gather (``_run``), each bound
    to the arrays it runs on: its gather as (rows read, index, into), the
    gathered upper halves as rows to sign, and t, u and the two output
    halves shaped for its adds.  A workspace binds every depth once.

    The first level that gathers reads ``source`` (X when None), every
    later one X, and each writes its halves into X: its gather has copied
    what it reads.  ``out``, a (2, ...) view, takes the halves of the last
    level instead.  ``work`` takes the gathers.  X's rows, for levels that
    name no chunk width, are its last axis."""
    flat, row = (X.reshape(-1), X.shape[-1]) if X is not None else (None, None)
    gathers = [lv for lv in levels if lv.index is not None]
    bound = []
    for k, lv in enumerate(gathers):
        src = (source if k == 0 and source is not None else X).reshape(-1)
        w = row if lv.width is None else lv.width
        rows = len(lv.index) - lv.ups  # of v
        into = work[: lv.index.size * w].reshape(*lv.index.shape, w)
        t, u = into[:rows].reshape(rows, -1), into[rows:].reshape(lv.ups, -1)
        y = out if out is not None and k == len(gathers) - 1 else flat[: 2 * t.size].reshape(2, lv.nblocks, -1)
        bound.append((src[: src.size // w * w].reshape(-1, w), lv.index, into,
                      t, t.reshape(y.shape[1:]), u.reshape(-1, *y.shape[2:]), y[0], None if lv.sums else y[1]))
    return tuple(bound)


def _run(bound: tuple, signs) -> None:
    """One direction of a depth's cyclic transform along its blocks, from
    its bound levels (``_bind``) and the signs of the levels that gather;
    uncounted (``_count_levels``).

    Forward runs the natural-input CT levels, inverse the bit-reversed-input
    GS levels, without the 1/blocks scaling.  Each level that gathers is
    one row gather, one add and one subtract in the workspace's dtype, and
    at the last forward level of a depth one sign multiply (``BlockLevel``),
    every one on whole contiguous arrays; nothing is multiplied mod q, and
    nothing reduced, each level at most doubling the largest magnitude
    (``block_route`` places the reductions).  The gathers use
    ``mode="clip"`` (every index is in range) because ``take`` copies
    through a fresh buffer into ``out`` in its default mode.

    Two kinds of level are counted as the butterflies they stand for and
    do less.  Forward, a level without ``index`` finds only zero upper
    halves and would copy its lower ones: it does nothing, and the first
    level that gathers reads those copies from the source.  Inverse, a
    level whose differences no kept block reads (``sums``) computes only
    its sums u + v.
    """
    for (src, index, into, t_rows, t, u, y0, y1), sign in zip(bound, signs):
        src.take(index, axis=0, out=into, mode="clip")
        if sign is not None:
            t_rows *= sign
        if y1 is not None:
            np.subtract(u, t, out=y1)
        np.add(u, t, out=y0)


def _count_levels(levels: tuple, half: int) -> None:
    """Count one direction of a depth, ``half`` entries per butterfly half:
    every level as the butterflies it stands for."""
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.adds += len(levels) * half
        ctr.subs += len(levels) * half + half // levels[0].rows * sum(lv.subs for lv in levels)


def _reduce(Y, q: int, work):
    """Y mod q in place (``_mod``), its quotients in the leading entries of ``work``."""
    return _mod(Y, q, work[: Y.size].reshape(Y.shape))


def _block_product(x, y, ws: BlockWorkspace, route: BlockRoute):
    """The product of two length-2mn operands, given by their leading
    coefficients (at most the top's source; the rest zero), by the
    route's step, as a fresh int64 array: cyclic via
    (Z_q[x]/(x^2m + 1))[y]/(y^2n - 1) for Schoenhage (blocks of m coefficients become y-coefficients, x^(2m/n)
    is the synthetic 2n-th root, y = x^m substitutes back at the end),
    negacyclic via (Z_q[y]/(y^2n + 1))[x]/(x^m - y) for Nussbaumer (part
    j: the coefficients congruent to j mod m, y^2 the synthetic 2n-th
    root); each depth's block products are the next depth's negacyclic
    ones, the floor's the leaf kernel's.  Scaled last, in int64.

    The operands fill the leading rows of the workspace's ``operands``,
    the other rows stay zero.  Every step reads where the one before left
    its output (``block_schedule``), through the workspace's bound levels:
    the forwards from the operands down to the floor's operands, the
    inverses from the leaf products up, each Nussbaumer fold (x^m = y) in place.
    It reduces right before each step that ``route.reduce`` names.  The
    1/blocks scalings, left to the one final scale, are counted as the
    scalings they stand for."""
    depths, q, work, ctr = route.depths, route.q, ws.scratch, modarith.active_counter()
    live, rows, reduce, D = depths[0].source, [1], route.reduce, len(route.depths)
    ws.operands[: len(x), 0], ws.operands[: len(y), 1] = x, y
    source = ws.operands[:live]
    for d, depth in enumerate(depths):
        half = 2 * depth.step.n * depth.L * rows[-1]  # one operand's blocks
        if reduce[d]:
            _reduce(source, q, work)
        _run(ws.forward[d], [lv.sign for lv in depth.forward if lv.index is not None])
        _count_levels(depth.forward, half)
        source = ws.floor if depth is depths[-1] else ws.blocks[d][: 2 * half]
        rows.append(rows[-1] * 2 * depth.step.n)
    if reduce[D]:
        _reduce(source, q, work)
    U, V = ws.floor
    P = polymul.leaf_products(U, V, -1, q, ws.acc, work.reshape(ws.floor.shape), route.leaf_bound)
    polymul._count_leaves(depths[-1].L, False, P[0].size)
    # the leaves' products are canonical: the walk never reduces them
    for d in range(D - 1, -1, -1):
        depth, r, i = depths[d], rows[d], 3 * D - 2 * d  # step i: depth d's fold
        size = 2 * depth.step.n * depth.L * r
        if ctr is not None:
            ctr.mults += size
        _run(ws.inverse[d], [lv.sign for lv in depth.inverse])
        _count_levels(depth.inverse, size // 2)
        P = (ws.acc if depth is depths[-1] else ws.blocks[d]).reshape(-1)[:size].reshape(-1, r)
        if reduce[i]:
            _reduce(P, q, work)
        if isinstance(depth.step, Nussbaumer):
            m, L, c = depth.step.m, depth.L, len(depth.fold) // depth.L
            F = P.take(depth.fold, axis=0, out=work[: c * L * r].reshape(-1, r), mode="clip")
            F[::L] *= -1  # y^L = -1 (numpy 2.4's in-place np.negative miscomputes this int64 view)
            P[: c * L] += F
            if reduce[i + 1]:  # before the next depth's inverse, or the final scale
                _reduce(P[: m * L], q, work)
            if ctr is not None:
                ctr.adds += r * c * L
                ctr.subs += r * c
    P = P.reshape(-1)
    if isinstance(depths[0].step, Nussbaumer):  # part j's coefficient i is coefficient i*m + j
        m, L = depths[0].step.m, depths[0].L
        out = np.empty((L, m), dtype=np.int64)
        np.copyto(out, P[: m * L].reshape(m, L).T)
    else:  # y = x^m: upper halves move one block up
        lo, hi = depths[0].unblock
        out = np.add(P.take(lo, out=work[: lo.size], mode="clip"),
                     P.take(hi, out=work[lo.size : 2 * lo.size], mode="clip"), dtype=np.int64)
        if reduce[-1]:
            _mod(out, q)
    out *= route.scale
    return _mod(out, q).ravel()


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
        if isinstance(terminal, Good) and (terminal.h % 2 == 0 or pad.form != XN_MINUS_1):
            raise BadShape(f"Good needs h odd and an x^n - 1 pad, got h={terminal.h}, {pad.form}")
        object.__setattr__(self, "pad", pad)
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "terminal", terminal or PlainNtt())

    @property
    def congruence(self) -> int:
        """What every working modulus of the terminal must be 1 mod: the
        padded transform's root order for Good and plain transforms (2^k
        for Good), and 2 (odd, so 2n is invertible) for the block terminals."""
        s = self.terminal
        if isinstance(s, (Schonhage, Nussbaumer)):
            return 2
        return transforms.root_order(self.pad.form, self.pad.n_prime, getattr(s, "beta", 0))


class BlockExecutor(bigmod.LiftedExecutor):
    """A Schoenhage or Nussbaumer step over Z_N (N == q: no lift), a chain's
    terminal or a one-shot's product, run once per working modulus on the
    block core; its schedule, the same for every modulus, is built on first
    use, and its table mod p is that schedule compiled for p (``block_route``).

    The executor owns a pool of ``BlockWorkspace``s per dtype of its
    routes, empty when the plan is built.  Each product takes one of its route's dtype, or
    builds one when that pool is empty, and puts it back when it ends,
    raised or not, so no two threads ever share a workspace and a pool
    holds at most one per thread that multiplied at once.  A workspace
    serves every working modulus of its dtype; for
    ``ntruprime-761-schonhage`` (int32) it holds 1.4 MiB, and its route
    0.33 MiB of level signs and 0.19 MiB of gather indices.  ``source``,
    when given, is how many leading coefficients of either operand can be
    nonzero: a chain's source length, which sets the live top blocks
    (``block_schedule``), and the only prefix of each operand that a
    product reads (``reads``) and lifts.
    """

    def __init__(self, ring: RingSpec, step, N: int, basis=(), source: int | None = None):
        super().__init__(ring, N, basis)
        self.step, self.reads = step, source
        self.workspaces = {}

    @cached_property
    def schedule(self) -> tuple:
        return block_schedule(self.step, self.reads)

    def table(self, p: int) -> BlockRoute:
        q = _block_modulus(RingSpec(self.ring.form, self.ring.n, p), self.step)
        route = block_route(self.schedule, q)
        self.workspaces.setdefault(route.dtype, queue.SimpleQueue())
        return route

    def run(self, X, route):
        pool = self.workspaces[route.dtype]
        try:
            ws = pool.get_nowait()
        except queue.Empty:
            ws = BlockWorkspace(self.schedule, route.dtype)
        try:
            return _block_product(*X, ws, route)
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
    """Plan executor of an embedding chain, over q: run the terminal step
    in a wraparound-free ring (over the lift modulus, or the basis that
    replaces it, when there is one), then fold mod phi, mod q.  ``pad``,
    ``lift`` and ``step`` are the chain's parsed steps; ``step`` is its
    terminal, a plain transform when the chain names none.  Its table is
    the terminal step's executor over the pad's ring, built for the
    chain's source length: plain, Good or block, lifted or not, in place
    or padded, it takes the source arrays and returns the 2n - 1 (in
    place n) coefficients that the fold reads, with no padded copy.
    """

    def __init__(self, ring: RingSpec, chain: EmbedChain):
        super().__init__(ring, ring.q)
        self.chain, self.pad, self.lift, self.step = chain, chain.pad, chain.lift, chain.terminal
        self.in_place = chain.pad.n_prime == ring.n and chain.pad.form == ring.form

    def table(self, p: int) -> bigmod.LiftedExecutor:  # the terminal step's executor
        ring, pad, step = self.ring, self.pad, self.step
        if not self.in_place and pad.n_prime < 2 * ring.n - 1:
            raise PadTooSmall(f"n'={pad.n_prime} cannot hold a degree-{2 * ring.n - 2} product")
        work = RingSpec(pad.form, pad.n_prime, ring.q)
        N, basis = (self.lift.modulus, self.lift.basis) if self.lift else (ring.q, ())
        if isinstance(step, (Schonhage, Nussbaumer)):
            return BlockExecutor(work, step, N, basis, ring.n)
        return bigmod.BigPrimeExecutor(work, N, getattr(step, "beta", 0), basis, ring.n)

    def run(self, X, terminal):
        return polymul.fold_mod_phi(terminal.product(*X), self.ring)


def general_phi_multiply(a: Poly, b: Poly, chain: EmbedChain) -> Poly:
    """Run the chain in a wraparound-free big ring, then reduce mod phi, mod q."""
    return ChainExecutor(a.ring, chain).multiply(a, b)
