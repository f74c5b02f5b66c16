"""Radix-2 in-place NTT passes over Z_m coefficient buffers.

One parameterized kernel covers every transform variant: the butterfly
family (CT or GS) combined with the input ordering fixes the loop
structure, and the convolution kind (cyclic or negacyclic) fixes the
twiddle exponents.  The levels run over the m points of the twiddle
table, each a chunk of n / m = h 2^beta coefficients on n = h 2^k, h odd,
``beta`` levels cropped: x^(h 2^k) - 1 = prod_p (x^h - w^brv(p)) (Good).

Loop structure, with m chunks and chunk-level half-length L:

* natural input  -> levels shrink, L = m/2 .. 1
* bit-reversed input -> levels grow, L = 1 .. m/2
* CT with natural input / GS with bit-reversed input: one twiddle per
  block, exponent L*brv(i) (cyclic) or L*(2*brv(i)+1) (negacyclic),
  i indexed over the m/(2L) blocks of the level.
* the other two variants: one twiddle per offset j inside a block,
  exponent (m/2L)*j resp. (m/2L)*(2j+1), shared by all blocks.

Inverse transforms run the same structures with negated exponents and a
final scaling by m^-1, which the last stage carries.  The root has order
``root_order`` (from 2^k alone), the one rule behind every congruence.

``level_geometry`` is the only derivation of this structure: a
``Schedule`` holds it per (spec, table, n), and ``butterfly_schedule``
yields its butterflies for ``plan --trace`` and for ``reference_rows``,
the pure-Python reference kernel; the trinomial levels and the block
transforms of the embeddings walk it too.  A level is (nblocks, half,
x), x its twiddle exponents or, where it is not a CT/GS butterfly (the
trinomial split), its 2 x 2 matrices, counted as one butterfly per
pair plus the schedule's ``cost``; both run the same.  ``run_levels`` runs a
schedule's merged stages on the working buffer that ``buffer`` picks
from the modulus alone (``bounds.vectorized``): int64 below 2^31,
``object`` (Python ints) at or above.

Every stage takes one leading batch axis: a buffer is one row of n
residues or a (batch, n) array of rows, transformed alike by the same
code (a length-n buffer is a batch of one).  A merged stage is one
``np.matmul``, its read-only matrix stack broadcast over the batch, and
one reduction, whatever the batch size.  Op counts count every row.

The levels run as merged stages (Seiler, eprint 2018/039): each group of
at most k consecutive levels is one batched ``np.matmul`` with a
read-only stack of 2^k x 2^k matrices, then one reduction.
``Schedule.stage_class`` fixes the stages' class and k once per
schedule (``bounds.stage_class``, which also derives every bound):

* int64: the matmul on int64 buffers, then ``% q``;
* float64: one BLAS matmul of centered float64 matrices, then
  y -= rint(y (1/q)) q (after van der Hoeven, Lecerf and Quintin,
  "Modular SIMD arithmetic in Mathemagix", ACM TOMS 2016), with the
  matrices split in 16-bit limbs ("float64-limb") where one would not
  be exact.  The buffer turns float64 once before the first stage and
  back to canonical int64 once after the last.  A single-matrix stage
  skips its reduction where ``bounds.walk`` finds the next stage's sums
  exact anyway;
* object: the int64 class's matmul and ``% q`` on Python ints, which
  cannot overflow.

A schedule builds its stage matrices on its first transform, from each
level's 2 x 2 matrices, which wider groups multiply entrywise
(``Schedule._matrices``); an inverse schedule's last group also carries
the factor 2^-levels, so no pass scales the buffer after the stages.
``make_schedule`` keeps one schedule per (spec, n) on its twiddle table,
so a one-call transform on a reused table builds its stages once; a
trinomial plan keeps its two schedules there too.  The
merged stages and the reference kernel give identical values and op
counts, which count one butterfly per pair of every level.

A padded product, whose operands are zero from ``live`` on and whose
product is read below ``keep`` only, runs its schedules truncated
(``truncate``, kept on the table as well): the levels that only feed
other blocks than block 0 go, when block 0 holds the whole product,
and the first forward stage reads only its live columns, the last
inverse stage writes only its kept rows.  A truncated schedule counts
the ops of the full one, so counts do not depend on truncation.

``transform_rows`` is the array core of a transform, either way:
counted, in place on a bare buffer, and unchecked.
``ntt_forward`` and ``ntt_inverse`` are its one entry and only
callers: given a bare buffer (an ndarray, with no ring) they run the
table's schedule on it and return it, as every planned route, the
trinomial one included, and the separate pre/post-processing variants
call them, so that a transform is one call whichever route runs it.
Given a Poly, or outside values with their ring, they are the public
layer: they check the table, spec and ring, check outside values once
as ``Poly`` checks its coefficients, and tag the
result as an ``NttDomainPoly`` (an inverse may return a Poly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

import numpy as np

from . import bounds, modarith
from .errors import LengthMismatch, OrderMismatch, ParameterCondition, RingMismatch, SpecMismatch, SpecViolation
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, canonical

CC = "CC"
NWC = "NWC"
CT = "CT"
GS = "GS"
FORWARD = "forward"
INVERSE = "inverse"
NATURAL = modarith.NATURAL
BIT_REVERSED = modarith.BIT_REVERSED


def root_order(form: str, n: int, beta: int = 0) -> int:
    """The root order a length-n transform over ring form ``form``, beta
    levels cropped, needs: 2^(k+1) / 2^beta for x^n + 1, else 2^k / 2^beta,
    2^k the power-of-two part of n (all of n on a power of two)."""
    if beta < 0:
        raise ParameterCondition(f"cannot crop a negative number of levels ({beta})")
    two = n & -n
    return (2 * two if form == XN_PLUS_1 else two) >> beta


@dataclass(frozen=True)
class TransformSpec:
    """One fully-determined transform variant."""

    conv_kind: str
    butterfly: str
    direction: str
    in_order: str
    out_order: str
    beta: int = 0

    def __post_init__(self):
        if self.conv_kind not in (CC, NWC):
            raise SpecViolation(f"unknown convolution kind {self.conv_kind!r}")
        if self.butterfly not in (CT, GS):
            raise SpecViolation(f"unknown butterfly {self.butterfly!r}")
        if self.direction not in (FORWARD, INVERSE):
            raise SpecViolation(f"unknown direction {self.direction!r}")
        for o in (self.in_order, self.out_order):
            if o not in (NATURAL, BIT_REVERSED):
                raise SpecViolation(f"unknown ordering {o!r}")
        if self.in_order == self.out_order:
            raise SpecViolation("every radix-2 variant flips the ordering")
        if self.beta < 0:
            raise SpecViolation("beta must be non-negative")
        # merged pre/post-processing only composes one way around
        if self.conv_kind == NWC and self.direction == FORWARD and self.butterfly != CT:
            raise SpecViolation("negacyclic forward transforms require CT butterflies")
        if self.conv_kind == NWC and self.direction == INVERSE and self.butterfly != GS:
            raise SpecViolation("negacyclic inverse transforms require GS butterflies")
        # hashed once: every bare-buffer transform looks its schedule up by (spec, n)
        object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))

    def __hash__(self) -> int:
        return self._hash

    def table_order(self, n: int) -> int:
        """Required twiddle-table order for a length-n buffer."""
        return root_order(XN_PLUS_1 if self.conv_kind == NWC else XN_MINUS_1, n, self.beta)

    def inverse_of(self) -> "TransformSpec":
        """The inverse spec that undoes this forward spec without reordering."""
        if self.direction != FORWARD:
            raise SpecViolation("inverse_of is defined on forward specs")
        butterfly = GS if self.conv_kind == NWC else self.butterfly
        return TransformSpec(
            self.conv_kind, butterfly, INVERSE, self.out_order, self.in_order, self.beta
        )


@dataclass(frozen=True)
class NttDomainPoly:
    """Transform-domain values tagged with the spec that produced them.

    ``values`` is a length-n row of canonical residues, or a batch of
    them along leading axes, checked on construction (``checked_rows``)
    and held as a fresh read-only working buffer (``frozen_rows``); chunk
    p of length leaf_degree holds the image in the p-th residue ring of
    the cropped CRT map.  Frozen: no assignment or in-place write after
    construction skips the check.  Planned products pass bare buffers.
    """

    values: np.ndarray
    spec: TransformSpec
    ring: object
    leaf_degree: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_rows(self.values, self.ring.n, self.ring.q))

    def __eq__(self, other) -> bool:  # the generated one would compare arrays elementwise
        return (isinstance(other, NttDomainPoly) and self.compatible(other)
                and self.leaf_degree == other.leaf_degree
                and np.array_equal(self.values, other.values))

    def compatible(self, other: "NttDomainPoly") -> bool:
        return self.spec == other.spec and self.ring == other.ring

    def rows(self, index) -> "NttDomainPoly":
        """The batch rows ``values[index]`` under the same tags."""
        return NttDomainPoly(self.values[index], self.spec, self.ring, self.leaf_degree)

    def _apply(self, ufunc, other, tally: str) -> "NttDomainPoly":
        if isinstance(other, NttDomainPoly):
            if not self.compatible(other):
                raise SpecMismatch("cannot combine values from different specs")
            other = other.values
        return NttDomainPoly(mod_op(ufunc, self.values, other, self.ring.q, tally), self.spec,
                             self.ring, self.leaf_degree)

    def add(self, other: "NttDomainPoly") -> "NttDomainPoly":
        return self._apply(np.add, other, "adds")

    def sub(self, other: "NttDomainPoly") -> "NttDomainPoly":
        return self._apply(np.subtract, other, "subs")

    def scale(self, s: int) -> "NttDomainPoly":
        return self._apply(np.multiply, s % self.ring.q, "mults")


# ---------------------------------------------------------------------------
# butterflies (the reference kernel ``reference_rows`` replays them)


def butterfly_ct(u: int, v: int, w: int, m: int) -> tuple:
    """(u + w*v, u - w*v) mod m, with w*v computed once."""
    t = modarith.mod_mul(w, v, m)
    return modarith.mod_add(u, t, m), modarith.mod_sub(u, t, m)


def butterfly_gs(u: int, v: int, w: int, m: int) -> tuple:
    """(u + v, (u - v)*w) mod m."""
    return modarith.mod_add(u, v, m), modarith.mod_mul(modarith.mod_sub(u, v, m), w, m)


def butterfly_matrix(u: int, v: int, mat, m: int) -> tuple:
    """(a*u + b*v, c*u + d*v) mod m for mat = [[a, b], [c, d]], counted as
    one butterfly: the mult b*v, one add and one sub."""
    (a, b), (c, d) = mat
    return modarith.mod_add(a * u, modarith.mod_mul(b, v, m), m), modarith.mod_sub(c * u, -d * v, m)


# ---------------------------------------------------------------------------
# schedule: the one derivation of the level structure


# the reorder-free cyclic pair with one twiddle per block in both
# directions: the trinomial levels and the embeddings' block transforms
CYCLIC_BLOCK_PAIR = (TransformSpec(CC, CT, FORWARD, NATURAL, BIT_REVERSED),
                     TransformSpec(CC, GS, INVERSE, BIT_REVERSED, NATURAL))


def _block_twiddled(spec: TransformSpec) -> bool:
    """One twiddle per block (else one per offset j, shared by all blocks)."""
    return (spec.butterfly == CT) == (spec.in_order == NATURAL)


@cache
def _bitrev(m: int) -> tuple:
    """``modarith.bitrev_permutation(m)``, computed once per length."""
    return tuple(modarith.bitrev_permutation(m))


def level_geometry(spec: TransformSpec, m: int):
    """Yield (nblocks, half, exponents) per level over m chunks, in execution order.

    Levels shrink (half = m/2 .. 1) on natural input and grow on
    bit-reversed input.  Exponents index the table root (negated by
    inverse tables).  Block twiddle i is the ``bitrev_permutation`` entry
    at its bit-reversed table index, 2*nblocks + 2i (negacyclic) or 2i;
    offset twiddle j is its natural index itself, (2j+1)*nblocks or
    j*nblocks.
    """
    nega = spec.conv_kind == NWC
    block_tw = _block_twiddled(spec)
    rev = _bitrev(2 * m if nega else m) if block_tw else None
    halves = [1 << k for k in range(m.bit_length() - 1)]
    if spec.in_order == NATURAL:
        halves.reverse()
    for half in halves:
        nblocks = m // (2 * half)
        if block_tw:
            start = 2 * nblocks if nega else 0
            yield nblocks, half, rev[start : start + 2 * nblocks : 2]
        else:
            start, step = (nblocks, 2 * nblocks) if nega else (0, nblocks)
            yield nblocks, half, tuple(range(start, start + step * half, step))


def butterfly_schedule(sched: Schedule):
    """Yield (level, lo, hi, x) for each chunk butterfly of a schedule's
    levels, in order, with lo and hi counted in chunks.

    x is an exponent, which indexes the table root directly (negated by
    inverse tables), or, on a matrix level, the 2 x 2 matrix; replaying
    the schedule with butterfly_ct/butterfly_gs and butterfly_matrix is
    the reference kernel (``reference_rows``).
    """
    block_tw = _block_twiddled(sched.spec)
    for lvl, (nblocks, half, x) in enumerate(sched.levels):
        for i in range(nblocks):
            base = i * 2 * half
            for j in range(half):
                yield lvl, base + j, base + j + half, x[i if block_tw else j]


@dataclass(frozen=True, eq=False)
class Schedule:
    """The butterfly levels of one (spec, table, n), built once, never mutated.

    ``levels[l] = (nblocks, half, x)`` in execution order, with ``half``
    counted in chunks of ``chunk`` coefficients and x one exponent per
    block or per offset, or one canonical 2 x 2 matrix each in a read-only
    stack (see the module docstring).  The merged
    stages of ``stage_class`` (see ``Stage`` and ``FloatStage``) are
    built from it on first use; the reference kernel replays its
    butterflies (``butterfly_schedule``).  ``cost`` is the (mults, adds,
    subs) per pair that its matrix levels cost beyond one butterfly,
    counted by ``transform_rows``: data, since the trinomial
    split's one multiply relies on z1 + z2 = 1, which no matrix shows.

    A truncated schedule (``truncate``) runs the length-n prefix of
    ``full``'s buffer, in which only the ``live`` leading inputs can be
    nonzero and only the ``keep`` leading outputs are read; its op counts
    are ``full``'s.  ``live``, ``keep`` and ``full`` are None on a
    schedule that runs every entry.
    """

    spec: TransformSpec
    table: modarith.TwiddleTable
    n: int
    chunk: int
    levels: tuple
    cost: tuple = (0, 0, 0)
    live: int | None = None
    keep: int | None = None
    full: Schedule | None = None

    @cached_property
    def factor(self) -> int:
        """The scale that ends the schedule's map: 2^-k mod q over its k
        CT/GS levels, i.e. m^-1, on an inverse schedule, else 1."""
        if self.spec.direction == FORWARD:
            return 1
        k = sum(not isinstance(x, np.ndarray) for _, _, x in self.levels)  # a matrix is its map
        return modarith.mod_inv(1 << k, self.table.modulus)

    @cached_property
    def stages(self) -> tuple:
        return self._stages()

    @cached_property
    def stage_class(self) -> tuple:
        """(class, width) of the merged stages, e.g. ("int64", 4),
        ("float64", 5), ("float64-limb", 5) or ("object", 2):
        ``bounds.stage_class`` of the table modulus, the level count and
        the point count, decided once."""
        return bounds.stage_class(self.table.modulus, len(self.levels), self.n)

    def _stages(self) -> tuple:
        """The levels as merged stages of ``stage_class``, the last one
        times ``factor``; () when there are none.  The int64, limb and
        object classes build canonical matrices (of Python ints for
        object), and the limb class then splits them; the single-matrix
        float64 class builds centered float64 ones, exact as every
        product stays below 2^53, and reduces only where ``bounds.walk``
        places a reduction."""
        q = self.table.modulus
        cls, k = self.stage_class
        if not self.levels:
            return ()
        block_tw = _block_twiddled(self.spec)
        floats = cls in (bounds.FLOAT64, bounds.FLOAT64_LIMB)
        groups = self._float_groups(k) if floats else list(_groups(len(self.levels), k))
        reduces = [True] * len(groups)
        if cls == bounds.FLOAT64:  # the last stage always reduces
            h = q // 2
            steps = [bounds.grow(h << (hi - lo), np.float64, q) for lo, hi in groups]
            reduces[:-1] = bounds.walk(steps, q - 1, h + 2)[0][1:]
        dtype = {bounds.FLOAT64: np.float64, bounds.OBJECT: object}.get(cls, np.int64)
        out = []
        with modarith.uncounted():
            for (lo, hi), reduce in zip(groups, reduces):
                shape = (*self._geometry(lo, hi), block_tw)
                mats = self._matrices(lo, hi, dtype)
                if hi == len(self.levels) and self.factor != 1:
                    mats = _reduce(mats * self.factor, q)
                mats = self._narrowed(mats, lo, hi, shape[1])
                if cls == bounds.FLOAT64:
                    out.append(FloatStage(*shape, read_only(mats), None, reduce))
                elif cls == bounds.FLOAT64_LIMB:
                    out.append(FloatStage(*shape, *_limbs(mats, q)))
                else:
                    out.append(Stage(*shape, read_only(mats)))
        return tuple(out)

    def _geometry(self, lo: int, hi: int) -> tuple:
        """(blocks, span) of the stage of levels lo..hi-1 (see ``Stage``)."""
        group = self.levels[lo:hi]
        return (min(nblocks for nblocks, _, _ in group),
                min(half for _, half, _ in group) * self.chunk)

    def _narrowed(self, mats: np.ndarray, lo: int, hi: int, span: int) -> np.ndarray:
        """The matrices of the stage of levels lo..hi-1, whose 2^k rows of
        the buffer start ``span`` apart, on a truncated schedule without
        what it never needs: the first forward stage's columns that meet
        only zero inputs, all but ceil(live/span), and the last inverse
        stage's rows that no caller reads, all but ceil(keep/span).  Both
        stages have one block (natural input, resp. output), so the live
        columns and the kept rows are prefixes."""
        if self.spec.direction == FORWARD and lo == 0 and self.live is not None:
            return np.ascontiguousarray(mats[..., : -(-self.live // span)])
        if self.spec.direction == INVERSE and hi == len(self.levels) and self.keep is not None:
            return np.ascontiguousarray(mats[..., : -(-self.keep // span), :])
        return mats

    def _float_groups(self, k: int) -> list:
        """``_groups`` of width k with their sizes ascending or descending,
        whichever holds fewer matrix entries: a stage of w levels holds
        one 2^w x 2^w matrix per block, or per offset."""
        sizes = sorted(hi - lo for lo, hi in _groups(len(self.levels), k))
        by_block = _block_twiddled(self.spec)

        def groups(sizes):
            edges = list(accumulate(sizes, initial=0))
            return list(zip(edges, edges[1:]))

        def entries(groups):
            return sum(self._geometry(lo, hi)[0 if by_block else 1] << 2 * (hi - lo)
                       for lo, hi in groups)

        return min(groups(sizes), groups(sizes[::-1]), key=entries)

    def _matrices(self, lo: int, hi: int, dtype) -> np.ndarray:
        """The matrix stack of levels lo..hi-1 as one stage, one matrix per
        block or per offset (see ``Stage``), in ``dtype``.

        One level is its 2 x 2 matrices, canonical (int64, object) or
        centered (float64).  Wider groups multiply the stacks of their two
        halves A (first) and B entrywise: A's levels move the high position
        bits ph (levels shrink) or the low ones pl (levels grow) and B's the
        others, so each entry M[(ph, pl), (ch, cl)] is one product,
        A[ph, ch] B[pl, cl] taken at the block or offset the bits left over
        select, reduced canonical (int64, object) or centered (float64,
        exact while q^2 < 2^53: products below 2^51 reduce to at most q//2).
        """
        q = self.table.modulus
        block_tw = _block_twiddled(self.spec)
        if hi - lo > 1:
            mid = (lo + hi) // 2
            A, B = self._matrices(lo, mid, dtype), self._matrices(mid, hi, dtype)
            a, b = 1 << (mid - lo), 1 << (hi - mid)
            if self.spec.in_order == NATURAL and block_tw:  # [i, ph, pl, ch, cl]
                M = A[:, :, None, :, None] * B.reshape(-1, a, b, 1, b)
            elif self.spec.in_order == NATURAL:  # A[(cl, s), ph, ch] B[s, pl, cl]
                M = A.reshape(b, -1, a, a).transpose(1, 2, 3, 0)[:, :, None] * B[:, None, :, None]
            elif block_tw:  # B[i, ph, ch] A[(i, ch), pl, cl]
                M = B[:, :, None, :, None] * A.reshape(-1, b, a, a).transpose(0, 2, 1, 3)[:, None]
            else:  # B[(pl, s), ph, ch] A[s, pl, cl]
                M = B.reshape(a, -1, b, b).transpose(1, 2, 0, 3)[..., None] * A[:, None, :, None]
            return _reduce(M, q).reshape(-1, a * b, a * b)
        # one level: its matrix per block or offset, given, or (u, v) ->
        # (u + w v, u - w v) for CT and (u + v, (u - v) w) for GS
        x = self.levels[lo][2]
        if isinstance(x, np.ndarray):
            m = x.astype(dtype)
        else:
            nat = self.table.ordered(NATURAL)
            w = np.array([nat[e] for e in x], dtype=dtype)
            m = np.ones((len(w), 2, 2), dtype=dtype)
            if self.spec.butterfly == CT:
                m[:, 0, 1] = w
            else:
                m[:, 1, 0] = w
            m[:, 1, 1] = q - w
        m = _reduce(m, q)  # centered in float64
        # block twiddles: one matrix per block; else the same in every
        # block, one per offset
        return m if block_tw else np.repeat(m, self.chunk, axis=0)


def make_schedule(spec: TransformSpec, tw, n: int, live: int | None = None,
                  keep: int | None = None) -> Schedule:
    """The schedule of ``spec`` on a length-n buffer over table ``tw``:
    one per (spec, n), kept on the table (``TwiddleTable.schedules``), so
    every caller on that table shares its stages.  Where ``live`` or
    ``keep`` is below n (a padded product, whose inputs are zero from
    ``live`` on and whose outputs are read below ``keep`` only), it is
    that schedule truncated (``truncate``), kept on the table as well."""
    sched = tw.schedules.get((spec, n))
    if sched is None:
        points = tw.order >> (spec.conv_kind == NWC)  # one per chunk
        sched = tw.schedules.setdefault((spec, n), Schedule(
            spec, tw, n, n // points, tuple(level_geometry(spec, points))))
    if (live is None or live >= n) and (keep is None or keep >= n):
        return sched
    live = n if live is None else min(n, live)
    keep = n if keep is None else min(n, keep)
    cut = tw.schedules.get((spec, n, live, keep))
    if cut is None:
        cut = tw.schedules.setdefault((spec, n, live, keep), truncate(sched, live, keep))
    return cut


def truncate(sched: Schedule, live: int, keep: int) -> Schedule:
    """``sched`` truncated: a schedule on whose input only the ``live``
    leading entries can be nonzero and of whose output only the ``keep``
    leading entries are read, run on the shortest prefix of its buffer
    that holds both (van der Hoeven, "The truncated Fourier transform
    and applications", ISSAC 2004; Harvey and Roche, ISSAC 2010).  Its op
    counts stay those of ``sched``.

    Level pruning: after j levels of natural input, block 0 holds the
    input mod x^K - gamma_0, K = n/2^j, which is the input itself while
    it has degree below K; so is a product of degree below K.  With
    j the most levels (at most all) that keep live and keep within K, the
    forward transform skips its first j levels, the identity on block 0,
    and runs the others on block 0 alone, on the same table; the inverse
    runs block 0's own levels, its first ones, and the ``factor``
    2^-(levels - j) of those; its other outputs are zero.  Stage
    narrowing (``Schedule._narrowed``) then drops the first forward
    stage's zero columns and the last inverse stage's unread rows.
    Truncation needs the natural-order end: the input of a forward
    schedule, the output of an inverse one."""
    spec, levels = sched.spec, sched.levels
    forward = spec.direction == FORWARD
    if (spec.in_order if forward else spec.out_order) != NATURAL:
        raise SpecViolation("a transform truncates at its natural-order end: forward input, "
                            "inverse output")
    j = 0
    while j < len(levels) and max(live, keep) <= sched.n >> (j + 1):
        j += 1
    by_block = _block_twiddled(spec)
    run = levels[j:] if forward else levels[: len(levels) - j]
    levels = tuple((nb >> j, half, x[: nb >> j] if by_block else x) for nb, half, x in run)
    return Schedule(spec, sched.table, sched.n >> j, sched.chunk, levels, sched.cost, live, keep, sched)


# ---------------------------------------------------------------------------
# merged stages: k levels as one batched matmul, int64, float64 or object

LIMB = 1 << 16  # the float64-limb split (``bounds`` derives its bound)


def _groups(count: int, k: int):
    """(lo, hi) of ceil(count/k) runs of consecutive levels, as even as possible."""
    g = -(-count // k)
    edges = [count * i // g for i in range(g + 1)]
    return zip(edges, edges[1:])


@dataclass(frozen=True)
class Stage:
    """Consecutive levels as one map on each row seen as (blocks, 2^k, span).

    ``matrices`` is a read-only (blocks, 2^k, 2^k) int64 (or, in the
    object class, Python-int) stack indexed by block when the levels take
    one twiddle per block, else a
    (span, 2^k, 2^k) stack indexed by offset, applied to the
    (span, 2^k, blocks) transpose; either broadcasts over the rows.  A
    narrowed stage of a truncated schedule (``Schedule._narrowed``) holds
    only the leading columns or rows of its matrices: it reads only the
    leading ones of the 2^k entries of each group, or writes only them.
    """

    blocks: int
    span: int
    by_block: bool
    matrices: np.ndarray

    @cached_property
    def narrowed(self) -> bool:
        """Whether the matrices are narrowed, i.e. not square."""
        rows, cols = self.matrices.shape[-2:]
        return rows != cols

    def cut(self, x) -> tuple:
        """(what a narrowed stage reads, where it writes) of the buffer
        seen as (blocks, 2^k, span), or as its (span, 2^k, blocks)
        transpose: its columns, resp. rows, along the 2^k axis."""
        rows, cols = self.matrices.shape[-2:]
        return x[..., :cols, :], x[..., :rows, :]

    def apply(self, buf, q: int) -> None:
        """The stage on contiguous ``buf`` of canonical residues, of the
        matrices' dtype, one row or a batch of rows, in place: one matmul,
        the matrix stack broadcast over the batch, and one reduction."""
        x = out = buf.reshape(*buf.shape[:-1], self.blocks, -1, self.span)
        if not self.by_block:
            x = out = x.swapaxes(-1, -3)
        if self.narrowed:
            x, out = self.cut(x)
        np.remainder(np.matmul(self.matrices, x), q, out=out)


@dataclass(frozen=True)
class FloatStage(Stage):
    """A ``Stage`` on float64 buffers.

    ``matrices`` holds the centered stage matrices as float64, or, in
    the limb class, their low 16-bit limbs, with ``high`` the high ones:
    M = high 2^16 + low, each limb stack read-only.  ``reduce`` off
    leaves the sums unreduced (single matrix only, see ``bounds.walk``).
    """

    high: np.ndarray | None = None
    reduce: bool = True

    def apply(self, buf, q: int) -> None:
        """The stage on contiguous float64 ``buf`` in place, one row or a
        batch of rows: one BLAS matmul (two for limbs, combined as
        (high x mod q) 2^16 + low x), then ``reduce_centered``, which
        leaves entries at most q//2 + 2 in magnitude."""
        x = out = buf.reshape(*buf.shape[:-1], self.blocks, -1, self.span)
        if not self.by_block:
            x = out = x.swapaxes(-1, -3)
        if self.narrowed:
            x, out = self.cut(x)
        y = np.matmul(self.matrices, x)
        if self.high is not None:
            t = reduce_centered(np.matmul(self.high, x), q)
            t *= LIMB
            y += t
        out[...] = reduce_centered(y, q) if self.reduce else y


def reduce_centered(y, q: int) -> np.ndarray:
    """y - rint(y/q) q in place on float64 ``y`` of integers below 2^53 in
    magnitude: at most q//2 + 2 in magnitude after (derived in
    ``bounds``); returns ``y``."""
    t = y * (1.0 / q)
    np.rint(t, out=t)
    t *= q
    y -= t
    return y


def _reduce(m, q: int) -> np.ndarray:
    """``m`` reduced in place: canonical (int64, object) or centered (float64)."""
    if m.dtype == np.float64:
        return reduce_centered(m, q)
    m %= q
    return m


def _limbs(mats, q: int) -> tuple:
    """(low, high) read-only float64 16-bit limbs of canonical int64
    ``mats`` centered: mats = high 2^16 + low, |low| <= 2^15."""
    c = (q // 2 - mats) >> 63  # -1 where mats > q//2
    c &= q
    np.subtract(mats, c, out=c)
    low = ((c + (LIMB >> 1)) & (LIMB - 1)) - (LIMB >> 1)
    c -= low
    c >>= 16
    return read_only(low.astype(np.float64)), read_only(c.astype(np.float64))


# ---------------------------------------------------------------------------
# the reference kernel and the driver


def mod_op(ufunc, u, v, q: int, tally: str) -> np.ndarray:
    """ufunc(u, v) mod q, a fresh buffer, counted as one ``tally`` op per entry of u."""
    c = modarith.active_counter()
    if c is not None:
        setattr(c, tally, getattr(c, tally) + u.size)
    return ufunc(u, v) % q


def buffer_dtype(q: int):
    """The working dtype mod q: int64 where ``bounds.vectorized``, else
    ``object`` (Python ints)."""
    return np.int64 if bounds.vectorized(q) else object


def buffer(values, q: int) -> np.ndarray:
    """A fresh working buffer holding ``values``, of the dtype mod q."""
    return np.array(values, dtype=buffer_dtype(q))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a cached table shared by every caller."""
    a.flags.writeable = False
    return a


def reference_rows(rows, sched: Schedule) -> None:
    """The pure-Python reference kernel, on each list in ``rows`` in place:
    ``butterfly_ct``, ``butterfly_gs`` or ``butterfly_matrix`` on every
    coefficient pair of each chunk butterfly that ``butterfly_schedule``
    yields, which count their own ops, then ``Schedule.factor``,
    uncounted, as ``run_levels`` leaves that count to ``transform_rows``."""
    q, c, s = sched.table.modulus, sched.chunk, sched.factor
    bf_tw = butterfly_ct if sched.spec.butterfly == CT else butterfly_gs
    nat = sched.table.ordered(NATURAL)
    for _, lo, hi, x in butterfly_schedule(sched):
        bf, w = (butterfly_matrix, x.tolist()) if isinstance(x, np.ndarray) else (bf_tw, nat[x])
        d = (hi - lo) * c
        for j in range(lo * c, lo * c + c):
            for row in rows:
                row[j], row[j + d] = bf(row[j], row[j + d], w, q)
    if s != 1:
        for row in rows:
            for i, x in enumerate(row):
                row[i] = x * s % q


def run_levels(buf, sched: Schedule) -> None:
    """Apply ``sched`` to working buffer ``buf`` in place: its levels and,
    on an inverse schedule, the factor 2^-levels (``Schedule.factor``),
    as the merged stages of its ``stage_class``, to one length-n row or
    every row of a (batch, n) array at once.  The float64 classes run on
    one float64 copy of it and write it back canonical after the last
    stage.  Op counts count one butterfly per pair of every level of every
    row, as ``reference_rows`` does, of the full schedule where ``sched``
    is truncated.
    """
    q = sched.table.modulus
    if sched.stage_class[0] in (bounds.FLOAT64, bounds.FLOAT64_LIMB):
        f = buf.astype(np.float64)
        for stage in sched.stages:
            stage.apply(f, q)
        buf[...] = f  # centered: add q to the negative entries
        buf += (buf >> 63) & q
    else:
        for stage in sched.stages:
            stage.apply(buf, q)
    ctr = modarith.active_counter()
    if ctr is not None:  # n/2 butterflies per level on every row
        full = sched.full or sched
        nbf = len(full.levels) * (buf.size // sched.n) * full.n // 2
        ctr.mults += nbf
        ctr.adds += nbf
        ctr.subs += nbf


def transform_rows(buf, sched: Schedule) -> np.ndarray:
    """The array core of ``ntt_forward`` and ``ntt_inverse``: the levels of
    ``sched`` on the rows of contiguous working buffer ``buf``, in place
    and unchecked; returns ``buf``.  Counted as one forward or inverse
    transform per row (``sched.spec.direction``), the schedule's ``cost``
    per pair and, where its ``factor`` is not 1 (an inverse defers its
    per-level factor 2 into one scaling by 2^-levels, which its last stage
    carries), one mult per entry: of the full schedule where ``sched`` is
    truncated."""
    ctr = modarith.active_counter()
    if ctr is not None:
        full, rows = sched.full or sched, buf.size // sched.n
        size, tally = rows * full.n, f"{sched.spec.direction}_transforms"
        setattr(ctr, tally, getattr(ctr, tally) + rows)
        mults, adds, subs = (c * (size // 2) for c in full.cost)
        ctr.mults += mults + size * (full.factor != 1)
        ctr.adds += adds
        ctr.subs += subs
    run_levels(buf, sched)
    return buf


def _check_table(tw, spec, n, q, expect_inverse):
    if spec.beta and spec.beta >= (n & -n).bit_length() - 1:
        raise SpecViolation(f"beta={spec.beta} too large for n={n}")
    if tw.modulus != q:
        raise RingMismatch(f"table modulus {tw.modulus} != ring modulus {q}")
    want = spec.table_order(n)
    if tw.order != want:
        raise OrderMismatch(f"table order {tw.order} != required {want}")
    if tw.inverse != expect_inverse:
        raise OrderMismatch("table direction does not match the transform")


def _bare_schedule(buf, tw, spec, sched) -> Schedule:
    """The schedule to run on bare working buffer ``buf``, whose dtype
    must be the table modulus's (``buffer_dtype``): ``sched``, which must
    be one of the table's (``make_schedule``, for ``spec``) for the
    buffer's length, or when None the table's schedule for ``spec``."""
    want = buffer_dtype(tw.modulus)
    if buf.dtype != want:
        raise SpecViolation(f"a working buffer mod {tw.modulus} must be {np.dtype(want)}, "
                            f"not {buf.dtype}")
    if sched is None:
        return make_schedule(spec, tw, buf.shape[-1])
    if sched.table is not tw or sched.n != buf.shape[-1]:
        raise SpecViolation(f"the schedule runs length-{sched.n} buffers of its own table, "
                            f"not this length-{buf.shape[-1]} one")
    return sched


def forward_schedule(tw, spec: TransformSpec, ring) -> Schedule:
    """Every check of ``ntt_forward`` on its table, spec and ring
    (duck-typed); returns the table's schedule (``make_schedule``)."""
    if spec.direction != FORWARD:
        raise SpecViolation("ntt_forward requires a forward spec")
    _check_table(tw, spec, ring.n, ring.q, expect_inverse=False)
    form = getattr(ring, "form", None)
    if form is not None and form != (XN_PLUS_1 if spec.conv_kind == NWC else XN_MINUS_1):
        raise SpecViolation(f"{spec.conv_kind} transform over ring form {form!r}")
    return make_schedule(spec, tw, ring.n)


def inverse_schedule(tw_inv, spec: TransformSpec, fs: TransformSpec, ring) -> Schedule:
    """``forward_schedule`` for ``ntt_inverse``: ``spec`` must undo forward spec ``fs``."""
    if spec.direction != INVERSE:
        raise SpecViolation("ntt_inverse requires an inverse spec")
    if fs.conv_kind != spec.conv_kind or fs.beta != spec.beta:
        raise SpecViolation("inverse spec does not pair with the forward spec")
    if spec.in_order != fs.out_order:
        raise SpecViolation("inverse input ordering must match forward output")
    _check_table(tw_inv, spec, ring.n, ring.q, expect_inverse=True)
    return make_schedule(spec, tw_inv, ring.n)


def checked_rows(values, n: int, q: int) -> np.ndarray:
    """Outside ``values`` as an integer array of rows of n canonical
    residues mod q, checked with the ``ValueError``s of ``Poly``."""
    a = canonical(values, q)
    if a.ndim == 0 or a.shape[-1] != n:
        raise LengthMismatch(f"expected rows of {n} coefficients, got shape {a.shape}")
    return a


def frozen_rows(values, n: int, q: int) -> np.ndarray:
    """``checked_rows`` as a fresh read-only buffer mod q."""
    return read_only(buffer(checked_rows(values, n, q), q))


def ntt_forward(a, tw, spec: TransformSpec, ring=None, sched: Schedule | None = None) -> NttDomainPoly:
    """Forward transform of a Poly, or, with ``ring``, of a length-n
    array or list of canonical residues over that ring (checked as
    ``Poly`` checks them), or of a (batch, n) array of them; returns
    tagged transform-domain values.

    The coefficients are copied once into a working buffer (``buffer``)
    and the levels of the table's schedule (``make_schedule``) then run
    in place on it, on every row at once (``transform_rows``); the result
    holds that buffer.

    A bare working buffer (an ndarray, no ``ring``) is the planned
    routes' core: transformed in place by the table's schedule and
    returned, with only its dtype checked (``SpecViolation`` otherwise);
    the route's ``TransformPair`` checked the table, spec and ring when
    it was built.  ``sched``, for a bare buffer only, names which of the
    table's schedules runs: a truncated one (``make_schedule``) on the
    prefix of a padded product.
    """
    if ring is None and isinstance(a, np.ndarray):
        return transform_rows(a, _bare_schedule(a, tw, spec, sched))
    if ring is None:
        ring, a = a.ring, a.array
    else:
        a = checked_rows(a, ring.n, ring.q)
    sched = forward_schedule(tw, spec, ring)
    buf = transform_rows(buffer(a, ring.q), sched)
    return NttDomainPoly(buf, spec, ring, sched.chunk)


def ntt_inverse(ahat: NttDomainPoly, tw_inv, spec: TransformSpec, as_buffer=False,
                sched: Schedule | None = None):
    """Inverse transform back to a Poly, or with ``as_buffer`` to its
    buffer of canonical residues; exact inverse of ntt_forward, run by
    ``transform_rows`` on a copy of ``ahat.values``, which is never
    mutated.  A batch of rows runs at once and needs ``as_buffer``; a
    Poly result is range-checked once, on its buffer.

    A bare working buffer ``ahat`` is inverted in place and returned, as
    in ``ntt_forward``, by ``sched`` when given.
    """
    if isinstance(ahat, np.ndarray):
        return transform_rows(ahat, _bare_schedule(ahat, tw_inv, spec, sched))
    if not as_buffer and ahat.values.ndim != 1:
        raise LengthMismatch(f"a batch of shape {ahat.values.shape} inverts only with as_buffer")
    ring = ahat.ring
    buf = transform_rows(buffer(ahat.values, ring.q), inverse_schedule(tw_inv, spec, ahat.spec, ring))
    return buf if as_buffer else Poly(buf, ring)


# ---------------------------------------------------------------------------
# reordering


def reorder(values, chunk=1):
    """Bit-reversal permutation of chunks; its own inverse, so one function
    serves both directions."""
    m = len(values) // chunk
    if m & (m - 1):
        raise SpecViolation("reorder needs a power-of-two chunk count")
    out = []
    for j in modarith.bitrev_permutation(m):
        out += values[j * chunk : (j + 1) * chunk]
    return out


# ---------------------------------------------------------------------------
# separate pre/post-processing variants (negacyclic via a cyclic core)
#
# The merged transforms above fold the extra n multiplications into the
# butterflies; these keep them explicit, which costs + n (forward) and
# + n (inverse) multiplications and serves as a cross-check.


def _psi_powers(psi_tw, order: str, n: int) -> tuple:
    """psi^i for buffer position i, or psi^brv(i) when the buffer is bit-reversed."""
    if order == NATURAL:
        return psi_tw.ordered(NATURAL)[:n]
    return psi_tw.ordered(BIT_REVERSED)[0 : 2 * n : 2]


def nwc_forward_separate(a, cc_tw, psi_tw, spec: TransformSpec) -> NttDomainPoly:
    """Scale by psi powers, then run the plain cyclic forward transform."""
    if spec.conv_kind != CC or spec.direction != FORWARD or spec.beta != 0:
        raise SpecViolation("separate preprocessing wraps a full cyclic spec")
    n, q = a.ring.n, a.ring.q
    if psi_tw.order != 2 * n or psi_tw.inverse:
        raise OrderMismatch("psi table must hold 2n forward powers")
    _check_table(cc_tw, spec, n, q, expect_inverse=False)
    buf = mod_op(np.multiply, buffer(a.array, q), buffer(_psi_powers(psi_tw, spec.in_order, n), q),
                 q, "mults")
    return NttDomainPoly(ntt_forward(buf, cc_tw, spec), spec, a.ring, 1)


def nwc_inverse_separate(ahat: NttDomainPoly, cc_tw_inv, psi_tw_inv, spec: TransformSpec):
    """Plain cyclic inverse transform followed by psi^-1 post-scaling."""
    if spec.conv_kind != CC or spec.direction != INVERSE or spec.beta != 0:
        raise SpecViolation("separate postprocessing wraps a full cyclic spec")
    n, q = ahat.ring.n, ahat.ring.q
    if psi_tw_inv.order != 2 * n or not psi_tw_inv.inverse:
        raise OrderMismatch("psi table must hold 2n inverse powers")
    _check_table(cc_tw_inv, spec, n, q, expect_inverse=True)
    if spec.in_order != ahat.spec.out_order:
        raise SpecViolation("inverse input ordering must match forward output")
    buf = ntt_inverse(buffer(ahat.values, q), cc_tw_inv, spec)
    return Poly(mod_op(np.multiply, buf, buffer(_psi_powers(psi_tw_inv, spec.out_order, n), q), q,
                       "mults"), ahat.ring)
