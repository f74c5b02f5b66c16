"""Radix-2 in-place NTT passes over Z_m coefficient buffers.

One parameterized kernel covers every transform variant: the butterfly
family (CT or GS) combined with the input ordering fixes the loop
structure, and the convolution kind (cyclic or negacyclic) fixes the
twiddle exponents.  Cropping the last ``beta`` levels leaves contiguous
degree-(2^beta - 1) chunks in place of scalars.

Loop structure, with m = n / 2^beta chunks and chunk-level half-length L:

* natural input  -> levels shrink, L = m/2 .. 1
* bit-reversed input -> levels grow, L = 1 .. m/2
* CT with natural input / GS with bit-reversed input: one twiddle per
  block, exponent L*brv(i) (cyclic) or L*(2*brv(i)+1) (negacyclic),
  i indexed over the m/(2L) blocks of the level.
* the other two variants: one twiddle per offset j inside a block,
  exponent (m/2L)*j resp. (m/2L)*(2j+1), shared by all blocks.

Inverse transforms run the same structures with negated exponents and a
final scaling by (n/2^beta)^-1.

``level_geometry`` is the only derivation of this structure: a
``Schedule`` holds it per (spec, table, n), and ``butterfly_schedule``
(``plan --trace``) walks a schedule's levels; the trinomial levels and
the block transforms of the embeddings walk it too.  ``run_levels`` drives the array kernels on
the working buffer that ``buffer`` picks from the modulus alone: int64
below 2^31, ``object`` (Python ints) at or above.

Every array kernel takes one leading batch axis: a buffer is one row of
n residues or a (batch, n) array of rows, transformed alike by the same
code (a length-n buffer is a batch of one).  A merged stage is still one
``np.matmul``, its read-only matrix stack broadcast over the batch, and
one reduction, whatever the batch size; the per-level kernels, the
halving and the inverse scaling broadcast the same way.  Op counts count
every row.

On int64 buffers the levels run as merged stages (Seiler, eprint
2018/039): each group of at most k consecutive levels is one batched
``np.matmul`` with a read-only stack of 2^k x 2^k matrices, then one
reduction.  ``Schedule.stage_class`` fixes the stages' class once per
schedule, from q and the level count alone (``stage_class``):

* int64, k = ``stage_width``: the largest k up to ``STAGE_CAP`` with
  2^k (q-1)^2 < 2^63, so no matmul row sum leaves int64, then ``% q``;
* float64, k = ``FLOAT_WIDTH``, on schedules of at least
  ``FLOAT_LEVELS`` levels or where q holds the int64 width below
  ``STAGE_CAP``: one BLAS matmul of centered float64 matrices, then
  y -= rint(y (1/q)) q (after van der Hoeven, Lecerf and Quintin,
  "Modular SIMD arithmetic in Mathemagix", ACM TOMS 2016), with the
  matrices split in 16-bit limbs ("float64-limb") where one would not
  be exact.  The buffer turns float64 once before the first stage and
  back to canonical int64 once after the last.

The float64 bounds, with h = q//2.  Every integer of magnitude at most
2^53 is a float64, so integer sums are exact in any order while every
partial sum stays within 2^53.  The reduction of such a y: y (1/q) is
rounded twice, each time by a relative 2^-53, so it is off y/q by less
than 2^53/q 2^-52 = 2/q; rint then picks a Q within 1/2 + 2/q of y/q,
so |y - Qq| < q/2 + 2, at most h + 2: an entry may sit just past q/2.
Qq is exact too when |y| + q <= 2^53.  A stage's input is a canonical
residue or such an output, so at most q - 1 in magnitude (h + 2 <= q - 1
as q >= 5), and its matrix entries are centered, at most h:

* one matrix: each sum is at most 2^k h (q-1), so 2^k h (q-1) + q <= 2^53
  (``float_fits``);
* limbs, M = Mh 2^16 + Ml with |Ml| <= 2^15 and |Mh| <= H = (h + 2^15) >> 16:
  Mh x is at most 2^k H (q-1); reduced, times 2^16, plus Ml x it is at
  most (h+2) 2^16 + 2^(k+15) (q-1) <= (q-1) (2^16 + 2^(k+15)); both plus
  q at most 2^53 (``limb_fits``), which every q below 2^31 meets at k = 5.

With one matrix, inputs of at most b give sums of at most 2^k h b, so a
stage may skip its reduction where the next stage's sums stay within
2^53 - q anyway (``_reductions``): for q = 12289 the first of two
stages does.  The last stage always reduces.

A schedule builds its stage matrices on its first transform, from each
level's 2 x 2 butterfly matrices, which wider groups multiply entrywise
(``Schedule._matrices``).  The levels run one at a time (one
reshape-and-broadcast each) only on ``object`` buffers, for an
``on_level`` caller and on a schedule built for one call.  The
pure-Python kernel on a list stays as the test reference.  All give
identical values, and op counts always count the radix-2 levels.

``forward_rows`` and ``inverse_rows`` are the array cores of a
transform: counted, in place on a bare buffer, and unchecked.
``ntt_forward`` and ``ntt_inverse`` are the one entry to them: given a
bare buffer (an ndarray, with no ring) they run the core on it and
return it, as every planned route calls them between its forward
transform and its inverse, so that a transform is one call whichever
route runs it.  Given a Poly, or outside values with their ring, they
are the public layer: they check the table, spec, ring and schedule,
check outside values once as ``Poly`` checks its coefficients, and tag
the result as an ``NttDomainPoly`` (an inverse may return a Poly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import modarith
from .errors import LengthMismatch, OrderMismatch, RingMismatch, SpecMismatch, SpecViolation
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, canonical

CC = "CC"
NWC = "NWC"
CT = "CT"
GS = "GS"
FORWARD = "forward"
INVERSE = "inverse"
NATURAL = modarith.NATURAL
BIT_REVERSED = modarith.BIT_REVERSED

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

    def table_order(self, n: int) -> int:
        """Required twiddle-table order for a length-n buffer."""
        m = n >> self.beta
        return 2 * m if self.conv_kind == NWC else m

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
# butterflies (reference kernels; the passes below inline the same math)


def butterfly_ct(u: int, v: int, w: int, m: int) -> tuple:
    """(u + w*v, u - w*v) mod m, with w*v computed once."""
    t = modarith.mod_mul(w, v, m)
    return modarith.mod_add(u, t, m), modarith.mod_sub(u, t, m)


def butterfly_gs(u: int, v: int, w: int, m: int) -> tuple:
    """(u + v, (u - v)*w) mod m."""
    return modarith.mod_add(u, v, m), modarith.mod_mul(modarith.mod_sub(u, v, m), w, m)


# ---------------------------------------------------------------------------
# schedule: the one derivation of the level structure


# the reorder-free cyclic pair with one twiddle per block in both
# directions: the trinomial levels and the embeddings' block transforms
CYCLIC_BLOCK_PAIR = (TransformSpec(CC, CT, FORWARD, NATURAL, BIT_REVERSED),
                     TransformSpec(CC, GS, INVERSE, BIT_REVERSED, NATURAL))


def _block_twiddled(spec: TransformSpec) -> bool:
    """One twiddle per block (else one per offset j, shared by all blocks)."""
    return (spec.butterfly == CT) == (spec.in_order == NATURAL)


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
    rev = modarith.bitrev_permutation(2 * m if nega else m) if block_tw else None
    halves = [1 << k for k in range(m.bit_length() - 1)]
    if spec.in_order == NATURAL:
        halves.reverse()
    for half in halves:
        nblocks = m // (2 * half)
        if block_tw:
            start = 2 * nblocks if nega else 0
            yield nblocks, half, tuple(rev[start : start + 2 * nblocks : 2])
        else:
            start, step = (nblocks, 2 * nblocks) if nega else (0, nblocks)
            yield nblocks, half, tuple(range(start, start + step * half, step))


def butterfly_schedule(sched: Schedule):
    """Yield (level, lo, hi, exponent) for each chunk butterfly of a
    schedule's levels, in order.

    Exponents index the table root directly (negated by inverse tables),
    so replaying the schedule with butterfly_ct/butterfly_gs reproduces
    the kernel exactly.
    """
    block_tw = _block_twiddled(sched.spec)
    for lvl, (nblocks, half, exps) in enumerate(sched.levels):
        for i in range(nblocks):
            base = i * 2 * half
            for j in range(half):
                yield lvl, base + j, base + j + half, exps[i if block_tw else j]


@dataclass(frozen=True, eq=False)
class Schedule:
    """The butterfly levels of one (spec, table, n), built once, never mutated.

    ``levels[l] = (nblocks, half, exponents)`` in execution order, with
    ``half`` counted in chunks of ``chunk`` coefficients.  Each kernel
    reads its twiddles from it, built on first use: ``stages`` and
    ``halving_stages`` (the merged stages of ``stage_class``, see
    ``Stage`` and ``FloatStage``),
    ``vectors`` (read-only arrays of the table modulus's buffer dtype,
    shaped to broadcast against the (nblocks, half, chunk) halves) or
    ``passes`` (every butterfly's low position and twiddle, for the
    reference kernel).  ``merge`` is off for a schedule built for one
    call: its stage matrices could not pay for themselves.
    """

    spec: TransformSpec
    table: modarith.TwiddleTable
    n: int
    chunk: int
    levels: tuple
    merge: bool = True

    def _twiddles(self, exps) -> list:
        nat = self.table.ordered(NATURAL)
        return [nat[e] for e in exps]

    @cached_property
    def vectors(self) -> tuple:
        block_tw = _block_twiddled(self.spec)
        return tuple(
            read_only(buffer(self._twiddles(exps), self.table.modulus)
                    .reshape((nblocks, 1, 1) if block_tw else (half, 1)))
            for nblocks, half, exps in self.levels
        )

    @cached_property
    def passes(self) -> tuple:
        block_tw = _block_twiddled(self.spec)
        chunk = self.chunk
        out = []
        for nblocks, half, exps in self.levels:
            flat = half * chunk
            zs = self._twiddles(exps)
            lows = [b * 2 * flat + r for b in range(nblocks) for r in range(flat)]
            if block_tw:
                per = [z for z in zs for _ in range(flat)]
            else:
                per = [zs[r // chunk] for _ in range(nblocks) for r in range(flat)]
            out.append((lows, per))
        return tuple(out)

    @cached_property
    def stages(self) -> tuple:
        return self._stages(halving=False)

    @cached_property
    def halving_stages(self) -> tuple:
        return self._stages(halving=True)

    @cached_property
    def stage_class(self) -> tuple:
        """(class, width) of the merged stages, e.g. ("int64", 4),
        ("float64", 5) or ("float64-limb", 5): ``stage_class`` of the
        table modulus and the level count, decided once."""
        return stage_class(self.table.modulus, len(self.levels))

    def _stages(self, halving: bool) -> tuple:
        """The levels as merged stages of ``stage_class``; () when there
        are none or q is at or above 2^31 (width 0).  The int64 and limb
        classes build canonical int64 matrices, and the limb class then
        splits them; the single-matrix float64 class builds centered
        float64 ones, exact as every product stays below 2^53, and
        reduces only where ``_reductions`` says."""
        q = self.table.modulus
        cls, k = self.stage_class
        if not k or not self.levels:
            return ()
        block_tw = _block_twiddled(self.spec)
        groups = list(_groups(len(self.levels), k)) if cls == INT64 else self._float_groups(k)
        reduces = (_reductions(q, [hi - lo for lo, hi in groups]) if cls == FLOAT64
                   else [True] * len(groups))
        out = []
        with modarith.uncounted():
            for (lo, hi), reduce in zip(groups, reduces):
                shape = (*self._geometry(lo, hi), block_tw)
                if cls == FLOAT64:
                    # centered: this class runs at least FLOAT_LEVELS levels,
                    # so every group combines two or more of them
                    mats = self._matrices(lo, hi, halving, np.float64)
                    out.append(FloatStage(*shape, read_only(mats), None, reduce))
                elif cls == INT64:
                    out.append(Stage(*shape, read_only(self._matrices(lo, hi, halving, np.int64))))
                else:
                    out.append(FloatStage(*shape, *_limbs(self._matrices(lo, hi, halving, np.int64),
                                                          q)))
        return tuple(out)

    def _geometry(self, lo: int, hi: int) -> tuple:
        """(blocks, span) of the stage of levels lo..hi-1 (see ``Stage``)."""
        group = self.levels[lo:hi]
        return (min(nblocks for nblocks, _, _ in group),
                min(half for _, half, _ in group) * self.chunk)

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

    def _matrices(self, lo: int, hi: int, halving: bool, dtype) -> np.ndarray:
        """The matrix stack of levels lo..hi-1 as one stage, one matrix per
        block or per offset (see ``Stage``), in ``dtype``.

        One level is its 2 x 2 butterfly matrices, canonical.  Wider groups
        multiply the stacks of their two halves A (first) and B entrywise:
        A's levels move the high position bits ph (levels shrink) or the
        low ones pl (levels grow) and B's the others, so each entry
        M[(ph, pl), (ch, cl)] is one product, A[ph, ch] B[pl, cl] taken at
        the block or offset the bits left over select, reduced canonical
        (int64) or centered (float64, exact while q^2 < 2^53: products
        below 2^51 reduce to at most q//2).
        """
        q = self.table.modulus
        block_tw = _block_twiddled(self.spec)
        if hi - lo > 1:
            mid = (lo + hi) // 2
            A, B = (self._matrices(lo, mid, halving, dtype),
                    self._matrices(mid, hi, halving, dtype))
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
        # one level: its butterfly matrix per block or offset, (u, v) ->
        # (u + w v, u - w v) for CT and (u + v, (u - v) w) for GS
        w = self.vectors[lo].reshape(-1)
        m = np.ones((len(w), 2, 2), dtype=dtype)
        if self.spec.butterfly == CT:
            m[:, 0, 1] = w
        else:
            m[:, 1, 0] = w
        m[:, 1, 1] = q - w
        if halving:
            m *= (q + 1) >> 1
            _reduce(m, q)
        # block twiddles: one matrix per block; else the same in every
        # block, one per offset
        return m if block_tw else np.repeat(m, self.chunk, axis=0)


def make_schedule(spec: TransformSpec, tw, n: int, merge: bool = True) -> Schedule:
    """The schedule of ``spec`` on a length-n buffer over table ``tw``."""
    return Schedule(spec, tw, n, 1 << spec.beta, tuple(level_geometry(spec, n >> spec.beta)),
                    merge)


# ---------------------------------------------------------------------------
# merged stages: k levels as one batched matmul, int64 or float64

# The widest int64 stage: numpy's int64 matmul has no BLAS path, and its
# 2^k multiply-adds per value grow faster than the numpy calls they save
# beyond k = 4 (timed at n = 256 .. 1024).
STAGE_CAP = 4
# The float64 class: BLAS matmuls of width 2^FLOAT_WIDTH.  It pays on
# schedules of at least FLOAT_LEVELS levels, and where q holds the int64
# width below STAGE_CAP (near 2^31 the int64 class runs one level per
# stage).  Per product against the int64 class, interleaved in one
# process (2-vCPU VM): 2048 points mod 2134904833 (ntru-509) 0.63 of
# its time, mod 120833 and 133121 (ntru-821) 0.71, Good's rows 0.69-0.82,
# falcon-1024 0.53, falcon-512 0.71 (but 1.14 in the benchmark's rounds,
# with cold caches).  At 256 points (8 levels) it loses: one forward row
# takes 29 us against 22 us for kyber and dilithium; two rows break even.
FLOAT_WIDTH = 5
FLOAT_LEVELS = 9
LIMB = 1 << 16
INT64 = "int64"
FLOAT64 = "float64"
FLOAT64_LIMB = "float64-limb"
_EXACT = 1 << 53  # every integer of magnitude up to 2^53 is a float64


def stage_width(q: int) -> int:
    """Levels per int64 stage mod q: the largest k <= ``STAGE_CAP`` with
    2^k (q-1)^2 < 2^63, so no row sum of a stage matmul leaves int64.

    At least 1 for every q below 2^31, since 2 (q-1)^2 < 2^63 there: every
    int64 buffer can run stages, one level each for q above 1518500250.
    """
    k = 0
    while k < STAGE_CAP and (q - 1) ** 2 << (k + 1) < 2**63:
        k += 1
    return k


def float_fits(q: int, k: int) -> bool:
    """The single-matrix float64 bound: 2^k (q//2) (q-1) + q <= 2^53
    (derived in the module docstring)."""
    return ((q // 2) * (q - 1) << k) + q <= _EXACT


def limb_fits(q: int, k: int) -> bool:
    """The limb-split float64 bound: 2^k H (q-1) + q <= 2^53 with
    H = (q//2 + 2^15) >> 16, and (q-1) (2^16 + 2^(k+15)) + q <= 2^53
    (derived in the module docstring)."""
    high = ((q // 2 + (LIMB >> 1)) >> 16) * (q - 1) << k
    return max(high, (q - 1) * (LIMB + (LIMB << k >> 1))) + q <= _EXACT


def stage_class(q: int, levels: int) -> tuple:
    """(class, width) of the merged stages of a ``levels``-level schedule
    mod q, from q and the level count alone.

    Float64 (``FLOAT_WIDTH`` levels per stage, one matrix where
    ``float_fits``, else two 16-bit limbs where ``limb_fits``) when q
    has an int64 width and the schedule has at least ``FLOAT_LEVELS``
    levels or q holds that width below ``STAGE_CAP``; otherwise int64 at
    ``stage_width``, which is 0, no stages, from 2^31 up.
    """
    k = stage_width(q)
    if k and (levels >= FLOAT_LEVELS or k < STAGE_CAP):
        if float_fits(q, FLOAT_WIDTH):
            return FLOAT64, FLOAT_WIDTH
        if limb_fits(q, FLOAT_WIDTH):
            return FLOAT64_LIMB, FLOAT_WIDTH
    return INT64, k


def _groups(count: int, k: int):
    """(lo, hi) of ceil(count/k) runs of consecutive levels, as even as possible."""
    g = -(-count // k)
    bounds = [count * i // g for i in range(g + 1)]
    return zip(bounds, bounds[1:])


@dataclass(frozen=True)
class Stage:
    """Consecutive levels as one map on each row seen as (blocks, 2^k, span).

    ``matrices`` is a read-only (blocks, 2^k, 2^k) int64 stack indexed by
    block when the levels take one twiddle per block, else a
    (span, 2^k, 2^k) stack indexed by offset, applied to the
    (span, 2^k, blocks) transpose; either broadcasts over the rows.
    """

    blocks: int
    span: int
    by_block: bool
    matrices: np.ndarray

    def apply(self, buf, q: int) -> None:
        """The stage on contiguous int64 ``buf`` of canonical residues, one
        row or a batch of rows, in place: one matmul, the matrix stack
        broadcast over the batch, and one reduction."""
        x = buf.reshape(*buf.shape[:-1], self.blocks, self.matrices.shape[-1], self.span)
        if not self.by_block:
            x = x.swapaxes(-1, -3)
        np.remainder(np.matmul(self.matrices, x), q, out=x)


@dataclass(frozen=True)
class FloatStage(Stage):
    """A ``Stage`` on float64 buffers.

    ``matrices`` holds the centered stage matrices as float64, or, in
    the limb class, their low 16-bit limbs, with ``high`` the high ones:
    M = high 2^16 + low, each limb stack read-only.  ``reduce`` off
    leaves the sums unreduced (single matrix only, see ``_reductions``).
    """

    high: np.ndarray | None = None
    reduce: bool = True

    def apply(self, buf, q: int) -> None:
        """The stage on contiguous float64 ``buf`` in place, one row or a
        batch of rows: one BLAS matmul (two for limbs, combined as
        (high x mod q) 2^16 + low x), then ``reduce_centered``, which
        leaves entries at most q//2 + 2 in magnitude."""
        x = buf.reshape(*buf.shape[:-1], self.blocks, self.matrices.shape[-1], self.span)
        if not self.by_block:
            x = x.swapaxes(-1, -3)
        y = np.matmul(self.matrices, x)
        if self.high is not None:
            t = reduce_centered(np.matmul(self.high, x), q)
            t *= LIMB
            y += t
        x[...] = reduce_centered(y, q) if self.reduce else y


def _reductions(q: int, widths) -> list:
    """Whether each single-matrix float64 stage, of 2^w-wide matrices for
    w in ``widths``, reduces its sums: where the next stage's sums could
    pass 2^53 - q without it, and after the last.  A stage maps inputs
    of magnitude at most b to sums of at most 2^w (q//2) b."""
    h, bound, out = q // 2, q - 1, []
    for i, w in enumerate(widths):
        bound = h * bound << w
        out.append(i + 1 == len(widths) or (h * bound << widths[i + 1]) + q > _EXACT)
        if out[-1]:
            bound = h + 2
    return out


def reduce_centered(y, q: int) -> np.ndarray:
    """y - rint(y/q) q in place on float64 ``y`` of integers below 2^53 in
    magnitude: at most q//2 + 2 in magnitude after (see the module
    docstring); returns ``y``."""
    t = y * (1.0 / q)
    np.rint(t, out=t)
    t *= q
    y -= t
    return y


def _reduce(m, q: int) -> np.ndarray:
    """``m`` reduced in place: canonical (int64) or centered (float64)."""
    if m.dtype == np.int64:
        m %= q
        return m
    return reduce_centered(m, q)


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
# kernels and the per-level driver


def ct_pass(a, nblocks: int, half: int, chunk: int, tw, q: int) -> None:
    """One CT level of the reference kernel on list ``a``, in place.

    ``tw`` is the level's (low positions, twiddles), one per butterfly.
    """
    flat = half * chunk
    for j, z in zip(*tw):
        k = j + flat
        t = z * a[k] % q
        u = a[j]
        a[j] = (u + t) % q
        a[k] = (u - t) % q


def gs_pass(a, nblocks: int, half: int, chunk: int, tw, q: int) -> None:
    """One GS level of the reference kernel on list ``a``, in place."""
    flat = half * chunk
    for j, z in zip(*tw):
        k = j + flat
        u = a[j]
        v = a[k]
        a[j] = (u + v) % q
        a[k] = (u - v) * z % q


def ct_level(x, nblocks: int, half: int, chunk: int, w, q: int) -> None:
    """One CT level in place: (u, v) -> (u + w*v, u - w*v) mod q.

    ``x`` is a contiguous buffer of rows of nblocks*2*half*chunk canonical
    residues; ``w`` broadcasts against shape (nblocks, half, chunk).  Both
    halves are reduced by one pass over ``x``.
    """
    y = x.reshape(-1, nblocks, 2, half, chunk)
    u, v = y[:, :, 0], y[:, :, 1]
    t = v * w
    t %= q
    np.subtract(u, t, out=v)
    u += t
    x %= q


def gs_level(x, nblocks: int, half: int, chunk: int, w, q: int) -> None:
    """One GS level in place: (u, v) -> (u + v, (u - v)*w) mod q."""
    y = x.reshape(-1, nblocks, 2, half, chunk)
    u, v = y[:, :, 0], y[:, :, 1]
    d = u - v
    u += v
    np.multiply(d, w, out=v)
    x %= q


def mod_op(ufunc, u, v, q: int, tally: str) -> np.ndarray:
    """ufunc(u, v) mod q, a fresh buffer, counted as one ``tally`` op per entry of u."""
    c = modarith.active_counter()
    if c is not None:
        setattr(c, tally, getattr(c, tally) + u.size)
    return ufunc(u, v) % q


def buffer_dtype(q: int):
    """The working dtype mod q: int64 below ``modarith.VECTOR_LIMIT``, where
    every product of two residues fits, else ``object`` (Python ints)."""
    return np.int64 if modarith.vectorized(q) else object


def buffer(values, q: int) -> np.ndarray:
    """A fresh working buffer holding ``values``, of the dtype mod q."""
    return np.array(values, dtype=buffer_dtype(q))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a cached table shared by every caller."""
    a.flags.writeable = False
    return a


def _halve(buf, q: int) -> None:
    """buf / 2 mod q in place, for odd q: shift, and add (q+1)/2 to odd entries."""
    odd = buf & 1
    buf >>= 1
    odd *= (q + 1) >> 1
    buf += odd
    buf %= q


def run_levels(buf, q: int, sched: Schedule, halving=False, on_level=None) -> None:
    """Apply every level of ``sched`` to ``buf`` in place: one length-n
    row, or every row of a (batch, n) array at once.

    An int64 buffer runs the merged stages of the schedule's
    ``stage_class`` (one matmul per group of levels); the float64
    classes run on one float64 copy of it, taken once before the first
    stage, and write it back canonical after the last.  An
    ``object`` buffer, a one-call schedule (``merge`` off) or an
    ``on_level`` caller runs the array kernel one level at a time (one
    reshape-and-broadcast per level); a list runs the pure-Python
    reference kernel (one loop over the level's butterflies; it takes no
    halving).  All give the same values and op counts, which count the
    radix-2 levels of every row.  ``halving`` folds a division by 2 into
    each level (odd q only) and ``on_level(level, values)`` sees the
    values after each level.
    """
    vec = isinstance(buf, np.ndarray)
    stages = ()
    if vec and on_level is None and sched.merge and buf.dtype == np.int64:
        stages = sched.halving_stages if halving else sched.stages
    if stages and sched.stage_class[0] != INT64:
        f = buf.astype(np.float64)
        for stage in stages:
            stage.apply(f, q)
        buf[...] = f  # centered: add q to the negative entries
        buf += (buf >> 63) & q
    else:
        for stage in stages:
            stage.apply(buf, q)
    if not stages:
        if sched.spec.butterfly == CT:
            level = ct_level if vec else ct_pass
        else:
            level = gs_level if vec else gs_pass
        for lvl, ((nblocks, half, _), tw) in enumerate(
                zip(sched.levels, sched.vectors if vec else sched.passes)):
            level(buf, nblocks, half, sched.chunk, tw, q)
            if halving:
                _halve(buf, q)
            if on_level is not None:
                on_level(lvl, buf.tolist() if vec else buf)
    ctr = modarith.active_counter()
    if ctr is not None:  # one butterfly per chunk pair on every level
        rows = buf.size // sched.n if vec else 1
        nbf = sum(nblocks * half for nblocks, half, _ in sched.levels) * sched.chunk * rows
        ctr.mults += nbf
        ctr.adds += nbf
        ctr.subs += nbf


def forward_rows(buf, sched: Schedule, on_level=None) -> np.ndarray:
    """The array core of ``ntt_forward``: the levels of ``sched`` on the
    rows of contiguous working buffer ``buf``, in place and counted,
    unchecked; returns ``buf``."""
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.forward_transforms += buf.size // sched.n
    run_levels(buf, sched.table.modulus, sched, on_level=on_level)
    return buf


def inverse_rows(buf, sched: Schedule, halving=False, on_level=None) -> np.ndarray:
    """The array core of ``ntt_inverse`` (see ``forward_rows``).  The
    per-level factor 2 is deferred into one final scaling by 2^-levels,
    i.e. (n/2^beta)^-1, when there are levels, or folded into each level
    when halving is set (odd q only; identical outputs, tested)."""
    q = sched.table.modulus
    if halving and q % 2 == 0:
        raise SpecViolation("halving mode needs an odd modulus")
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.inverse_transforms += buf.size // sched.n
    run_levels(buf, q, sched, halving=halving, on_level=on_level)
    if not halving and sched.levels:
        buf *= modarith.mod_inv(1 << len(sched.levels), q)
        buf %= q
        if ctr is not None:
            ctr.mults += buf.size
    return buf


def _checked_schedule(schedule, tw, spec, n: int) -> Schedule:
    if schedule is None:
        return make_schedule(spec, tw, n, merge=False)
    if schedule.table is not tw or schedule.n != n or (schedule.spec is not spec
                                                        and schedule.spec != spec):
        raise SpecViolation("schedule was built for another table, spec or length")
    return schedule


def _check_table(tw, spec, n, q, expect_inverse):
    if n & (n - 1) or n < 1:
        raise SpecViolation(f"buffer length {n} is not a power of two")
    if n > 1 and spec.beta >= n.bit_length() - 1:
        raise SpecViolation(f"beta={spec.beta} too large for n={n}")
    if tw.modulus != q:
        raise RingMismatch(f"table modulus {tw.modulus} != ring modulus {q}")
    want = spec.table_order(n)
    if tw.order != want:
        raise OrderMismatch(f"table order {tw.order} != required {want}")
    if tw.inverse != expect_inverse:
        raise OrderMismatch("table direction does not match the transform")


def forward_schedule(tw, spec: TransformSpec, ring, schedule=None) -> Schedule:
    """Every check of ``ntt_forward`` on its table, spec, ring (duck-typed)
    and schedule; returns the schedule to run, one built for one call
    when none is given."""
    if spec.direction != FORWARD:
        raise SpecViolation("ntt_forward requires a forward spec")
    _check_table(tw, spec, ring.n, ring.q, expect_inverse=False)
    form = getattr(ring, "form", None)
    if form is not None and form != (XN_PLUS_1 if spec.conv_kind == NWC else XN_MINUS_1):
        raise SpecViolation(f"{spec.conv_kind} transform over ring form {form!r}")
    return _checked_schedule(schedule, tw, spec, ring.n)


def inverse_schedule(tw_inv, spec: TransformSpec, fs: TransformSpec, ring,
                     schedule=None) -> Schedule:
    """``forward_schedule`` for ``ntt_inverse``: ``spec`` must undo forward spec ``fs``."""
    if spec.direction != INVERSE:
        raise SpecViolation("ntt_inverse requires an inverse spec")
    if fs.conv_kind != spec.conv_kind or fs.beta != spec.beta:
        raise SpecViolation("inverse spec does not pair with the forward spec")
    if spec.in_order != fs.out_order:
        raise SpecViolation("inverse input ordering must match forward output")
    _check_table(tw_inv, spec, ring.n, ring.q, expect_inverse=True)
    return _checked_schedule(schedule, tw_inv, spec, ring.n)


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


def ntt_forward(a, tw, spec: TransformSpec, on_level=None, schedule=None, ring=None) -> NttDomainPoly:
    """Forward transform of a Poly, or, with ``ring``, of a length-n
    array or list of canonical residues over that ring (checked as
    ``Poly`` checks them), or of a (batch, n) array of them; returns
    tagged transform-domain values.

    The coefficients are copied once into a working buffer (``buffer``)
    and the levels of ``schedule`` (built from ``tw`` when not given) then
    run in place on it, on every row at once (``forward_rows``); the
    result holds that buffer.  ``on_level(level, values)`` sees the values
    after each level.

    A bare working buffer (an ndarray, no ``ring``) is the planned
    routes' core: transformed in place and returned, with only the
    schedule checked against ``tw`` and ``spec``; the route's
    ``TransformPair`` checked the table, spec and ring when it was built.
    """
    if ring is None and isinstance(a, np.ndarray):
        return forward_rows(a, _checked_schedule(schedule, tw, spec, a.shape[-1]), on_level)
    if ring is None:
        ring, a = a.ring, a.array
    else:
        a = checked_rows(a, ring.n, ring.q)
    sched = forward_schedule(tw, spec, ring, schedule)
    buf = forward_rows(buffer(a, ring.q), sched, on_level)
    return NttDomainPoly(buf, spec, ring, 1 << spec.beta)


def ntt_inverse(ahat: NttDomainPoly, tw_inv, spec: TransformSpec, halving=False, on_level=None,
                schedule=None, as_buffer=False):
    """Inverse transform back to a Poly, or with ``as_buffer`` to its
    buffer of canonical residues; exact inverse of ntt_forward, run by
    ``inverse_rows`` on a copy of ``ahat.values``, which is never
    mutated.  A batch of rows runs at once and needs ``as_buffer``; a
    Poly result is range-checked once, on its buffer.

    A bare working buffer ``ahat`` is inverted in place and returned, as
    in ``ntt_forward``.
    """
    if isinstance(ahat, np.ndarray):
        return inverse_rows(ahat, _checked_schedule(schedule, tw_inv, spec, ahat.shape[-1]),
                            halving, on_level)
    ring = ahat.ring
    sched = inverse_schedule(tw_inv, spec, ahat.spec, ring, schedule)
    buf = inverse_rows(buffer(ahat.values, ring.q), sched, halving, on_level)
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


def nwc_forward_separate(a, cc_tw, psi_tw, spec: TransformSpec, on_level=None) -> NttDomainPoly:
    """Scale by psi powers, then run the plain cyclic forward transform."""
    if spec.conv_kind != CC or spec.direction != FORWARD or spec.beta != 0:
        raise SpecViolation("separate preprocessing wraps a full cyclic spec")
    n, q = a.ring.n, a.ring.q
    if psi_tw.order != 2 * n or psi_tw.inverse:
        raise OrderMismatch("psi table must hold 2n forward powers")
    _check_table(cc_tw, spec, n, q, expect_inverse=False)
    buf = mod_op(np.multiply, buffer(a.array, q), buffer(_psi_powers(psi_tw, spec.in_order, n), q),
                 q, "mults")
    forward_rows(buf, make_schedule(spec, cc_tw, n, merge=False), on_level)
    return NttDomainPoly(buf, spec, a.ring, 1)


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
    buf = inverse_rows(buffer(ahat.values, q), make_schedule(spec, cc_tw_inv, n, merge=False))
    return Poly(mod_op(np.multiply, buf, buffer(_psi_powers(psi_tw_inv, spec.out_order, n), q), q,
                       "mults"), ahat.ring)
