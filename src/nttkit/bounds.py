"""Magnitude bounds: every buffer class and every reduction of the fast path.

The fast path keeps sums unreduced while they fit the machine word (lazy
reduction; Harvey, "Faster arithmetic for number-theoretic transforms",
2014).  Every such decision is made here, from three things: ``LIMITS``,
the largest magnitude each array class holds exactly (int32 2^31 - 1,
int64 2^63 - 1, float64 2^53, as every integer up to 2^53 is a float64,
so integer sums are exact in any order while every partial sum stays
within it; ``object`` arrays of Python ints have none); ``fits``, the
one test: do ``terms`` products, each at most a b in magnitude, plus
``extra``, stay within a class's limit; and ``walk``, which carries a
bound through a chain of unreduced steps and reduces right before any
step that would pass its limit.  Each bound is derived once, below.

Buffers (``vectorized``).  A buffer mod q is int64 while two products of
entries up to q fit int64, i.e. q < 2^31: a product of two residues plus
or minus a residue, or a sum of two products, stays inside int64.  From
2^31 up it is ``object``.  Garner's recovery (``bigmod.garner``) is int64
while every modulus after the first is: a mixed-radix digit times an
inverse mod p stays below p^2 < 2^62, a digit times the radix below the
product P <= 2^42.

Stages (``stage_class``), once per schedule mod q, from the buffer class,
the level count and the point count (the buffer length):

* int64, k = ``STAGE_CAP`` levels per stage, below ``FLOAT_LEVELS`` levels
  (and ``FLOAT_POINTS`` points if float64 is exact) where 2^k (q-1)^2 fits
  int64: no matmul row sum of 2^k residue products leaves it.  Each reduces;
* float64, ``FLOAT_WIDTH`` levels per stage, on the other int64 buffers,
  with matrix entries centered, at most h = q//2.  The reduction
  y - rint(y (1/q)) q of an integer y within 2^53 rounds y (1/q) twice,
  each time by a relative 2^-53, so it is off y/q by less than
  2^53/q 2^-52 = 2/q; rint picks a Q within 1/2 + 2/q of y/q, so
  |y - Qq| < q/2 + 2, at most h + 2, and Qq is exact while |y| + q is
  within 2^53.  A stage's input is canonical or such an output, at most
  q - 1 (h + 2 <= q - 1 for q >= 5).  With one matrix each sum is at
  most 2^k h (q-1), exact while that plus q fits float64.  Else the
  matrices split in 16-bit limbs ("float64-limb"), M = Mh 2^16 + Ml with
  |Ml| <= 2^15 and |Mh| <= H = (h + 2^15) >> 16: Mh x is at most
  2^k H (q-1); reduced, times 2^16, plus Ml x it is at most
  (h+2) 2^16 + 2^(k+15) (q-1) <= (q-1) (2^16 + 2^(k+15)).  Both plus q
  fit float64 for every q below 2^31 at k = 5, so limbs take every int64
  buffer that one matrix does not.  A limb stage always reduces;
* object, ``OBJECT_WIDTH`` levels per stage, on ``object`` buffers.

Leaves (``polymul.leaf_rows``: the pairs' leaves of degree h 2^beta, Good's
among them, and the trinomial ones; ``polymul.leaf_products``: the block
floor and matvec row sums): products mod x^L - gamma of operands at most
B in magnitude (q - 1: canonical).
Linear coefficient k sums min(k + 1, 2L - 1 - k) raw products, each at
most B^2.  Folding x^L = gamma adds coefficient k + L (L - 1 - k
products) to coefficient k < L - 1: raw for gamma = +-1, and for a
constant per column the high coefficients summed, reduced below q, then
times gamma, at most (q-1)^2.  Either way no sum passes L B^2, so while
L products of B B fit, the raw products are summed and reduced once;
otherwise each product of canonical operands is reduced first, and no
entry passes (q-1)(q-1+L) (``leaves``).  ``polymul.pointwise_sums``, with
leaves of degree 1, sums cols raw products of residues while cols
products of (q-1)(q-1) fit; otherwise it reduces each first, and cols
residues stay below cols q.

Lifted operands (``bigmod``), centered mod q, run mod p unreduced while
q//2 <= p - 1 (``centered_input``), else reduced mod p: each bound here
is on magnitudes from input at most p - 1, and each reduction (``%``,
``_mod``, y - rint(y/p) p) maps a negative entry to its residue, so every
stage class (truncated, narrowed), leaf kernel and block route takes it.

Chains (``walk``), from canonical input to an output that the caller
reduces:

* float64 stages of widths w_i: from q - 1, stage i maps b to 2^w_i h b,
  whose sums plus q must fit float64; a reduction leaves h + 2.  So a
  stage skips its reduction where the next one's sums stay exact anyway:
  for q = 12289 the first of two stages does;
* the Schoenhage/Nussbaumer block route (``embed.block_route``), in
  int32 where every step fits it, else in int64: from q - 1, a depth's
  forward transform multiplies the bound by 2^g, g its levels that are
  not copies; the floor's leaves peak as above and return canonical
  residues; each inverse level, pruned or not, and each fold doubles it;
  the final scale, in int64, multiplies it by q - 1.  A reduction leaves
  q - 1.  One due right after a depth's forward transform, over all its
  2n blocks, may go before it (``walk``'s ``early``), over its ``live``
  input blocks.  Schonhage(32, 32) over q = 4591 in int32: the forward
  bounds are 2^6, 2^8 and 2^9 (q - 1), and the floor cannot take
  2^9 (q - 1) operands.  Its forward transform has one level that is not
  a copy, and 8 (2 (q - 1))^2 < 2^31 (up to q = 8191), so its two live
  input blocks are reduced instead of its eight blocks after it, and the
  leaves sum raw products of 2 (q - 1)-bounded operands.  The inverse
  and fold bounds then stay within int32 up to the final scale.
"""

from __future__ import annotations

import numpy as np

# The largest magnitude each array class holds exactly, by scalar type
# and by dtype; None: Python ints, which cannot overflow.
LIMITS = {np.int32: (1 << 31) - 1, np.int64: (1 << 63) - 1, np.float64: 1 << 53, object: None}
LIMITS.update({np.dtype(t): v for t, v in LIMITS.items()})

# Moduli below this run int64 buffers: 2 q^2 fits int64 exactly up to it.
VECTOR_LIMIT = 1 << 31

INT64 = "int64"
FLOAT64 = "float64"
FLOAT64_LIMB = "float64-limb"
OBJECT = "object"
# The widest int64 stage: numpy's int64 matmul has no BLAS path, and its
# 2^k multiply-adds per value grow faster than the numpy calls they save
# beyond k = 4 (timed at n = 256 .. 1024).
STAGE_CAP = 4
# The float64 class: BLAS matmuls of width 2^FLOAT_WIDTH.  It pays on
# schedules of FLOAT_LEVELS levels or FLOAT_POINTS points, and where q
# holds the int64 width below STAGE_CAP (near 2^31 the int64 class runs
# one level per stage).  Per product against the int64 class, interleaved
# in one process (2-vCPU VM): ntru-509's 2048 points 0.63 of its time,
# ntru-821's 0.71, falcon-1024 0.53, falcon-512 0.71 (1.14 in benchmark
# rounds, caches cold), the trinomial route's 768 points in 8 levels 0.68.
# At 256 points (8 levels) it loses: one forward row takes 29 us against
# 22 us for kyber and dilithium; two rows break even.
FLOAT_WIDTH = 5
FLOAT_LEVELS = 9
FLOAT_POINTS = 512
# The object class, from 2^31 up: its entries are Python ints, so a wider
# stage saves numpy calls but adds Python multiply-adds per entry.  k = 2
# was the fastest on full NWC products mod 2151677953 at 64-1024 points;
# k = 1 and k = 3 took 1.10-1.28 times its time at 256 and 1024 points
# (interleaved in one process, 2-vCPU VM).
OBJECT_WIDTH = 2


def fits(dtype, a: int, b: int = 1, terms: int = 1, extra: int = 0) -> bool:
    """Whether ``terms`` products, each at most a b in magnitude, plus
    ``extra``, stay within the limit of ``dtype``."""
    top = LIMITS[dtype]
    return top is None or terms * a * b + extra <= top


def vectorized(q: int) -> bool:
    """True when buffers mod q are int64, else ``object`` (the module
    docstring): from q alone, with the same residues and op counts."""
    return q < VECTOR_LIMIT


def centered_input(q: int, p: int) -> bool:
    """Whether operands centered mod q run mod p unreduced (above)."""
    return q // 2 <= p - 1


def stage_class(q: int, levels: int, points: int) -> tuple:
    """(class, width) of the merged stages of a ``levels``-level schedule
    of ``points`` points (its buffer length) mod q (the module docstring):
    object on ``object`` buffers; int64 on short schedules whose q holds
    its width; else float64, in one matrix where it is exact, else limbs."""
    if not vectorized(q):
        return OBJECT, OBJECT_WIDTH
    exact = fits(np.float64, q // 2, q - 1, 1 << FLOAT_WIDTH, q)
    if levels < FLOAT_LEVELS and not (exact and points >= FLOAT_POINTS) \
            and fits(np.int64, q - 1, q - 1, 1 << STAGE_CAP):
        return INT64, STAGE_CAP
    return (FLOAT64 if exact else FLOAT64_LIMB), FLOAT_WIDTH


def grow(factor: int, dtype, extra: int = 0):
    """A step for ``walk`` that multiplies the bound by ``factor`` in
    ``dtype``, whose results plus ``extra`` must fit."""
    return lambda b: factor * b if fits(dtype, factor, b, 1, extra) else None


def leaves(L: int, q: int, dtype):
    """The step of the leaf kernel on length-L columns in ``dtype``, for
    ``walk``: canonical output, on lazy sums of raw products or on
    canonical operands reduced product by product (the module docstring)."""
    top = q - 1
    return lambda b: top if fits(dtype, b, b, L) or b <= top and fits(dtype, top, top + L) else None


def walk(steps, start: int, reduced: int, early=()) -> tuple | None:
    """Where a chain of unreduced steps reduces.

    ``steps[i]`` maps a bound on the magnitude of its input's entries to
    one on its output's, or to None where the step would pass its limit.
    The bound starts at ``start``; a reduction leaves at most ``reduced``.
    It goes right before a step that would pass its limit, and nowhere
    else, except that for i in ``early`` it goes one point earlier, before
    step i - 1, where step i takes what step i - 1 makes of reduced input;
    later steps then fit wherever they did, as each fits on reduced input.
    The caller reduces the chain's output.

    Returns (reduce, inputs): reduce[i] true where the chain reduces right
    before step i, inputs[i] the bound on step i's input.  None when a
    step passes its limit even on reduced input.
    """
    reduce, inputs, bound = [], [], start
    for i, step in enumerate(steps):
        now = step(bound) is None
        if now and i in early:
            moved = steps[i - 1](reduced)
            if moved is not None and step(moved) is not None:
                reduce[i - 1], inputs[i - 1], now, bound = True, reduced, False, moved
        if now:
            bound = reduced
        out = step(bound)
        if out is None:
            return None
        reduce.append(now)
        inputs.append(bound)
        bound = out
    return tuple(reduce), tuple(inputs)
