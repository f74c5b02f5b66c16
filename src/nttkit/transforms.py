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

Two kernels run these levels and give identical values and op counts:
the pure-Python reference ``_run_passes``, and an int64 numpy kernel
(one reshape-and-broadcast per level over a precomputed ``Schedule``)
used whenever the modulus is below 2^31.  Both read every twiddle as a
strided slice of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modarith
from .errors import OrderMismatch, RingMismatch, SpecViolation

CC = "CC"
NWC = "NWC"
CT = "CT"
GS = "GS"
FORWARD = "forward"
INVERSE = "inverse"
NATURAL = modarith.NATURAL
BIT_REVERSED = modarith.BIT_REVERSED

bitrev = modarith.bitrev


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


@dataclass
class NttDomainPoly:
    """Transform-domain values tagged with the spec that produced them.

    ``values`` is a flat length-n buffer; chunk p of length leaf_degree
    holds the image in the p-th residue ring of the cropped CRT map.
    """

    values: list
    spec: TransformSpec
    ring: object
    leaf_degree: int = 1

    def compatible(self, other: "NttDomainPoly") -> bool:
        return self.spec == other.spec and self.ring == other.ring

    def add(self, other: "NttDomainPoly") -> "NttDomainPoly":
        if not self.compatible(other):
            from .errors import SpecMismatch

            raise SpecMismatch("cannot combine values from different specs")
        q = self.ring.q
        c = modarith.active_counter()
        if c is not None:
            c.adds += len(self.values)
        vals = [(x + y) % q for x, y in zip(self.values, other.values)]
        return NttDomainPoly(vals, self.spec, self.ring, self.leaf_degree)

    def sub(self, other: "NttDomainPoly") -> "NttDomainPoly":
        if not self.compatible(other):
            from .errors import SpecMismatch

            raise SpecMismatch("cannot combine values from different specs")
        q = self.ring.q
        c = modarith.active_counter()
        if c is not None:
            c.subs += len(self.values)
        vals = [(x - y) % q for x, y in zip(self.values, other.values)]
        return NttDomainPoly(vals, self.spec, self.ring, self.leaf_degree)

    def scale(self, s: int) -> "NttDomainPoly":
        q = self.ring.q
        c = modarith.active_counter()
        if c is not None:
            c.mults += len(self.values)
        vals = [x * s % q for x in self.values]
        return NttDomainPoly(vals, self.spec, self.ring, self.leaf_degree)


# ---------------------------------------------------------------------------
# butterflies (reference kernels; the passes below inline the same math)


def butterfly_ct(u: int, v: int, w: int, m: int) -> tuple:
    """(u + w*v, u - w*v) mod m, with w*v computed once."""
    t = modarith.mod_mul(w, v, m)
    return modarith.mod_add(u, t, m), modarith.mod_sub(u, t, m)


def butterfly_gs(u: int, v: int, w: int, m: int) -> tuple:
    """(u + v, (u - v)*w) mod m."""
    return modarith.mod_add(u, v, m), modarith.mod_mul(modarith.mod_sub(u, v, m), w, m)


def butterfly_gs_half(u: int, v: int, w: int, m: int) -> tuple:
    """GS butterfly with the per-level halving folded in (odd m only)."""
    s, d = butterfly_gs(u, v, w, m)
    return modarith.mod_half(s, m), modarith.mod_half(d, m)


# ---------------------------------------------------------------------------
# schedule


def _levels(spec: TransformSpec, m: int):
    """Chunk-level half-lengths in execution order."""
    ls = []
    half = m // 2
    l = 1
    while l <= half:
        ls.append(l)
        l <<= 1
    if spec.in_order == NATURAL:
        ls.reverse()
    return ls


def _block_twiddled(spec: TransformSpec) -> bool:
    """One twiddle per block (else one per offset j, shared by all blocks)."""
    return (spec.butterfly == CT) == (spec.in_order == NATURAL)


def _twiddle_order(spec: TransformSpec) -> str:
    return BIT_REVERSED if _block_twiddled(spec) else NATURAL


def _level_geometry(spec: TransformSpec, m: int):
    """Yield (level, nblocks, half, start, step) in execution order.

    Twiddle i of a level (per block or per offset, see _block_twiddled)
    is ``tw.ordered(_twiddle_order(spec))[start + step * i]``: block
    twiddles are strided slices of the bit-reversed table, offset
    twiddles strided slices of the natural one, so no exponent is ever
    bit-reversed at run time.
    """
    nega = spec.conv_kind == NWC
    block_tw = _block_twiddled(spec)
    for lvl, half in enumerate(_levels(spec, m)):
        nblocks = m // (2 * half)
        if block_tw:
            # bit-reversed index of half*(2*brv(i)+1) resp. half*brv(i)
            start, step = (2 * nblocks, 2) if nega else (0, 2)
        else:
            # natural index (2j+1)*nblocks resp. j*nblocks
            start, step = (nblocks, 2 * nblocks) if nega else (0, nblocks)
        yield lvl, nblocks, half, start, step


def butterfly_schedule(spec: TransformSpec, n: int):
    """Yield (level, lo, hi, exponent) for each chunk butterfly, in order.

    Exponents index the table root directly (negated by inverse tables),
    so replaying the schedule with butterfly_ct/butterfly_gs reproduces
    the kernel exactly.
    """
    m = n >> spec.beta
    nega = spec.conv_kind == NWC
    block_tw = _block_twiddled(spec)
    for lvl, half in enumerate(_levels(spec, m)):
        nblocks = m // (2 * half)
        for i in range(nblocks):
            base = i * 2 * half
            if block_tw:
                e = 2 * bitrev(i, nblocks) + 1 if nega else bitrev(i, nblocks)
                e *= half
            for j in range(half):
                if not block_tw:
                    e = (2 * j + 1) * nblocks if nega else j * nblocks
                yield lvl, base + j, base + j + half, e


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-level int64 twiddle vectors of one (spec, table, n), built once.

    ``levels[l] = (nblocks, half, twiddles)``, the twiddles shaped to
    broadcast against the (nblocks, half, chunk) halves of level l.  Only
    built for moduli below ``modarith.VECTOR_LIMIT``; never mutated.
    """

    spec: TransformSpec
    table: modarith.TwiddleTable
    n: int
    levels: tuple


def make_schedule(spec: TransformSpec, tw, n: int) -> Schedule:
    """Slice the table into the per-level twiddle vectors of ``spec``."""
    if not modarith.vectorized(tw.modulus):
        raise SpecViolation(f"modulus {tw.modulus} is too large for the int64 kernel")
    m = n >> spec.beta
    block_tw = _block_twiddled(spec)
    src = np.array(tw.ordered(_twiddle_order(spec)), dtype=np.int64)
    levels = []
    for _, nblocks, half, start, step in _level_geometry(spec, m):
        count = nblocks if block_tw else half
        w = src[start : start + step * count : step]
        levels.append((nblocks, half, w.reshape((nblocks, 1, 1) if block_tw else (half, 1))))
    return Schedule(spec, tw, n, tuple(levels))


# ---------------------------------------------------------------------------
# in-place passes (reference kernel)


def _run_passes(a, q, tw, spec, n, halving=False, on_level=None):
    """Apply all butterfly levels of ``spec`` to buffer ``a`` in place.

    The pure-Python reference kernel; it also serves moduli of 2^31 and
    above.  Allocates no length-n scratch; only per-level twiddle slices
    of at most m/2 entries for the offset-twiddled variants.
    """
    chunk = 1 << spec.beta
    m = n >> spec.beta
    ct = spec.butterfly == CT
    block_tw = _block_twiddled(spec)
    src = tw.ordered(_twiddle_order(spec))
    ctr = modarith.active_counter()
    half_q = (q + 1) >> 1
    for lvl, nblocks, half, start, step in _level_geometry(spec, m):
        flat = half * chunk
        if block_tw:
            pos = 0
            for i in range(nblocks):
                z = src[start + step * i]
                end = pos + flat
                if ct:
                    for j in range(pos, end):
                        t = z * a[j + flat] % q
                        u = a[j]
                        a[j] = (u + t) % q
                        a[j + flat] = (u - t) % q
                else:
                    for j in range(pos, end):
                        u = a[j]
                        v = a[j + flat]
                        a[j] = (u + v) % q
                        a[j + flat] = (u - v) * z % q
                pos = end + flat
        else:
            zl = src[start : start + step * half : step]
            for b in range(nblocks):
                base = b * 2 * flat
                for j in range(half):
                    z = zl[j]
                    off = base + j * chunk
                    if ct:
                        for p in range(off, off + chunk):
                            t = z * a[p + flat] % q
                            u = a[p]
                            a[p] = (u + t) % q
                            a[p + flat] = (u - t) % q
                    else:
                        for p in range(off, off + chunk):
                            u = a[p]
                            v = a[p + flat]
                            a[p] = (u + v) % q
                            a[p + flat] = (u - v) * z % q
        if halving:
            for j in range(n):
                x = a[j]
                a[j] = ((x >> 1) + (x & 1) * half_q) % q
        if ctr is not None:
            nbf = nblocks * flat
            ctr.mults += nbf
            ctr.adds += nbf
            ctr.subs += nbf
        if on_level is not None:
            on_level(lvl, a)


# ---------------------------------------------------------------------------
# int64 kernel (moduli below modarith.VECTOR_LIMIT)


def ct_level(x, nblocks: int, half: int, chunk: int, w, q: int) -> None:
    """One CT level in place: (u, v) -> (u + w*v, u - w*v) mod q.

    ``x`` is a contiguous int64 array of nblocks*2*half*chunk canonical
    residues; ``w`` broadcasts against shape (nblocks, half, chunk).  Both
    halves are reduced by one pass over ``x``.
    """
    y = x.reshape(nblocks, 2, half, chunk)
    u, v = y[:, 0], y[:, 1]
    t = v * w
    t %= q
    np.subtract(u, t, out=v)
    u += t
    x %= q


def gs_level(x, nblocks: int, half: int, chunk: int, w, q: int) -> None:
    """One GS level in place: (u, v) -> (u + v, (u - v)*w) mod q."""
    y = x.reshape(nblocks, 2, half, chunk)
    u, v = y[:, 0], y[:, 1]
    d = u - v
    u += v
    np.multiply(d, w, out=v)
    x %= q


def _run_levels(x, q, sched: Schedule, halving=False, on_level=None) -> None:
    """The int64 twin of _run_passes over a precomputed schedule, in place."""
    spec = sched.spec
    chunk = 1 << spec.beta
    level = ct_level if spec.butterfly == CT else gs_level
    ctr = modarith.active_counter()
    half_q = (q + 1) >> 1
    for lvl, (nblocks, half, w) in enumerate(sched.levels):
        level(x, nblocks, half, chunk, w, q)
        if halving:
            odd = x & 1
            x >>= 1
            odd *= half_q
            x += odd
            x %= q
        if ctr is not None:
            nbf = nblocks * half * chunk
            ctr.mults += nbf
            ctr.adds += nbf
            ctr.subs += nbf
        if on_level is not None:
            on_level(lvl, x.tolist())


def _transform(values, q, tw, spec, n, schedule, halving=False, on_level=None, scale=1) -> list:
    """Passes of ``spec`` on a copy of ``values``, then times ``scale``.

    The kernel is picked by the modulus alone.
    """
    if not modarith.vectorized(q):
        out = list(values)
        _run_passes(out, q, tw, spec, n, halving=halving, on_level=on_level)
        return out if scale == 1 else [v * scale % q for v in out]
    if schedule is None:
        schedule = make_schedule(spec, tw, n)
    elif schedule.table is not tw or schedule.spec != spec or schedule.n != n:
        raise SpecViolation("schedule was built for another table, spec or length")
    x = np.array(values, dtype=np.int64)
    _run_levels(x, q, schedule, halving=halving, on_level=on_level)
    if scale != 1:
        x *= scale
        x %= q
    return x.tolist()


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


def _check_ring_form(ring, spec):
    # rings module is import-light here on purpose; duck-typed ring
    form = getattr(ring, "form", None)
    if form is None:
        return
    from . import rings

    want = rings.XN_PLUS_1 if spec.conv_kind == NWC else rings.XN_MINUS_1
    if form != want:
        raise SpecViolation(f"{spec.conv_kind} transform over ring form {form!r}")


def ntt_forward(a, tw, spec: TransformSpec, on_level=None, schedule=None) -> NttDomainPoly:
    """Forward transform of a Poly; returns tagged transform-domain values.

    The input is copied once into the result buffer and the butterfly
    passes then run in place on it: the int64 kernel over ``schedule``
    (built from ``tw`` when not given) for moduli below 2^31, else the
    reference kernel.  ``on_level(level, values)`` sees the buffer after
    each level.
    """
    if spec.direction != FORWARD:
        raise SpecViolation("ntt_forward requires a forward spec")
    n, q = a.ring.n, a.ring.q
    _check_table(tw, spec, n, q, expect_inverse=False)
    _check_ring_form(a.ring, spec)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.forward_transforms += 1
    values = _transform(a.coeffs, q, tw, spec, n, schedule, on_level=on_level)
    return NttDomainPoly(values, spec, a.ring, 1 << spec.beta)


def ntt_inverse(ahat: NttDomainPoly, tw_inv, spec: TransformSpec, halving=False, on_level=None,
                schedule=None):
    """Inverse transform back to a Poly; exact inverse of ntt_forward.

    The per-level factor 2 is deferred into one final scaling by
    (n/2^beta)^-1, or folded into each level when halving is set
    (identical outputs, tested).  Kernel choice as in ntt_forward.
    """
    from .rings import Poly

    if spec.direction != INVERSE:
        raise SpecViolation("ntt_inverse requires an inverse spec")
    fs = ahat.spec
    if fs.conv_kind != spec.conv_kind or fs.beta != spec.beta:
        raise SpecViolation("inverse spec does not pair with the forward spec")
    if spec.in_order != fs.out_order:
        raise SpecViolation("inverse input ordering must match forward output")
    n, q = ahat.ring.n, ahat.ring.q
    _check_table(tw_inv, spec, n, q, expect_inverse=True)
    if halving and q % 2 == 0:
        raise SpecViolation("halving mode needs an odd modulus")
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.inverse_transforms += 1
    scale = 1 if halving else modarith.mod_inv(n >> spec.beta, q)
    values = _transform(ahat.values, q, tw_inv, spec, n, schedule, halving, on_level, scale)
    if not halving and ctr is not None:
        ctr.mults += n
    return Poly(values, ahat.ring)


# ---------------------------------------------------------------------------
# reordering


def reorder(values, chunk=1):
    """Bit-reversal permutation of chunks; its own inverse, so one function
    serves both directions."""
    m = len(values) // chunk
    if m & (m - 1):
        raise SpecViolation("reorder needs a power-of-two chunk count")
    out = [0] * len(values)
    for i in range(m):
        j = bitrev(i, m)
        out[i * chunk : (i + 1) * chunk] = values[j * chunk : (j + 1) * chunk]
    return out


# ---------------------------------------------------------------------------
# separate pre/post-processing variants (negacyclic via a cyclic core)
#
# The merged transforms above fold the extra n multiplications into the
# butterflies; these keep them explicit, which costs + n (forward) and
# + n (inverse) multiplications and serves as a cross-check.


def nwc_forward_separate(a, cc_tw, psi_tw, spec: TransformSpec, on_level=None) -> NttDomainPoly:
    """Scale by psi powers, then run the plain cyclic forward transform."""
    if spec.conv_kind != CC or spec.direction != FORWARD or spec.beta != 0:
        raise SpecViolation("separate preprocessing wraps a full cyclic spec")
    n, q = a.ring.n, a.ring.q
    if psi_tw.order != 2 * n or psi_tw.inverse:
        raise OrderMismatch("psi table must hold 2n forward powers")
    _check_table(cc_tw, spec, n, q, expect_inverse=False)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.forward_transforms += 1
        ctr.mults += n
    if spec.in_order == NATURAL:
        values = [a.coeffs[i] * psi_tw.power_of_base(i) % q for i in range(n)]
    else:  # buffer arrives bit-reversed; scale positionwise to match
        values = [a.coeffs[i] * psi_tw.power_of_base(bitrev(i, n)) % q for i in range(n)]
    _run_passes(values, q, cc_tw, spec, n, on_level=on_level)
    return NttDomainPoly(values, spec, a.ring, 1)


def nwc_inverse_separate(ahat: NttDomainPoly, cc_tw_inv, psi_tw_inv, spec: TransformSpec):
    """Plain cyclic inverse transform followed by psi^-1 post-scaling."""
    from .rings import Poly

    if spec.conv_kind != CC or spec.direction != INVERSE or spec.beta != 0:
        raise SpecViolation("separate postprocessing wraps a full cyclic spec")
    n, q = ahat.ring.n, ahat.ring.q
    if psi_tw_inv.order != 2 * n or not psi_tw_inv.inverse:
        raise OrderMismatch("psi table must hold 2n inverse powers")
    _check_table(cc_tw_inv, spec, n, q, expect_inverse=True)
    if spec.in_order != ahat.spec.out_order:
        raise SpecViolation("inverse input ordering must match forward output")
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.inverse_transforms += 1
    values = list(ahat.values)
    _run_passes(values, q, cc_tw_inv, spec, n)
    s = modarith.mod_inv(n, q)
    if spec.out_order == NATURAL:
        for i in range(n):
            values[i] = values[i] * s % q * psi_tw_inv.power_of_base(i) % q
    else:
        for i in range(n):
            values[i] = values[i] * s % q * psi_tw_inv.power_of_base(bitrev(i, n)) % q
    if ctr is not None:
        ctr.mults += 2 * n
    return Poly(values, ahat.ring)
