"""Coefficient-interleaving ring splitting and the Pt/K/H-NTT strategies.

Splitting depth alpha sends Z_q[x]/(x^n +- 1) into 2^alpha interleaved
sub-polynomials over Z_q[y]/(y^(n/2^alpha) +- 1) with x^(2^alpha) = y; a
pure reordering both ways.  The three strategies differ only in how the
cross products of the sub-polynomials are accumulated in the transform
domain:

* pt:  plain sums; the y-shifted images come from the evaluated-y
       diagonal, so a product costs 2^(alpha+1) forward and 2^alpha
       inverse transforms.
* k:   one-iteration Karatsuba on symmetric cross-product pairs.
* h:   k plus a cropped (incomplete) inner transform and Karatsuba leaf
       products, weakening the congruence to 2n/2^(alpha+beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import polymul
from .errors import BadAlpha, RingMismatch
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, RingSpec
from .transforms import NttDomainPoly


@dataclass
class SplitPoly:
    """2^alpha interleaved parts of a parent polynomial."""

    parts: list
    alpha: int
    parent: RingSpec


def _small_ring(parent: RingSpec, alpha: int) -> RingSpec:
    if parent.form not in (XN_MINUS_1, XN_PLUS_1):
        raise RingMismatch("splitting applies to x^n - 1 and x^n + 1 rings")
    step = 1 << alpha
    if alpha < 0 or parent.n % step:
        raise BadAlpha(f"2^{alpha} does not divide n={parent.n}")
    return RingSpec(parent.form, parent.n >> alpha, parent.q)


def split(a: Poly, alpha: int) -> SplitPoly:
    """parts[i][j] = a_{2^alpha * j + i}; the identity mapping at alpha=0."""
    small = _small_ring(a.ring, alpha)
    step = 1 << alpha
    parts = [a.coeffs[i::step] for i in range(step)]
    return SplitPoly([Poly(p, small) for p in parts], alpha, a.ring)


def unsplit(s: SplitPoly) -> Poly:
    step = 1 << s.alpha
    out = [0] * s.parent.n
    for i, part in enumerate(s.parts):
        out[i::step] = part.coeffs
    return Poly(out, s.parent)


def shift_by_y(part: Poly) -> Poly:
    """Multiply by y in the small ring: rotate up, wrap with the form's sign."""
    q = part.ring.q
    wrapped = part.coeffs[-1]
    if part.ring.form == XN_PLUS_1:
        wrapped = (-wrapped) % q
    return Poly([wrapped] + part.coeffs[:-1], part.ring)


def _inner_pair(parent: RingSpec, alpha: int, beta: int) -> polymul.TransformPair:
    return polymul.make_transform_pair(_small_ring(parent, alpha), beta)


def _y_image(inner: polymul.TransformPair) -> NttDomainPoly:
    return NttDomainPoly(inner.y_domain, inner.fwd_spec, inner.ring, 1 << inner.beta)


def _strategy_multiply(a, b, alpha, inner, karatsuba_cross, karatsuba_leaf):
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    if inner is None:
        inner = _inner_pair(a.ring, alpha, 0)
    if alpha == 0:
        return polymul.ntt_multiply(a, b, inner, use_karatsuba=karatsuba_leaf)
    step = 1 << alpha
    sa, sb = split(a, alpha), split(b, alpha)
    A = [inner.forward(p) for p in sa.parts]
    B = [inner.forward(p) for p in sb.parts]
    yhat = _y_image(inner)
    pw = lambda X, Y: inner.pointwise(X, Y, use_karatsuba=karatsuba_leaf)

    # degree sums S_d = sum_{l+k=d} A_l o B_k, d = 0 .. 2*step-2
    sums = [None] * (2 * step - 1)

    def acc(d, term):
        sums[d] = term if sums[d] is None else sums[d].add(term)

    if karatsuba_cross:
        diag = [pw(A[i], B[i]) for i in range(step)]
        for i in range(step):
            acc(2 * i, diag[i])
        for i in range(step):
            for j in range(i + 1, step):
                cross = inner.pointwise(A[i].add(A[j]), B[i].add(B[j]), karatsuba_leaf)
                acc(i + j, cross.sub(diag[i]).sub(diag[j]))
    else:
        # y-shifted images of a, computed once per multiplicand
        Adot = [None] + [pw(A[l], yhat) for l in range(1, step)]
        for i in range(step):
            for l in range(i + 1):
                acc(i, pw(A[l], B[i - l]))
            for l in range(i + 1, step):
                acc(i, pw(Adot[l], B[step + i - l]))

    parts = []
    for i in range(step):
        total = sums[i]
        if karatsuba_cross and step + i < len(sums) and sums[step + i] is not None:
            total = total.add(pw(yhat, sums[step + i]))
        parts.append(inner.inverse(total))
    return unsplit(SplitPoly(parts, alpha, a.ring))


def ptntt_multiply(a: Poly, b: Poly, alpha: int, inner=None) -> Poly:
    """Split, transform all parts, accumulate plain cross sums, gather."""
    return _strategy_multiply(a, b, alpha, inner, karatsuba_cross=False, karatsuba_leaf=False)


def kntt_multiply(a: Poly, b: Poly, alpha: int, inner=None) -> Poly:
    """ptntt with one-iteration Karatsuba across symmetric part pairs."""
    return _strategy_multiply(a, b, alpha, inner, karatsuba_cross=True, karatsuba_leaf=False)


def hntt_multiply(a: Poly, b: Poly, alpha: int, beta: int, inner=None) -> Poly:
    """kntt with a beta-cropped inner transform and Karatsuba leaf products."""
    if inner is None:
        inner = _inner_pair(a.ring, alpha, beta)
    elif inner.beta != beta:
        raise BadAlpha(f"inner pair has beta={inner.beta}, expected {beta}")
    return _strategy_multiply(a, b, alpha, inner, karatsuba_cross=True, karatsuba_leaf=True)


class SplitExecutor:
    """Plan executor of split-pt, split-k and hntt: the (cropped) inner pair
    over the split ring, built on first use."""

    def __init__(self, ring: RingSpec, alpha: int, beta: int, karatsuba_cross: bool,
                 karatsuba_leaf: bool):
        polymul.check_pair_ring(_small_ring(ring, alpha), beta)
        self.ring, self.alpha, self.beta = ring, alpha, beta
        self.karatsuba = (karatsuba_cross, karatsuba_leaf)

    @cached_property
    def inner(self) -> polymul.TransformPair:
        return _inner_pair(self.ring, self.alpha, self.beta)

    def multiply(self, a: Poly, b: Poly) -> Poly:
        return _strategy_multiply(a, b, self.alpha, self.inner, *self.karatsuba)
