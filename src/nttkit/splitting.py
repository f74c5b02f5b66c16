"""Coefficient-interleaving ring splitting and the Pt/K/H-NTT strategies.

Splitting depth alpha sends Z_q[x]/(x^n +- 1) into 2^alpha interleaved
sub-polynomials over Z_q[y]/(y^(n/2^alpha) +- 1) with x^(2^alpha) = y; a
pure reordering both ways.  On a length-n coefficient array, part i is
column i of its (n/2^alpha, 2^alpha) reshape, and the parts of the
product are written back into the columns of one such array.  The three
strategies differ only in how the cross products of the sub-polynomials
are accumulated in the transform domain:

* pt:  plain sums; the y-shifted images come from the evaluated-y
       diagonal, so a product costs 2^(alpha+1) forward and 2^alpha
       inverse transforms.
* k:   one-iteration Karatsuba on symmetric cross-product pairs.
* h:   k plus a cropped (incomplete) inner transform and Karatsuba leaf
       products, weakening the congruence to 2n/2^(alpha+beta).

A plan runs ``SplitExecutor``, a ``bigmod.LiftedExecutor`` over q whose
one table is the inner pair.
"""

from __future__ import annotations

import numpy as np

from . import bigmod, polymul, transforms
from .errors import BadAlpha, RingMismatch
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, RingSpec
from .transforms import NttDomainPoly


def _small_ring(parent: RingSpec, alpha: int) -> RingSpec:
    if parent.form not in (XN_MINUS_1, XN_PLUS_1):
        raise RingMismatch("splitting applies to x^n - 1 and x^n + 1 rings")
    step = 1 << alpha
    if alpha < 0 or parent.n % step:
        raise BadAlpha(f"2^{alpha} does not divide n={parent.n}")
    return RingSpec(parent.form, parent.n >> alpha, parent.q)


def _split_product(x, y, alpha, inner, karatsuba_cross, karatsuba_leaf) -> np.ndarray:
    """x*y for two length-n arrays of canonical coefficients, through the
    inner pair over the split ring; returns the product's buffer."""
    step = 1 << alpha
    A = [inner.forward(p) for p in x.reshape(-1, step).T]
    B = [inner.forward(p) for p in y.reshape(-1, step).T]
    yhat = NttDomainPoly(inner.y_domain, inner.fwd_spec, inner.ring, 1 << inner.beta)
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
                cross = pw(A[i].add(A[j]), B[i].add(B[j]))
                acc(i + j, cross.sub(diag[i]).sub(diag[j]))
    else:
        # y-shifted images of a, computed once per multiplicand
        Adot = [None] + [pw(A[l], yhat) for l in range(1, step)]
        for i in range(step):
            for l in range(i + 1):
                acc(i, pw(A[l], B[i - l]))
            for l in range(i + 1, step):
                acc(i, pw(Adot[l], B[step + i - l]))

    out = np.empty((len(x) >> alpha, step), dtype=transforms.buffer_dtype(inner.ring.q))
    for i in range(step):
        total = sums[i]
        if karatsuba_cross and step + i < len(sums):
            total = total.add(pw(yhat, sums[step + i]))
        out[:, i] = inner.inverse(total, as_buffer=True)
    return out.ravel()


def _strategy_multiply(a, b, alpha, beta, inner, karatsuba_cross, karatsuba_leaf):
    if a.ring != b.ring:
        raise RingMismatch("operands belong to different rings")
    small = _small_ring(a.ring, alpha)
    if inner is None:
        inner = polymul.make_transform_pair(small, beta)
    elif inner.ring != small:  # the pair takes the bare-array parts to be over its own ring
        raise RingMismatch(f"inner pair is over {inner.ring}, the split ring is {small}")
    c = _split_product(a.to_array(), b.to_array(), alpha, inner, karatsuba_cross, karatsuba_leaf)
    return Poly.from_array(c, a.ring)


def ptntt_multiply(a: Poly, b: Poly, alpha: int, inner=None) -> Poly:
    """Split, transform all parts, accumulate plain cross sums, gather."""
    return _strategy_multiply(a, b, alpha, 0, inner, karatsuba_cross=False, karatsuba_leaf=False)


def kntt_multiply(a: Poly, b: Poly, alpha: int, inner=None) -> Poly:
    """ptntt with one-iteration Karatsuba across symmetric part pairs."""
    return _strategy_multiply(a, b, alpha, 0, inner, karatsuba_cross=True, karatsuba_leaf=False)


def hntt_multiply(a: Poly, b: Poly, alpha: int, beta: int, inner=None) -> Poly:
    """kntt with a beta-cropped inner transform and Karatsuba leaf products."""
    if inner is not None and inner.beta != beta:
        raise BadAlpha(f"inner pair has beta={inner.beta}, expected {beta}")
    return _strategy_multiply(a, b, alpha, beta, inner, karatsuba_cross=True, karatsuba_leaf=True)


class SplitExecutor(bigmod.LiftedExecutor):
    """Plan executor of split-pt, split-k and hntt, over q: its table is
    the (cropped) inner pair over the split ring."""

    def __init__(self, ring: RingSpec, alpha: int, beta: int, karatsuba_cross: bool,
                 karatsuba_leaf: bool):
        polymul.check_pair_ring(_small_ring(ring, alpha), beta)
        super().__init__(ring, ring.q)
        self.alpha, self.beta = alpha, beta
        self.karatsuba = (karatsuba_cross, karatsuba_leaf)

    def table(self, p: int) -> polymul.TransformPair:
        return polymul.make_transform_pair(_small_ring(self.ring, self.alpha), self.beta)

    def run(self, x, y, inner):
        return _split_product(x, y, self.alpha, inner, *self.karatsuba)
