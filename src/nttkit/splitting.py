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

The parts go through the inner pair's array cores as bare buffers, and
the cross sums are arithmetic on them (``transforms.mod_op``,
``polymul.pointwise_rows`` and ``polymul.pointwise_sums``), on int64 or
``object`` buffers alike: k and h take the diagonal and pair-sum rows in
one leaf pass, and every product by y is a rotation (``times_y``).  Plans
and one-shots run ``SplitExecutor``, a ``bigmod.LiftedExecutor`` over q
whose one table is the inner pair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import bigmod, modarith, polymul, transforms
from .errors import BadAlpha, RingMismatch
from .rings import XN_MINUS_1, XN_PLUS_1, Poly, RingSpec


def _small_ring(parent: RingSpec, alpha: int) -> RingSpec:
    if parent.form not in (XN_MINUS_1, XN_PLUS_1):
        raise RingMismatch("splitting applies to x^n - 1 and x^n + 1 rings")
    if alpha < 0 or parent.n % (1 << alpha):
        raise BadAlpha(f"2^{alpha} does not divide n={parent.n}")
    return RingSpec(parent.form, parent.n >> alpha, parent.q)


@lru_cache(maxsize=None)
def _cross_layout(step: int) -> tuple:
    """Read-only integer matrices of ``step`` parts, pairs i < j: [A; B] to
    [A; A_i + A_j; B; B_i + B_j]; the diagonal and pair products to the sums
    by degree (each pair product less both diagonals); and the gather of
    A_0 .. A_(step-1), y A_1 .. y A_(step-1) into the plain sums."""
    d, (i, j), eye = np.arange(step), np.triu_indices(step, 1), np.eye(step, dtype=int)
    kara = np.eye(step + len(i), dtype=int)
    kara[step:, :step] -= eye[i] + eye[j]
    by_degree = (np.arange(2 * step - 1)[:, None] == np.concatenate((2 * d, i + j))).astype(int)
    sums = np.kron(np.eye(2, dtype=int), np.vstack((eye, eye[i] + eye[j])))
    return tuple(map(transforms.read_only, (sums, by_degree @ kara, (d[:, None] - d) % (2 * step - 1))))


def _split_product(X, alpha, inner, karatsuba_cross, karatsuba_leaf) -> np.ndarray:
    """x*y for an operand stack X = (x, y), a (2, n) working buffer of
    canonical coefficients, through the inner pair over the split ring, as
    a buffer: the 2^(alpha+1) parts, gathered from X, go forward as one
    batch, the cross sums are array arithmetic over it, and the 2^alpha
    parts of the product come back as one batch."""
    step, q, L = 1 << alpha, inner.ring.q, 1 << inner.beta
    pair_sums, combine, shifted = _cross_layout(step)
    parts = X.reshape(2, -1, step).transpose(0, 2, 1).reshape(2 * step, -1)
    X = transforms.ntt_forward(parts, inner.fwd_tw, inner.fwd_spec)
    if karatsuba_cross:
        # S_d = sum_{l+k=d} A_l o B_k from the diagonal and one Karatsuba
        # product per pair, in one pass; part i of the product is S_i + y S_(step+i)
        Z, h = pair_sums @ X % q, combine.shape[1]
        S = combine @ polymul.pointwise_rows(Z[:h], Z[h:], L, inner.leaf_vector, q, karatsuba_leaf) % q
        ctr = modarith.active_counter()
        if ctr is not None:  # the pair sums, two subs per pair product, the sums by degree
            ctr.adds += (len(Z) - len(X) + h - len(S)) * S.shape[1]
            ctr.subs += 2 * (h - step) * S.shape[1]
        S[: step - 1] = transforms.mod_op(np.add, S[: step - 1], inner.times_y(S[step:], karatsuba_leaf),
                                          q, "adds")
        sums = S[:step]
    else:  # S_i = sum_(l <= i) A_l o B_(i-l) + sum_(l > i) y A_l o B_(step+i-l)
        A, B = X[:step], X[step:]
        images = np.concatenate((A, inner.times_y(A[1:], karatsuba_leaf)))
        sums = polymul.pointwise_sums(images[shifted], B, L, inner.leaf_vector, q)
    return transforms.ntt_inverse(sums, inner.inv_tw, inner.inv_spec).T.ravel()


class SplitExecutor(bigmod.LiftedExecutor):
    """Executor of split-pt, split-k and hntt plans and one-shots, over q:
    its table is the (cropped) inner pair over the split ring."""

    def __init__(self, ring: RingSpec, alpha: int, beta: int, karatsuba_cross: bool,
                 karatsuba_leaf: bool):
        polymul.check_pair_ring(_small_ring(ring, alpha), beta)
        super().__init__(ring, ring.q)
        self.alpha, self.beta = alpha, beta
        self.karatsuba = (karatsuba_cross, karatsuba_leaf)

    def table(self, p: int) -> polymul.TransformPair:
        return polymul.make_transform_pair(_small_ring(self.ring, self.alpha), self.beta)

    def run(self, X, inner):
        return _split_product(X, self.alpha, inner, *self.karatsuba)


def ptntt_multiply(a: Poly, b: Poly, alpha: int) -> Poly:
    """Split, transform all parts, accumulate plain cross sums, gather."""
    return SplitExecutor(a.ring, alpha, 0, False, False).multiply(a, b)


def kntt_multiply(a: Poly, b: Poly, alpha: int) -> Poly:
    """ptntt with one-iteration Karatsuba across symmetric part pairs."""
    return SplitExecutor(a.ring, alpha, 0, True, False).multiply(a, b)


def hntt_multiply(a: Poly, b: Poly, alpha: int, beta: int) -> Poly:
    """kntt with a beta-cropped inner transform and Karatsuba leaf products."""
    return SplitExecutor(a.ring, alpha, beta, True, True).multiply(a, b)
