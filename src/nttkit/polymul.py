"""Schoolbook convolution oracles, leaf products and the NTT pipeline.

The schoolbook functions are the verification oracles for every fast
pipeline in the package.  They deliberately share no modular helpers
with the fast path: reduction is inline ``% q`` (or vectorized int64
numpy when provably overflow-free), the wrap-around sums follow the
convolution definitions directly, and the other forms reduce with the
scalar ``reduce_mod_phi``, which no fast path calls (the embedding
chains fold with ``fold_mod_phi``).

The pipeline keeps its values in bare working buffers
(``transforms.buffer``) from forward transform to inverse: a planned
product runs ``transforms.ntt_forward`` and ``ntt_inverse`` on bare
buffers (their array cores) and ``pointwise_rows``, on tables that
``TransformPair`` checked once, when it was built.  ``pointwise_mul`` and ``NttDomainPoly`` are
the checked, tagged form of the same step at the public API.
Products mod x^L - gamma, the step every route takes between its
transforms, run on ``leaf_rows``, one pass over rows of leaves (the
``pointwise_rows`` of the incomplete, split and Good routes, whose
chunk-h pairs have leaves of degree h, and the trinomial leaves), or on
``leaf_products`` over (L, ...) columns: the block floor of the
embeddings and ``pointwise_sums``, the transform-domain row sum of the
module-lattice matvec and the split routes' plain cross sums.
``basecase_mul`` stays as their scalar reference.  Whether these
kernels sum raw products is ``bounds.fits``, which derives their bounds;
the oracles keep their own overflow rule (``_np_exact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from . import bounds, modarith, transforms
from .errors import (
    FormMismatch,
    LengthMismatch,
    ModulusMismatch,
    NotInvertible,
    ParameterCondition,
    RingMismatch,
    SpecMismatch,
)
from .modarith import BIT_REVERSED, NoSuchRoot, build_twiddles, find_root
from .rings import TRINOMIAL, XN_MINUS_1, XN_MINUS_X_MINUS_1, XN_PLUS_1, Poly, RingSpec
from .transforms import CC, CT, FORWARD, NATURAL, NWC, NttDomainPoly, TransformSpec

_INT64_LIMIT = 2**62  # headroom under int64 for sums of cross products


def _np_exact(n: int, q: int) -> bool:
    # linear convolution sums n products < q^2; wrap folds add two of them
    return 2 * n * (q - 1) * (q - 1) < _INT64_LIMIT


# ---------------------------------------------------------------------------
# oracles


def schoolbook_linear(a: Poly, b: Poly) -> list:
    """Exact linear convolution: c_k = sum_{i+j=k} a_i b_j mod q."""
    if a.ring.q != b.ring.q:
        raise ModulusMismatch("operands carry different moduli")
    q = a.ring.q
    x, y = a.coeffs, b.coeffs
    n1, n2 = len(x), len(y)
    if _np_exact(min(n1, n2), q):
        c = np.convolve(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
        return [int(v) for v in c % q]
    out = [0] * (n1 + n2 - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    return [v % q for v in out]


def _schoolbook_wrapped(a: Poly, b: Poly, form: str, sign: int) -> Poly:
    if a.ring != b.ring:
        raise FormMismatch("operands belong to different rings")
    if a.ring.form != form:
        raise FormMismatch(f"expected ring form {form!r}, got {a.ring.form!r}")
    n, q = a.ring.n, a.ring.q
    x, y = a.coeffs, b.coeffs
    if _np_exact(n, q):
        c = np.convolve(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
        low = c[:n].copy()
        low[: n - 1] += sign * c[n:]
        return Poly([int(v) for v in low % q], a.ring)
    out = []
    for k in range(n):
        s = 0
        for i in range(k + 1):
            s += x[i] * y[k - i]
        t = 0
        for i in range(k + 1, n):
            t += x[i] * y[k + n - i]
        out.append((s + sign * t) % q)
    return Poly(out, a.ring)


def schoolbook_cyclic(a: Poly, b: Poly) -> Poly:
    """c_k = sum_{i<=k} a_i b_{k-i} + sum_{i>k} a_i b_{k+n-i} mod q."""
    return _schoolbook_wrapped(a, b, XN_MINUS_1, +1)


def schoolbook_nwc(a: Poly, b: Poly) -> Poly:
    """Negative wrapped convolution: the wrapped sum enters with a minus."""
    return _schoolbook_wrapped(a, b, XN_PLUS_1, -1)


def reduce_mod_phi(c, ring: RingSpec) -> Poly:
    """Polynomial remainder of a coefficient array by the ring's phi."""
    n, q = ring.n, ring.q
    work = [v % q for v in c]
    if len(work) < n:
        work += [0] * (n - len(work))
    form = ring.form
    if form == XN_MINUS_1:
        for i in range(len(work) - 1, n - 1, -1):
            work[i - n] = (work[i - n] + work[i]) % q
    elif form == XN_PLUS_1:
        for i in range(len(work) - 1, n - 1, -1):
            work[i - n] = (work[i - n] - work[i]) % q
    elif form == TRINOMIAL:
        # x^n == x^(n/2) - 1
        h = n // 2
        for i in range(len(work) - 1, n - 1, -1):
            v = work[i]
            if v:
                work[i - n + h] = (work[i - n + h] + v) % q
                work[i - n] = (work[i - n] - v) % q
    elif form == XN_MINUS_X_MINUS_1:
        # x^n == x + 1
        for i in range(len(work) - 1, n - 1, -1):
            v = work[i]
            if v:
                work[i - n + 1] = (work[i - n + 1] + v) % q
                work[i - n] = (work[i - n] + v) % q
    else:
        phi = ring.phi_coeffs()
        for i in range(len(work) - 1, n - 1, -1):
            v = work[i]
            if v:
                work[i] = 0
                for j in range(n):
                    work[i - n + j] = (work[i - n + j] - v * phi[j]) % q
    return Poly(work[:n], ring)


def fold_mod_phi(c, ring: RingSpec) -> np.ndarray:
    """The remainder of c by the ring's phi, mod q, for an array of
    canonical residues: ``reduce_mod_phi`` vectorized, returned as a
    length-n buffer (``transforms.buffer``).

    With x^n = r(x) mod phi, one pass replaces the coefficients from x^n
    up, hi(x) x^n, by hi(x) r(x): one shifted add, subtract or
    multiply-add per nonzero term of r over all of hi at once.  A pass
    shortens c by n - deg r, so the named forms (r has one or two terms)
    fold in a few passes.  Where the passes would take more numpy calls
    than there are coefficients above x^(n-1) (a dense r, GENERAL), those
    fold one at a time instead, from the top, each vectorized over r.
    """
    n, q = ring.n, ring.q
    w = transforms.buffer(c, q)
    if len(w) < n:
        w = np.concatenate((w, np.zeros(n - len(w), dtype=w.dtype)))
    terms = ring.reduction_terms
    top = terms[-1][0] if terms else 0
    excess = len(w) - n
    if len(terms) * -(-excess // (n - top)) > excess:
        r = np.zeros(n, dtype=w.dtype)
        for j, t in terms:
            r[j] = t
        for i in range(len(w) - 1, n - 1, -1):
            seg = w[i - n : i]
            seg += w[i] * r
            seg %= q
        return w[:n]
    while len(w) > n:
        hi = w[n:]
        out = np.zeros(max(n, top + len(hi)), dtype=w.dtype)
        out[:n] = w[:n]
        for j, t in terms:
            seg = out[j : j + len(hi)]
            if t == 1:
                seg += hi
            elif t == q - 1:
                seg -= hi
            else:
                seg += hi * t % q
        out %= q
        w = out
    return w


def oracle_multiply(a: Poly, b: Poly) -> Poly:
    """Schoolbook product in the operands' own ring (the acceptance oracle)."""
    form = a.ring.form
    if form == XN_MINUS_1:
        return schoolbook_cyclic(a, b)
    if form == XN_PLUS_1:
        return schoolbook_nwc(a, b)
    return reduce_mod_phi(schoolbook_linear(a, b), a.ring)


# ---------------------------------------------------------------------------
# leaf products


def basecase_mul(u, v, gamma: int, q: int, use_karatsuba: bool = False) -> list:
    """(u * v) mod (x^len - gamma) for leaf vectors of power-of-two length.

    One-iteration Karatsuba trades each symmetric cross-product pair
    u_i v_j + u_j v_i for one multiplication and three extra
    additions/subtractions; outputs are bit-identical either way.
    """
    L = len(u)
    if len(v) != L or L < 1 or L & (L - 1):
        raise LengthMismatch("leaf operands must share a power-of-two length")
    if L == 1:
        return [modarith.mod_mul(u[0], v[0], q)]
    t = [0] * (2 * L - 1)
    if use_karatsuba:
        d = [modarith.mod_mul(u[i], v[i], q) for i in range(L)]
        for i in range(L):
            t[2 * i] = (t[2 * i] + d[i]) % q
        for i in range(L):
            for j in range(i + 1, L):
                cross = modarith.mod_mul(
                    modarith.mod_add(u[i], u[j], q), modarith.mod_add(v[i], v[j], q), q
                )
                cross = modarith.mod_sub(modarith.mod_sub(cross, d[i], q), d[j], q)
                t[i + j] = (t[i + j] + cross) % q
    else:
        for i in range(L):
            for j in range(L):
                t[i + j] = (t[i + j] + modarith.mod_mul(u[i], v[j], q)) % q
    out = t[:L]
    for i in range(L, 2 * L - 1):
        out[i - L] = modarith.mod_add(out[i - L], modarith.mod_mul(gamma, t[i], q), q)
    return out


def leaf_ops(L: int, use_karatsuba: bool) -> tuple:
    """(mults, adds, subs) of one basecase_mul on length-L leaves."""
    if use_karatsuba:
        pairs = L * (L - 1) // 2
        return 2 * L - 1 + pairs, 2 * pairs + L - 1, 2 * pairs
    return L * L + L - 1, L - 1, 0


def _mod(X, q: int, scratch=None):
    """X mod q in place, as X - (X // q) * q: numpy divides an int64 array
    by a scalar several times faster than it takes the remainder.  The
    quotients go to ``scratch`` (X's shape and dtype) when given, else to
    a fresh array."""
    Y = np.floor_divide(X, q, out=scratch)
    Y *= q
    X -= Y
    return X


def leaf_products(U, V, gamma, q: int, acc=None, scratch=None, bound: int | None = None) -> np.ndarray:
    """Column-wise products mod x^L - gamma of two (L, ...) arrays of
    residues mod q, uncounted: ``basecase_mul`` on every column (every
    index of the trailing axes, which broadcast) at once, returned as an
    (L, ...) array of canonical residues.

    ``gamma`` is +1 or -1 for every column, or a buffer of one constant
    mod q per column (any other constant takes the buffer's path).  The
    operands are canonical, or of magnitude at most ``bound`` where the
    raw products of that bound are summed.  The caller adds the operation
    counts (``_count_leaves``).  ``acc``, the accumulator, (L, ...) for
    gamma = +-1 and (2L - 1, ...) otherwise, and ``scratch``, a
    (2, L, ...) array, both of U's dtype, are the kernel's working
    memory: when a caller passes them the result is ``acc[:L]`` and
    nothing of the operands' size is allocated; otherwise both are fresh.

    Gamma = +-1 adds or subtracts each wrapped product straight into its
    coefficient as it is made; a constant per column sums the 2L - 1
    linear coefficients, reduces the high ones and multiplies them by
    gamma.  The raw products are summed and reduced once while L of them
    fit U's dtype (``bounds.fits``, which derives the leaf bounds);
    otherwise each product is reduced first.
    """
    L, cols = U.shape[0], U.shape[1:] if U.shape == V.shape else np.broadcast(U[0], V[0]).shape
    b = q - 1 if bound is None else bound
    lazy = bounds.fits(U.dtype, b, b, L)
    wrapped = np.ndim(gamma) == 0 and gamma in (1, -1)
    if acc is None:
        acc = np.empty((L if wrapped else 2 * L - 1, *cols), dtype=U.dtype)
    p, y = np.empty((2, L, *cols), dtype=U.dtype) if scratch is None else scratch
    out = acc[:L]
    np.multiply(U[0], V, out=out)  # the first products fill the low coefficients
    if not lazy:
        _mod(out, q, y)
    if wrapped:  # x^L = +-1: products i + j >= L wrap straight into out
        wrap = np.add if gamma == 1 else np.subtract
        for i in range(1, L):
            np.multiply(U[i], V, out=p)
            if not lazy:
                _mod(p, q, y)
            out[i:] += p[: L - i]
            wrap(out[:i], p[L - i :], out=out[:i])
        return _mod(out, q, y)
    hi = acc[L:]
    hi[...] = 0
    for i in range(1, L):
        np.multiply(U[i], V, out=p)
        if not lazy:
            _mod(p, q, y)
        acc[i : i + L] += p
    _mod(hi, q, y[: L - 1])
    hi *= gamma
    out[: L - 1] += hi
    return _mod(out, q, y)


def leaf_gammas(spec: TransformSpec, tw, n: int) -> list:
    """Leaf-ring constants in output order: chunk p of a length-n buffer
    lives in x^len - gamma_p, len its schedule's chunk (h 2^beta).

    Chunk p holds the remainder modulo x^len - root^e with e = 2*brv(p)+1
    (negacyclic) or brv(p) (cyclic); natural-order output drops the brv.
    Both butterfly families produce the same chunk images, so the
    indexing does not depend on the algorithm used.  Each case is one
    slice of the table: the bit-reversed index of 2*brv(p)+1 is m + p.
    """
    m = n // transforms.make_schedule(spec, tw, n).chunk
    nega = spec.conv_kind == NWC
    if spec.out_order == BIT_REVERSED:
        rev = tw.ordered(BIT_REVERSED)
        return list(rev[m : 2 * m] if nega else rev[:m])
    nat = tw.ordered(NATURAL)
    return list(nat[1 : 2 * m : 2] if nega else nat[:m])


def _count_leaves(L: int, use_karatsuba: bool, leaves: int) -> None:
    """Count ``leaves`` leaf products of length L, as basecase_mul would."""
    ctr = modarith.active_counter()
    if ctr is not None:
        mults, adds, subs = leaf_ops(L, use_karatsuba)
        ctr.mults += mults * leaves
        ctr.adds += adds * leaves
        ctr.subs += subs * leaves


def leaf_rows(A, B, L: int, gammas, q: int) -> np.ndarray:
    """Uncounted products mod x^L - gamma_p of leaf p (coefficients pL ..
    pL + L - 1) of every row, one constant per leaf (``gammas``), leading
    axes broadcast; a fresh buffer.  One pass over strided views of the
    natural layout: outer products u_i v_j, their anti-diagonal sums c_k,
    c_k += gamma (c_(k+L) mod q), and one reduction into the result.  The
    raw products are summed while L of them fit the dtype (``bounds.fits``),
    else each is reduced first (one ``_mod``)."""
    if A.shape != B.shape:
        A, B = np.broadcast_arrays(A, B)
    m = A.size // L
    w = np.zeros((L, 2 * L - 1, m), dtype=A.dtype)  # row i: u_i v_j at column j
    P = np.multiply(A.reshape(m, L).T[:, None], B.reshape(m, L).T, out=w[:, :L])
    if not bounds.fits(A.dtype, q - 1, q - 1, L):
        _mod(P, q)
    c = w[0]  # row 0 collects the anti-diagonals: row i shifted by i
    for i in range(1, L):
        c[i : i + L] += P[i]
    hi = c[L:].reshape(L - 1, m // len(gammas), len(gammas))  # a view: rows by leaf
    hi %= q
    hi *= gammas
    c[: L - 1] += hi.reshape(L - 1, m)
    out = np.empty(A.shape, dtype=A.dtype)
    np.remainder(c[:L], q, out=out.reshape(m, L).T)
    return out


def pointwise_rows(A, B, L: int, gammas, q: int, use_karatsuba=False) -> np.ndarray:
    """The array core of ``pointwise_mul``: per-leaf products of two
    buffers of transform-domain rows, leaves of degree L, as a fresh
    buffer (``leaf_rows``), counted as basecase_mul would count them.

    The leading axes of both broadcast, as numpy broadcasts.  ``gammas``
    holds the leaf constants as a buffer mod q (``leaf_vector``); leaves
    of degree 1 ignore it.
    """
    vals = A * B % q if L == 1 else leaf_rows(A, B, L, gammas, q)
    _count_leaves(L, use_karatsuba, vals.size // L)
    return vals


def pointwise_mul(A: NttDomainPoly, B: NttDomainPoly, gammas=None, use_karatsuba=False) -> NttDomainPoly:
    """Per-leaf product of two transform-domain polys with equal spec
    (``pointwise_rows`` on their values); either may be a batch."""
    if not A.compatible(B):
        raise SpecMismatch("pointwise product needs equal spec and ring")
    L = A.leaf_degree
    if L > 1 and gammas is None:
        raise SpecMismatch("leaf products need the leaf constants")
    return NttDomainPoly(pointwise_rows(A.values, B.values, L, gammas, A.ring.q, use_karatsuba),
                         A.spec, A.ring, L)


def pointwise_sums(A, B, L: int, gammas, q: int) -> np.ndarray:
    """Row sums S_i = sum_j A_ij o B_j of transform-domain buffers, leaves
    of degree L: A a (rows, cols, n) batch, B a (cols, n) one; returns the
    (rows, n) buffer.  Counted as rows*cols ``pointwise_rows`` products
    and cols - 1 additions of n values per row.

    With leaves of degree 1 the cols raw products a_ij b_j are summed and
    reduced once while they fit the dtype (``bounds.fits``).  Otherwise,
    and for leaves of degree L >= 2 (``leaf_products``: 35 us on a kyber
    3 x 3, ``leaf_rows`` 44 us), each product is reduced first.
    """
    cols = B.shape[-2]
    if L == 1 and bounds.fits(A.dtype, q - 1, q - 1, cols):
        P = A * B
        _count_leaves(1, False, P.size)
    elif L == 1:
        P = pointwise_rows(A, B, L, gammas, q)
    else:
        U = A.reshape(*A.shape[:-1], A.shape[-1] // L, L).transpose(3, 0, 1, 2)
        V = B.reshape(*B.shape[:-1], B.shape[-1] // L, L).transpose(2, 0, 1)[:, None]
        P = leaf_products(U, V, gammas, q).transpose(1, 2, 3, 0).reshape(A.shape)
        _count_leaves(L, False, P.size // L)
    S = P.sum(axis=-2)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.adds += S.size * (cols - 1)
    return _mod(S, q)


# ---------------------------------------------------------------------------
# transform pairing and the multiplication pipeline


@dataclass(frozen=True)
class TransformPair:
    """Resolved forward/inverse stage for one x^n +- 1 ring and beta.

    Leaves of h 2^beta coefficients on n = h 2^k, h odd (Good's trick for
    h > 1).  Uses the reorder-free pairing: forward natural -> bit-reversed,
    inverse bit-reversed -> natural.  Each direction runs its table's
    schedule (``fwd_sched``, ``inv_sched``), checked with the tables once,
    when the pair is built, so ``product`` runs the array cores unchecked;
    the leaf constants and the image of x are read-only buffers cached on
    first use.  Immutable and shareable.

    ``source``, when given, is how many leading coefficients of either
    operand of ``product`` can be nonzero: a padded chain's source
    length.  It fixes, when the plan is built, the ``live`` inputs (the
    source length) and the ``keep`` outputs (the product's length,
    2 source - 1) of both schedules, which are then truncated
    (``transforms.truncate``) where either is below n.  The public
    ``forward`` and ``inverse`` always run the full schedules.
    """

    ring: RingSpec
    beta: int
    fwd_spec: TransformSpec
    inv_spec: TransformSpec
    fwd_tw: modarith.TwiddleTable
    inv_tw: modarith.TwiddleTable
    source: int | None = None

    def __post_init__(self):
        if self.source is not None and self.source < 1:
            raise ParameterCondition(f"source length {self.source} must be at least 1")
        transforms.forward_schedule(self.fwd_tw, self.fwd_spec, self.ring)
        transforms.inverse_schedule(self.inv_tw, self.inv_spec, self.fwd_spec, self.ring)

    @cached_property
    def live(self) -> int:
        return min(self.ring.n, self.source or self.ring.n)

    @cached_property
    def keep(self) -> int:
        return min(self.ring.n, 2 * self.live - 1)

    @cached_property
    def fwd_sched(self) -> transforms.Schedule:
        return transforms.make_schedule(self.fwd_spec, self.fwd_tw, self.ring.n, self.live, self.keep)

    @cached_property
    def inv_sched(self) -> transforms.Schedule:
        return transforms.make_schedule(self.inv_spec, self.inv_tw, self.ring.n, self.live, self.keep)

    @cached_property
    def live_leaves(self) -> np.ndarray:
        """The leaf constants of the leaves that ``product`` computes: all
        of ``leaf_vector``, or those of block 0 of a pruned schedule."""
        return self.leaf_vector[: self.fwd_sched.n // self.fwd_sched.chunk]

    @cached_property
    def leaf_vector(self) -> np.ndarray:
        """The leaf constants (``leaf_gammas``) as a read-only buffer mod q."""
        return transforms.read_only(
            transforms.buffer(leaf_gammas(self.fwd_spec, self.fwd_tw, self.ring.n), self.ring.q))

    @cached_property
    def y_domain(self) -> np.ndarray:
        """Forward image of the monomial x (the split-ring y twiddles), read-only.

        Chunk p holds x mod x^L - gamma_p, L the chunk: the leaf constant
        itself for L = 1, and x, i.e. [0, 1, 0, ...], for L >= 2.
        """
        L = self.fwd_sched.chunk
        if L == 1:
            return self.leaf_vector
        y = np.zeros(self.ring.n, dtype=transforms.buffer_dtype(self.ring.q))
        y[1::L] = 1
        return transforms.read_only(y)

    def times_y(self, S, use_karatsuba=False) -> np.ndarray:
        """``pointwise_rows(y_domain, S)``, counted alike, as the rotation
        x s(x) mod x^L - gamma: only the top coefficient, brought round,
        is multiplied by gamma and reduced (every value for L = 1)."""
        L = self.fwd_sched.chunk
        s = S.reshape(*S.shape[:-1], S.shape[-1] // L, L)
        out = np.empty_like(s)
        out[..., 1:] = s[..., :-1]
        np.multiply(s[..., -1], self.leaf_vector, out=out[..., 0])
        out[..., 0] %= self.ring.q
        _count_leaves(s.shape[-1], use_karatsuba, s.size // s.shape[-1])
        return out.reshape(S.shape)

    def forward(self, a) -> NttDomainPoly:
        """Forward transform of a Poly of the pair's ring, or of an array
        or list of its coefficients."""
        ring = None if isinstance(a, Poly) else self.ring
        return transforms.ntt_forward(a, self.fwd_tw, self.fwd_spec, ring=ring)

    def inverse(self, ahat: NttDomainPoly, as_buffer=False):
        return transforms.ntt_inverse(ahat, self.inv_tw, self.inv_spec, as_buffer=as_buffer)

    def pointwise(self, A, B, use_karatsuba=False) -> NttDomainPoly:
        return pointwise_mul(A, B, self.leaf_vector, use_karatsuba)

    def product(self, X, use_karatsuba=False) -> np.ndarray:
        """The ``keep`` leading coefficients of x*y for an operand stack
        X = (x, y) that the call owns (a ``bigmod.LiftedExecutor`` stack:
        len n or at least ``live``, the rest zero; canonical or centered),
        unchecked: both forward transforms as one batch, the leaf products
        and the inverse, on the first f.n entries (f.n < n where levels are
        pruned, whose leaves count as the full product's), of X itself
        where its length is f.n, else of a zero-padded copy."""
        q, n, f, L = self.ring.q, self.ring.n, self.fwd_sched, self.fwd_sched.chunk
        if X.shape[1] != f.n:  # a prefix: the rest is zero
            X, Y = np.zeros((2, f.n), dtype=X.dtype), X
            X[:, : Y.shape[1]] = Y[:, : f.n]
        transforms.ntt_forward(X, self.fwd_tw, self.fwd_spec, sched=f)
        C = pointwise_rows(X[0], X[1], L, self.live_leaves, q, use_karatsuba)
        transforms.ntt_inverse(C, self.inv_tw, self.inv_spec, sched=self.inv_sched)
        if f.n < n:
            _count_leaves(L, use_karatsuba, (n - f.n) // L)
        return C if self.keep == len(C) else C[: self.keep]


def check_pair_ring(ring: RingSpec, beta: int) -> None:
    """The shape preconditions of a transform pair, checked without
    tables: on n = h 2^k, h odd, at most k - 1 levels cropped."""
    n = ring.n
    if ring.form not in (XN_MINUS_1, XN_PLUS_1):
        raise FormMismatch("transform pairs cover x^n - 1 and x^n + 1 rings")
    if not 0 <= beta <= max((n & -n).bit_length() - 2, 0):
        raise ParameterCondition(f"beta={beta} out of range for n={n}")


def make_transform_pair(ring: RingSpec, beta: int = 0, root: int | None = None,
                        source: int | None = None) -> TransformPair:
    """Build tables and specs for the ring, failing fast on congruences
    and on a q with no inverse of 2n (the inverse transform needs one);
    ``source`` is the pair's (``TransformPair``)."""
    check_pair_ring(ring, beta)
    n, q = ring.n, ring.q
    if gcd(2 * n, q) != 1:
        raise NotInvertible(f"2n = {2 * n} must be invertible mod q = {q}")
    kind = NWC if ring.form == XN_PLUS_1 else CC
    order = transforms.root_order(ring.form, n, beta)
    if root is None:
        try:
            root = find_root(order, q)
        except NoSuchRoot as e:
            raise ParameterCondition(
                f"q={q} fails q = 1 (mod {order}) for n={n}, beta={beta}: {e}"
            ) from e
    fwd_tw = build_twiddles(root, order, q, BIT_REVERSED, inverse=False)
    inv_tw = build_twiddles(root, order, q, BIT_REVERSED, inverse=True)
    fwd = TransformSpec(kind, CT, FORWARD, NATURAL, BIT_REVERSED, beta)
    inv = fwd.inverse_of()
    return TransformPair(ring, beta, fwd, inv, fwd_tw, inv_tw, source)


def ntt_multiply(a: Poly, b: Poly, pair: TransformPair, use_karatsuba=False) -> Poly:
    """forward(a) o forward(b), leaf products, inverse; exact in the ring."""
    if a.ring != pair.ring or b.ring != pair.ring:
        raise RingMismatch("operands do not live in the pair's ring")
    n = pair.ring.n
    C = pair.product(transforms.buffer((a.array, b.array), pair.ring.q), use_karatsuba)
    return Poly(C if len(C) == n else np.concatenate((C, np.zeros(n - len(C), dtype=C.dtype))), pair.ring)

