import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import ref_poly_mul_linear

from nttkit import modarith, polymul
from nttkit.errors import FormMismatch, LengthMismatch, ModulusMismatch, SpecMismatch
from nttkit.modarith import counting
from nttkit.polymul import (
    basecase_mul,
    fold_mod_phi,
    leaf_gammas,
    make_transform_pair,
    ntt_multiply,
    oracle_multiply,
    pointwise_mul,
    reduce_mod_phi,
    schoolbook_cyclic,
    schoolbook_linear,
    schoolbook_nwc,
)
from nttkit.rings import (
    GENERAL,
    TRINOMIAL,
    XN_MINUS_1,
    XN_MINUS_X_MINUS_1,
    XN_PLUS_1,
    Poly,
    RingSpec,
)
from nttkit.transforms import CC, CT, FORWARD, GS, NATURAL, BIT_REVERSED, TransformSpec, ntt_forward


# ---------------------------------------------------------------------------
# schoolbook oracles


def test_linear_examples(rng):
    ring = RingSpec(XN_PLUS_1, 4, 17)
    one = Poly.from_ints([1], ring)
    b = Poly.random(ring, rng)
    assert schoolbook_linear(one, b) == b.coeffs + [0, 0, 0]
    two = RingSpec(XN_PLUS_1, 2, 17)
    assert schoolbook_linear(Poly([1, 1], two), Poly([1, 1], two)) == [1, 2, 1]
    a, c = Poly.random(ring, rng), Poly.random(ring, rng)
    assert schoolbook_linear(a, c)[-1] == a.coeffs[-1] * c.coeffs[-1] % 17


def test_linear_rejects_modulus_mismatch():
    a = Poly([1, 2], RingSpec(XN_PLUS_1, 2, 17))
    b = Poly([1, 2], RingSpec(XN_PLUS_1, 2, 97))
    with pytest.raises(ModulusMismatch):
        schoolbook_linear(a, b)


def test_wrapped_examples():
    nring = RingSpec(XN_PLUS_1, 4, 17)
    x2 = Poly.from_ints([0, 0, 1], nring)
    assert schoolbook_nwc(x2, x2).coeffs == [16, 0, 0, 0]  # x^4 = -1
    cring = RingSpec(XN_MINUS_1, 4, 17)
    x3 = Poly.from_ints([0, 0, 0, 1], cring)
    x1 = Poly.from_ints([0, 1], cring)
    assert schoolbook_cyclic(x3, x1).coeffs == [1, 0, 0, 0]  # x^4 = 1
    with pytest.raises(FormMismatch):
        schoolbook_nwc(Poly([1] * 4, cring), Poly([1] * 4, cring))


def test_wrapped_agree_with_linear_reduction(rng):
    for form, fn in ((XN_MINUS_1, schoolbook_cyclic), (XN_PLUS_1, schoolbook_nwc)):
        for n, q in ((8, 17), (16, 3329), (64, 8380417)):
            ring = RingSpec(form, n, q)
            for _ in range(100):
                a, b = Poly.random(ring, rng), Poly.random(ring, rng)
                direct = fn(a, b).coeffs
                via_linear = reduce_mod_phi(schoolbook_linear(a, b), ring).coeffs
                assert direct == via_linear


def test_numpy_and_bigint_paths_agree(rng):
    # same inputs through the vectorized and arbitrary-precision routes
    n = 16
    small = RingSpec(XN_PLUS_1, n, 12289)
    big = RingSpec(XN_PLUS_1, n, 549755809793)  # forces the bigint path
    for _ in range(20):
        coeffs_a = [rng.randrange(12289) for _ in range(n)]
        coeffs_b = [rng.randrange(12289) for _ in range(n)]
        got_np = schoolbook_linear(Poly(coeffs_a, small), Poly(coeffs_b, small))
        got_big = schoolbook_linear(Poly(coeffs_a, big), Poly(coeffs_b, big))
        assert [v % 12289 for v in got_big] == got_np
        assert got_np == ref_poly_mul_linear(coeffs_a, coeffs_b, 12289)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_examples():
    ring = RingSpec(XN_MINUS_X_MINUS_1, 5, 17)
    low = [3, 1, 4, 1, 5]
    assert reduce_mod_phi(low, ring).coeffs == low  # deg < n unchanged
    xn = [0] * 5 + [1]
    assert reduce_mod_phi(xn, ring).coeffs == [1, 1, 0, 0, 0]  # x^n = x + 1
    tring = RingSpec(TRINOMIAL, 6, 7)
    xn6 = [0] * 6 + [1]
    assert reduce_mod_phi(xn6, tring).coeffs == [6, 0, 0, 1, 0, 0]  # x^6 = x^3 - 1


# derandomized, and each test pins @seed(0): a derandomized draw alone
# would move with every edit of the test's source
FOLD_BUDGET = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def fold_cases(draw):
    """(ring, c): a ring of every form, q below 2^31 (int64) and above
    (object buffers), and c of length up to 4n + 4 with canonical entries."""
    form = draw(st.sampled_from((XN_MINUS_1, XN_PLUS_1, TRINOMIAL, XN_MINUS_X_MINUS_1, GENERAL)))
    q = draw(st.one_of(st.integers(2, 1 << 13), st.integers(1 << 13, (1 << 31) - 1),
                       st.integers(1 << 31, 1 << 42)))
    if form == TRINOMIAL:
        n = 3 << draw(st.integers(1, 3))
    else:
        n = draw(st.integers(2, 24))
    phi = None
    if form == GENERAL:  # dense, sparse or named-like, monic
        low = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        sparse = st.lists(st.sampled_from((0, 0, 0, 1, q - 1)), min_size=n, max_size=n)
        phi = tuple(draw(st.one_of(low, sparse))) + (1,)
    ring = RingSpec(form, n, q, phi)
    size = draw(st.integers(0, 4 * n + 4))
    c = draw(st.one_of(st.just([q - 1] * size),
                       st.lists(st.integers(0, q - 1), min_size=size, max_size=size)))
    return ring, c


@FOLD_BUDGET
@seed(0)
@given(fold_cases())
def test_fold_matches_reduce_mod_phi(case):
    ring, c = case
    got = fold_mod_phi(np.array(c, dtype=np.int64), ring)
    assert got.shape == (ring.n,)
    assert got.tolist() == reduce_mod_phi(c, ring).coeffs


def test_fold_at_the_padded_lengths():
    # the chain folds 2n - 1 coefficients; x^n - 1 at ntru-509 takes 2048
    ntru = RingSpec(XN_MINUS_1, 509, 2048)
    for ring, size in ((ntru, 2048), (ntru, 1017), (RingSpec(XN_MINUS_X_MINUS_1, 761, 4591), 1521)):
        c = [ring.q - 1] * size
        assert fold_mod_phi(np.array(c), ring).tolist() == reduce_mod_phi(c, ring).coeffs


def test_reduce_general_matches_named(rng):
    # the long-division fallback agrees with the specialized folds
    for named in (RingSpec(XN_MINUS_1, 8, 17), RingSpec(XN_PLUS_1, 8, 17),
                  RingSpec(XN_MINUS_X_MINUS_1, 7, 17), RingSpec(TRINOMIAL, 6, 17)):
        general = RingSpec(GENERAL, named.n, named.q, tuple(named.phi_coeffs()))
        for _ in range(20):
            c = [rng.randrange(17) for _ in range(2 * named.n - 1)]
            assert reduce_mod_phi(c, named).coeffs == reduce_mod_phi(c, general).coeffs


# ---------------------------------------------------------------------------
# leaf products


def test_basecase_examples():
    assert basecase_mul([3], [5], 0, 17) == [15]
    assert basecase_mul([1, 1], [1, 1], 5, 17) == [6, 2]  # (1+x)^2, x^2 = 5
    with pytest.raises(LengthMismatch):
        basecase_mul([1, 2], [1], 5, 17)
    with pytest.raises(LengthMismatch):
        basecase_mul([1, 2, 3], [1, 2, 3], 5, 17)


def test_basecase_karatsuba_bit_identical(rng):
    for beta in (1, 2, 3):
        L = 1 << beta
        q = 3329
        for _ in range(1000 // L):
            u = [rng.randrange(q) for _ in range(L)]
            v = [rng.randrange(q) for _ in range(L)]
            g = rng.randrange(1, q)
            assert basecase_mul(u, v, g, q, False) == basecase_mul(u, v, g, q, True)


def test_basecase_karatsuba_saves_one_mult_per_pair(rng):
    q = 3329
    u = [rng.randrange(q) for _ in range(2)]
    v = [rng.randrange(q) for _ in range(2)]
    with counting() as plain:
        basecase_mul(u, v, 7, q, False)
    with counting() as kara:
        basecase_mul(u, v, 7, q, True)
    # 4 coefficient products + 1 fold vs 3 + 1
    assert plain.mults == 5 and kara.mults == 4


def test_pointwise_identity_and_theorem(rng):
    for n, q, beta in ((64, 7681, 0), (256, 3329, 1), (64, 97, 2)):
        ring = RingSpec(XN_PLUS_1, n, q)
        pair = make_transform_pair(ring, beta)
        one = pair.forward(Poly.from_ints([1], ring))
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        A = pair.forward(a)
        assert pair.pointwise(A, one).values.tolist() == A.values.tolist()  # multiplicative identity
        # convolution theorem: forward(oracle product) == A o B
        B = pair.forward(b)
        C = pair.forward(schoolbook_nwc(a, b))
        assert pair.pointwise(A, B).values.tolist() == C.values.tolist()


def test_pointwise_rejects_mixed_specs(rng):
    ring = RingSpec(XN_PLUS_1, 8, 17)
    p0 = make_transform_pair(ring, 0)
    p1 = make_transform_pair(ring, 1)
    a = p0.forward(Poly.random(ring, rng))
    b = p1.forward(Poly.random(ring, rng))
    with pytest.raises(SpecMismatch):
        pointwise_mul(a, b)
    with pytest.raises(SpecMismatch):
        pointwise_mul(b, b)  # beta > 0 without the leaf constants


# ---------------------------------------------------------------------------
# the pipeline


def test_multiply_identity(rng):
    ring = RingSpec(XN_PLUS_1, 256, 3329)
    pair = make_transform_pair(ring, 1)
    a = Poly.random(ring, rng)
    assert ntt_multiply(a, Poly.from_ints([1], ring), pair).coeffs == a.coeffs


@pytest.mark.parametrize(
    "form,n,q,beta",
    [
        (XN_PLUS_1, 256, 3329, 1),   # kyber shape
        (XN_PLUS_1, 256, 7681, 0),
        (XN_PLUS_1, 256, 8380417, 0),  # dilithium shape
        (XN_MINUS_1, 256, 257, 0),
        (XN_MINUS_1, 64, 3329, 2),
        (XN_PLUS_1, 16, 97, 3),
    ],
)
def test_multiply_matches_oracle(form, n, q, beta, rng):
    ring = RingSpec(form, n, q)
    pair = make_transform_pair(ring, beta)
    for _ in range(20):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        for kara in (False, True):
            got = ntt_multiply(a, b, pair, use_karatsuba=kara)
            assert got.coeffs == oracle_multiply(a, b).coeffs


def test_multiply_algebra(rng):
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    pair = make_transform_pair(ring)
    for _ in range(10):
        a, b, c = (Poly.random(ring, rng) for _ in range(3))
        ab = ntt_multiply(a, b, pair)
        assert ab.coeffs == ntt_multiply(b, a, pair).coeffs
        lhs = ntt_multiply(a, b.add(c), pair)
        rhs = ntt_multiply(a, b, pair).add(ntt_multiply(a, c, pair))
        assert lhs.coeffs == rhs.coeffs


def test_twisted_pipeline_multiplies_cyclic(rng):
    # the GS-built domain carries the same chunk images as the CT-built
    # one, so the same leaf products drive a full multiplication
    n, q, beta = 64, 7681, 1
    ring = RingSpec(XN_MINUS_1, n, q)
    from nttkit.modarith import build_twiddles, find_root

    root = find_root(n >> beta, q)
    ftw = build_twiddles(root, n >> beta, q)
    itw = build_twiddles(root, n >> beta, q, inverse=True)
    fs_gs = TransformSpec(CC, GS, FORWARD, NATURAL, BIT_REVERSED, beta)
    fs_ct = TransformSpec(CC, CT, FORWARD, NATURAL, BIT_REVERSED, beta)
    from nttkit.transforms import buffer, ntt_inverse

    gammas = buffer(leaf_gammas(fs_gs, ftw, n), q)
    for _ in range(10):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        A = ntt_forward(a, ftw, fs_gs)
        assert A.values.tolist() == ntt_forward(a, ftw, fs_ct).values.tolist()
        B = ntt_forward(b, ftw, fs_gs)
        C = pointwise_mul(A, B, gammas)
        got = ntt_inverse(C, itw, fs_gs.inverse_of())
        assert got.coeffs == schoolbook_cyclic(a, b).coeffs


@pytest.mark.parametrize("q, lazy", [(16383, True), (16385, False)])
def test_leaf_products_take_their_limit_from_the_dtype(monkeypatch, q, lazy):
    # at L = 8 on int32 columns, 8 (q-1)^2 < 2^31 up to q = 16383: raw
    # products are summed and reduced once; from q = 16385 each product is
    # reduced before it is added.  The other path raises: a lazy product
    # reduces once, the result, and a reduce-first one L + 1 times
    L = 8
    assert (L * (q - 1) ** 2 < 1 << 31) == lazy
    assert [polymul.dtype_limit(d) for d in (np.int32, np.int64, object)] == [1 << 31, 1 << 63, None]
    assert polymul.leaf_rule(L, q, 1 << 63) == (True, L * (q - 1) ** 2)
    reduced, real = [], polymul._mod

    def counted(*args):
        reduced.append(1)
        if len(reduced) > (1 if lazy else L + 1):
            raise AssertionError("the other path of the lazy rule ran")
        return real(*args)

    monkeypatch.setattr(polymul, "_mod", counted)
    rows = np.random.default_rng(q).integers(0, q, size=(2, L, 5))
    rows[:, :, 0] = q - 1
    for gamma, g in ((-1, q - 1), (1, 1)):
        reduced.clear()
        U, V = rows.astype(np.int32)
        got = polymul.leaf_products(U, V, gamma, q)
        assert got.dtype == np.int32 and len(reduced) == (1 if lazy else L + 1)
        want = [basecase_mul(u, v, g, q) for u, v in zip(rows[0].T.tolist(), rows[1].T.tolist())]
        assert got.T.tolist() == want


@pytest.mark.parametrize("q", [16383, 16385])
def test_leaf_products_wrap_plus_minus_one_as_the_gamma_buffer_does(q):
    # gamma = +-1 adds or subtracts each wrapped product into the result;
    # an all-(+-1) gamma buffer takes the accumulator path.  Both sides of
    # the int32 lazy boundary, and the op counts, are the same
    L, cols = 8, 7
    rows = np.random.default_rng(q).integers(0, q, size=(2, L, cols))
    rows[:, :, 0] = q - 1
    U, V = rows.astype(np.int32)
    for g in (1, -1):
        got = polymul.leaf_products(U, V, g, q)
        want = polymul.leaf_products(U, V, np.full(cols, g % q, dtype=np.int32), q)
        assert got.dtype == np.int32 and np.array_equal(got, want)
        acc, scratch = np.empty((L, cols), np.int32), np.empty((2, L, cols), np.int32)
        assert np.shares_memory(polymul.leaf_products(U, V, g, q, acc, scratch), acc)
        assert np.array_equal(acc, want)


def test_leaf_products_take_operands_within_a_lazy_bound():
    # operands of magnitude up to 2 (q-1), signed, sum raw products while
    # L (2 (q-1))^2 < 2^31: at L = 8 up to q = 8191; past it the operands
    # must be canonical
    L, q, bound = 8, 8191, 2 * 8190
    assert polymul.leaf_rule(L, q, 1 << 31, bound) == (True, L * bound ** 2)
    assert not polymul.leaf_rule(L, 8193, 1 << 31, 2 * 8192)[0]
    U, V = np.random.default_rng(1).integers(-bound, bound + 1, size=(2, L, 9)).astype(np.int32)
    U[:, 0], V[:, 0] = bound, -bound
    for gamma in (-1, 1, np.full(9, 5, dtype=np.int32)):
        want = polymul.leaf_products(U % q, V % q, gamma, q)
        assert np.array_equal(polymul.leaf_products(U, V, gamma, q, bound=bound), want)


def _first_prime(candidates):
    return next(p for p in candidates if modarith.is_prime(p))


@pytest.mark.parametrize("L", [2, 4, 8])
@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "reduce-first"])
def test_leaf_rows_lazy_rule_at_its_boundary(monkeypatch, L, lazy):
    # the primes either side of L (q-1)^2 = 2^63, with all-(q-1) operands:
    # c_(L-1) sums L raw products (q-1)^2.  Below the bound they are summed
    # raw, the reduce-first _mod patched to raise; from it each product is
    # reduced first, by one _mod, or the raw sum would pass 2^63.  Object
    # rows never reduce first
    edge = math.isqrt(((1 << 63) - 1) // L) + 1  # the largest q with L (q-1)^2 < 2^63
    assert L * (edge - 1) ** 2 < 1 << 63 <= L * edge ** 2
    q = _first_prime(range(edge, 0, -1)) if lazy else _first_prime(itertools.count(edge + 1))
    assert polymul.leaf_rule(L, q, 1 << 63)[0] == lazy
    calls, real = [], polymul._mod

    def reduce_first(*args):
        if lazy or args[0].dtype == object:
            raise AssertionError("the reduce-first path ran below the lazy bound")
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polymul, "_mod", reduce_first)
    gammas = [q - 1, 1, 2, q - 2, 12345]
    A = np.full((3, len(gammas) * L), q - 1, dtype=np.int64)
    want = [sum((basecase_mul([q - 1] * L, [q - 1] * L, g, q) for g in gammas), [])] * 3
    got = polymul.leaf_rows(A, A, L, np.array(gammas), q)
    assert got.dtype == np.int64 and got.tolist() == want
    assert calls == ([] if lazy else [1])
    assert polymul.leaf_rows(A.astype(object), A.astype(object), L, np.array(gammas, dtype=object),
                             q).tolist() == want


def test_leaf_rows_match_basecase_on_broadcast_and_empty_rows(rng):
    # leading axes broadcast as numpy broadcasts, and no rows give no rows
    q, L, m = 7681, 4, 6
    gammas = np.array([rng.randrange(q) for _ in range(m)])
    A = np.array([[rng.randrange(q) for _ in range(m * L)] for _ in range(3)])
    b = np.array([rng.randrange(q) for _ in range(m * L)])
    want = [sum((basecase_mul(list(r[p * L : p * L + L]), list(b[p * L : p * L + L]), int(gammas[p]), q)
                 for p in range(m)), []) for r in A.tolist()]
    assert polymul.leaf_rows(A, b, L, gammas, q).tolist() == want
    assert polymul.leaf_rows(b, A, L, gammas, q).tolist() == want
    assert polymul.leaf_rows(A[:0], b, L, gammas, q).shape == (0, m * L)


def test_leaf_gammas_match_table(rng):
    n, q, beta = 256, 3329, 1
    ring = RingSpec(XN_PLUS_1, n, q)
    pair = make_transform_pair(ring, beta)
    from nttkit.modarith import bitrev

    psi = pair.fwd_tw.root
    m = n >> beta
    gam = leaf_gammas(pair.fwd_spec, pair.fwd_tw, n)
    assert gam == [pow(psi, 2 * bitrev(p, m) + 1, q) for p in range(m)]
