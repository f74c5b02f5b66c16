import numpy as np
import pytest

from nttkit import modarith, polymul, transforms
from nttkit.errors import BadAlpha, ParameterCondition
from nttkit.modarith import OpCounter
from nttkit.polymul import make_transform_pair, ntt_multiply, oracle_multiply
from nttkit.rings import Poly, RingSpec, XN_MINUS_1, XN_PLUS_1
from nttkit.splitting import hntt_multiply, kntt_multiply, ptntt_multiply

KYBER = RingSpec(XN_PLUS_1, 256, 3329)


def test_split_rejects_bad_alpha():
    ring = RingSpec(XN_PLUS_1, 8, 17)
    with pytest.raises(BadAlpha):
        ptntt_multiply(Poly([0] * 8, ring), Poly([0] * 8, ring), 4)  # 2^4 does not divide 8


@pytest.mark.parametrize("form", [XN_PLUS_1, XN_MINUS_1])
def test_y_domain_is_forward_of_x(form):
    # the closed form (leaf constants at beta = 0, x in every chunk above)
    # equals the forward transform of the monomial x, for every beta
    q = 12289  # 1 (mod 4096): every order below
    for logn in range(4, 10):
        n = 1 << logn
        x = Poly([0, 1] + [0] * (n - 2), RingSpec(form, n, q))
        for beta in range(logn):
            pair = make_transform_pair(x.ring, beta)
            assert not pair.y_domain.flags.writeable
            assert pair.y_domain.tolist() == pair.forward(x).values.tolist(), (n, beta)


@pytest.mark.parametrize("q", [7681, 2151677953], ids=["int64", "object"])
def test_times_y_is_the_leaf_product_by_y(q, rng):
    # the in-leaf rotation equals pointwise_rows(y_domain, S) in values and
    # in op counts, on the inner pairs of alpha <= 3 and beta <= 2, with the
    # 2^alpha - 1 rows a split product turns
    for alpha in range(4):
        ring = RingSpec(XN_PLUS_1, 64 >> alpha, q)
        for beta in range(3):
            pair, L = make_transform_pair(ring, beta), 1 << beta
            S = transforms.buffer([[rng.randrange(q) for _ in range(ring.n)]
                                   for _ in range((1 << alpha) - 1)], q).reshape(-1, ring.n)
            S[:, L - 1 :: L] = q - 1  # the wrapped coefficient at its largest
            for karatsuba in (False, True):
                with modarith.counting() as want_ops:
                    want = polymul.pointwise_rows(pair.y_domain, S, L, pair.leaf_vector, q, karatsuba)
                with modarith.counting() as got_ops:
                    got = pair.times_y(S, karatsuba)
                assert got.dtype == want.dtype == transforms.buffer_dtype(q)
                assert np.array_equal(got, want) and got_ops == want_ops, (alpha, beta)


def test_alpha_zero_reduces_to_plain(rng):
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    pair = make_transform_pair(ring, 0)
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    want = ntt_multiply(a, b, pair).coeffs
    assert ptntt_multiply(a, b, 0).coeffs == want
    assert kntt_multiply(a, b, 0).coeffs == want
    assert hntt_multiply(a, b, 0, 0).coeffs == want


@pytest.mark.parametrize("form", [XN_PLUS_1, XN_MINUS_1])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_strategies_match_oracle(form, alpha, rng):
    # 257 = 4n + 1 supports alpha+beta up to the grid below on int64
    # buffers; 2151677953 = 1 (mod 2^22), above 2^31, on the object stages
    n = 64
    for q in (257, 2151677953):
        need = (2 * n if form == XN_PLUS_1 else n) >> alpha
        if (q - 1) % need:
            pytest.skip("congruence unavailable")
        ring = RingSpec(form, n, q)
        top = Poly([q - 1] * n, ring)
        pairs = [(Poly.random(ring, rng), Poly.random(ring, rng)) for _ in range(5)]
        for a, b in pairs + [(top, top), (pairs[0][0], top)]:
            want = oracle_multiply(a, b).coeffs
            assert ptntt_multiply(a, b, alpha).coeffs == want
            assert kntt_multiply(a, b, alpha).coeffs == want
            assert hntt_multiply(a, b, alpha, 0).coeffs == want


def test_all_strategies_identical_products(rng):
    # plain(beta=1), pt(1), k(1), h(1,0), h(0,1) all equal on shared inputs
    pair_b1 = make_transform_pair(KYBER, 1)
    for _ in range(5):
        a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
        want = oracle_multiply(a, b).coeffs
        outs = [
            ntt_multiply(a, b, pair_b1).coeffs,
            ptntt_multiply(a, b, 1).coeffs,
            kntt_multiply(a, b, 1).coeffs,
            hntt_multiply(a, b, 1, 0).coeffs,
            hntt_multiply(a, b, 0, 1).coeffs,
        ]
        assert all(o == want for o in outs)


def test_parameter_condition_raised():
    # q = 3329 only supports 2n/2^(a+b) dividing 256
    with pytest.raises(ParameterCondition):
        ptntt_multiply(Poly([0] * 256, KYBER), Poly([0] * 256, KYBER), 0)


def test_pt_transform_counts(rng):
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    with modarith.counting() as c:
        ptntt_multiply(a, b, 1)
    assert c.forward_transforms == 4  # 2^(alpha+1)
    assert c.inverse_transforms == 2  # 2^alpha

    ring = RingSpec(XN_PLUS_1, 256, 3329)
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    with modarith.counting() as c2:
        ptntt_multiply(a, b, 2)
    assert (c2.forward_transforms, c2.inverse_transforms) == (8, 4)


def test_karatsuba_drops_pointwise_products(rng):
    # alpha=1: 4 pointwise products + 1 y-product (pt) vs 3 + 1 (k)
    m = 128
    transform_mults = 4 * (m * 7 // 2) + 2 * (m * 7 // 2 + m)
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    with modarith.counting() as cp:
        r1 = ptntt_multiply(a, b, 1)
    with modarith.counting() as ck:
        r2 = kntt_multiply(a, b, 1)
    assert r1.coeffs == r2.coeffs  # accumulation never changes results
    assert cp.mults - transform_mults == 5 * m
    assert ck.mults - transform_mults == 4 * m


def test_hntt_count_equivalence_with_incomplete(rng):
    # alpha-round splitting with beta=0 and the beta'=alpha cropped
    # pipeline agree in outputs and in total multiplication counts
    pair_b1 = make_transform_pair(KYBER, 1)
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    with modarith.counting() as c1:
        r1 = ntt_multiply(a, b, pair_b1, use_karatsuba=True)
    with modarith.counting() as c2:
        r2 = hntt_multiply(a, b, 1, 0)
    assert r1.coeffs == r2.coeffs
    assert c1.mults == c2.mults


def test_hntt_alpha_beta_grid(rng):
    ring = RingSpec(XN_PLUS_1, 256, 3329)
    for alpha, beta in ((1, 1), (2, 1), (1, 2), (0, 3)):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = hntt_multiply(a, b, alpha, beta)
        assert got.coeffs == oracle_multiply(a, b).coeffs, (alpha, beta)


def test_split_route_tallies(rng):
    # every tally of one kyber-ring product per strategy (no preset pins them)
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    want = oracle_multiply(a, b)
    for run, tally in (
        (lambda: ptntt_multiply(a, b, 1), OpCounter(3584, 2944, 2688, 4, 2)),
        (lambda: kntt_multiply(a, b, 1), OpCounter(3456, 3072, 2944, 4, 2)),
        (lambda: hntt_multiply(a, b, 1, 1), OpCounter(3584, 3456, 3072, 4, 2)),
    ):
        with modarith.counting() as c:
            assert run() == want
        assert c == tally
