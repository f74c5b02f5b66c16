import pytest

from nttkit import modarith
from nttkit.errors import BadAlpha, ParameterCondition
from nttkit.polymul import make_transform_pair, ntt_multiply, oracle_multiply
from nttkit.rings import Poly, RingSpec, XN_MINUS_1, XN_PLUS_1
from nttkit.splitting import (
    hntt_multiply,
    kntt_multiply,
    ptntt_multiply,
    shift_by_y,
    split,
    unsplit,
)

KYBER = RingSpec(XN_PLUS_1, 256, 3329)


def kyber_inner(beta=0, alpha=1):
    return make_transform_pair(RingSpec(XN_PLUS_1, 256 >> alpha, 3329), beta)


def test_split_identity_at_zero(rng):
    a = Poly.random(KYBER, rng)
    s = split(a, 0)
    assert len(s.parts) == 1 and s.parts[0].coeffs == a.coeffs


def test_split_index_formula():
    ring = RingSpec(XN_PLUS_1, 8, 17)
    a = Poly(list(range(8)), ring)
    s = split(a, 1)
    assert [p.coeffs for p in s.parts] == [[0, 2, 4, 6], [1, 3, 5, 7]]


def test_split_round_trip(rng):
    ring = RingSpec(XN_PLUS_1, 64, 97)
    for alpha in (0, 1, 2, 3):
        a = Poly.random(ring, rng)
        assert unsplit(split(a, alpha)).coeffs == a.coeffs


def test_split_rejects_bad_alpha():
    ring = RingSpec(XN_PLUS_1, 8, 17)
    with pytest.raises(BadAlpha):
        split(Poly([0] * 8, ring), 4)  # 2^4 does not divide 8


def test_shift_by_y_examples():
    small = RingSpec(XN_PLUS_1, 4, 17)
    assert shift_by_y(Poly([5, 0, 0, 0], small)).coeffs == [0, 5, 0, 0]
    assert shift_by_y(Poly([0, 0, 0, 5], small)).coeffs == [(-5) % 17, 0, 0, 0]
    cyc = RingSpec(XN_MINUS_1, 4, 17)
    assert shift_by_y(Poly([0, 0, 0, 5], cyc)).coeffs == [5, 0, 0, 0]


def test_shift_full_cycle_negates(rng):
    small = RingSpec(XN_PLUS_1, 8, 97)
    part = Poly.random(small, rng)
    y = part
    for _ in range(8):
        y = shift_by_y(y)
    assert y.coeffs == [(-c) % 97 for c in part.coeffs]


def test_shift_matches_transform_domain(rng):
    # NTT(y * part) == NTT(y) o NTT(part): the evaluated-y diagonal used
    # by the strategies equals an explicit coefficient-domain shift
    inner = kyber_inner()
    ring = inner.ring
    part = Poly.random(ring, rng)
    lhs = inner.forward(shift_by_y(part)).values.tolist()
    yhat = list(inner.y_domain)
    A = inner.forward(part).values.tolist()
    q = ring.q
    assert lhs == [x * y % q for x, y in zip(A, yhat)]


def test_alpha_zero_reduces_to_plain(rng):
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    pair = make_transform_pair(ring, 0)
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    want = ntt_multiply(a, b, pair).coeffs
    assert ptntt_multiply(a, b, 0, pair).coeffs == want
    assert kntt_multiply(a, b, 0, pair).coeffs == want
    assert hntt_multiply(a, b, 0, 0, pair).coeffs == want


@pytest.mark.parametrize("form", [XN_PLUS_1, XN_MINUS_1])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_strategies_match_oracle(form, alpha, rng):
    n, q = 64, 257  # 256 = 4n supports alpha+beta up to the grid below
    need = (2 * n if form == XN_PLUS_1 else n) >> alpha
    if (q - 1) % need:
        pytest.skip("congruence unavailable")
    ring = RingSpec(form, n, q)
    for _ in range(5):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        want = oracle_multiply(a, b).coeffs
        assert ptntt_multiply(a, b, alpha).coeffs == want
        assert kntt_multiply(a, b, alpha).coeffs == want
        assert hntt_multiply(a, b, alpha, 0).coeffs == want


def test_all_strategies_identical_products(rng):
    # plain(beta=1), pt(1), k(1), h(1,0), h(0,1) all equal on shared inputs
    pair_b1 = make_transform_pair(KYBER, 1)
    inner_full = kyber_inner()
    for _ in range(5):
        a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
        want = oracle_multiply(a, b).coeffs
        outs = [
            ntt_multiply(a, b, pair_b1).coeffs,
            ptntt_multiply(a, b, 1, inner_full).coeffs,
            kntt_multiply(a, b, 1, inner_full).coeffs,
            hntt_multiply(a, b, 1, 0, inner_full).coeffs,
            hntt_multiply(a, b, 0, 1, pair_b1).coeffs,
        ]
        assert all(o == want for o in outs)


def test_parameter_condition_raised():
    # q = 3329 only supports 2n/2^(a+b) dividing 256
    with pytest.raises(ParameterCondition):
        ptntt_multiply(Poly([0] * 256, KYBER), Poly([0] * 256, KYBER), 0)


def test_pt_transform_counts(rng):
    inner = kyber_inner()
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    with modarith.counting() as c:
        ptntt_multiply(a, b, 1, inner)
    assert c.forward_transforms == 4  # 2^(alpha+1)
    assert c.inverse_transforms == 2  # 2^alpha

    inner2 = make_transform_pair(RingSpec(XN_PLUS_1, 64, 3329), 0)
    ring = RingSpec(XN_PLUS_1, 256, 3329)
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    with modarith.counting() as c2:
        ptntt_multiply(a, b, 2, inner2)
    assert (c2.forward_transforms, c2.inverse_transforms) == (8, 4)


def test_karatsuba_drops_pointwise_products(rng):
    # alpha=1: 4 pointwise products + 1 y-product (pt) vs 3 + 1 (k)
    inner = kyber_inner()
    m = 128
    transform_mults = 4 * (m * 7 // 2) + 2 * (m * 7 // 2 + m)
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    with modarith.counting() as cp:
        r1 = ptntt_multiply(a, b, 1, inner)
    with modarith.counting() as ck:
        r2 = kntt_multiply(a, b, 1, inner)
    assert r1.coeffs == r2.coeffs  # accumulation never changes results
    assert cp.mults - transform_mults == 5 * m
    assert ck.mults - transform_mults == 4 * m


def test_hntt_count_equivalence_with_incomplete(rng):
    # alpha-round splitting with beta=0 and the beta'=alpha cropped
    # pipeline agree in outputs and in total multiplication counts
    pair_b1 = make_transform_pair(KYBER, 1)
    inner_full = kyber_inner()
    a, b = Poly.random(KYBER, rng), Poly.random(KYBER, rng)
    with modarith.counting() as c1:
        r1 = ntt_multiply(a, b, pair_b1, use_karatsuba=True)
    with modarith.counting() as c2:
        r2 = hntt_multiply(a, b, 1, 0, inner_full)
    assert r1.coeffs == r2.coeffs
    assert c1.mults == c2.mults


def test_hntt_alpha_beta_grid(rng):
    ring = RingSpec(XN_PLUS_1, 256, 3329)
    for alpha, beta in ((1, 1), (2, 1), (1, 2), (0, 3)):
        inner_ring = RingSpec(XN_PLUS_1, 256 >> alpha, 3329)
        inner = make_transform_pair(inner_ring, beta)
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = hntt_multiply(a, b, alpha, beta, inner)
        assert got.coeffs == oracle_multiply(a, b).coeffs, (alpha, beta)
