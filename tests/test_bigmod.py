import pytest

from nttkit.bigmod import (
    FULL_FULL,
    FULL_SMALL,
    MATVEC,
    RnsBasis,
    _check_dynamic_bound,
    bigprime_multiply,
    bound_check,
    centered,
    composite_multiply,
    crt_recombine,
    find_principal_root_composite,
    lift_centered,
    recover_centered,
    required_bound,
    rns_multiply,
)
from nttkit.errors import BoundTooSmall, NoSuchRoot, NotCoprime, ParameterCondition
from nttkit.modarith import is_principal_root, find_root
from nttkit.planner import make_plan, multiply
from nttkit.polymul import oracle_multiply
from nttkit.rings import Poly, RingSpec, XN_MINUS_1, XN_PLUS_1

SABER = RingSpec(XN_PLUS_1, 256, 8192)
SABER_PROFILE = (MATVEC, 3, 8)


def test_required_bound_values():
    # matvec bound k*n*q*mu/2 at the stated parameter sets
    assert required_bound(256, 8192, (MATVEC, 3, 8)) == 25165824
    assert 25166081 > 25165824
    assert required_bound(256, 8192, (MATVEC, 2, 10)) == 20971520
    assert 20972417 > 20971520
    assert required_bound(8, 1, (FULL_FULL,)) == 8
    assert required_bound(701, 8192, (FULL_SMALL, 2)) == 701 * 8192


def test_centered_lift_round_trip(rng):
    for q in (17, 8192, 3329):
        for x in range(0, q, max(q // 50, 1)):
            c = centered(x, q)
            assert -q // 2 <= c <= q // 2
            assert c % q == x
    ring = RingSpec(XN_PLUS_1, 16, 8192)
    a = Poly.random(ring, rng)
    la = lift_centered(a, 25166081)
    assert recover_centered(la.coeffs, 25166081, 8192) == a.coeffs
    assert la.centered_bound <= 4096


def test_crt_recombine_example():
    basis = RnsBasis((7681, 10753))
    assert basis.product == 82593793
    assert basis.reduce(12345) == (4664, 1592)
    assert crt_recombine((4664, 1592), basis) == 12345


def test_crt_recombine_inverts_reduction(rng):
    basis = RnsBasis((7681, 3329))
    for _ in range(200):
        v = rng.randrange(basis.product)
        assert crt_recombine(basis.reduce(v), basis) == v
    # exhaustively for a small basis: every value in [0, N)
    tiny = RnsBasis((3, 5))
    for v in range(15):
        assert crt_recombine(tiny.reduce(v), tiny) == v


def test_basis_validation():
    with pytest.raises(NotCoprime):
        RnsBasis((7681, 7681))
    with pytest.raises(NotCoprime):
        RnsBasis((7681, 3330))  # composite element


def test_principal_root_gcd_condition():
    basis = RnsBasis((7681, 3329))  # gcd(7680, 3328) = 256
    with pytest.raises(NoSuchRoot):
        find_principal_root_composite(512, basis)
    r = find_principal_root_composite(256, basis)
    assert is_principal_root(r, 256, basis.product)


def test_principal_root_single_prime_equals_find_root():
    basis = RnsBasis((7681,))
    assert find_principal_root_composite(512, basis) == find_root(512, 7681)


def test_find_root_delegates_for_composite():
    N = 7681 * 3329
    r = find_root(128, N)
    assert is_principal_root(r, 128, N)
    assert r == find_principal_root_composite(128, RnsBasis((7681, 3329)))


@pytest.mark.parametrize("trials", [10])
def test_saber_three_backends_agree(trials, rng):
    basis_rns = RnsBasis((7681, 10753))
    basis_comp = RnsBasis((7681, 3329))
    for _ in range(trials):
        a = Poly.random(SABER, rng)
        s = Poly.random_small(SABER, rng, 4)  # mu = 8
        want = oracle_multiply(a, s).coeffs
        g1 = bigprime_multiply(a, s, 25166081, 2, SABER_PROFILE)
        g2 = rns_multiply(a, s, basis_rns, 0, SABER_PROFILE)
        g3 = composite_multiply(a, s, basis_comp, 2, SABER_PROFILE)
        assert g1.coeffs == want
        assert g2.coeffs == want
        assert g3.coeffs == want


def test_lightsaber_preset(rng):
    for _ in range(5):
        a = Poly.random(SABER, rng)
        s = Poly.random_small(SABER, rng, 5)  # mu = 10
        got = bigprime_multiply(a, s, 20972417, 2, (MATVEC, 2, 10))
        assert got.coeffs == oracle_multiply(a, s).coeffs


def test_self_lift_matches_plain(rng):
    # q already transform-friendly and N = q: identical to the plain route
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    from nttkit.polymul import make_transform_pair, ntt_multiply

    pair = make_transform_pair(ring, 0)
    for _ in range(5):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = bigprime_multiply(a, b, 7681, 0, (FULL_FULL,))  # self-lift: no bound checks
        assert got.coeffs == ntt_multiply(a, b, pair).coeffs


def test_single_prime_basis_equals_bigprime(rng):
    ring = RingSpec(XN_PLUS_1, 16, 17)
    N = 12289
    for _ in range(5):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got_rns = rns_multiply(a, b, RnsBasis((N,)), 0, (FULL_FULL,))
        got_big = bigprime_multiply(a, b, N, 0, (FULL_FULL,))
        assert got_rns.coeffs == got_big.coeffs == oracle_multiply(a, b).coeffs


def test_composite_single_prime_equals_bigprime(rng):
    ring = RingSpec(XN_PLUS_1, 16, 17)
    for _ in range(5):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got_c = composite_multiply(a, b, RnsBasis((12289,)), 0, (FULL_FULL,))
        got_b = bigprime_multiply(a, b, 12289, 0, (FULL_FULL,))
        assert got_c.coeffs == got_b.coeffs == oracle_multiply(a, b).coeffs


def test_rns_and_composite_same_basis_agree(rng):
    basis = RnsBasis((7681, 3329))
    ring = RingSpec(XN_PLUS_1, 64, 512)
    for _ in range(5):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        # full*full bound: 64 * 512^2 = 2^24 < basis product 25570049
        r = rns_multiply(a, b, basis, 0, (FULL_FULL,))
        c = composite_multiply(a, b, basis, 2, (FULL_FULL,))
        assert r.coeffs == c.coeffs == oracle_multiply(a, b).coeffs


def test_bound_errors():
    ring = RingSpec(XN_MINUS_1, 8, 17)
    a = Poly([8] * 8, ring)  # centered magnitude 8, the worst case mod 17
    with pytest.raises(BoundTooSmall):
        bigprime_multiply(a, a, 257, 0, (FULL_FULL,))
    # a profile that understates the operand passes the static bound (136)
    # but the operand check still trips (needs > 1024)
    with pytest.raises(BoundTooSmall):
        bigprime_multiply(a, a, 257, 0, (FULL_SMALL, 2))
    with pytest.raises(ParameterCondition):
        bigprime_multiply(a, a, 2310, 0, (FULL_FULL,))  # composite N
    with pytest.raises(ParameterCondition):
        bigprime_multiply(a, a, 2357, 0, (FULL_FULL,))  # prime, 2357 % 8 != 1


def test_operand_check_boundary():
    # q = 16, centered |a| = 8, |b| = 2 over all 8 terms: 2*8*8*2 = 256 = N - 1
    ring = RingSpec(XN_MINUS_1, 8, 16)
    plan = make_plan(ring, "bigprime", N=257, allow_bigmod=True, profile=(FULL_SMALL, 2))
    a, b = Poly([8] * 8, ring), Poly([2] * 8, ring)
    assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs  # exact at the edge
    la, lb = lift_centered(a, 257), lift_centered(b, 257)
    _check_dynamic_bound(la, lb, 257)
    with pytest.raises(BoundTooSmall):
        _check_dynamic_bound(la, lb, 256)  # one step above N - 1
    with pytest.raises(BoundTooSmall):
        multiply(a, Poly([3] * 8, ring), plan)  # 2*8*8*3 = 384 > 256


def test_profile_bound_is_strict():
    ring = RingSpec(XN_MINUS_1, 8, 16)
    bound = required_bound(8, 16, (FULL_SMALL, 2))
    assert bound_check(bound, ring, (FULL_SMALL, 2), "N") == (f"N > bound {bound}", False)
    assert bound_check(bound + 1, ring, (FULL_SMALL, 2), "N")[1]
    # 257 is below 8*16*5/2 = 320: the plan refuses it, and so does the one-shot route
    with pytest.raises(ParameterCondition):
        make_plan(ring, "bigprime", N=257, allow_bigmod=True, profile=(FULL_SMALL, 5))
    with pytest.raises(BoundTooSmall):
        bigprime_multiply(Poly.zero(ring), Poly.zero(ring), 257, 0, (FULL_SMALL, 5))


def test_ntru_style_big_prime(rng):
    # cyclic length 2048 over N = 549755809793 recovers mod 2048 exactly
    ring = RingSpec(XN_MINUS_1, 2048, 2048)
    a = Poly.random(ring, rng)
    b = Poly.random_small(ring, rng, 1)
    got = bigprime_multiply(a, b, 549755809793, 0, (FULL_SMALL, 2))
    assert got.coeffs == oracle_multiply(a, b).coeffs
