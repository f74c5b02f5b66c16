from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from nttkit import bigmod, bounds, embed, planner
from nttkit.bigmod import (
    FULL_FULL,
    FULL_SMALL,
    MATVEC,
    RnsBasis,
    _check_dynamic_bound,
    bigprime_multiply,
    bound_check,
    composite_multiply,
    find_principal_root_composite,
    garner,
    lift_centered,
    recover_centered,
    required_bound,
    rns_multiply,
)
from nttkit.errors import BoundTooSmall, NoSuchRoot, NotCoprime, ParameterCondition
from nttkit.modarith import is_principal_root, find_root
from nttkit.planner import make_plan, multiply, search_basis, search_prime
from nttkit.polymul import oracle_multiply
from nttkit.rings import Poly, RingSpec, XN_MINUS_1, XN_MINUS_X_MINUS_1, XN_PLUS_1

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


@pytest.mark.parametrize("profile", [
    ("full*other",), (), ("full*full", 2), ("full*small",), ("full*small", 2, 3),
    ("matvec",), ("matvec", 3), ("matvec", 3, 8, 1), ("matvec", "3", 8),
])
def test_malformed_profiles_raise_typed_errors(profile):
    # unknown kinds, wrong arity for each kind and non-integer parameters
    with pytest.raises(ParameterCondition, match="profile"):
        required_bound(256, 8192, profile)
    with pytest.raises(ParameterCondition, match="profile"):
        make_plan(SABER, "bigprime", allow_bigmod=True, profile=profile)


def test_centered_lift_round_trip(rng):
    for q in (17, 8192, 3329):
        xs = np.arange(0, q, max(q // 50, 1))
        s = lift_centered(xs, xs[::-1], q)
        assert s.shape == (2, len(xs)) and s.dtype == np.int64
        for cs, row in zip(s.tolist(), (xs, xs[::-1])):
            assert all(-q // 2 <= c <= q // 2 and c % q == x for c, x in zip(cs, row))
    ring = RingSpec(XN_PLUS_1, 16, 8192)
    a = Poly.random(ring, rng)
    s = lift_centered(a.array, a.array, 8192)
    assert recover_centered([s[0] % 25166081], (25166081,), 8192).tolist() == a.coeffs
    assert np.abs(s).max() <= 4096


@pytest.mark.parametrize("q", [2, 3, 16, 17, 8192, (1 << 42) - 11])
def test_centered_lift_at_the_half_way_point(q):
    # (q-1)//2 is the largest value kept, (q+1)//2 the first one moved down
    lo, hi = (q - 1) // 2, (q + 1) // 2
    ring = RingSpec(XN_MINUS_1, 4, q)
    s = lift_centered(Poly([lo, hi, 0, 0], ring).array, np.array([lo, 0, 0, 0]), q)
    assert s.tolist() == [[lo, hi - q, 0, 0], [lo, 0, 0, 0]]
    assert np.abs(s).max(axis=1).tolist() == [max(lo, q - hi), lo]


@pytest.mark.parametrize("moduli", [(5, 13), (120833, 133121), (2097143, 2097133),
                                    (16381, 16369, 16363), (25166081,)])
@pytest.mark.parametrize("q", [8192, 3329, (1 << 42) - 11])
def test_garner_recovery_at_the_edges(moduli, q):
    # 0, P - 1 (= -1) and +-floor((P-1)/2), the ends of the centered range
    P = prod(moduli)
    h = (P - 1) // 2
    values = [0, P - 1, h, P - h, 1, h - 1]
    residues = [np.array([v % p for v in values]) for p in moduli]
    got = recover_centered(residues, moduli, q)
    assert got.tolist() == [0, q - 1, h % q, -h % q, 1, (h - 1) % q]
    if len(moduli) > 1:  # garner never mutates the residues
        assert [r.tolist() for r in residues] == [[v % p for v in values] for p in moduli]
    else:  # a lone modulus's residues are recovered in place
        assert got is residues[0]


def test_operand_check_at_the_edge_of_a_two_prime_basis():
    # basis 5*13 = 65; q = 16, centered |a| = 8, |b| = 1 over all 4 terms:
    # 2*4*8*1 = 64 = P - 1, and every product coefficient is -32 = -(P-1)/2
    ring = RingSpec(XN_MINUS_1, 4, 16)
    plan = make_plan(ring, "rns", basis=(5, 13), allow_bigmod=True, profile=(FULL_SMALL, 2))
    a, b = Poly([8] * 4, ring), Poly([1] * 4, ring)
    assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs == [0] * 4
    a1 = Poly([8, 8, 8, 0], ring)  # 2*3*8*1 = 48 < P - 1
    assert multiply(a1, b, plan).coeffs == oracle_multiply(a1, b).coeffs
    s = lift_centered(a.array, b.array, 16)
    _check_dynamic_bound(s, 65)
    with pytest.raises(BoundTooSmall):
        _check_dynamic_bound(s, 64)  # the same operands against P = 64: 2*4*8*1 = P
    with pytest.raises(BoundTooSmall):
        multiply(a, Poly([1, 1, 1, 2], ring), plan)  # 2*4*8*2 = 128 > 64


def test_operand_check_reads_the_basis_product():
    # the profile understates the operands: 65537 replaces N and holds the
    # profile bound 65536, not two full operands, although N would
    ring = RingSpec(XN_MINUS_1, 16, 1 << 12)
    N = search_prime(16, 1 << 31)
    plan = make_plan(ring, "bigprime", N=N, allow_bigmod=True, profile=(FULL_SMALL, 2))
    assert plan.replaced_by == (65537,)
    a = Poly([1 << 11] * 16, ring)
    with pytest.raises(BoundTooSmall):
        multiply(a, a, plan)
    s = Poly([1] * 16, ring)
    assert multiply(a, s, plan).coeffs == oracle_multiply(a, s).coeffs


def test_search_basis_values():
    assert search_basis(2048, 2134900736) == (2134904833,)  # ntru-509's bound
    assert search_basis(2048, 13774094336) == (120833, 133121)  # ntru-821's bound
    assert search_basis(2, 2134900736) == (2134900739,)  # odd, for block terminals
    # the search starts at ceil((bound+1)^(1/k)) itself
    assert search_basis(2048, 2134904832) == (2134904833,)
    assert search_basis(2048, 120833 ** 2 - 1) == (120833, 133121)
    with pytest.raises(ParameterCondition):
        search_basis(2, 1 << 42)


def test_plans_beyond_the_modulus_ceiling_raise():
    # the bounds n*q^2 are 2^50: no working modulus within 2^42 holds them
    with pytest.raises(ParameterCondition):
        make_plan(RingSpec(XN_MINUS_1, 1021, 1 << 20))
    with pytest.raises(ParameterCondition):
        make_plan(RingSpec(XN_PLUS_1, 1024, 1 << 20), "bigprime", allow_bigmod=True)


def test_rns_basis_primes_must_be_below_2_31():
    ring = RingSpec(XN_MINUS_1, 4, 16)
    with pytest.raises(ParameterCondition):
        rns_multiply(Poly.zero(ring), Poly.zero(ring), RnsBasis((5, 2147493889)), 0, (FULL_SMALL, 2))


# derandomized, and each test pins @seed(0): a derandomized draw alone
# would move with every edit of the test's source
SWEEP = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def replaced_plans(draw):
    """A big-prime plan or a lifted chain whose working modulus is >= 2^31:
    a named one over a bound below 2^31 (one basis prime), or a searched
    one over a bound of 2^33 or more (two), with its operand pairs and the
    one-shot product at a single big N (the pure-Python kernel)."""
    two = draw(st.booleans())
    t = draw(st.integers(33, 38) if two else st.integers(12, 29))  # log2 of the bound
    route = draw(st.sampled_from(["bigprime", "pad-pow2", "good", "schonhage"]))
    if route == "bigprime":
        form = draw(st.sampled_from([XN_MINUS_1, XN_PLUS_1]))
        n = 1 << draw(st.integers(2, 6))
    else:
        form = draw(st.sampled_from([XN_MINUS_1, XN_MINUS_X_MINUS_1]))
        n = draw(st.integers(3, 40).filter(lambda v: v & (v - 1)))
    mu = 2 * draw(st.integers(0, 3))  # 0: full*full
    prof = (FULL_SMALL, mu) if mu else (FULL_FULL,)
    q = (1 << (t + 1)) // (n * mu) if mu else isqrt((1 << t) // n)
    q = max(q + (q & 1), 2)  # even: unfriendly for the big-prime route
    ring = RingSpec(form, n, q)
    bound = required_bound(n, q, prof)
    if route == "bigprime":
        beta = draw(st.integers(0, 1))
        order = (2 * n if form == XN_PLUS_1 else n) >> beta
        named = None if two else search_prime(order, 1 << 31)
        plan = make_plan(ring, "bigprime", beta=beta, N=named, allow_bigmod=True, profile=prof)
        big = search_prime(order, max(bound, 1 << 31))

        def one_shot(a, b):
            return bigprime_multiply(a, b, big, beta, prof)
    else:
        if route == "good":
            k = 0
            while 3 << k < 2 * n - 1:
                k += 1
            n_pad, terminal, cong = 3 << k, embed.Good(3, k), 1 << k
        else:
            n_pad = 1 << (2 * n - 1).bit_length()
            m = 1 << ((n_pad.bit_length() - 2) // 2)
            terminal, cong = ((embed.PlainNtt(0), n_pad) if route == "pad-pow2"
                              else (embed.Schonhage(m, n_pad // (2 * m)), 2))
        named = None if two else search_prime(cong, 1 << 31)
        plan = make_plan(ring, chain=(embed.ZeroPad(n_pad), embed.LiftModulus(named), terminal),
                         profile=prof)
        n_big = 1 << (2 * n - 1).bit_length()
        big = search_prime(n_big, max(required_bound(n_big, q, prof), 1 << 31))

        def one_shot(a, b):
            return embed.zero_pad_multiply(
                a, b, n_big, lambda x, y: bigprime_multiply(x, y, big, 0, prof))
    full = st.one_of(st.just([q // 2] * n), st.just([q - 1] * n),
                     st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    small = st.lists(st.integers(-(mu // 2), mu // 2), min_size=n, max_size=n).map(
        lambda c: [v % q for v in c])
    pairs = draw(st.lists(st.tuples(full, small if mu else full), min_size=1, max_size=2))
    return plan, (2 if two else 1), [(Poly(a, ring), Poly(b, ring)) for a, b in pairs], one_shot


@SWEEP
@seed(0)
@given(replaced_plans())
def test_replaced_moduli_match_the_oracle_and_one_big_prime(case):
    plan, primes, pairs, one_shot = case
    basis = plan.replaced_by
    assert len(basis) == primes and all(p < 1 << 31 for p in basis)
    assert f"-> {'*'.join(map(str, basis))}" in plan.describe()
    for a, b in pairs:
        got = multiply(a, b, plan)
        assert got.coeffs == oracle_multiply(a, b).coeffs == one_shot(a, b).coeffs


def _residues(values, moduli):
    return [np.array([v % p for v in values]) for p in moduli]


def test_garner_example():
    moduli = (7681, 10753)
    assert prod(moduli) == 82593793
    residues = _residues([12345], moduli)
    assert [r.tolist() for r in residues] == [[4664], [1592]]
    assert garner(residues, moduli).tolist() == [12345]


def test_garner_inverts_reduction(rng):
    moduli = (7681, 3329)
    values = [rng.randrange(prod(moduli)) for _ in range(200)]
    assert garner(_residues(values, moduli), moduli).tolist() == values
    # exhaustively for a small basis: every value in [0, N)
    assert garner(_residues(range(15), (3, 5)), (3, 5)).tolist() == list(range(15))


def test_garner_above_2_31_matches_python_crt(rng):
    # a second modulus >= 2^31 overflows int64 digit products: object values
    moduli = (17, search_prime(8, 1 << 36))
    P = prod(moduli)
    values = [0, 1, P - 1, (P - 1) // 2] + [rng.randrange(P) for _ in range(50)]
    got = garner(_residues(values, moduli), moduli)
    assert got.dtype == object
    crt = [sum((v % p) * (P // p) * pow(P // p, -1, p) for p in moduli) % P for v in values]
    assert got.tolist() == crt == values


def test_basis_validation():
    with pytest.raises(NotCoprime):
        RnsBasis((7681, 7681))
    with pytest.raises(NotCoprime):
        RnsBasis((7681, 3330))  # composite element
    # the 2^42 ceiling at its boundary: 2097143 * 2097169 = 2^42 + 16777063
    with pytest.raises(ParameterCondition, match=r"basis \(2097143, 2097169\).*2\^42"):
        RnsBasis((2097143, 2097169))
    assert RnsBasis((2097133, 2097169)).product == 2**42 - 4194627


def test_principal_root_gcd_condition():
    basis = RnsBasis((7681, 3329))  # gcd(7680, 3328) = 256
    with pytest.raises(NoSuchRoot):
        find_principal_root_composite(512, basis)
    r = find_principal_root_composite(256, basis)
    assert is_principal_root(r, 256, basis.product)


def test_principal_root_matches_exhaustive_search():
    # the minimum over the CRT lifts of the per-prime roots is the smallest
    # principal root found by an ascending search
    basis = RnsBasis((13, 17))
    for k in (2, 4):
        brute = next(x for x in range(1, 221) if is_principal_root(x, k, 221))
        assert find_principal_root_composite(k, basis) == brute, k


def test_principal_root_single_prime_equals_find_root():
    basis = RnsBasis((7681,))
    assert find_principal_root_composite(512, basis) == find_root(512, 7681)


def test_find_root_delegates_for_composite():
    N = 7681 * 3329
    r = find_root(128, N)
    assert is_principal_root(r, 128, N)
    assert r == find_principal_root_composite(128, RnsBasis((7681, 3329)))


def test_composite_root_search_memory_is_bounded():
    # 128^3 CRT lifts for order 256 on three primes: one grid would peak
    # near 112 MiB; chunks of the first prime's candidates stay far below
    import tracemalloc

    tracemalloc.start()
    try:
        root = find_principal_root_composite(256, RnsBasis((7681, 10753, 11777)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert root == 204207
    assert peak < 16 << 20, peak


def test_two_prime_root_search_is_one_chunk(monkeypatch):
    # saber-m3's basis lifts 64 x 64 candidates: one garner call, as before
    from nttkit import bigmod

    want = find_root(128, 7681 * 3329)
    calls = []
    monkeypatch.setattr(bigmod, "garner", lambda r, m: calls.append(np.size(r[0])) or garner(r, m))
    assert find_principal_root_composite(128, RnsBasis((7681, 3329))) == want
    assert calls == [64 * 64]


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
    s = lift_centered(a.array, b.array, 16)
    _check_dynamic_bound(s, 257)
    with pytest.raises(BoundTooSmall):
        _check_dynamic_bound(s, 256)  # one step above N - 1
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


# ---------------------------------------------------------------------------
# the lifted path: one centered operand stack from the lift to the recovery


def _per_operand_check(x, y, q: int, N: int) -> bool:
    """The operand check as two per-operand lifts made it, kept as the
    reference: each operand centered on its own, its largest magnitude and
    its length up to the last nonzero entry; True where it passes."""
    lifts = []
    for v in (x, y):
        c = np.array(v, dtype=np.int64)
        c -= (c > (q - 1) // 2) * q
        nonzero = np.flatnonzero(c)
        lifts.append((int(np.abs(c).max()), int(nonzero[-1]) + 1 if nonzero.size else 0))
    (ca, ea), (cb, eb) = lifts
    return 2 * min(ea, eb) * ca * cb <= N - 1


def _passes(x, y, q: int, N: int) -> bool:
    try:
        _check_dynamic_bound(lift_centered(np.array(x), np.array(y), q), N)
    except BoundTooSmall:
        return False
    return True


def _no_effective_lengths(*args):
    raise AssertionError("the full-length test decides: no effective length is read")


@pytest.mark.parametrize("x, y, edge, full", [
    ([8] * 4, [1] * 4, 64, True),  # 2*4*8*1: the full length decides
    ([0, 0, 0, 8], [1] * 4, 64, True),  # the last entry nonzero: the same bound
    ([8, 0, 0, 0], [1] * 4, 16, False),  # one term: only the effective length passes
    ([0, 0, 5, 0], [0, 1, 0, 0], 20, False),  # single nonzero entries: min(3, 2) terms
    ([0] * 4, [8] * 4, 0, True),  # an all-zero operand holds any N
])
def test_operand_check_at_its_boundary_in_both_branches(x, y, edge, full, monkeypatch):
    # q = 16: 2*terms*ca*cb = P - 1 passes and = P raises, decided by the
    # full length alone where that passes (effective lengths patched to
    # raise), else by the effective lengths; as the per-operand check did
    q = 16
    with monkeypatch.context() as m:
        if full:
            m.setattr(np, "flatnonzero", _no_effective_lengths)
        assert _passes(x, y, q, edge + 1)
    assert _per_operand_check(x, y, q, edge + 1)
    if edge:
        assert not _passes(x, y, q, edge) and not _per_operand_check(x, y, q, edge)


@st.composite
def operand_checks(draw):
    """(x, y, q, N): canonical operands of one length, many of them zero or
    zero past a short prefix, and N at or next to the bounds that the full
    length and the effective lengths give."""
    q = draw(st.one_of(st.integers(2, 64), st.integers(2, 1 << 42)))
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(0, q - 1), st.sampled_from(((q - 1) // 2, (q + 1) // 2 % q)))
    x, y = (draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    for v in (x, y):
        cut = draw(st.integers(0, n))
        v[cut:] = [0] * (n - cut)
    s = lift_centered(np.array(x), np.array(y), q)
    ca, cb = np.abs(s).max(axis=1).tolist()
    eff = [int(np.flatnonzero(r)[-1]) + 1 if r.any() else 0 for r in s]
    edges = (2 * n * ca * cb, 2 * min(eff) * ca * cb)
    N = draw(st.sampled_from(edges)) + draw(st.integers(-1, 2))
    return x, y, q, max(N, 1)


@SWEEP
@seed(0)
@given(operand_checks())
def test_operand_check_matches_the_per_operand_check(case):
    # the stack's fixed-shape check accepts and refuses exactly the pairs
    # that two per-operand lifts did, and lifts them to the same values
    x, y, q, N = case
    assert _passes(x, y, q, N) == _per_operand_check(x, y, q, N)
    s = lift_centered(np.array(x), np.array(y), q)
    assert ((s - np.array((x, y))) % q == 0).all() and (2 * np.abs(s) <= q).all()


def _lifted(name: str) -> bool:
    ring, plan = planner.preset(name)
    lift = getattr(plan.chain, "lift", None)
    return plan.executor.N != ring.q or lift is not None and lift.modulus != ring.q


LIFTED_PRESETS = [name for name in planner.preset_names() if _lifted(name)]


def test_every_lifted_preset_is_listed():
    assert len(LIFTED_PRESETS) == 11
    assert {"saber-m4", "saber-avx2", "saber-m3", "ntru-509", "ntru-701", "ntru-821"} <= set(LIFTED_PRESETS)


@pytest.mark.parametrize("name", LIFTED_PRESETS)
def test_lifted_product_lifts_once_and_recovers_once(name, monkeypatch, rng):
    # one lift onto one (2, n) stack and one recovery per product; each
    # working modulus runs on that stack unreduced (every registry modulus
    # takes centered entries), the last modulus on the stack itself, the
    # others on copies; a chain terminal gets the source arrays, never a
    # padded copy or the zero-extended product
    ring, plan = planner.preset(name)
    chained = plan.chain is not None
    lifts, recoveries, runs = [], [], []
    real_lift, real_recover, real_run = bigmod.lift_centered, bigmod.recover_centered, bigmod.BigPrimeExecutor.run
    monkeypatch.setattr(bigmod, "lift_centered", lambda *a: lifts.append(real_lift(*a)) or lifts[-1])
    monkeypatch.setattr(bigmod, "recover_centered", lambda *a: recoveries.append(a) or real_recover(*a))
    monkeypatch.setattr(bigmod.BigPrimeExecutor, "run", lambda self, X, t: runs.append((self, X, X.copy()))
                        or real_run(self, X, t))
    if chained:
        def no_pad(*args):
            raise AssertionError("a lifted plain or Good terminal is not padded")
        monkeypatch.setattr(embed, "padded_product", no_pad)
        monkeypatch.setattr(bigmod.BigPrimeExecutor, "product", no_pad)
    for a, b in (planner.sample_operands(ring, plan, rng), planner.sample_operands(ring, plan, rng)):
        lifts.clear(), recoveries.clear(), runs.clear()
        assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
        (s,), (recovery,) = lifts, recoveries
        executor = runs[0][0]
        assert s.shape == (2, ring.n) and s.dtype == np.int64
        assert len(recovery[0]) == len(executor.moduli) == len(runs)
        centered = np.array((a.array, b.array))
        centered -= (centered > (ring.q - 1) // 2) * ring.q
        assert centered.min() < 0
        for (_, _, seen), p in zip(runs, executor.moduli):
            assert bounds.centered_input(ring.q, p) and np.array_equal(seen, centered)
        assert runs[-1][1] is s and all(X is not s for _, X, _ in runs[:-1])


def _extremes(ring: RingSpec, plan) -> list:
    """Operand pairs at the centered extremes: all floor(q/2), all
    ceil(q/2) and both alternating, against the same (full*full) or the
    profile's small extremes +-B."""
    q, n = ring.q, ring.n
    lo, hi = q // 2, (q + 1) // 2
    tops = [[lo] * n, [hi] * n, [lo, hi] * (n // 2) + [lo] * (n % 2)]
    if plan.sample_b[0] == "small":
        B = int(plan.sample_b[1])
        others = [[B] * n, [q - B] * n, [B, q - B] * (n // 2) + [B] * (n % 2)]
    else:
        others = tops
    return [(Poly(x, ring), Poly(y, ring)) for x in tops for y in others]


GENERATED_LIFTS = [
    (RingSpec(XN_PLUS_1, 32, 8192), dict(prefer="bigprime", allow_bigmod=True)),
    (RingSpec(XN_PLUS_1, 32, 4591), dict(prefer="rns", allow_bigmod=True)),
    (RingSpec(XN_PLUS_1, 32, 4591), dict(prefer="composite", allow_bigmod=True)),
    (RingSpec(XN_MINUS_X_MINUS_1, 23, 4591), dict(prefer="good")),
    (RingSpec(XN_MINUS_X_MINUS_1, 23, 4591), dict(prefer="pad-pow2")),
]


@pytest.mark.parametrize("case", [*LIFTED_PRESETS, *range(len(GENERATED_LIFTS))])
def test_centered_extremes_match_the_oracle(case):
    # the entries floor(q/2) and ceil(q/2), the ends of the centered range,
    # on every lifted preset and on generated big-prime, RNS, composite and
    # padded Good and plain routes
    if isinstance(case, str):
        ring, plan = planner.preset(case)
    else:
        ring, how = GENERATED_LIFTS[case]
        plan = make_plan(ring, **how)
    for a, b in _extremes(ring, plan):
        assert multiply(a, b, plan) == oracle_multiply(a, b)


def test_a_basis_prime_below_half_q_reduces_its_stack(monkeypatch, rng):
    # 97 < 8192/2: a centered entry can pass the bounds mod 97, so that
    # basis prime runs the stack reduced mod 97; the others run it centered
    ring, basis = RingSpec(XN_PLUS_1, 16, 8192), (97, 12289, 40961)
    assert [bounds.centered_input(ring.q, p) for p in basis] == [False, True, True]
    plan = make_plan(ring, "rns", basis=basis, allow_bigmod=True)
    runs, real_run = [], bigmod.BigPrimeExecutor.run
    monkeypatch.setattr(bigmod.BigPrimeExecutor, "run", lambda self, X, t: runs.append(X.copy())
                        or real_run(self, X, t))
    for a, b in [(Poly.random(ring, rng), Poly.random(ring, rng)), *_extremes(ring, plan)]:
        runs.clear()
        assert multiply(a, b, plan) == oracle_multiply(a, b)
        reduced, *centered = runs
        assert reduced.min() >= 0 and reduced.max() < 97
        assert all(np.array_equal(S, centered[0]) for S in centered)
        assert np.array_equal(reduced, centered[0] % 97)
