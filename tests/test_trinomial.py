import hashlib
import itertools
import random
from dataclasses import astuple
from math import gcd, isqrt

import pytest

from nttkit import bounds, transforms
from nttkit.errors import LengthMismatch, ParameterCondition, PlanMismatch
from nttkit.modarith import counting, is_prime
from nttkit.polymul import reduce_mod_phi, schoolbook_linear
from nttkit.rings import Poly, RingSpec, TRINOMIAL
from nttkit.trinomial import (
    TrinomialDomainPoly,
    make_plan,
    trinomial_forward,
    trinomial_inverse,
    trinomial_multiply,
    trinomial_pointwise,
)

CONFIGS = [(6, 7), (12, 13), (24, 73), (48, 97), (768, 769), (768, 7681)]


def oracle(a, b):
    return reduce_mod_phi(schoolbook_linear(a, b), a.ring).coeffs


def test_plan_example_n6_q7():
    plan = make_plan(RingSpec(TRINOMIAL, 6, 7))
    assert plan.psi == 3 and plan.zeta1 == 3 and plan.zeta2 == 5
    assert (plan.zeta1 + plan.zeta2) % 7 == 1
    assert plan.zeta1 * plan.zeta2 % 7 == 1


@pytest.mark.parametrize("n,q", CONFIGS)
def test_plan_invariants(n, q):
    plan = make_plan(RingSpec(TRINOMIAL, n, q))
    assert (plan.zeta1 + plan.zeta2) % q == 1
    assert plan.zeta1 * plan.zeta2 % q == 1
    # leaf ring count times 3 covers the ring; exponents invertible mod n
    assert 3 * len(plan.leaf_exponents) == n
    assert all(gcd(e, n) == 1 for e in plan.leaf_exponents)
    assert len(set(plan.leaf_exponents)) == len(plan.leaf_exponents)


def test_plan_rejects_bad_modulus():
    with pytest.raises(ParameterCondition):
        make_plan(RingSpec(TRINOMIAL, 6, 11))  # 11 != 1 (mod 6)


def test_plan_n768_configs():
    make_plan(RingSpec(TRINOMIAL, 768, 769))
    make_plan(RingSpec(TRINOMIAL, 768, 7681))


def test_delta_transforms_to_constants():
    ring = RingSpec(TRINOMIAL, 6, 7)
    plan = make_plan(ring)
    d = Poly.from_ints([1], ring)
    dd = trinomial_forward(d, plan)
    assert dd.values.tolist() == [1, 0, 0, 1, 0, 0]
    assert dd == TrinomialDomainPoly([1, 0, 0, 1, 0, 0], plan) != trinomial_forward(Poly.zero(ring), plan)
    assert trinomial_inverse(dd, plan).coeffs == d.coeffs


@pytest.mark.parametrize("n,q", [(6, 7), (12, 13), (24, 73), (48, 97), (768, 769)])
def test_round_trip(n, q, rng):
    ring = RingSpec(TRINOMIAL, n, q)
    plan = make_plan(ring)
    for _ in range(10):
        a = Poly.random(ring, rng)
        assert trinomial_inverse(trinomial_forward(a, plan), plan).coeffs == a.coeffs
        # the array path of a plan's executor: same images, a buffer back
        ahat = trinomial_forward(a.array, plan, ring)
        assert ahat == trinomial_forward(a, plan)
        assert trinomial_inverse(ahat, plan, as_buffer=True).tolist() == a.coeffs


def test_inverse_linearity(rng):
    ring = RingSpec(TRINOMIAL, 24, 73)
    plan = make_plan(ring)
    q = 73
    for _ in range(10):
        x = [rng.randrange(q) for _ in range(24)]
        y = [rng.randrange(q) for _ in range(24)]
        lhs = trinomial_inverse(
            TrinomialDomainPoly([(u + v) % q for u, v in zip(x, y)], plan), plan)
        ra = trinomial_inverse(TrinomialDomainPoly(x, plan), plan)
        rb = trinomial_inverse(TrinomialDomainPoly(y, plan), plan)
        assert lhs.coeffs == ra.add(rb).coeffs


def test_pointwise_examples():
    q = 7681
    psi_j = 1234
    u = [5, 6, 7]
    assert trinomial_pointwise(u, [1, 0, 0], psi_j, q) == u  # identity
    assert trinomial_pointwise([0, 1, 0], [0, 1, 0], psi_j, q) == [0, 0, 1]  # x*x
    # x^2 * x^2 = x^4 = psi_j * x
    assert trinomial_pointwise([0, 0, 1], [0, 0, 1], psi_j, q) == [0, psi_j, 0]


def test_multiply_identity(rng):
    ring = RingSpec(TRINOMIAL, 768, 7681)
    plan = make_plan(ring)
    a = Poly.random(ring, rng)
    assert trinomial_multiply(a, Poly.from_ints([1], ring), plan).coeffs == a.coeffs


@pytest.mark.parametrize("n,q", CONFIGS)
def test_multiply_matches_oracle(n, q, rng):
    ring = RingSpec(TRINOMIAL, n, q)
    plan = make_plan(ring)
    trials = 20 if n < 100 else 5
    for _ in range(trials):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        assert trinomial_multiply(a, b, plan).coeffs == oracle(a, b)


# (n, q): digest and (mults, adds, subs, forward, inverse) counts of the
# forward image, the inverse of a random domain row and the product, for
# every stage class of the route: int64, object (q >= 2^31) and float64
PINNED = {
    (6, 7): ('1385258031b8f55c', (3, 6, 3, 1, 0), '9c9ab27c91f90fa8', (12, 3, 3, 0, 1),
             '64efe969d9b692a0', (40, 25, 9, 2, 1)),
    (12, 13): ('6ecefab410844953', (12, 18, 12, 1, 0), 'b2c2b9f3fbc93667', (42, 12, 12, 0, 1),
               '112da1657ff63d7b', (110, 68, 36, 2, 1)),
    (768, 7681): ('8b48f927dbe77c30', (3072, 3456, 3072, 1, 0), '77ed24d29132bd13',
                  (4992, 3072, 3072, 0, 1), '93c4037e5005bf3d', (13952, 11264, 9216, 2, 1)),
    (6, 2147492353): ('5577d10247dfdf3b', (3, 6, 3, 1, 0), 'e1a1f042088dafac', (12, 3, 3, 0, 1),
                      '5ec8967d586aad32', (40, 25, 9, 2, 1)),
    (96, 2147492353): ('f436d5be85bff5fd', (240, 288, 240, 1, 0), 'ba513341dbb8e33e',
                       (480, 240, 240, 0, 1), '3b4d3227cab83c6e', (1312, 976, 720, 2, 1)),
    (1536, 12289): ('b9c47926daa23b7f', (6912, 7680, 6912, 1, 0), '3c78198a980f2836',
                    (10752, 6912, 6912, 0, 1), 'f70c205e89cfdd94', (30208, 24832, 20736, 2, 1)),
    (3072, 12289): ('4fbf6579a7a13dac', (15360, 16896, 15360, 1, 0), 'ad2b5e54b53ba005',
                    (23040, 15360, 15360, 0, 1), 'c12e9f1fdd147a76', (65024, 54272, 46080, 2, 1)),
}


def _digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n,q", list(PINNED))
def test_outputs_and_op_counts_are_pinned(n, q):
    ring = RingSpec(TRINOMIAL, n, q)
    plan = make_plan(ring)
    rng = random.Random(n * q)
    a, b, d = ([rng.randrange(q) for _ in range(n)] for _ in range(3))
    got = []
    for run in (lambda: trinomial_forward(Poly(a, ring), plan).values.tolist(),
                lambda: trinomial_inverse(TrinomialDomainPoly(d, plan), plan).coeffs,
                lambda: trinomial_multiply(Poly(a, ring), Poly(b, ring), plan).coeffs):
        with counting() as c:
            got.append(_digest(run()))
        got.append(astuple(c))
    assert tuple(got) == PINNED[n, q]


def test_plan_mismatch_guard(rng):
    p1 = make_plan(RingSpec(TRINOMIAL, 6, 7))
    p2 = make_plan(RingSpec(TRINOMIAL, 12, 13))
    a = Poly.random(RingSpec(TRINOMIAL, 6, 7), rng)
    ah = trinomial_forward(a, p1)
    with pytest.raises(PlanMismatch):
        trinomial_inverse(ah, p2)
    with pytest.raises(PlanMismatch):
        trinomial_forward(a, p2)
    with pytest.raises(PlanMismatch):
        trinomial_forward(a.array, p2, a.ring)
    with pytest.raises(LengthMismatch):
        trinomial_forward(a.array[:3], p1, a.ring)


def test_batch_inverse_needs_as_buffer():
    # a batch inverts to a buffer only: without as_buffer the inverse
    # refuses it with a typed error before any arithmetic
    plan = make_plan(RingSpec(TRINOMIAL, 12, 13))
    d = TrinomialDomainPoly([[1] * 12, [2] * 12], plan)
    with counting() as c, pytest.raises(LengthMismatch):
        trinomial_inverse(d, plan)
    assert astuple(c) == (0, 0, 0, 0, 0)
    assert trinomial_inverse(d, plan, as_buffer=True).shape == (2, 12)


def _width_primes(n):
    """The primes q = 1 (mod n) either side of 2^STAGE_CAP (q-1)^2 = 2^63,
    the int64 width step: the largest with int64 stages of ``STAGE_CAP``
    levels and the smallest past it, on float64-limb stages."""
    edge = isqrt(((1 << 63) - 1) >> bounds.STAGE_CAP) + 1  # the largest such q
    first = edge - (edge - 1) % n
    below = next(q for q in range(first, 0, -n) if is_prime(q))
    above = next(q for q in itertools.count(first + n, n) if is_prime(q))
    return below, above


# n = 12, 24, 96: the split level (1, w, ...) pairs the chunks w = n/6 apart
@pytest.mark.parametrize("n, w", [(12, 2), (24, 4), (96, 16)])
@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "reduced"])
def test_split_level_reduces_only_past_its_bound(n, w, lazy):
    # the split is the first level of the first stage, under that stage's
    # class rule: below the int64 width step the stage is one int64 matmul
    # on the unreduced split and one % q ("lazy"); past it, float64-limb,
    # which reduces its high-limb sums before it adds the low ones
    # ("reduced").  All-(q-1) coefficients at the primes either side give
    # a canonical image (the domain type checks it) and the oracle's
    # product.
    q = _width_primes(n)[0 if lazy else 1]
    ring = RingSpec(TRINOMIAL, n, q)
    plan = make_plan(ring)
    assert plan.forward.stage_class == ((bounds.INT64, bounds.STAGE_CAP) if lazy
                                        else (bounds.FLOAT64_LIMB, bounds.FLOAT_WIDTH))
    nblocks, half, split = plan.forward.levels[0]
    assert (nblocks, half) == (1, w) and split.tolist() == [[[1, plan.zeta1], [1, plan.zeta2]]]
    a = Poly([q - 1] * n, ring)
    assert trinomial_inverse(trinomial_forward(a, plan), plan) == a
    assert trinomial_multiply(a, a, plan).coeffs == oracle(a, a)


@pytest.mark.parametrize("q", [7, 13, 2147483713])
def test_forward_without_radix2_levels_is_canonical(q):
    # n = 6 has no radix-2 level: each schedule holds only the split or
    # the unsplit, whose matrix is the level's whole map (no 2^-levels
    # factor), and its one stage reduces; the domain type would refuse a
    # non-canonical image
    ring = RingSpec(TRINOMIAL, 6, q)
    plan = make_plan(ring)
    z1, z2 = plan.zeta1, plan.zeta2
    assert len(plan.forward.levels) == len(plan.inverse.levels) == 1
    assert plan.inverse.factor == 1 and len(plan.forward.stages) == 1
    nblocks, half, unsplit = plan.inverse.levels[-1]
    assert (nblocks, half) == (1, 1)
    assert [[(z2 - z1) * x % q for x in row] for row in unsplit[0].tolist()] == [[z2, q - z1],
                                                                                [q - 1, 1]]
    a = Poly([q - 1] * 6, ring)
    assert trinomial_inverse(trinomial_forward(a, plan), plan) == a
    assert trinomial_multiply(a, a, plan).coeffs == oracle(a, a)


def test_split_level_runs_in_the_first_float_stage():
    # 10 levels (n = 3072) run float64 stages: the split opens the first
    # one, which leaves its sums unreduced for the second, and the
    # stages give the reference kernel's image
    ring = RingSpec(TRINOMIAL, 3072, 12289)
    plan = make_plan(ring)
    assert plan.forward.stage_class[0] == bounds.FLOAT64
    assert [s.reduce for s in plan.forward.stages] == [False, True]
    a = Poly([12288] * 3072, ring)
    ahat = trinomial_forward(a, plan)
    want = [a.coeffs]
    transforms.reference_rows(want, plan.forward)
    assert ahat.values.tolist() == want[0]
    assert trinomial_inverse(ahat, plan) == a
