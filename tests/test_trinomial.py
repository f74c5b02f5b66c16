import itertools
from math import gcd

import pytest

from nttkit import transforms
from nttkit.errors import LengthMismatch, ParameterCondition, PlanMismatch
from nttkit.modarith import is_prime
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


def _split_primes(n, w):
    """The primes q = 1 (mod n) either side of w q (q-1)^2 = 2^63: the
    largest below the split level's lazy bound and the smallest past it."""
    edge = round(((1 << 63) / w) ** (1 / 3))
    while w * edge * (edge - 1) ** 2 < 1 << 63:
        edge += 1
    while w * edge * (edge - 1) ** 2 >= 1 << 63:
        edge -= 1  # now the largest q with w q (q-1)^2 < 2^63
    first = edge - (edge - 1) % n
    below = next(q for q in range(first, 0, -n) if is_prime(q))
    above = next(q for q in itertools.count(first + n, n) if is_prime(q))
    return below, above


# n = 12, 24, 96: one int64 stage of 1, 2 and 4 levels, w = 2, 4 and 16
@pytest.mark.parametrize("n, w", [(12, 2), (24, 4), (96, 16)])
@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "reduced"])
def test_split_level_reduces_only_past_its_bound(monkeypatch, n, w, lazy):
    # all-(q-1) coefficients at the primes either side of the bound: below
    # it the first stage takes the unreduced split (a canonical input there
    # raises), past it the reduced one (a non-canonical input raises)
    q = _split_primes(n, w)[0 if lazy else 1]
    ring = RingSpec(TRINOMIAL, n, q)
    plan = make_plan(ring)
    assert plan.forward.stage_class[0] == transforms.INT64
    assert plan.forward.stages[0].matrices.shape[-1] == w and plan.lazy_split == lazy
    firsts, apply = [], transforms.Stage.apply

    def first_stage(stage, buf, q):
        if not firsts:
            firsts.append(buf.copy())
            if bool(buf.min() >= 0 and buf.max() < q) == lazy:
                raise AssertionError("the other split path ran")
        return apply(stage, buf, q)

    monkeypatch.setattr(transforms.Stage, "apply", first_stage)
    a = Poly([q - 1] * n, ring)
    ahat = trinomial_forward(a, plan)
    assert firsts and trinomial_inverse(ahat, plan) == a
    assert trinomial_multiply(a, a, plan).coeffs == oracle(a, a)


@pytest.mark.parametrize("q", [7, 13, 2147483713])
def test_forward_without_radix2_levels_is_canonical(q):
    # n = 6 has no radix-2 level after the split, so the split reduces:
    # the domain type would refuse a non-canonical image
    ring = RingSpec(TRINOMIAL, 6, q)
    plan = make_plan(ring)
    assert not plan.forward.levels and not plan.lazy_split
    a = Poly([q - 1] * 6, ring)
    assert trinomial_inverse(trinomial_forward(a, plan), plan) == a


def test_split_level_reduces_before_float_stages():
    # 9 levels (n = 3072) run float64 stages, which take canonical input
    plan = make_plan(RingSpec(TRINOMIAL, 3072, 12289))
    assert plan.forward.stage_class[0] == transforms.FLOAT64 and not plan.lazy_split
