"""The int64 kernels against the pure-Python reference kernels.

Values and OpCounter tallies must be identical: the transforms on an
int64 array against the same schedule run on a list, the leaf products
against ``basecase_mul`` and the trinomial transform and leaves against
the plan's reference path.  The kernel is picked by the modulus alone,
so the last tests pin the 2^31 threshold with the primes on either side
of it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_transforms import forward_specs, inverse_specs_for, ring_for, tables_for

from nttkit import modarith, polymul, transforms, trinomial
from nttkit.modarith import OpCounter, counting, is_prime
from nttkit.polymul import basecase_mul, make_transform_pair, ntt_multiply, oracle_multiply
from nttkit.rings import TRINOMIAL, XN_MINUS_1, XN_PLUS_1, Poly, RingSpec
from nttkit.transforms import CC, NWC, NttDomainPoly

BUDGET = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# NTT-friendly primes below 2^31 with 2-adic orders from 2^8 to 2^27
PRIMES = (257, 3329, 7681, 12289, 8380417, 2013265921)


def two_adic(q):
    return (q - 1) & -(q - 1)


def edge_or_random(n, q):
    """Operand vectors: zero, one, all q-1, or uniform."""
    return st.one_of(
        st.just([0] * n),
        st.just([1] + [0] * (n - 1)),
        st.just([q - 1] * n),
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
    )


@st.composite
def transform_cases(draw):
    """(kind, n, q, beta, values) with q admitting the table order."""
    kind = draw(st.sampled_from((CC, NWC)))
    logn = draw(st.integers(1, 7))
    n = 1 << logn
    beta = draw(st.integers(0, max(logn - 1, 0)))
    order = (2 * n if kind == NWC else n) >> beta
    q = draw(st.sampled_from([p for p in PRIMES if two_adic(p) % order == 0]))
    return kind, n, q, beta, draw(edge_or_random(n, q))


def reference(values, q, tw, spec, n, halving=False):
    """(values, counter) of the reference kernel on a copy of values."""
    buf = list(values)
    with counting() as c:
        transforms.run_levels(buf, q, transforms.make_schedule(spec, tw, n), halving=halving)
    return buf, c


def vector(values, q, tw, spec, n, halving=False):
    x = np.array(values, dtype=np.int64)
    with counting() as c:
        transforms.run_levels(x, q, transforms.make_schedule(spec, tw, n), halving=halving)
    return x.tolist(), c


@BUDGET
@given(transform_cases(), st.sampled_from((modarith.BIT_REVERSED, modarith.NATURAL)))
def test_transform_kernels_agree(case, storage):
    # every spec variant: CC/NWC x CT/GS x input order, forward and inverse
    kind, n, q, beta, values = case
    ftw, itw = tables_for(kind, n, q, beta, storage)
    for fs in forward_specs(kind, beta):
        assert vector(values, q, ftw, fs, n) == reference(values, q, ftw, fs, n)
        for inv in inverse_specs_for(fs):
            assert vector(values, q, itw, inv, n) == reference(values, q, itw, inv, n)
            if q % 2:
                got = vector(values, q, itw, inv, n, halving=True)
                assert got == reference(values, q, itw, inv, n, halving=True)


@BUDGET
@given(transform_cases(), st.booleans())
def test_public_transforms_match_reference(case, halving):
    # ntt_forward/ntt_inverse (int64 path here) against the reference passes
    kind, n, q, beta, values = case
    ftw, itw = tables_for(kind, n, q, beta)
    ring = ring_for(kind, n, q)
    fs = forward_specs(kind, beta)[0]
    inv = inverse_specs_for(fs)[-1]
    with counting() as cf:
        ahat = transforms.ntt_forward(Poly(values, ring), ftw, fs)
    want, rf = reference(values, q, ftw, fs, n)
    rf.forward_transforms += 1
    assert (ahat.values, cf) == (want, rf)
    with counting() as ci:
        back = transforms.ntt_inverse(ahat, itw, inv, halving=halving)
    want, ri = reference(ahat.values, q, itw, inv, n, halving=halving)
    ri.inverse_transforms += 1
    if not halving:
        s = modarith.mod_inv(n >> beta, q)
        want = [v * s % q for v in want]
        ri.mults += n
    assert (back.coeffs, ci) == (want, ri)
    assert back.coeffs == values


@st.composite
def leaf_cases(draw):
    L = draw(st.sampled_from((2, 4, 8)))
    m = draw(st.integers(1, 16))
    q = draw(st.sampled_from(PRIMES))
    u = draw(edge_or_random(m * L, q))
    v = draw(edge_or_random(m * L, q))
    gammas = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    return L, q, u, v, gammas


@BUDGET
@given(leaf_cases(), st.booleans())
def test_leaf_products_match_basecase(case, karatsuba):
    L, q, u, v, gammas = case
    with counting() as ref:
        want = []
        for p, g in enumerate(gammas):
            want += basecase_mul(u[p * L : (p + 1) * L], v[p * L : (p + 1) * L], g, q, karatsuba)
    assert polymul.leaf_products(u, v, gammas, q) == want
    mults, adds, subs = polymul.leaf_ops(L, karatsuba)
    m = len(gammas)
    assert OpCounter(mults * m, adds * m, subs * m) == ref


@BUDGET
@given(st.sampled_from((XN_MINUS_1, XN_PLUS_1)), st.integers(2, 6), st.data())
def test_pointwise_mul_matches_basecase(form, logn, data):
    n = 1 << logn
    beta = data.draw(st.integers(1, logn - 1))
    order = (2 * n if form == XN_PLUS_1 else n) >> beta
    q = data.draw(st.sampled_from([p for p in PRIMES if two_adic(p) % order == 0]))
    karatsuba = data.draw(st.booleans())
    pair = make_transform_pair(RingSpec(form, n, q), beta)
    A = NttDomainPoly(data.draw(edge_or_random(n, q)), pair.fwd_spec, pair.ring, 1 << beta)
    B = NttDomainPoly(data.draw(edge_or_random(n, q)), pair.fwd_spec, pair.ring, 1 << beta)
    with counting() as got_c:
        got = pair.pointwise(A, B, use_karatsuba=karatsuba)
    L = 1 << beta
    with counting() as ref_c:
        want = []
        for p, g in enumerate(pair.gammas):
            s = slice(p * L, (p + 1) * L)
            want += basecase_mul(A.values[s], B.values[s], g, q, karatsuba)
    assert (got.values, got_c) == (want, ref_c)


TRINOMIAL_RINGS = [RingSpec(TRINOMIAL, n, q) for n, q in
                   ((6, 7), (12, 13), (24, 73), (48, 97), (96, 193), (768, 7681))]


def _boom(*args, **kwargs):
    raise AssertionError("this kernel must not run for this modulus")


@BUDGET
@given(st.sampled_from(TRINOMIAL_RINGS), st.data())
def test_trinomial_kernels_agree(ring, data):
    plan = trinomial.make_plan(ring)
    assert modarith.vectorized(ring.q)
    a = Poly(data.draw(edge_or_random(ring.n, ring.q)), ring)
    b = Poly(data.draw(edge_or_random(ring.n, ring.q)), ring)

    def run():
        with counting() as c:
            fa = trinomial.trinomial_forward(a, plan).values
            back = trinomial.trinomial_inverse(trinomial.TrinomialDomainPoly(fa, plan), plan).coeffs
            prod = trinomial.trinomial_multiply(a, b, plan).coeffs
        return fa, back, prod, c

    results = [run()]
    # the pure-Python path: lists everywhere, the int64 kernel must not run
    with mock.patch.object(modarith, "vectorized", lambda m: False), \
            mock.patch.multiple(transforms, ct_level=_boom, gs_level=_boom):
        results.append(run())
    assert results[0] == results[1]
    assert results[0][1] == a.coeffs
    assert results[0][2] == oracle_multiply(a, b).coeffs


@BUDGET
@given(st.sampled_from(PRIMES), st.integers(1, 40), st.data())
def test_trinomial_leaves_match_pointwise(q, leaves, data):
    u = data.draw(edge_or_random(3 * leaves, q))
    v = data.draw(edge_or_random(3 * leaves, q))
    psi = data.draw(st.lists(st.integers(0, q - 1), min_size=leaves, max_size=leaves))
    want = []
    for i, c in enumerate(psi):
        want += trinomial.trinomial_pointwise(u[3 * i : 3 * i + 3], v[3 * i : 3 * i + 3], c, q)
    assert trinomial._pointwise_vec(u, v, np.array(psi, dtype=np.int64), q) == want


# ---------------------------------------------------------------------------
# the 2^31 threshold

N_EDGE = 64  # x^64 + 1 needs q = 1 (mod 128)


def prime_near_limit(direction):
    """Largest prime below 2^31 (direction -1) or smallest above it (+1), q = 1 mod 2n."""
    step = 2 * N_EDGE
    q = modarith.VECTOR_LIMIT + 1 + (0 if direction > 0 else -step)
    while not is_prime(q):
        q += direction * step
    return q


def _forbid(monkeypatch, *names):
    for name in names:
        monkeypatch.setattr(transforms, name, _boom)


@pytest.mark.parametrize("direction", [-1, +1], ids=["below", "above"])
def test_threshold_picks_the_kernel(direction, monkeypatch, rng):
    q = prime_near_limit(direction)
    assert modarith.vectorized(q) == (q < 2**31) == (direction < 0)
    ring = RingSpec(XN_PLUS_1, N_EDGE, q)
    pair = make_transform_pair(ring, 1)
    # every modulus has a schedule; its warm-up forward built only the
    # chosen kernel's twiddles
    sched = vars(pair.fwd_sched)
    assert ("vectors" in sched, "passes" in sched) == (direction < 0, direction > 0)
    a = Poly.random(ring, rng)
    b = Poly([q - 1] * N_EDGE, ring)
    want, ref = reference(a.coeffs, q, pair.fwd_tw, pair.fwd_spec, N_EDGE)
    ref.forward_transforms = 1
    # the kernel not chosen for q must not run at all
    _forbid(monkeypatch, *(("ct_pass", "gs_pass") if direction < 0 else ("ct_level", "gs_level")))
    with counting() as c:
        got = pair.forward(a)
    assert (got.values, c) == (want, ref)
    assert ntt_multiply(a, b, pair, use_karatsuba=True) == oracle_multiply(a, b)
