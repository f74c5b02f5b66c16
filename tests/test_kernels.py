"""The array kernels against the pure-Python reference kernels.

Values and OpCounter tallies must be identical: the transforms on a
working buffer against the same schedule run on a list, the leaf
products against ``basecase_mul`` and the trinomial transform and leaves
against ``trinomial_pointwise`` and the oracle.  Every sweep runs twice:
over primes below 2^31 (int64 buffers) and over primes up to the 2^42
ceiling (``object`` buffers of Python ints).  The buffer is picked by the
modulus alone, so the last tests pin the 2^31 threshold with the primes
on either side of it.
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
# and at or above 2^31, up to the 2^42 ceiling, with 2-adic orders 2^20-2^22
BIG_PRIMES = (2151677953, 1099516870657, 4396975915009)
# one more input of every sweep: the side of 2^31 its modulus comes from
SIDES = st.sampled_from((PRIMES, BIG_PRIMES))


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
def transform_cases(draw, primes):
    """(kind, n, q, beta, values) with q admitting the table order."""
    kind = draw(st.sampled_from((CC, NWC)))
    logn = draw(st.integers(1, 7))
    n = 1 << logn
    beta = draw(st.integers(0, max(logn - 1, 0)))
    order = (2 * n if kind == NWC else n) >> beta
    q = draw(st.sampled_from([p for p in primes if two_adic(p) % order == 0]))
    return kind, n, q, beta, draw(edge_or_random(n, q))


def buffer_dtype(q):
    return np.int64 if q < 2**31 else object


def reference(values, q, tw, spec, n, halving=False):
    """(values, counter) of the reference kernel on a list copy of values;
    ``halving`` halves every value after each level, as the array kernel does."""
    buf = list(values)

    def halve(level, vals):
        vals[:] = [modarith.mod_half(x, q) for x in vals]

    with counting() as c:
        transforms.run_levels(buf, q, transforms.make_schedule(spec, tw, n),
                              on_level=halve if halving else None)
    return buf, c


def vector(values, q, tw, spec, n, halving=False):
    x = transforms.buffer(values, q)
    assert x.dtype == buffer_dtype(q)
    with counting() as c:
        transforms.run_levels(x, q, transforms.make_schedule(spec, tw, n), halving=halving)
    return x.tolist(), c


@BUDGET
@given(SIDES, st.data(), st.sampled_from((modarith.BIT_REVERSED, modarith.NATURAL)))
def test_transform_kernels_agree(primes, data, storage):
    # every spec variant: CC/NWC x CT/GS x input order, forward and inverse
    kind, n, q, beta, values = data.draw(transform_cases(primes))
    ftw, itw = tables_for(kind, n, q, beta, storage)
    for fs in forward_specs(kind, beta):
        assert vector(values, q, ftw, fs, n) == reference(values, q, ftw, fs, n)
        for inv in inverse_specs_for(fs):
            assert vector(values, q, itw, inv, n) == reference(values, q, itw, inv, n)
            if q % 2:
                got = vector(values, q, itw, inv, n, halving=True)
                assert got == reference(values, q, itw, inv, n, halving=True)


@BUDGET
@given(SIDES, st.data(), st.booleans())
def test_public_transforms_match_reference(primes, data, halving):
    # ntt_forward/ntt_inverse on their buffers against the reference passes
    kind, n, q, beta, values = data.draw(transform_cases(primes))
    ftw, itw = tables_for(kind, n, q, beta)
    ring = ring_for(kind, n, q)
    fs = forward_specs(kind, beta)[0]
    inv = inverse_specs_for(fs)[-1]
    with counting() as cf:
        ahat = transforms.ntt_forward(Poly(values, ring), ftw, fs)
    want, rf = reference(values, q, ftw, fs, n)
    rf.forward_transforms += 1
    assert ahat.values.dtype == buffer_dtype(q)
    assert (ahat.values.tolist(), cf) == (want, rf)
    with counting() as ci:
        back = transforms.ntt_inverse(ahat, itw, inv, halving=halving)
    want, ri = reference(ahat.values.tolist(), q, itw, inv, n, halving=halving)
    ri.inverse_transforms += 1
    if not halving:
        s = modarith.mod_inv(n >> beta, q)
        want = [v * s % q for v in want]
        ri.mults += n
    assert (back.coeffs, ci) == (want, ri)
    assert back.coeffs == values


@st.composite
def leaf_cases(draw, primes):
    L = draw(st.sampled_from((2, 4, 8)))
    m = draw(st.integers(1, 16))
    q = draw(st.sampled_from(primes))
    u = draw(edge_or_random(m * L, q))
    v = draw(edge_or_random(m * L, q))
    gammas = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    return L, q, u, v, gammas


@BUDGET
@given(SIDES, st.data(), st.booleans())
def test_leaf_products_match_basecase(primes, data, karatsuba):
    L, q, u, v, gammas = data.draw(leaf_cases(primes))
    with counting() as ref:
        want = []
        for p, g in enumerate(gammas):
            want += basecase_mul(u[p * L : (p + 1) * L], v[p * L : (p + 1) * L], g, q, karatsuba)
    buf = transforms.buffer
    assert polymul.leaf_products(buf(u, q), buf(v, q), buf(gammas, q), q).tolist() == want
    mults, adds, subs = polymul.leaf_ops(L, karatsuba)
    m = len(gammas)
    assert OpCounter(mults * m, adds * m, subs * m) == ref


@BUDGET
@given(SIDES, st.sampled_from((XN_MINUS_1, XN_PLUS_1)), st.integers(2, 6), st.data())
def test_pointwise_mul_matches_basecase(primes, form, logn, data):
    n = 1 << logn
    beta = data.draw(st.integers(1, logn - 1))
    order = (2 * n if form == XN_PLUS_1 else n) >> beta
    q = data.draw(st.sampled_from([p for p in primes if two_adic(p) % order == 0]))
    karatsuba = data.draw(st.booleans())
    pair = make_transform_pair(RingSpec(form, n, q), beta)
    A = NttDomainPoly(data.draw(edge_or_random(n, q)), pair.fwd_spec, pair.ring, 1 << beta)
    B = NttDomainPoly(data.draw(edge_or_random(n, q)), pair.fwd_spec, pair.ring, 1 << beta)
    with counting() as got_c:
        got = pair.pointwise(A, B, use_karatsuba=karatsuba)
    L = 1 << beta
    a_vals, b_vals = A.values.tolist(), B.values.tolist()
    with counting() as ref_c:
        want = []
        for p, g in enumerate(polymul.leaf_gammas(pair.fwd_spec, pair.fwd_tw, n)):
            s = slice(p * L, (p + 1) * L)
            want += basecase_mul(a_vals[s], b_vals[s], g, q, karatsuba)
    assert got.values.dtype == buffer_dtype(q)
    assert (got.values.tolist(), got_c) == (want, ref_c)


# q = 1 (mod 768) covers every n = 3*2^e dividing 768; the last two are above 2^31
TRINOMIAL_RINGS = [RingSpec(TRINOMIAL, n, q) for n, q in
                   ((6, 7), (12, 13), (24, 73), (48, 97), (96, 193), (768, 7681),
                    (6, 2147492353), (96, 2147492353), (768, 4393751546881))]


def _boom(*args, **kwargs):
    raise AssertionError("this kernel must not run for this modulus")


@BUDGET
@given(st.sampled_from(TRINOMIAL_RINGS), st.data())
def test_trinomial_kernels_agree(ring, data):
    a = Poly(data.draw(edge_or_random(ring.n, ring.q)), ring)
    b = Poly(data.draw(edge_or_random(ring.n, ring.q)), ring)

    def run():
        plan = trinomial.make_plan(ring)
        with counting() as c:
            fa = trinomial.trinomial_forward(a, plan).values
            back = trinomial.trinomial_inverse(trinomial.TrinomialDomainPoly(fa, plan), plan).coeffs
            prod = trinomial.trinomial_multiply(a, b, plan).coeffs
        assert fa.dtype == transforms.buffer_dtype(ring.q)
        return fa.tolist(), back, prod, c

    # the reference kernel never runs; the buffer is picked from q alone
    with mock.patch.multiple(transforms, ct_pass=_boom, gs_pass=_boom):
        results = [run()]
        # the same stages on object buffers (Python ints) for every modulus
        with mock.patch.object(transforms, "buffer_dtype", lambda q: object):
            results.append(run())
    assert results[0] == results[1]
    assert results[0][1] == a.coeffs
    assert results[0][2] == oracle_multiply(a, b).coeffs


@BUDGET
@given(SIDES, st.data(), st.integers(1, 40))
def test_trinomial_leaves_match_pointwise(primes, data, leaves):
    q = data.draw(st.sampled_from(primes))
    u = data.draw(edge_or_random(3 * leaves, q))
    v = data.draw(edge_or_random(3 * leaves, q))
    psi = data.draw(st.lists(st.integers(0, q - 1), min_size=leaves, max_size=leaves))
    want = []
    for i, c in enumerate(psi):
        want += trinomial.trinomial_pointwise(u[3 * i : 3 * i + 3], v[3 * i : 3 * i + 3], c, q)
    buf = transforms.buffer
    assert trinomial._pointwise_vec(buf(u, q), buf(v, q), buf(psi, q), q).tolist() == want


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
    dtype = np.int64 if direction < 0 else object
    ring = RingSpec(XN_PLUS_1, N_EDGE, q)
    a = Poly.random(ring, rng)
    b = Poly([q - 1] * N_EDGE, ring)
    pair = make_transform_pair(ring, 1)
    want, ref = reference(a.coeffs, q, pair.fwd_tw, pair.fwd_spec, N_EDGE)
    ref.forward_transforms = 1
    # either side of 2^31 runs the array kernel, never the reference one
    _forbid(monkeypatch, "ct_pass", "gs_pass")
    assert "passes" not in vars(pair.fwd_sched)
    assert all(w.dtype == dtype and not w.flags.writeable for w in pair.fwd_sched.vectors)
    assert pair.y_domain.dtype == dtype and not pair.y_domain.flags.writeable
    with counting() as c:
        got = pair.forward(a)
    assert got.values.dtype == dtype
    assert (got.values.tolist(), c) == (want, ref)
    assert ntt_multiply(a, b, pair, use_karatsuba=True) == oracle_multiply(a, b)


@pytest.mark.parametrize("q", [7681, BIG_PRIMES[0]], ids=["int64", "object"])
def test_poly_boundary_refuses_non_canonical_results(q):
    ring = RingSpec(XN_MINUS_1, 4, q)
    ok = transforms.buffer([0, 1, 2, q - 1], q)
    assert Poly.from_array(ok, ring) == Poly([0, 1, 2, q - 1], ring)
    assert all(type(c) is int for c in Poly.from_array(ok, ring).coeffs)
    for bad in (-1, q):
        with pytest.raises(ValueError, match="canonical"):
            Poly.from_array(transforms.buffer([0, 1, bad, 3], q), ring)
    with pytest.raises(ValueError, match="coefficients"):
        Poly.from_array(transforms.buffer([0, 1, 2], q), ring)


def test_stages_leave_their_inputs_alone(rng):
    # no stage mutates the buffer it is given; cached tables are read-only
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    pair = make_transform_pair(ring, 1)
    A, B = pair.forward(Poly.random(ring, rng)), pair.forward(Poly.random(ring, rng))
    before = (A.values.copy(), B.values.copy())
    pair.pointwise(A, B, use_karatsuba=True)
    A.add(B), A.sub(B), A.scale(5)
    pair.inverse(A), pair.inverse(B, halving=True)
    assert (A.values.tolist(), B.values.tolist()) == (before[0].tolist(), before[1].tolist())
    # domain values compare by value, whatever the buffer
    assert A == NttDomainPoly(before[0].tolist(), A.spec, ring, 2) and A != B and A != A.values
    with pytest.raises(ValueError):
        pair.y_domain[0] = 1


def test_shared_tables_under_threads(rng):
    # threads share one plan's cached read-only arrays (twiddle vectors,
    # y_domain); each product must still equal the one computed alone
    import sys
    import threading

    from nttkit.planner import make_plan, multiply

    ring = RingSpec(XN_PLUS_1, 64, 7681)
    plan = make_plan(ring, "hntt", alpha=1, beta=1)
    pairs = [(Poly.random(ring, rng), Poly.random(ring, rng)) for _ in range(6)]
    want = [multiply(a, b, plan).coeffs for a, b in pairs]
    errors = []
    barrier = threading.Barrier(6)

    def run(i):
        barrier.wait(timeout=30)
        for _ in range(40):
            a, b = pairs[i]
            if multiply(a, b, plan).coeffs != want[i]:
                errors.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
