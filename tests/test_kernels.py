"""The array kernels against the pure-Python reference kernels.

Values and OpCounter tallies must be identical: the transforms on a
working buffer against ``reference_rows``, which replays the same
schedule's butterflies on a list, the leaf products against
``basecase_mul`` and the trinomial transform and leaves against
``trinomial_pointwise`` and the oracle.  Every sweep runs twice:
over primes below 2^31 (int64 buffers) and over primes up to the 2^42
ceiling (``object`` buffers of Python ints, the object stage class).  The
buffer is picked by the modulus alone, so the tests after the sweeps pin
the 2^31 threshold with the primes on either side of it.

The merged stages are swept against the reference kernel on generated
(n, q) for every spec, beta, stage class and width, trinomial chunk-3
schedules and the chunk-h pairs of x^(h 2^k) +- 1 included; the width
rule is pinned at each of its boundaries, and every preset that runs a
transform is shown to run no reference kernel.  A (batch, n) buffer runs every stage once for all its rows and
must equal row-by-row runs and the reference kernel, with op counts per
row.
"""

import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from test_transforms import forward_specs, inverse_specs_for, ring_for, tables_for

from nttkit import bounds, modarith, planner, polymul, transforms, trinomial
from nttkit.errors import SpecViolation
from nttkit.modarith import OpCounter, counting, is_prime
from nttkit.polymul import basecase_mul, make_transform_pair, ntt_multiply, oracle_multiply
from nttkit.rings import TRINOMIAL, XN_MINUS_1, XN_PLUS_1, Poly, RingSpec
from nttkit.transforms import CC, NWC, NttDomainPoly, read_only

# derandomized, and each test pins @seed(0): a derandomized draw alone
# would move with every edit of the test's source
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


def reference(values, q, tw, spec, n):
    """(values, counter) of the reference kernel on a list copy of values,
    an inverse schedule's factor 2^-levels included."""
    buf = list(values)
    with counting() as c:
        transforms.reference_rows([buf], transforms.make_schedule(spec, tw, n))
    return buf, c


def vector(values, q, tw, spec, n):
    x = transforms.buffer(values, q)
    assert x.dtype == buffer_dtype(q)
    with counting() as c:
        transforms.run_levels(x, transforms.make_schedule(spec, tw, n))
    return x.tolist(), c


@BUDGET
@seed(0)
@given(SIDES, st.data(), st.sampled_from((modarith.BIT_REVERSED, modarith.NATURAL)))
def test_transform_kernels_agree(primes, data, storage):
    # every spec variant: CC/NWC x CT/GS x input order, forward and inverse
    kind, n, q, beta, values = data.draw(transform_cases(primes))
    ftw, itw = tables_for(kind, n, q, beta, storage)
    for fs in forward_specs(kind, beta):
        assert vector(values, q, ftw, fs, n) == reference(values, q, ftw, fs, n)
        for inv in inverse_specs_for(fs):
            assert vector(values, q, itw, inv, n) == reference(values, q, itw, inv, n)


@BUDGET
@seed(0)
@given(SIDES, st.data())
def test_public_transforms_match_reference(primes, data):
    # ntt_forward/ntt_inverse on their buffers against the reference kernel
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
        back = transforms.ntt_inverse(ahat, itw, inv)
    want, ri = reference(ahat.values.tolist(), q, itw, inv, n)
    ri.inverse_transforms += 1
    ri.mults += n  # the factor (n/2^beta)^-1, counted once per entry
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
@seed(0)
@given(SIDES, st.data(), st.booleans())
def test_leaf_products_match_basecase(primes, data, karatsuba):
    L, q, u, v, gammas = data.draw(leaf_cases(primes))
    with counting() as ref:
        want = []
        for p, g in enumerate(gammas):
            want += basecase_mul(u[p * L : (p + 1) * L], v[p * L : (p + 1) * L], g, q, karatsuba)
    buf = transforms.buffer
    U, V = buf(u, q).reshape(-1, L).T, buf(v, q).reshape(-1, L).T
    assert polymul.leaf_products(U, V, buf(gammas, q), q).T.ravel().tolist() == want
    mults, adds, subs = polymul.leaf_ops(L, karatsuba)
    m = len(gammas)
    assert OpCounter(mults * m, adds * m, subs * m) == ref


@BUDGET
@seed(0)
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


@BUDGET
@seed(0)
@given(SIDES, st.sampled_from((1, 3, 5, 7, 9)), st.integers(0, 5), st.sampled_from((XN_MINUS_1, XN_PLUS_1)),
       st.data())
def test_chunk_h_pairs_match_reference_and_oracle(primes, h, k, form, data):
    # a pair over x^(h 2^k) -+ 1, h odd, runs its levels over 2^k chunks of
    # h coefficients, on a root of order 2^k (2^(k+1) for x^n + 1): its
    # forward and inverse equal the reference kernel's on its schedules,
    # values and op counts, and its product the oracle's
    n = h << k
    order = transforms.root_order(form, n)
    assert order == (2 << k if form == XN_PLUS_1 else 1 << k)
    q = data.draw(st.sampled_from([p for p in primes if two_adic(p) % order == 0]))
    ring = RingSpec(form, n, q)
    pair = make_transform_pair(ring)
    assert (pair.fwd_sched.chunk, pair.inv_sched.chunk, len(pair.fwd_sched.levels)) == (h, h, k)
    a, b = (Poly(data.draw(edge_or_random(n, q)), ring) for _ in range(2))
    with counting() as cf:
        ahat = pair.forward(a)
    want, rf = reference(a.coeffs, q, pair.fwd_tw, pair.fwd_spec, n)
    rf.forward_transforms += 1
    assert (ahat.values.tolist(), ahat.leaf_degree, cf) == (want, h, rf)
    with counting() as ci:
        back = pair.inverse(ahat)
    want, ri = reference(want, q, pair.inv_tw, pair.inv_spec, n)
    ri.inverse_transforms += 1
    ri.mults += n if k else 0  # the factor 2^-k, counted once per entry
    assert (back.coeffs, ci) == (want, ri)
    assert back == a
    assert ntt_multiply(a, b, pair) == oracle_multiply(a, b)
    assert planner.matvec_multiply([[ahat]], [b], pair) == [oracle_multiply(a, b)]


# q = 1 (mod 768) covers every n = 3*2^e dividing 768; the last two are above 2^31
TRINOMIAL_RINGS = [RingSpec(TRINOMIAL, n, q) for n, q in
                   ((6, 7), (12, 13), (24, 73), (48, 97), (96, 193), (768, 7681),
                    (6, 2147492353), (96, 2147492353), (768, 4393751546881))]


def _boom(*args, **kwargs):
    raise AssertionError("this kernel must not run for this modulus")


def no_reference():
    """The reference kernel and its butterflies raising."""
    return mock.patch.multiple(transforms, reference_rows=_boom, butterfly_ct=_boom,
                               butterfly_gs=_boom)


@contextmanager
def on_reference():
    """Every transform on the reference kernel, run on the rows as lists
    and written back, with the stages raising."""
    def levels(buf, sched):
        rows = buf.reshape(-1, sched.n).tolist()
        transforms.reference_rows(rows, sched)
        buf.reshape(-1, sched.n)[...] = rows

    with mock.patch.object(transforms, "run_levels", levels), \
            mock.patch.object(transforms.Stage, "apply", _boom), \
            mock.patch.object(transforms.FloatStage, "apply", _boom):
        yield


@BUDGET
@seed(0)
@given(st.sampled_from(TRINOMIAL_RINGS), st.data())
def test_trinomial_kernels_agree(ring, data):
    a = Poly(data.draw(edge_or_random(ring.n, ring.q)), ring)
    b = Poly(data.draw(edge_or_random(ring.n, ring.q)), ring)

    def run():
        plan = trinomial.make_plan(ring)
        with counting() as c:
            fa = trinomial.trinomial_forward(a, plan).values
            fhat = NttDomainPoly(fa, plan.forward.spec, plan.ring, 3)
            back = trinomial.trinomial_inverse(fhat, plan).coeffs
            prod = trinomial.trinomial_multiply(a, b, plan).coeffs
        assert fa.dtype == transforms.buffer_dtype(ring.q)
        return fa.tolist(), back, prod, c

    # the merged stages: the reference kernel never runs; the buffer is
    # picked from q alone
    with no_reference():
        results = [run()]
    # the same transforms on the reference kernel
    with on_reference():
        results.append(run())
    assert results[0] == results[1]
    assert results[0][1] == a.coeffs
    assert results[0][2] == oracle_multiply(a, b).coeffs


@BUDGET
@seed(0)
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
    U, V = buf(u, q).reshape(-1, 3).T, buf(v, q).reshape(-1, 3).T
    assert polymul.leaf_products(U, V, buf(psi, q), q).T.ravel().tolist() == want


# ---------------------------------------------------------------------------
# the 2^31 threshold

N_EDGE = 64  # x^64 + 1 needs q = 1 (mod 128)


def prime_near_limit(direction):
    """Largest prime below 2^31 (direction -1) or smallest above it (+1), q = 1 mod 2n."""
    step = 2 * N_EDGE
    q = bounds.VECTOR_LIMIT + 1 + (0 if direction > 0 else -step)
    while not is_prime(q):
        q += direction * step
    return q


def _forbid(monkeypatch, *names):
    for name in names:
        monkeypatch.setattr(transforms, name, _boom)


@pytest.mark.parametrize("direction", [-1, +1], ids=["below", "above"])
def test_threshold_picks_the_kernel(direction, monkeypatch, rng):
    q = prime_near_limit(direction)
    assert bounds.vectorized(q) == (q < 2**31) == (direction < 0)
    dtype = np.int64 if direction < 0 else object
    ring = RingSpec(XN_PLUS_1, N_EDGE, q)
    a = Poly.random(ring, rng)
    b = Poly([q - 1] * N_EDGE, ring)
    ref_pair, pair = make_transform_pair(ring, 1), make_transform_pair(ring, 1)
    want, ref = reference(a.coeffs, q, ref_pair.fwd_tw, ref_pair.fwd_spec, N_EDGE)
    ref.forward_transforms = 1
    # the top of int64 has an int64 stage width of 1, so it merges as
    # float64 limb stages of FLOAT_WIDTH levels; from 2^31 up the object
    # class merges OBJECT_WIDTH levels per stage
    assert int64_width(q) == (1 if direction < 0 else 0)
    cls = ((bounds.FLOAT64_LIMB, bounds.FLOAT_WIDTH) if direction < 0
           else (bounds.OBJECT, bounds.OBJECT_WIDTH))
    levels = len(pair.fwd_sched.levels)
    for sched in (pair.fwd_sched, pair.inv_sched):
        assert sched.stage_class == cls
        assert len(sched.stages) == -(-levels // cls[1])
        if direction > 0:
            assert all(s.matrices.dtype == object and not s.matrices.flags.writeable
                       for s in sched.stages)
    # either side of 2^31 runs the merged stages, never the reference kernel
    _forbid(monkeypatch, "reference_rows", "butterfly_ct", "butterfly_gs")
    assert pair.y_domain.dtype == dtype and not pair.y_domain.flags.writeable
    with counting() as c:
        got = pair.forward(a)
    assert got.values.dtype == dtype
    assert (got.values.tolist(), c) == (want, ref)
    assert ntt_multiply(a, b, pair, use_karatsuba=True) == oracle_multiply(a, b)
    # one stage tuple per direction, the last stage carrying the inverse
    # scaling
    ran = []
    stage = transforms.FloatStage if direction < 0 else transforms.Stage
    apply = stage.apply
    monkeypatch.setattr(stage, "apply", lambda st, buf, q: ran.append(st) or apply(st, buf, q))
    assert pair.inverse(got) == a
    assert list(map(id, ran)) == list(map(id, pair.inv_sched.stages))
    # ... and the all-(q-1) product runs on them alone
    monkeypatch.setattr(transforms.FloatStage if direction > 0 else transforms.Stage, "apply", _boom)
    assert ntt_multiply(a, b, pair, use_karatsuba=True) == oracle_multiply(a, b)


@pytest.mark.parametrize("q", [7681, BIG_PRIMES[0]], ids=["int64", "object"])
def test_poly_boundary_refuses_non_canonical_results(q):
    ring = RingSpec(XN_MINUS_1, 4, q)
    ok = transforms.buffer([0, 1, 2, q - 1], q)
    assert Poly(ok, ring) == Poly([0, 1, 2, q - 1], ring)
    assert all(type(c) is int for c in Poly(ok, ring).coeffs)
    for bad in (-1, q):
        with pytest.raises(ValueError, match="canonical"):
            Poly(transforms.buffer([0, 1, bad, 3], q), ring)
    with pytest.raises(ValueError, match="coefficients"):
        Poly(transforms.buffer([0, 1, 2], q), ring)


def test_poly_checks_every_entry_at_the_boundaries():
    q = 7681
    ring = RingSpec(XN_MINUS_1, 4, q)
    assert Poly([0, 1, 2, q - 1], ring).coeffs == [0, 1, 2, q - 1]
    for arr in (np.array([0, 1, 2, q - 1], dtype=np.int32), np.array([0, 1, 2, q - 1], dtype=np.uint64),
                [np.int16(0), np.int64(1), np.uint32(2), q - 1]):
        p = Poly(arr, ring)
        assert p.array.dtype == np.int64 and p.coeffs == [0, 1, 2, q - 1]
    for bad in (-1, q, 2**63, 2**64):
        for values in ([0, 1, bad, 3], np.array([0, 1, bad, 3], dtype=object)):
            with pytest.raises(ValueError, match="canonical"):
                Poly(values, ring)
    with pytest.raises(ValueError, match="canonical"):
        Poly(np.array([0, 1, 2**63, 3], dtype=np.uint64), ring)
    for bad in (0.5, 1.0, np.float64(1.0)):
        for values in ([0, 1, bad, 3], np.array([0, 1, bad, 3])):
            with pytest.raises(ValueError, match="integers"):
                Poly(values, ring)
    # booleans are refused as floats are, though Python's bool is an int,
    # also one bool in a list of ints, which numpy reads as an int
    for values in ([True] * 4, [True, False, True, True], np.ones(4, dtype=bool),
                   np.array([True, 1, 2, 3], dtype=object), [1, 2, 3, True], [1, 2, 3, np.bool_(True)],
                   [np.int64(1), 2, 3, False]):
        with pytest.raises(ValueError, match="integers"):
            Poly(values, ring)
    kyber = planner.preset("kyber")
    for values in ([1] * 255 + [True], [1] * 255 + [np.bool_(True)]):
        with pytest.raises(ValueError, match="integers"):
            Poly(values, kyber[0])
        with pytest.raises(ValueError, match="integers"):
            kyber[1].pair.forward(values)
    assert Poly([1] * 255 + [np.int64(1)], kyber[0]) == Poly(np.ones(256, dtype=np.int64), kyber[0])
    for values in ([0, 1, 2], [0, 1, 2, 3, 4], [[0, 1], [2, 3]], np.zeros((1, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="coefficients"):
            Poly(values, ring)


@pytest.mark.parametrize("q", [7681, BIG_PRIMES[0]], ids=["int64", "object"])
def test_transform_domain_entries_check_at_the_boundaries(q):
    # the NttDomainPoly constructor, radix-2 and trinomial, and list or
    # array input to ntt_forward, TransformPair.forward and
    # trinomial_forward check their values once, with the ValueErrors of
    # Poly, on int64 and on object buffers
    ring, tri = RingSpec(XN_PLUS_1, 4, q), RingSpec(TRINOMIAL, 6, q)
    pair, plan = make_transform_pair(ring, 0), trinomial.make_plan(tri)
    entries = ((4, lambda v: NttDomainPoly(v, pair.fwd_spec, ring)),
               (4, lambda v: transforms.ntt_forward(v, pair.fwd_tw, pair.fwd_spec, ring=ring)),
               (4, pair.forward),
               (6, lambda v: trinomial.trinomial_forward(v, plan, tri)),
               (6, lambda v: NttDomainPoly(v, plan.forward.spec, plan.ring, 3)))
    for n, entry in entries:
        good = [0, 1, q - 1] + [3] * (n - 3)
        entry(good), entry(np.array([good] * 2))
        for values in ([True] * n, np.ones(n, dtype=bool), np.ones((2, n), dtype=bool),
                       [3] * (n - 1) + [True], [3] * (n - 1) + [np.bool_(True)], [good, [3] * (n - 1) + [True]]):
            with pytest.raises(ValueError, match="integers"):
                entry(values)
        for bad, match in ((0.5, "integers"), (1.0, "integers"), (-1, "canonical"),
                           (q, "canonical"), (q + 5, "canonical"), (2**63, "canonical")):
            row = [0, 1, bad] + [3] * (n - 3)
            dtype = np.uint64 if bad == 2**63 else None  # numpy would infer float64
            for values in (row, [good, row]):
                for arg in (values, np.array(values, dtype=object), np.array(values, dtype=dtype)):
                    with pytest.raises(ValueError, match=match):
                        entry(arg)
    assert (pair.forward([0, 1, 2, q - 1]) == pair.forward(Poly([0, 1, 2, q - 1], ring))
            == NttDomainPoly(pair.forward(Poly([0, 1, 2, q - 1], ring)).values.tolist(),
                             pair.fwd_spec, ring))


def test_poly_keeps_its_own_read_only_array():
    ring = RingSpec(XN_MINUS_1, 4, 7681)
    src_list, src_array = [1, 2, 3, 4], np.array([1, 2, 3, 4])
    a, b = Poly(src_list, ring), Poly(src_array, ring)
    src_list[0], src_array[0] = 9, 9
    assert a.coeffs == b.coeffs == [1, 2, 3, 4]
    a.coeffs[1] = 9  # a fresh list each read
    assert a.coeffs == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        a.array[0] = 5
    with pytest.raises(AttributeError):
        a.coeffs = [5, 6, 7, 8]
    assert a == b and a != Poly([1, 2, 3, 5], ring) and a != Poly(src_list, RingSpec(XN_PLUS_1, 4, 7681))


@pytest.mark.parametrize("q", [7681, BIG_PRIMES[0]], ids=["int64", "object"])
def test_domain_values_are_frozen(q):
    # an assignment or an in-place write after construction would skip the
    # check: both raise, under radix-2 and trinomial tags, and the constructor keeps
    # its own copy of an array it is given
    ring, tri = RingSpec(XN_PLUS_1, 4, q), RingSpec(TRINOMIAL, 6, q)
    pair, plan = make_transform_pair(ring, 0), trinomial.make_plan(tri)
    src4, src6 = np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3, 4, 5])
    for dom, src in ((NttDomainPoly(src4, pair.fwd_spec, ring), src4),
                     (pair.forward([0, 1, 2, 3]), None),
                     (NttDomainPoly(src6, plan.forward.spec, plan.ring, 3), src6),
                     (trinomial.trinomial_forward([0, 1, 2, 3, 4, 5], plan, tri), None)):
        before = dom.values.tolist()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dom.values = [0.7] * len(before)
        with pytest.raises(ValueError, match="read-only"):
            dom.values[0] = q + 5
        with pytest.raises(ValueError, match="read-only"):
            dom.values += 1
        if src is not None:
            src[0] = 7
        assert dom.values.tolist() == before


def test_stages_leave_their_inputs_alone(rng):
    # no stage mutates the buffer it is given; cached tables are read-only
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    pair = make_transform_pair(ring, 1)
    A, B = pair.forward(Poly.random(ring, rng)), pair.forward(Poly.random(ring, rng))
    before = (A.values.copy(), B.values.copy())
    pair.pointwise(A, B, use_karatsuba=True)
    A.add(B), A.sub(B), A.scale(5)
    pair.inverse(A), pair.inverse(B)
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


# ---------------------------------------------------------------------------
# merged stages: groups of levels as one int64 or float64 matmul each


def int64_width(q):
    """The widest int64 stage mod q up to ``bounds.STAGE_CAP``: the largest
    k whose 2^k products of residues fit int64 (``bounds.fits``), 0 if none."""
    return max(k for k in range(bounds.STAGE_CAP + 1)
               if k == 0 or bounds.fits(np.int64, q - 1, q - 1, 1 << k))


def friendly_prime(start, order):
    """The smallest prime q = 1 (mod order) at or above ``start``."""
    q = start - start % order + 1
    while q < start or not is_prime(q):
        q += order
    return q


def other_class(sched):
    """The stage type of the class ``sched`` does not run, to patch to raise."""
    floats = (bounds.FLOAT64, bounds.FLOAT64_LIMB)
    return transforms.Stage if sched.stage_class[0] in floats else transforms.FloatStage


def merged(values, q, sched):
    """(values, counter) of ``run_levels`` on a working buffer, with the
    reference kernel and the other stage class forbidden once the stage
    matrices are built."""
    assert sched.stages, "this schedule does not merge"
    x = transforms.buffer(values, q)
    with no_reference(), mock.patch.object(other_class(sched), "apply", _boom), \
            counting() as c:
        transforms.run_levels(x, sched)
    return x.tolist(), c


def check_widths(sched):
    """The schedule's class is the rule's, every stage spans at most its
    width k of levels, and ceil(levels/k) stages cover them."""
    q, levels = sched.table.modulus, len(sched.levels)
    cls, k = sched.stage_class
    assert (cls, k) == bounds.stage_class(q, levels, sched.n)
    stages = sched.stages
    widths = [s.matrices.shape[-1] for s in stages]
    assert len(widths) == -(-levels // k)
    assert sum(w.bit_length() - 1 for w in widths) == levels
    assert all(w <= 1 << k for w in widths)
    assert all(type(s) is (transforms.Stage if cls in (bounds.INT64, bounds.OBJECT)
                           else transforms.FloatStage) for s in stages)
    limbs = [s.high for s in stages if getattr(s, "high", None) is not None]
    assert len(limbs) == (len(stages) if cls == bounds.FLOAT64_LIMB else 0)
    assert all(not m.flags.writeable for m in [s.matrices for s in stages] + limbs)
    # the magnitudes the float64 bounds assume: centered, or 16-bit low limbs
    top = {bounds.INT64: q - 1, bounds.FLOAT64: q // 2, bounds.FLOAT64_LIMB: 2**15,
           bounds.OBJECT: q - 1}
    assert all(np.abs(s.matrices).max() <= top[cls] for s in stages)
    assert all(np.abs(m).max() <= (q // 2 + 2**15) >> 16 for m in limbs)


# every n up to 2^11; the long schedules (at least FLOAT_LEVELS levels)
# drawn less often, as their reference runs cost the most
LOGN = st.one_of(st.integers(2, 8), st.integers(9, 11))
# every q below 2^31, often above 2^24.5 (float64 limbs) and 2^29.5 (the
# int64 width below STAGE_CAP)
Q_START = st.one_of(st.integers(2, 2**29), st.integers(2**29, 2**31 - 2**27))


@st.composite
def merge_cases(draw):
    """(kind, n, q, beta, k, values) with q generated, not a preset, and k
    the ``STAGE_CAP`` to run with."""
    kind = draw(st.sampled_from((CC, NWC)))
    logn = draw(LOGN)
    n = 1 << logn
    beta = draw(st.integers(0, logn - 1))
    order = (2 * n if kind == NWC else n) >> beta
    q = friendly_prime(draw(Q_START), order)
    k = draw(st.integers(1, bounds.STAGE_CAP))
    return kind, n, q, beta, k, draw(edge_or_random(n, q))


@BUDGET
@seed(0)
@given(merge_cases())
def test_merged_stages_match_reference(case):
    # every spec (block- and offset-twiddled), beta, class and width
    kind, n, q, beta, k, values = case
    ftw, itw = tables_for(kind, n, q, beta)
    with mock.patch.object(bounds, "STAGE_CAP", k):
        for fs in forward_specs(kind, beta):
            sched = transforms.make_schedule(fs, ftw, n)
            check_widths(sched)
            assert merged(values, q, sched) == reference(values, q, ftw, fs, n)
            for inv in inverse_specs_for(fs):
                sched = transforms.make_schedule(inv, itw, n)
                check_widths(sched)
                assert merged(values, q, sched) == reference(values, q, itw, inv, n)


@st.composite
def trinomial_merge_cases(draw):
    e = draw(st.integers(2, 7))
    n = 3 << e
    q = friendly_prime(draw(st.integers(2, 2**29)), n)
    return RingSpec(TRINOMIAL, n, q), draw(st.integers(1, bounds.STAGE_CAP))


@BUDGET
@seed(0)
@given(trinomial_merge_cases(), st.data())
def test_merged_trinomial_stages_match_reference(case, data):
    # the chunk-3 schedules of both split halves, forward and inverse
    ring, k = case
    values = data.draw(edge_or_random(ring.n, ring.q))
    a, b = (Poly(data.draw(edge_or_random(ring.n, ring.q)), ring) for _ in range(2))
    with mock.patch.object(bounds, "STAGE_CAP", k):  # read when the stages are built
        plan = trinomial.make_plan(ring)
        for sched in (plan.forward, plan.inverse):
            check_widths(sched)
            with counting() as c:
                want = list(values)
                transforms.reference_rows([want], sched)
            assert merged(values, ring.q, sched) == (want, c)
    with no_reference():
        assert trinomial.trinomial_multiply(a, b, plan) == oracle_multiply(a, b)


# ---------------------------------------------------------------------------
# the batch axis: a (batch, n) buffer runs every kernel once for all rows

@st.composite
def batch_cases(draw):
    """(kind, n, q, beta, k, rows): a generated q below 2^31 (int64 stages
    with ``STAGE_CAP`` k, or float64 ones) or a prime above 2^31
    (``object`` buffers), and 1-4 operand rows."""
    kind = draw(st.sampled_from((CC, NWC)))
    logn = draw(st.one_of(st.integers(1, 6), st.integers(9, 11)))
    n = 1 << logn
    beta = draw(st.integers(0, logn - 1))
    order = (2 * n if kind == NWC else n) >> beta
    if draw(st.booleans()):
        q = friendly_prime(draw(Q_START), order)
    else:
        q = draw(st.sampled_from([p for p in BIG_PRIMES if two_adic(p) % order == 0]))
    k = draw(st.integers(1, bounds.STAGE_CAP))
    return kind, n, q, beta, k, draw(st.lists(edge_or_random(n, q), min_size=1, max_size=4))


@BUDGET
@seed(0)
@given(batch_cases())
def test_run_levels_on_a_batch_matches_each_row(case):
    # every spec, beta, class and width, int64, float64 and object stages,
    # through the array cores; the object class for every modulus from
    # 2^31 up
    kind, n, q, beta, k, rows = case
    ftw, itw = tables_for(kind, n, q, beta)
    runs = []
    for fs in forward_specs(kind, beta):
        runs.append((fs, ftw))
        runs += [(inv, itw) for inv in inverse_specs_for(fs)]

    core = transforms.transform_rows
    with mock.patch.object(bounds, "STAGE_CAP", k):
        for spec, tw in runs:
            wants = [reference(r, q, tw, spec, n) for r in rows]
            sched = transforms.make_schedule(spec, tw, n)
            assert (sched.stage_class[0] == bounds.OBJECT) == (q >= 2**31)
            batch = transforms.buffer(rows, q)
            assert batch.shape == (len(rows), n) and batch.dtype == buffer_dtype(q)
            with no_reference(), counting() as c:
                core(batch, sched)
            for r, got, (want, one) in zip(rows, batch.tolist(), wants):
                x = transforms.buffer(r, q)
                core(x, sched)
                assert got == x.tolist() == want
            # the inverse scaling: one multiplication per entry
            scale = (spec.direction == transforms.INVERSE and bool(sched.levels)) * n
            assert (c.mults, c.adds, c.subs) == (len(rows) * (one.mults + scale),
                                                 len(rows) * one.adds, len(rows) * one.subs)


@BUDGET
@seed(0)
@given(batch_cases())
def test_public_transforms_on_a_batch_match_each_row(case):
    # ntt_forward/ntt_inverse and the batched leaf products, counted per row
    kind, n, q, beta, _, rows = case
    ring = ring_for(kind, n, q)
    pair = make_transform_pair(ring, beta)
    with counting() as c:
        A = pair.forward(transforms.buffer(rows, q))
        C = pair.pointwise(A, A.rows(0))
        back = pair.inverse(C, as_buffer=True)
    a0 = pair.forward(Poly(rows[0], ring))
    with counting() as one:  # the same work, one row at a time
        for r, got_a, got_c, got_back in zip(rows, A.values, C.values, back):
            a = pair.forward(Poly(r, ring))
            c_one = pair.pointwise(a, a0)
            assert got_a.tolist() == a.values.tolist()
            assert got_c.tolist() == c_one.values.tolist()
            assert got_back.tolist() == pair.inverse(c_one).coeffs
    assert c == one and c.forward_transforms == len(rows)


def width_boundary(k):
    """The largest q with 2^k (q-1)^2 < 2^63."""
    from math import isqrt

    return isqrt((2**63 - 1) >> k) + 1


@pytest.mark.parametrize("k", range(1, bounds.STAGE_CAP + 1))
def test_width_rule_at_its_boundary(k):
    top = width_boundary(k)
    assert (top - 1) ** 2 << k < 2**63 <= top**2 << k
    if k == 1:  # every modulus of an int64 buffer merges
        assert top == bounds.VECTOR_LIMIT
    assert int64_width(top) == k
    assert int64_width(top + 1) == k - 1
    # a full-width stage of all q-1 on all q-1 is exact at the boundary ...
    ones = np.full((1, 1 << k, 1 << k), top - 1, dtype=np.int64)
    x = np.full(1 << k, top - 1, dtype=np.int64)
    transforms.Stage(1, 1, True, ones).apply(x, top)
    assert x.tolist() == [(top - 1) ** 2 * 2**k % top] * (1 << k)
    # ... and would wrap one past it, which the rule refuses
    ones[:] = top
    x[:] = top
    with np.errstate(over="ignore"):
        transforms.Stage(1, 1, True, ones).apply(x, top + 1)
    assert x.tolist() != [top**2 * 2**k % (top + 1)] * (1 << k)


def _friendly_around(bound, order):
    """The largest prime q <= bound and the smallest above it, both 1 mod order."""
    below = bound - (bound - 1) % order
    while not is_prime(below):
        below -= order
    return below, friendly_prime(bound + 1, order)


def _int64_only(q, levels, points):
    return bounds.INT64, int64_width(q)


@pytest.mark.parametrize("k", range(2, bounds.STAGE_CAP + 1))
@pytest.mark.parametrize("form", [XN_PLUS_1, XN_MINUS_1])
def test_width_rule_primes_match_object_buffers(k, form, rng):
    # the primes on either side of the k boundary: int64 stages of width
    # k (resp. k-1), the int64 class forced, and the class the rule picks
    # (float64 limbs below width STAGE_CAP) equal the reference kernel on
    # Python ints, on worst-case operands, each with the other stage
    # class raising
    n = 64
    for q, width in zip(_friendly_around(width_boundary(k), 2 * n), (k, k - 1)):
        assert int64_width(q) == width
        ring = RingSpec(form, n, q)
        ops = [Poly([q - 1] * n, ring), Poly([1] + [0] * (n - 1), ring),
               Poly([0, 1] * (n // 2), ring), Poly.random(ring, rng)]

        def run():
            pair = make_transform_pair(ring, 0)
            fwd = [pair.forward(a) for a in ops]
            back = [pair.inverse(A).coeffs for A in fwd]
            prods = [ntt_multiply(ops[0], b, pair).coeffs for b in ops]
            return [A.values.tolist() for A in fwd], back, prods, pair

        with mock.patch.object(bounds, "stage_class", _int64_only), \
                mock.patch.object(transforms.FloatStage, "apply", _boom):
            got = run()
        sched = got[3].fwd_sched
        assert len(sched.stages) == -(-len(sched.levels) // width)
        picked = bounds.stage_class(q, len(sched.levels), sched.n)
        assert picked[0] == (bounds.INT64 if width == bounds.STAGE_CAP
                             else bounds.FLOAT64_LIMB)
        with mock.patch.object(transforms.FloatStage if picked[0] == bounds.INT64
                               else transforms.Stage, "apply", _boom):
            rule = run()
        assert rule[3].fwd_sched.stage_class == picked
        with on_reference():
            want = run()
        assert got[:3] == rule[:3] == want[:3]
        assert got[2] == [oracle_multiply(ops[0], b).coeffs for b in ops]


# ---------------------------------------------------------------------------
# the float64 classes at their boundaries

INT64_4 = (bounds.INT64, 4)
FLOAT64_5 = (bounds.FLOAT64, bounds.FLOAT_WIDTH)


def float_fits(q, k):
    """The single-matrix float64 bound at width k (``bounds.fits``)."""
    return bounds.fits(np.float64, q // 2, q - 1, 1 << k, q)


def limb_fits(q, k):
    """The limb-split float64 bound at width k (``bounds.fits``)."""
    high, low = (q // 2 + (transforms.LIMB >> 1)) >> 16, transforms.LIMB + (transforms.LIMB << k >> 1)
    return bounds.fits(np.float64, high, q - 1, 1 << k, q) and bounds.fits(np.float64, q - 1, low, 1, q)


def float_reductions(q, widths):
    """Whether each single-matrix float64 stage of 2^w-wide matrices, for
    w in ``widths``, reduces, as ``bounds.walk`` places them (the last one
    always); None where one stage is not exact even on reduced input."""
    walk = bounds.walk([bounds.grow(q // 2 << w, np.float64, q) for w in widths], q - 1, q // 2 + 2)
    return None if walk is None else [*walk[0][1:], True]


def largest(fits, k=bounds.FLOAT_WIDTH):
    """The largest q with fits(q, k); both float64 bounds fall as q grows."""
    lo, hi = 2, 1 << 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid, k) else (lo, mid)
    return lo


def float_stage(M, x, q, limb):
    """One ``FloatStage`` of canonical int64 matrix ``M`` on canonical rows
    ``x``, every float64 error raising, as canonical lists."""
    if limb:
        low, high = transforms._limbs(M[None], q)
    else:
        low, high = np.where(M > q // 2, M - q, M)[None].astype(np.float64), None
    f = x.astype(np.float64)
    with np.errstate(all="raise"):
        transforms.FloatStage(1, 1, True, low, high).apply(f, q)
    assert np.abs(f).max() <= q // 2 + 2
    return (f.astype(np.int64) % q).tolist()


@pytest.mark.parametrize("fits, limb", [(float_fits, False), (limb_fits, True)], ids=["single", "limb"])
def test_float_bounds_at_their_boundary(fits, limb, rng):
    # at the largest q the bound admits, and at the primes on either side
    # of it, one stage is exact on every matrix entry +-q//2 against
    # inputs all q-1, and on random ones; the rule refuses one past it
    k = bounds.FLOAT_WIDTH
    w, top = 1 << k, largest(fits)
    below, above = _friendly_around(top, 2)
    assert fits(top, k) and fits(below, k) and not fits(top + 1, k) and not fits(above, k)
    assert limb or limb_fits(above, k)
    for q in (top, below):
        h = q // 2
        ms = [np.full((w, w), h), np.full((w, w), q - h),
              np.array([[rng.randrange(q) for _ in range(w)] for _ in range(w)])]
        xs = np.array([[q - 1] * w, [(q - 1) // 2] * w, [(q + 1) // 2] * w,
                       [rng.randrange(q) for _ in range(w)]])
        for M in ms:
            want = (xs.astype(object) @ M.T.astype(object) % q).tolist()
            assert float_stage(M, xs, q, limb) == want
    # the class one past: limbs above the single bound, the object class
    # (object buffers) above the limb bound, which lies above 2^31
    assert bounds.stage_class(above, bounds.FLOAT_LEVELS, 1 << bounds.FLOAT_LEVELS) == (
        (bounds.OBJECT, bounds.OBJECT_WIDTH) if limb else (bounds.FLOAT64_LIMB, k))
    assert not limb or above > bounds.VECTOR_LIMIT


def test_lazy_reduction_at_its_boundary():
    # two single-matrix stages 2^5 wide, every entry q//2, on inputs all
    # q-1: up to the largest q whose first reduction the walk skips, the
    # unreduced sums (2^5 (q//2))^2 (q-1) are exact; one past, it reduces
    k = bounds.FLOAT_WIDTH
    w, top = 1 << k, largest(lambda q, k: float_reductions(q, [k, k]) == [False, True])
    assert float_reductions(top + 1, [k, k]) == [True, True]
    for q, first in ((top, False), (top + 1, True)):
        h = q // 2
        M = read_only(np.full((1, w, w), float(h)))
        f = np.full((3, w), float(q - 1))
        with np.errstate(all="raise"):
            for reduce in (first, True):
                transforms.FloatStage(1, 1, True, M, None, reduce).apply(f, q)
        assert np.abs(f).max() <= h + 2
        assert (f.astype(np.int64) % q).tolist() == [[(h * w) ** 2 * (q - 1) % q] * w] * 3


@pytest.mark.parametrize("side", [0, 1], ids=["below", "above"])
def test_lazy_reduction_primes(side, rng):
    # a 512-point schedule (stages of 5 and 4 levels) on the primes on
    # either side of the largest q whose first reduction is skipped
    top = largest(lambda q, k: float_reductions(q, [5, 4]) == [False, True])
    q = _friendly_around(top, 1024)[side]
    class_side(NWC, 512, q, FLOAT64_5, rng)
    ftw, itw = tables_for(NWC, 512, q)
    for spec, tw in ((forward_specs(NWC)[0], ftw), (inverse_specs_for(forward_specs(NWC)[0])[-1], itw)):
        sched = transforms.make_schedule(spec, tw, 512)
        assert [s.reduce for s in sched.stages] == [bool(side), True]


def class_side(kind, n, q, want, rng):
    """One side of a class boundary: the merged stages (the other class
    raising) on batches of 1-4 rows, all q-1, all (q-1)/2, all (q+1)/2
    and random, forward and inverse, equal the reference kernel."""
    ftw, itw = tables_for(kind, n, q)
    fs = forward_specs(kind)[0]
    rows = [[q - 1] * n, [(q - 1) // 2] * n, [(q + 1) // 2] * n,
            [rng.randrange(q) for _ in range(n)]]
    for spec, tw in ((fs, ftw), (inverse_specs_for(fs)[-1], itw)):
        sched = transforms.make_schedule(spec, tw, n)
        assert sched.stage_class == want
        wants = [reference(r, q, tw, spec, n)[0] for r in rows]
        for b in range(1, 5):
            with np.errstate(all="raise"):
                assert merged(rows[:b], q, sched)[0] == wants[:b]


def test_float64_stages_from_float_points(rng):
    # the single-matrix float64 class runs every schedule of FLOAT_POINTS
    # points or more where it is exact, whatever its level count (the
    # trinomial route's 768 points in 8 levels of 3-chunks); shorter
    # schedules, and q past the single-matrix bound, keep int64; and no
    # preset's schedule moves: each has the class its level count gave
    int64, float64 = (bounds.INT64, bounds.STAGE_CAP), FLOAT64_5
    assert bounds.stage_class(7681, 8, 768) == bounds.stage_class(7681, 8, bounds.FLOAT_POINTS) == float64
    assert bounds.stage_class(7681, 8, bounds.FLOAT_POINTS - 1) == bounds.stage_class(7681, 8, 256) == int64
    assert bounds.stage_class(_friendly_around(largest(float_fits), 1024)[1], 8, 768) == int64
    ring = RingSpec(TRINOMIAL, 768, 7681)
    plan = trinomial.make_plan(ring)
    for sched in (plan.forward, plan.inverse):
        check_widths(sched)
        assert sched.stage_class == float64
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    with mock.patch.object(transforms.Stage, "apply", _boom):
        assert trinomial.trinomial_multiply(a, b, plan) == oracle_multiply(a, b)
    for name in planner.preset_names():
        ring, plan = planner.preset(name)
        for sched in (s for t in plan.executor.tables for s in (getattr(t, "fwd_sched", None), getattr(t, "inv_sched", None)) if s):
            levels = len(sched.levels)  # the class its level count gave: as if one point per chunk
            assert sched.stage_class == bounds.stage_class(sched.table.modulus, levels, 1 << levels), name


@pytest.mark.parametrize("side", [0, 1], ids=["below", "above"])
@pytest.mark.parametrize("kind", [CC, NWC])
def test_single_bound_primes(kind, side, rng):
    # a 512-point schedule (FLOAT_LEVELS levels) on the primes on either
    # side of the single-matrix bound: one matrix, then limbs
    n = 512
    q = _friendly_around(largest(float_fits), 1024)[side]
    cls = (bounds.FLOAT64, bounds.FLOAT64_LIMB)[side]
    class_side(kind, n, q, (cls, bounds.FLOAT_WIDTH), rng)


@pytest.mark.parametrize("side", [0, 1], ids=["below", "above"])
def test_class_threshold_primes(side, rng):
    # the int64 width on either side of STAGE_CAP at 64 points: int64,
    # then float64 limbs; and 8 against FLOAT_LEVELS = 9 levels at one q
    q = _friendly_around(width_boundary(bounds.STAGE_CAP), 128)[side]
    float_cls = (bounds.FLOAT64_LIMB, bounds.FLOAT_WIDTH)
    class_side(NWC, 64, q, (float_cls if side else INT64_4), rng)
    n = (256, 512)[side]
    assert len(transforms.make_schedule(forward_specs(NWC)[0], tables_for(NWC, n, 12289)[0],
                                        n).levels) == bounds.FLOAT_LEVELS - 1 + side
    class_side(NWC, n, 12289, (FLOAT64_5 if side else INT64_4), rng)


# every preset that runs a transform: each of its working moduli is below
# 2^31, so has a stage width of at least 1, and the stage class of every
# schedule mod each of them.  n = 256 stays int64 at width 4; the longer
# schedules run float64, in limbs for 2134904833
PRESET_CLASSES = {
    "dilithium": {8380417: INT64_4},
    "falcon-1024": {12289: FLOAT64_5},
    "falcon-512": {12289: FLOAT64_5},
    "kyber": {3329: INT64_4},
    "kyber-r1": {7681: INT64_4},
    "lightsaber-m4": {20972417: INT64_4},
    "ntru-509": {2134904833: (bounds.FLOAT64_LIMB, bounds.FLOAT_WIDTH)},
    "ntru-677": {1389569: FLOAT64_5},
    "ntru-701": {5747201: FLOAT64_5},
    "ntru-821": {120833: FLOAT64_5, 133121: FLOAT64_5},
    "ntruprime-653-good": {3018241: FLOAT64_5},
    "ntruprime-761-good": {6984193: FLOAT64_5},
    "ntruprime-857-good": {4435969: FLOAT64_5},
    "saber-avx2": {7681: INT64_4, 10753: INT64_4},
    "saber-m3": {25570049: INT64_4},
    "saber-m4": {25166081: INT64_4},
}


# and, per schedule that a product of each preset runs, its level count
# and each stage's reduce flag (an int64 or limb stage always reduces): the
# single-matrix float64 stages of falcon skip their first reduction, and
# ntru-509's padded chain runs its 2048-point schedules truncated to their
# 10 levels on 1024 points (``transforms.truncate``)
ALL = (True, True)
PRESET_REDUCTIONS = {
    "dilithium": {8380417: {(8, ALL)}},
    "falcon-1024": {12289: {(10, (False, True))}},
    "falcon-512": {12289: {(9, (False, True))}},
    "kyber": {3329: {(7, ALL)}},
    "kyber-r1": {7681: {(8, ALL)}},
    "lightsaber-m4": {20972417: {(6, ALL)}},
    "ntru-509": {2134904833: {(10, ALL)}},
    "ntru-677": {1389569: {(9, ALL)}},
    "ntru-701": {5747201: {(9, ALL)}},
    "ntru-821": {120833: {(11, (True,) * 3)}, 133121: {(11, (True,) * 3)}},
    "ntruprime-653-good": {3018241: {(9, ALL)}},
    "ntruprime-761-good": {6984193: {(9, ALL)}},
    "ntruprime-857-good": {4435969: {(10, ALL)}},
    "saber-avx2": {7681: {(8, ALL)}, 10753: {(8, ALL)}},
    "saber-m3": {25570049: {(6, ALL)}},
    "saber-m4": {25166081: {(6, ALL)}},
}
# and, per block preset, its route's dtype and leaf bound and the (dtype,
# size) of each array one product reduces, in order: the floor's two live
# input blocks, the leaf sums, and the scaled int64 product
BLOCK_REDUCTIONS = (("int32", 32768), ("int32", 65536), ("int64", 2048))
PRESET_BLOCKS = {
    "ntruprime-653-schonhage": ("int32", 9240, BLOCK_REDUCTIONS),
    "ntruprime-761-schonhage": ("int32", 9180, BLOCK_REDUCTIONS),
    "ntruprime-857-schonhage": ("int32", 10332, BLOCK_REDUCTIONS),
}


def test_presets_run_the_merged_stages(rng):
    from nttkit import embed
    from nttkit.planner import multiply, preset, preset_names, sample_operands

    runs, seen, reductions, blocks = {}, {}, {}, {}
    run_levels, block_product = transforms.run_levels, embed._block_product
    mods = {module: module._mod for module in (embed, polymul)}

    def record(buf, sched):
        seen[name].setdefault(sched.table.modulus, set()).add(sched.stage_class)
        flags = tuple(getattr(stage, "reduce", True) for stage in sched.stages)
        reductions[name].setdefault(sched.table.modulus, set()).add((len(sched.levels), flags))
        return run_levels(buf, sched)

    def block(x, y, ws, route):  # the route's decisions, as one product makes them
        reduced = []
        blocks[name] = (route.dtype.name, route.leaf_bound, reduced)

        def observed(real):
            return lambda X, *args: reduced.append((X.dtype.name, X.size)) or real(X, *args)

        with mock.patch.multiple(embed, _mod=observed(mods[embed])), \
                mock.patch.multiple(polymul, _mod=observed(mods[polymul])):
            return block_product(x, y, ws, route)

    with mock.patch.object(transforms, "run_levels", record), \
            mock.patch.object(embed, "_block_product", block):
        for name in preset_names():
            seen[name], reductions[name] = {}, {}
            ring, plan = preset(name)
            runs[name] = (plan, sample_operands(ring, plan, rng))
            multiply(*runs[name][1], plan)  # builds every table and stage
    merge = {name: {q: cls for q, (cls,) in classes.items()}
             for name, classes in seen.items()
             if classes and min(map(int64_width, classes)) >= 1}
    assert merge == PRESET_CLASSES
    assert {name: r for name, r in reductions.items() if r} == PRESET_REDUCTIONS
    assert {name: (*b[:2], tuple(b[2])) for name, b in blocks.items()} == PRESET_BLOCKS
    # the reference kernel and the other stage class never run for them
    with no_reference():
        for name, classes in PRESET_CLASSES.items():
            plan, (a, b) = runs[name]
            ((cls, _),) = set(classes.values())  # one class for every modulus of a preset
            other = transforms.FloatStage if cls == bounds.INT64 else transforms.Stage
            with mock.patch.object(other, "apply", _boom):
                assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs, name


def test_public_transforms_on_a_bare_buffer_run_the_core_in_place(rng):
    # the planned routes' entry: a bare buffer, no ring, transformed in
    # place by the table's schedule and returned untagged, with the counts
    # of the tagged call
    for q in (7681, 2151677953):  # int64 and object buffers
        ring = RingSpec(XN_PLUS_1, 64, q)
        pair = make_transform_pair(ring, 1)
        a = Poly.random(ring, rng)
        buf = transforms.buffer(a.array, q)
        with counting() as c:
            got = transforms.ntt_forward(buf, pair.fwd_tw, pair.fwd_spec)
        assert got is buf and type(got) is np.ndarray
        with counting() as tagged_c:
            assert got.tolist() == pair.forward(a).values.tolist()
        assert c == tagged_c
        back = transforms.ntt_inverse(got, pair.inv_tw, pair.inv_spec)
        assert back is got and back.tolist() == a.coeffs
        # the buffer must have the modulus's dtype: any other raises
        # before any arithmetic, on both sides of 2^31
        for dtype in (np.int32, np.float64, np.int64, object):
            if dtype is not buffer_dtype(q):
                wrong = np.arange(64).astype(dtype)  # residues that fit every dtype
                for run in (lambda: transforms.ntt_forward(wrong, pair.fwd_tw, pair.fwd_spec),
                            lambda: transforms.ntt_inverse(wrong, pair.inv_tw, pair.inv_spec)):
                    with pytest.raises(SpecViolation, match="working buffer"):
                        run()
                    assert wrong.tolist() == list(range(64))


def test_one_call_transforms_share_the_tables_schedule(rng):
    # a pair's schedules are the tables' own, so one-call transforms on a
    # reused table, tagged or on a bare buffer, build their stage matrices
    # once
    ring = RingSpec(XN_PLUS_1, 64, 7681)
    pair = make_transform_pair(ring, 1)
    a = Poly.random(ring, rng)
    assert transforms.make_schedule(pair.fwd_spec, pair.fwd_tw, 64) is pair.fwd_sched
    assert transforms.make_schedule(pair.inv_spec, pair.inv_tw, 64) is pair.inv_sched
    ftw, itw = tables_for(CC, 64, 7681)
    psi = modarith.find_root(128, 7681)
    psi_f = modarith.build_twiddles(psi, 128, 7681, modarith.BIT_REVERSED)
    psi_i = modarith.build_twiddles(psi, 128, 7681, modarith.BIT_REVERSED, inverse=True)
    fs = forward_specs(CC)[0]

    def one_calls():
        ahat = transforms.ntt_forward(a, pair.fwd_tw, pair.fwd_spec)
        assert transforms.ntt_inverse(ahat, pair.inv_tw, pair.inv_spec) == a
        buf = transforms.buffer(a.array, 7681)
        transforms.ntt_inverse(transforms.ntt_forward(buf, pair.fwd_tw, pair.fwd_spec),
                               pair.inv_tw, pair.inv_spec)
        assert buf.tolist() == a.coeffs
        sh = transforms.nwc_forward_separate(a, ftw, psi_f, fs)
        assert transforms.nwc_inverse_separate(sh, itw, psi_i, inverse_specs_for(fs)[-1]) == a

    one_calls()
    with mock.patch.object(transforms.Schedule, "_stages", _boom):
        one_calls()
