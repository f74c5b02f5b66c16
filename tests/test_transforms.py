import dataclasses
import pickle
import re
import tracemalloc
from pathlib import Path

import pytest

from conftest import direct_ntt_cc, direct_ntt_nwc, valid_qs

import nttkit
from nttkit import bounds, transforms, trinomial
from nttkit.errors import LengthMismatch, OrderMismatch, SpecViolation
from nttkit.modarith import (
    BIT_REVERSED, NATURAL, OpCounter, bitrev, build_twiddles, counting, find_root, mod_inv,
)
from nttkit.polymul import make_transform_pair
from nttkit.rings import TRINOMIAL, Poly, RingSpec, XN_MINUS_1, XN_PLUS_1
from nttkit.transforms import (
    CC,
    CT,
    FORWARD,
    GS,
    INVERSE,
    NWC,
    TransformSpec,
    butterfly_ct,
    butterfly_gs,
    butterfly_schedule,
    ntt_forward,
    ntt_inverse,
    nwc_forward_separate,
    nwc_inverse_separate,
    reorder,
)

ORDERINGS = [(NATURAL, BIT_REVERSED), (BIT_REVERSED, NATURAL)]


def tables_for(kind, n, q, beta=0, storage=BIT_REVERSED):
    order = transforms.root_order(XN_PLUS_1 if kind == NWC else XN_MINUS_1, n, beta)
    root = find_root(order, q)
    return (
        build_twiddles(root, order, q, storage),
        build_twiddles(root, order, q, storage, inverse=True),
    )


def ring_for(kind, n, q):
    return RingSpec(XN_PLUS_1 if kind == NWC else XN_MINUS_1, n, q)


def forward_specs(kind, beta=0):
    out = []
    for bf in ([CT, GS] if kind == CC else [CT]):
        for i_o, o_o in ORDERINGS:
            out.append(TransformSpec(kind, bf, FORWARD, i_o, o_o, beta))
    return out


def inverse_specs_for(fs):
    bflies = [CT, GS] if fs.conv_kind == CC else [GS]
    return [
        TransformSpec(fs.conv_kind, bf, INVERSE, fs.out_order, fs.in_order, fs.beta)
        for bf in bflies
    ]


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_nwc_gs_forward():
    with pytest.raises(SpecViolation):
        TransformSpec(NWC, GS, FORWARD, NATURAL, BIT_REVERSED)
    with pytest.raises(SpecViolation):
        TransformSpec(NWC, CT, INVERSE, BIT_REVERSED, NATURAL)


def test_spec_rejects_equal_orderings():
    with pytest.raises(SpecViolation):
        TransformSpec(CC, CT, FORWARD, NATURAL, NATURAL)


def test_forward_rejects_wrong_table():
    ring = ring_for(NWC, 8, 17)
    a = Poly([1] * 8, ring)
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    ftw, itw = tables_for(NWC, 8, 17)
    small, _ = tables_for(NWC, 4, 17)
    with pytest.raises(OrderMismatch):
        ntt_forward(a, small, fs)
    with pytest.raises(OrderMismatch):
        ntt_forward(a, itw, fs)  # inverse table on a forward pass
    with pytest.raises(SpecViolation):
        ntt_forward(a, ftw, TransformSpec(NWC, GS, INVERSE, BIT_REVERSED, NATURAL))


def test_beta_bound_checked_at_application():
    ring = ring_for(NWC, 8, 17)
    a = Poly([0] * 8, ring)
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED, beta=3)
    ftw, _ = tables_for(NWC, 8, 17, beta=3)  # order would be 2
    with pytest.raises(SpecViolation):
        ntt_forward(a, ftw, fs)


# ---------------------------------------------------------------------------
# butterflies


def test_butterfly_ct_examples():
    assert butterfly_ct(5, 0, 3, 17) == (5, 5)
    assert butterfly_ct(1, 1, 16, 17) == (0, 2)  # 1+16=0, 1-16=2


def test_butterfly_gs_examples():
    assert butterfly_gs(7, 7, 3, 17) == (14, 0)
    assert butterfly_gs(1, 16, 2, 17) == (0, 4)  # (1-16)*2 = -30 = 4


def test_butterfly_composition_identity(rng):
    # GS with the inverse twiddle undoes CT up to a factor 2
    for _ in range(100):
        q = rng.choice([17, 97, 3329])
        u, v = rng.randrange(q), rng.randrange(q)
        w = rng.randrange(1, q)
        x, y = butterfly_ct(u, v, w, q)
        s, d = butterfly_gs(x, y, mod_inv(w, q), q)
        assert (s, d) == (2 * u % q, 2 * v % q)


# ---------------------------------------------------------------------------
# reorder


def test_reorder_examples():
    assert reorder([3, 9]) == [3, 9]
    assert reorder(list("a0 a1 a2 a3 a4 a5 a6 a7".split())) == \
        ["a0", "a4", "a2", "a6", "a1", "a5", "a3", "a7"]


def test_reorder_involution(rng):
    for n in (2, 4, 8, 64, 256):
        vals = [rng.randrange(1000) for _ in range(n)]
        assert reorder(reorder(vals)) == vals


def test_reorder_chunked(rng):
    vals = list(range(16))
    out = reorder(vals, chunk=4)
    assert out == [0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15]


# ---------------------------------------------------------------------------
# round trips, orderings, definition


def test_round_trip_all_pairings_with_beta(rng):
    for kind in (CC, NWC):
        for n in (4, 8, 16, 64):
            for q in valid_qs(kind, n, (17, 97, 257, 7681)):
                for beta in (0, 1, 2):
                    if beta >= n.bit_length() - 1:
                        continue
                    ftw, itw = tables_for(kind, n, q, beta)
                    ring = ring_for(kind, n, q)
                    for fs in forward_specs(kind, beta):
                        a = Poly.random(ring, rng)
                        ah = ntt_forward(a, ftw, fs)
                        for inv in inverse_specs_for(fs):
                            assert ntt_inverse(ah, itw, inv).coeffs == a.coeffs, (
                                kind, n, q, beta, fs.butterfly, fs.in_order, inv.butterfly)


def test_ordering_duality(rng):
    # forward no->bo == reorder o (forward bo->no) o reorder
    for kind in (CC, NWC):
        n, q = 32, 257
        ftw, _ = tables_for(kind, n, q)
        ring = ring_for(kind, n, q)
        bflies = [CT, GS] if kind == CC else [CT]
        for bf in bflies:
            f_nb = TransformSpec(kind, bf, FORWARD, NATURAL, BIT_REVERSED)
            f_bn = TransformSpec(kind, bf, FORWARD, BIT_REVERSED, NATURAL)
            for _ in range(20):
                a = Poly.random(ring, rng)
                lhs = ntt_forward(a, ftw, f_nb).values.tolist()
                inner = Poly(reorder(a.coeffs), ring)
                rhs = reorder(ntt_forward(inner, ftw, f_bn).values.tolist())
                assert lhs == rhs


def test_ordering_duality_with_cropped_levels(rng):
    # the duality holds chunkwise once leaves have degree > 0
    for kind in (CC, NWC):
        for n, q, beta in ((16, 97, 1), (32, 257, 2), (64, 7681, 3)):
            order = (2 * n if kind == NWC else n) >> beta
            if (q - 1) % order:
                continue
            ftw, _ = tables_for(kind, n, q, beta)
            ring = ring_for(kind, n, q)
            chunk = 1 << beta
            for bf in ([CT, GS] if kind == CC else [CT]):
                f_nb = TransformSpec(kind, bf, FORWARD, NATURAL, BIT_REVERSED, beta)
                f_bn = TransformSpec(kind, bf, FORWARD, BIT_REVERSED, NATURAL, beta)
                for _ in range(5):
                    a = Poly.random(ring, rng)
                    lhs = ntt_forward(a, ftw, f_nb).values.tolist()
                    inner = Poly(reorder(a.coeffs, chunk=chunk), ring)
                    rhs = reorder(ntt_forward(inner, ftw, f_bn).values.tolist(), chunk=chunk)
                    assert lhs == rhs, (kind, bf, n, q, beta)


def test_direct_definition_equivalence(rng):
    # beta = 0, n <= 64: kernel output equals the O(n^2) summation
    for kind in (CC, NWC):
        for n in (4, 8, 16, 32, 64):
            for q in valid_qs(kind, n, (17, 97, 257, 3329, 7681)):
                ftw, _ = tables_for(kind, n, q)
                root = ftw.root
                ring = ring_for(kind, n, q)
                for fs in forward_specs(kind):
                    a = Poly.random(ring, rng)
                    ref = (direct_ntt_nwc if kind == NWC else direct_ntt_cc)(a.coeffs, root, q)
                    if fs.in_order == NATURAL:
                        got = ntt_forward(a, ftw, fs).values.tolist()
                        assert got == [ref[bitrev(p, n)] for p in range(n)]
                    else:
                        got = ntt_forward(Poly(reorder(a.coeffs), ring), ftw, fs).values.tolist()
                        assert got == ref


def test_incomplete_leaves_are_polynomial_remainders(rng):
    # beta=1 over x^256+1, q=3329: chunk p holds a mod (x^2 - psi^(2 brv(p)+1))
    n, q, beta = 256, 3329, 1
    ftw, _ = tables_for(NWC, n, q, beta)
    ring = ring_for(NWC, n, q)
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED, beta)
    a = Poly.random(ring, rng)
    ah = ntt_forward(a, ftw, fs)
    m = n >> beta
    psi = ftw.root
    for p in range(0, m, 17):  # sample leaves
        gamma = pow(psi, 2 * bitrev(p, m) + 1, q)
        # brute remainder of a by x^2 - gamma: fold x^(2t+r) -> gamma^t x^r
        c0 = c1 = 0
        for i, coef in enumerate(a.coeffs):
            t, r = divmod(i, 2)
            term = coef * pow(gamma, t, q) % q
            if r == 0:
                c0 = (c0 + term) % q
            else:
                c1 = (c1 + term) % q
        assert ah.values[2 * p : 2 * p + 2].tolist() == [c0, c1]


def test_linearity(rng):
    for kind in (CC, NWC):
        n, q = 64, 7681
        ftw, _ = tables_for(kind, n, q)
        ring = ring_for(kind, n, q)
        fs = forward_specs(kind)[0]
        for _ in range(20):
            a, b = Poly.random(ring, rng), Poly.random(ring, rng)
            c = rng.randrange(q)
            left = ntt_forward(a.add(b), ftw, fs).values.tolist()
            right = ntt_forward(a, ftw, fs).add(ntt_forward(b, ftw, fs)).values.tolist()
            assert left == right
            scaled = ntt_forward(Poly([x * c % q for x in a.coeffs], ring), ftw, fs).values.tolist()
            assert scaled == ntt_forward(a, ftw, fs).scale(c).values.tolist()


def test_delta_and_constant_vectors():
    # delta transforms to the all-ones vector in any ordering; the
    # all-ones cyclic input concentrates into the zero frequency
    ring = ring_for(NWC, 4, 17)
    ftw, itw = tables_for(NWC, 4, 17)
    delta = Poly([1, 0, 0, 0], ring)
    for fs in forward_specs(NWC):
        assert ntt_forward(delta, ftw, fs).values.tolist() == [1, 1, 1, 1]
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    ones = ntt_forward(delta, ftw, fs)
    assert ntt_inverse(ones, itw, fs.inverse_of()).coeffs == [1, 0, 0, 0]

    cring = ring_for(CC, 4, 17)
    cftw, _ = tables_for(CC, 4, 17)
    allones = Poly([1, 1, 1, 1], cring)
    got = ntt_forward(allones, cftw, TransformSpec(CC, CT, FORWARD, NATURAL, BIT_REVERSED))
    assert got.values.tolist() == [4, 0, 0, 0]


def test_degenerate_sizes(rng):
    # n = 1: identity both ways; n = 2: single butterfly
    ring1 = ring_for(NWC, 1, 17)
    ftw, itw = tables_for(NWC, 1, 17)
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    a = Poly([13], ring1)
    ah = ntt_forward(a, ftw, fs)
    assert ah.values.tolist() == [13]
    assert ntt_inverse(ah, itw, fs.inverse_of()).coeffs == [13]

    ring2 = ring_for(NWC, 2, 17)
    ftw2, itw2 = tables_for(NWC, 2, 17)
    a2 = Poly([3, 5], ring2)
    ah2 = ntt_forward(a2, ftw2, fs)
    psi = ftw2.root
    assert ah2.values.tolist() == [(3 + 5 * psi) % 17, (3 - 5 * psi) % 17]
    assert ntt_inverse(ah2, itw2, fs.inverse_of()).coeffs == a2.coeffs


# ---------------------------------------------------------------------------
# operation counts


@pytest.mark.parametrize("n", [8, 64, 256])
def test_table_counts(n, rng):
    q = 12289
    ring = ring_for(NWC, n, q)
    pair = make_transform_pair(ring, 0)
    a = Poly.random(ring, rng)
    logn = n.bit_length() - 1
    with counting() as cf:
        ah = pair.forward(a)
    assert cf.mults == n * logn // 2
    with counting() as ci:
        pair.inverse(ah)
    assert ci.mults == n * logn // 2 + n


def test_butterfly_budget_per_level(rng):
    # (n/2)(log n - beta) butterflies, 1 mult + 1 add + 1 sub each
    n, q, beta = 64, 7681, 2
    ring = ring_for(NWC, n, q)
    pair = make_transform_pair(ring, beta)
    with counting() as c:
        pair.forward(Poly.random(ring, rng))
    bf = n * (n.bit_length() - 1 - beta) // 2
    assert (c.mults, c.adds, c.subs) == (bf, bf, bf)


def test_separate_psi_variants_match_and_cost_extra(rng):
    n, q = 64, 7681
    psi = find_root(2 * n, q)
    omega = psi * psi % q
    cc_tw = build_twiddles(omega, n, q, BIT_REVERSED)
    cc_itw = build_twiddles(omega, n, q, BIT_REVERSED, inverse=True)
    psi_tw = build_twiddles(psi, 2 * n, q)
    psi_itw = build_twiddles(psi, 2 * n, q, inverse=True)
    nwc_ftw, nwc_itw = tables_for(NWC, n, q)

    cc_ring = ring_for(CC, n, q)
    nwc_ring = ring_for(NWC, n, q)
    cc_f = TransformSpec(CC, CT, FORWARD, NATURAL, BIT_REVERSED)
    nwc_f = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    logn = n.bit_length() - 1

    for _ in range(10):
        coeffs = [rng.randrange(q) for _ in range(n)]
        with counting() as cs:
            sep = nwc_forward_separate(Poly(coeffs, cc_ring), cc_tw, psi_tw, cc_f)
        merged = ntt_forward(Poly(coeffs, nwc_ring), nwc_ftw, nwc_f)
        assert sep.values.tolist() == merged.values.tolist()
        assert cs.mults == n * logn // 2 + n

        with counting() as ci:
            back = nwc_inverse_separate(sep, cc_itw, psi_itw, cc_f.inverse_of())
        assert back.coeffs == coeffs
        assert ci.mults == n * logn // 2 + 2 * n
        merged_back = ntt_inverse(merged, nwc_itw, nwc_f.inverse_of())
        assert merged_back.coeffs == coeffs


# ---------------------------------------------------------------------------
# structure: in-place, schedules, recursion identity


def test_passes_run_in_place_without_scratch(rng):
    n, q = 1024, 12289
    ftw, itw = tables_for(NWC, n, q)
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    inv = fs.inverse_of()
    buf = [rng.randrange(q) for _ in range(n)]
    # the schedules' levels and inverse factor are built beforehand
    f_sched, i_sched = transforms.make_schedule(fs, ftw, n), transforms.make_schedule(inv, itw, n)
    assert f_sched.factor == 1 and i_sched.factor == mod_inv(n, q)
    # peak-over-final headroom: replacing the n value objects is inherent,
    # but a transient second length-n list would leave an 8 KiB+ gap
    tracemalloc.start()
    transforms.reference_rows([buf], f_sched)
    cur_f, peak_f = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    transforms.reference_rows([buf], i_sched)
    cur_i, peak_i = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak_f - cur_f < n * 2
    assert peak_i - cur_i < n * 2


def test_equal_specs_built_apart_share_one_schedule():
    # a spec hashes once, by value: equal specs made apart find the same
    # schedule on a table, and a spec that differs in one field does not
    n, q = 64, 7681
    ftw, _ = tables_for(NWC, n, q, beta=1)
    fields = (NWC, CT, FORWARD, NATURAL, BIT_REVERSED, 1)
    a, b = TransformSpec(*fields), TransformSpec(*fields)
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert transforms.make_schedule(a, ftw, n) is transforms.make_schedule(b, ftw, n)
    assert a != dataclasses.replace(a, beta=0) and a != a.inverse_of()
    assert pickle.loads(pickle.dumps(a)) == a and hash(pickle.loads(pickle.dumps(a))) == hash(a)


# (kind, n, q) of every stage class: int64, float64, float64 limbs, object
REPLAY_TABLES = ((CC, 16, 97), (NWC, 16, 97), (NWC, 512, 12289), (CC, 64, 2013265921),
                 (NWC, 64, 2151677953))


def test_schedule_replay_matches_kernel(rng):
    # the reference kernel replays butterfly_schedule with butterfly_ct/gs
    # and butterfly_matrix; it equals the merged stages in values and op
    # counts on every spec, beta 0-2, stage class and both trinomial
    # schedules, whose split and unsplit levels are matrix levels, in
    # every class: n = 6 (the split alone), int64, object and float64
    scheds = []
    for kind, n, q in REPLAY_TABLES:
        for beta in range(3):
            ftw, itw = tables_for(kind, n, q, beta)
            for fs in forward_specs(kind, beta):
                scheds.append(transforms.make_schedule(fs, ftw, n))
                scheds += [transforms.make_schedule(inv, itw, n) for inv in inverse_specs_for(fs)]
    for n, q in ((6, 7), (48, 97), (96, 2147492353), (1536, 12289), (3072, 12289)):
        plan = trinomial.make_plan(RingSpec(TRINOMIAL, n, q))
        scheds += [plan.forward, plan.inverse]
    classes = set()
    for sched in scheds:
        q = sched.table.modulus
        rows = [[rng.randrange(q) for _ in range(sched.n)] for _ in range(2)]
        buf = transforms.buffer(rows, q)
        with counting() as merged:
            transforms.run_levels(buf, sched)
        with counting() as replay:
            transforms.reference_rows(rows, sched)
        assert (buf.tolist(), merged) == (rows, replay), (sched.spec, sched.n, q)
        # one mult, add and sub per coefficient pair of every butterfly
        pairs = 2 * sched.chunk * len(list(butterfly_schedule(sched)))
        assert replay == OpCounter(pairs, pairs, pairs)
        classes.add(sched.stage_class[0])
    assert classes == {bounds.INT64, bounds.FLOAT64, bounds.FLOAT64_LIMB,
                       bounds.OBJECT}


def test_recursive_split_recurrence(rng):
    # bo->no CT: combining half-size transforms of even/odd coefficients
    # with (a'_j + w^j a''_j, a'_j - w^j a''_j) gives the full transform
    n, q = 16, 97
    for kind in (CC, NWC):
        ftw, _ = tables_for(kind, n, q)
        root = ftw.root
        ring = ring_for(kind, n, q)
        a = Poly.random(ring, rng)
        full = (direct_ntt_nwc if kind == NWC else direct_ntt_cc)(a.coeffs, root, q)
        sub_root = pow(root, 2, q)
        even = (direct_ntt_nwc if kind == NWC else direct_ntt_cc)(a.coeffs[0::2], sub_root, q)
        odd = (direct_ntt_nwc if kind == NWC else direct_ntt_cc)(a.coeffs[1::2], sub_root, q)
        for j in range(n // 2):
            w = pow(root, 2 * j + 1, q) if kind == NWC else pow(root, j, q)
            assert full[j] == (even[j] + w * odd[j]) % q
            assert full[j + n // 2] == (even[j] - w * odd[j]) % q


def test_batch_inverse_needs_as_buffer():
    # a batch inverts to a buffer only: without as_buffer the inverse
    # refuses it with a typed error before any arithmetic
    n, q = 16, 97
    _, itw = tables_for(NWC, n, q)
    fs = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    ahat = transforms.NttDomainPoly([[1] * n, [2] * n], fs, ring_for(NWC, n, q))
    with counting() as c, pytest.raises(LengthMismatch):
        ntt_inverse(ahat, itw, fs.inverse_of())
    assert c == OpCounter()
    assert ntt_inverse(ahat, itw, fs.inverse_of(), as_buffer=True).shape == (2, n)


def test_domain_poly_compat_guard(rng):
    n, q = 8, 17
    ftw, _ = tables_for(NWC, n, q)
    ring = ring_for(NWC, n, q)
    fs_nb = TransformSpec(NWC, CT, FORWARD, NATURAL, BIT_REVERSED)
    fs_bn = TransformSpec(NWC, CT, FORWARD, BIT_REVERSED, NATURAL)
    a = ntt_forward(Poly.random(ring, rng), ftw, fs_nb)
    b = ntt_forward(Poly.random(ring, rng), ftw, fs_bn)
    from nttkit.errors import SpecMismatch

    with pytest.raises(SpecMismatch):
        a.add(b)


def test_only_the_entry_points_call_the_cores():
    # ntt_forward and ntt_inverse are the one entry to a transform: no
    # other module of the library names the array cores or the stage driver
    core = re.compile(r"\b(transform_rows|run_levels)\b")
    found = []
    for path in sorted(Path(nttkit.__file__).parent.glob("*.py")):
        if path.name == "transforms.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if core.search(line):
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_root_order_is_the_table_order_rule():
    # 2n/2^beta for x^n + 1, n/2^beta for x^n - 1: the order every table,
    # congruence and root search of a transform uses
    assert [transforms.root_order(XN_PLUS_1, 256, b) for b in range(3)] == [512, 256, 128]
    assert [transforms.root_order(XN_MINUS_1, 256, b) for b in range(3)] == [256, 128, 64]
    for kind, form in ((CC, XN_MINUS_1), (NWC, XN_PLUS_1)):
        for beta in range(3):
            for fs in forward_specs(kind, beta):
                assert fs.table_order(64) == transforms.root_order(form, 64, beta)
