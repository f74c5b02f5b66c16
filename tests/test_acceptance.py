"""Acceptance criteria, one test per criterion, exact integer equality.

Each test prints a single ACCEPTANCE line on success; a failed assert is
the failure report.  Criteria with stated wall-clock budgets assert them.
"""

import random
import time

import pytest

from conftest import direct_ntt_cc, direct_ntt_nwc, valid_qs

from nttkit import planner
from nttkit.bigmod import required_bound
from nttkit.modarith import BIT_REVERSED, NATURAL, bitrev, build_twiddles, counting, find_root
from nttkit.polymul import make_transform_pair, oracle_multiply
from nttkit.rings import Poly, RingSpec, TRINOMIAL, XN_MINUS_1, XN_PLUS_1
from nttkit.transforms import (
    CC,
    CT,
    FORWARD,
    GS,
    INVERSE,
    NWC,
    TransformSpec,
    ntt_forward,
    ntt_inverse,
    nwc_forward_separate,
    nwc_inverse_separate,
)

SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)
TRIALS = 100
ORDERINGS = ((NATURAL, BIT_REVERSED), (BIT_REVERSED, NATURAL))


def _tables(kind, n, q):
    order = 2 * n if kind == NWC else n
    root = find_root(order, q)
    fwd = build_twiddles(root, order, q, BIT_REVERSED)
    inv = build_twiddles(root, order, q, BIT_REVERSED, inverse=True)
    return fwd, inv


def _ring(kind, n, q):
    return RingSpec(XN_PLUS_1 if kind == NWC else XN_MINUS_1, n, q)


def _pairings(kind):
    """Forward/inverse spec pairs covering all twelve transform variants."""
    out = []
    fwd_bflies = (CT, GS) if kind == CC else (CT,)
    inv_bflies = (CT, GS) if kind == CC else (GS,)
    for fb in fwd_bflies:
        for i_o, o_o in ORDERINGS:
            fs = TransformSpec(kind, fb, FORWARD, i_o, o_o, 0)
            for ib in inv_bflies:
                out.append((fs, TransformSpec(kind, ib, INVERSE, o_o, i_o, 0)))
    return out


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS: {text}")


def test_criterion_1_round_trip_identity():
    t0 = time.monotonic()
    rng = random.Random(101)
    combos = 0
    for kind in (CC, NWC):
        pairings = _pairings(kind)
        for n in SIZES:
            for q in valid_qs(kind, n):
                ftw, itw = _tables(kind, n, q)
                ring = _ring(kind, n, q)
                polys = [Poly.random(ring, rng) for _ in range(TRIALS)]
                for fs, inv in pairings:
                    combos += 1
                    for a in polys:
                        ah = ntt_forward(a, ftw, fs)
                        back = ntt_inverse(ah, itw, inv)
                        assert back.coeffs == a.coeffs, (kind, n, q, fs, inv)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    report(1, f"round-trip identity, {combos} variant/size/modulus combos, "
              f"{TRIALS} polys each, {elapsed:.1f}s")


def test_criterion_2_convolution_theorems():
    t0 = time.monotonic()
    rng = random.Random(202)
    combos = 0
    for kind in (CC, NWC):
        fs = TransformSpec(kind, CT, FORWARD, NATURAL, BIT_REVERSED, 0)
        for n in SIZES:
            for q in valid_qs(kind, n):
                ftw, _ = _tables(kind, n, q)
                ring = _ring(kind, n, q)
                combos += 1
                for _ in range(TRIALS):
                    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
                    c = oracle_multiply(a, b)
                    A = ntt_forward(a, ftw, fs).values.tolist()
                    B = ntt_forward(b, ftw, fs).values.tolist()
                    C = ntt_forward(c, ftw, fs).values.tolist()
                    assert C == [x * y % q for x, y in zip(A, B)], (kind, n, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    report(2, f"convolution theorems on {combos} (kind, n, q) combos, "
              f"{TRIALS} pairs each, {elapsed:.1f}s")


@pytest.mark.parametrize("n", [8, 64, 256, 1024])
def test_criterion_3_multiplication_counts(n):
    q = 12289
    rng = random.Random(303)
    logn = n.bit_length() - 1
    ring = _ring(NWC, n, q)
    pair = make_transform_pair(ring, 0)
    a = Poly.random(ring, rng)
    with counting() as cf:
        ah = pair.forward(a)
    assert cf.mults == n * logn // 2
    with counting() as ci:
        pair.inverse(ah)
    assert ci.mults == n * logn // 2 + n

    # separate pre/post-processed negacyclic variants
    psi = pair.fwd_tw.root
    omega = psi * psi % q
    cc_tw = build_twiddles(omega, n, q, BIT_REVERSED)
    cc_itw = build_twiddles(omega, n, q, BIT_REVERSED, inverse=True)
    psi_tw = build_twiddles(psi, 2 * n, q)
    psi_itw = build_twiddles(psi, 2 * n, q, inverse=True)
    cc_ring = _ring(CC, n, q)
    cc_f = TransformSpec(CC, CT, FORWARD, NATURAL, BIT_REVERSED)
    with counting() as cs:
        sh = nwc_forward_separate(Poly(a.coeffs, cc_ring), cc_tw, psi_tw, cc_f)
    assert cs.mults == n * logn // 2 + n
    with counting() as cs2:
        nwc_inverse_separate(sh, cc_itw, psi_itw, cc_f.inverse_of())
    assert cs2.mults == n * logn // 2 + 2 * n
    if n == 1024:
        report(3, "transform counts match n/2*log(n) (+n, +2n) at n=8,64,256,1024")


# the criterion names a specific preset list; the remaining registry
# entries run at the same weight to cover the per-preset embedding
# invariant (>= 100 random instances each)
PRESET_TRIALS = {name: TRIALS for name in planner.preset_names()}

_preset_start = None


@pytest.mark.parametrize("name", list(PRESET_TRIALS))
def test_criterion_4_preset_oracle_equivalence(name):
    global _preset_start
    if _preset_start is None:
        _preset_start = time.monotonic()
    rng = random.Random(f"acceptance-4:{name}")  # str seeds do not depend on PYTHONHASHSEED
    ring, plan = planner.preset(name)
    if name.startswith(("saber", "lightsaber")):
        # the working modulus must exceed the stated k*n*q*mu/2 bound
        bound = required_bound(ring.n, ring.q, plan.profile)
        N = plan.N if plan.N else plan.basis.product
        assert N > bound, (name, N, bound)
    for _ in range(PRESET_TRIALS[name]):
        a, b = planner.sample_operands(ring, plan, rng)
        got = planner.multiply(a, b, plan)
        want = oracle_multiply(a, b)
        assert got.coeffs == want.coeffs, name
    elapsed = time.monotonic() - _preset_start
    assert elapsed < 600, f"criterion 4 total {elapsed:.0f}s (budget 600s)"
    if name == list(PRESET_TRIALS)[-1]:
        report(4, f"preset oracle equivalence, {TRIALS} trials per preset, "
                  f"{elapsed:.0f}s total")


def test_criterion_5_strategy_cross_equivalence():
    rng = random.Random(505)
    kyber, _ = planner.preset("kyber")
    kplans = [
        planner.make_plan(kyber, "incomplete", beta=1),
        planner.make_plan(kyber, "hntt", alpha=0, beta=1),
        planner.make_plan(kyber, "split-pt", alpha=1),
        planner.make_plan(kyber, "split-k", alpha=1),
    ]
    for _ in range(TRIALS):
        a, b = Poly.random(kyber, rng), Poly.random(kyber, rng)
        outs = [planner.multiply(a, b, p).coeffs for p in kplans]
        assert outs[0] == outs[1] == outs[2] == outs[3]

    saber, big = planner.preset("saber-m4")
    _, rns = planner.preset("saber-avx2")
    _, comp = planner.preset("saber-m3")
    for _ in range(25):
        a, b = planner.sample_operands(saber, big, rng)
        o1 = planner.multiply(a, b, big).coeffs
        o2 = planner.multiply(a, b, rns).coeffs
        o3 = planner.multiply(a, b, comp).coeffs
        assert o1 == o2 == o3
    report(5, "incomplete/hntt/pt/k agree on the kyber ring; "
              "bigprime/rns/composite agree on the saber ring")


@pytest.mark.parametrize("n,q", [(6, 7), (12, 13), (768, 769), (768, 7681)])
def test_criterion_6_trinomial(n, q):
    from nttkit.trinomial import make_plan as tri_plan, trinomial_multiply
    from nttkit.polymul import reduce_mod_phi, schoolbook_linear

    rng = random.Random(606)
    ring = RingSpec(TRINOMIAL, n, q)
    plan = tri_plan(ring)
    assert (plan.zeta1 + plan.zeta2) % q == 1
    assert plan.zeta1 * plan.zeta2 % q == 1
    for _ in range(TRIALS):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = trinomial_multiply(a, b, plan)
        want = reduce_mod_phi(schoolbook_linear(a, b), ring)
        assert got.coeffs == want.coeffs
    if (n, q) == (768, 7681):
        report(6, "trinomial-ring constants and oracle equivalence at "
                  "(6,7) (12,13) (768,769) (768,7681)")


def test_criterion_7_matvec_transform_count():
    rng = random.Random(707)
    ring, plan = planner.preset("kyber")
    pair = plan.pair
    k = 3
    Ahat = [[planner.sample_ntt_domain_uniform(ring, pair, 31 * i + j) for j in range(k)]
            for i in range(k)]
    s = [Poly.random(ring, rng) for _ in range(k)]
    with counting() as c:
        rows = planner.matvec_multiply(Ahat, s, pair)
    assert c.forward_transforms == k
    assert c.inverse_transforms == k
    # and the rows are the correct ring elements
    for i in range(k):
        acc = Poly.zero(ring)
        for j in range(k):
            acc = acc.add(oracle_multiply(pair.inverse(Ahat[i][j]), s[j]))
        assert rows[i].coeffs == acc.coeffs
    report(7, f"matrix-vector with k={k} used exactly k forward and k inverse transforms")


def test_criterion_8_direct_definition_oracle():
    rng = random.Random(808)
    checked = 0
    for kind in (CC, NWC):
        fwd_bflies = (CT, GS) if kind == CC else (CT,)
        for n in (4, 8, 16, 32, 64):
            for q in valid_qs(kind, n):
                ftw, _ = _tables(kind, n, q)
                root = ftw.root
                ring = _ring(kind, n, q)
                ref_fn = direct_ntt_nwc if kind == NWC else direct_ntt_cc
                for bf in fwd_bflies:
                    for i_o, o_o in ORDERINGS:
                        fs = TransformSpec(kind, bf, FORWARD, i_o, o_o, 0)
                        for _ in range(10):
                            a = Poly.random(ring, rng)
                            ref = ref_fn(a.coeffs, root, q)
                            if i_o == NATURAL:
                                got = ntt_forward(a, ftw, fs).values.tolist()
                                want = [ref[bitrev(p, n)] for p in range(n)]
                            else:
                                from nttkit.transforms import reorder

                                got = ntt_forward(Poly(reorder(a.coeffs), ring), ftw, fs).values.tolist()
                                want = ref
                            assert got == want, (kind, bf, n, q, i_o)
                            checked += 1
    report(8, f"direct-summation equivalence for every full forward variant, "
              f"{checked} transforms checked")
