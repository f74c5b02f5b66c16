import sys
import threading

import numpy as np
import pytest

from nttkit import bigmod, bounds, embed, modarith, planner, polymul, splitting, transforms, trinomial
from nttkit.errors import (
    NoStrategy, ParameterCondition, RingMismatch, ShapeCondition, SpecMismatch, UnknownPreset,
)
from nttkit.planner import (
    GENERAL_PHI,
    NON_POW2,
    POW2_FULL,
    POW2_PARTIAL,
    POW2_UNFRIENDLY,
    classify,
    make_plan,
    matvec_multiply,
    multiply,
    preset,
    preset_names,
    sample_ntt_domain_uniform,
    sample_operands,
    search_prime,
)
from nttkit.polymul import oracle_multiply
from nttkit.rings import Poly, RingSpec, TRINOMIAL, XN_MINUS_1, XN_MINUS_X_MINUS_1, XN_PLUS_1
from nttkit.transforms import NttDomainPoly


def test_classify_examples():
    assert classify(RingSpec(XN_PLUS_1, 256, 3329)).kind == POW2_PARTIAL
    assert classify(RingSpec(XN_PLUS_1, 256, 3329)).deficit == 1
    assert classify(RingSpec(XN_PLUS_1, 256, 8192)).kind == POW2_UNFRIENDLY
    assert classify(RingSpec(XN_MINUS_X_MINUS_1, 761, 4591)).kind == GENERAL_PHI
    assert classify(RingSpec(XN_PLUS_1, 256, 8380417)).kind == POW2_FULL
    assert classify(RingSpec(XN_PLUS_1, 256, 7681)).kind == POW2_FULL
    cls = classify(RingSpec(XN_MINUS_1, 701, 8192))
    assert cls.kind == NON_POW2 and (cls.h, cls.k) == (701, 0)
    cls = classify(RingSpec(XN_MINUS_1, 1536, 8192))
    assert (cls.h, cls.k) == (3, 9)


def test_make_plan_defaults():
    dil = make_plan(RingSpec(XN_PLUS_1, 256, 8380417))
    assert dil.strategy == "full" and dil.beta == 0
    kyb = make_plan(RingSpec(XN_PLUS_1, 256, 3329))
    assert kyb.strategy == "incomplete" and kyb.beta == 1
    from nttkit.bigmod import MATVEC

    sab = make_plan(RingSpec(XN_PLUS_1, 256, 8192), "rns",
                    basis=(7681, 10753), allow_bigmod=True, profile=(MATVEC, 3, 8))
    assert sab.strategy == "rns" and sab.basis.primes == (7681, 10753)


def test_make_plan_requires_bigmod_opt_in():
    with pytest.raises(NoStrategy):
        make_plan(RingSpec(XN_PLUS_1, 256, 3328))
    plan = make_plan(RingSpec(XN_PLUS_1, 256, 3328), allow_bigmod=True)
    assert plan.strategy == "bigprime"


DILITHIUM_RING = RingSpec(XN_PLUS_1, 256, 8380417)
SABER_RING = RingSpec(XN_PLUS_1, 256, 8192)
NTRU_RING = RingSpec(XN_MINUS_1, 509, 2048)


def test_auto_plans_a_given_beta_on_a_fully_friendly_ring(rng):
    for beta in (1, 2):
        plan = make_plan(DILITHIUM_RING, beta=beta)
        assert (plan.strategy, plan.beta) == ("incomplete", beta)
        a, b = sample_operands(DILITHIUM_RING, plan, rng)
        assert multiply(a, b, plan) == oracle_multiply(a, b)
    # a full transform is beta = 0
    for prefer in ("auto", "full"):
        assert make_plan(DILITHIUM_RING, prefer, beta=0).strategy == "full"


@pytest.mark.parametrize("ring, prefer, kw, named", [
    (DILITHIUM_RING, "full", {"beta": 2}, "full does not take beta=2"),
    (DILITHIUM_RING, "incomplete", {"alpha": 3}, "incomplete does not take alpha=3"),
    (DILITHIUM_RING, "split-pt", {"beta": 1}, "split-pt does not take beta=1"),
    (DILITHIUM_RING, "split-k", {"alpha": 1, "N": 7681}, "split-k does not take N=7681"),
    (DILITHIUM_RING, "hntt", {"basis": (7681,)}, r"hntt does not take basis=\(7681,\)"),
    (SABER_RING, "bigprime", {"basis": (7681, 10753)}, "bigprime does not take basis="),
    (SABER_RING, "rns", {"N": 12345}, "rns does not take N=12345"),
    (SABER_RING, "composite", {"alpha": 1}, "composite does not take alpha=1"),
    (RingSpec(TRINOMIAL, 768, 7681), "trinomial", {"beta": 1}, "trinomial does not take beta"),
    (NTRU_RING, "auto", {"beta": 1}, "embed does not take beta=1"),
    (NTRU_RING, "schonhage", {"N": 12289}, "embed does not take N=12289"),
    (DILITHIUM_RING, "auto", {"chain": (embed.ZeroPad(512), embed.PlainNtt(0)), "beta": 1},
     "embed does not take beta=1"),
], ids=["full", "incomplete", "split-pt", "split-k", "hntt", "bigprime", "rns", "composite",
        "trinomial", "good", "schonhage", "chain"])
def test_a_route_refuses_parameters_it_does_not_take(ring, prefer, kw, named):
    with pytest.raises(ParameterCondition, match=named):
        make_plan(ring, prefer, allow_bigmod=True, **kw)


def test_search_prime_deterministic():
    p1 = search_prime(512, 3017513)
    p2 = search_prime(512, 3017513)
    assert p1 == p2 and p1 > 3017513 and (p1 - 1) % 512 == 0
    from nttkit.modarith import is_prime

    assert is_prime(p1)


def test_rns_basis_search_recovers_published_primes():
    # auto-searching the saber ring lands on the published basis
    from nttkit.bigmod import MATVEC

    plan = make_plan(RingSpec(XN_PLUS_1, 256, 8192), "rns",
                     allow_bigmod=True, profile=(MATVEC, 3, 8))
    assert plan.basis.primes == (7681, 10753)


def test_pad_pow2_target_for_prime_degrees():
    # auto-planning picks the minimal wraparound-free power of two;
    # the shipped ntru presets pin the published uniform 2048 instead
    for n, q, expect in ((509, 2048, 1024), (677, 2048, 2048),
                         (701, 8192, 2048), (821, 4096, 2048)):
        plan = make_plan(RingSpec(XN_MINUS_1, n, q), "pad-pow2")
        pads = [s for s in plan.chain.steps if isinstance(s, embed.ZeroPad)]
        assert pads[0].n_prime == expect, (n, q)
    for name in ("ntru-509", "ntru-821"):
        _, plan = preset(name)
        assert plan.chain.steps[0].n_prime == 2048


def test_preset_examples():
    ring, plan = preset("kyber-r1")
    assert (ring.n, ring.q, plan.strategy) == (256, 7681, "full")
    ring, plan = preset("falcon-1024")
    assert (ring.n, ring.q, plan.strategy) == (1024, 12289, "full")
    ring, plan = preset("ntru-701")
    assert ring.form == XN_MINUS_1 and (ring.n, ring.q) == (701, 8192)
    steps = plan.chain.steps
    assert isinstance(steps[0], embed.ZeroPad) and steps[0].n_prime == 1536
    assert isinstance(steps[1], embed.LiftModulus) and steps[1].modulus == 5747201
    assert isinstance(steps[2], embed.Good) and (steps[2].h, steps[2].k) == (3, 9)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("kyber-r9")


def test_classify_agrees_with_registry_types():
    expected = {
        "kyber-r1": POW2_FULL,
        "kyber": POW2_PARTIAL,
        "dilithium": POW2_FULL,
        "falcon-512": POW2_FULL,
        "falcon-1024": POW2_FULL,
        "saber-m4": POW2_UNFRIENDLY,
        "saber-avx2": POW2_UNFRIENDLY,
        "saber-m3": POW2_UNFRIENDLY,
        "lightsaber-m4": POW2_UNFRIENDLY,
    }
    for name, kind in expected.items():
        ring, _ = preset(name)
        assert classify(ring).kind == kind, name
    for name in preset_names():
        ring, _ = preset(name)
        if name.startswith("ntru-"):
            assert classify(ring).kind == NON_POW2
        if name.startswith("ntruprime-"):
            assert classify(ring).kind == GENERAL_PHI


def test_every_preset_plan_is_sound(rng):
    # plan soundness: builds, runs, matches the oracle
    for name in preset_names():
        ring, plan = preset(name)
        trials = 1 if ring.n > 512 else 2
        for _ in range(trials):
            a, b = sample_operands(ring, plan, rng)
            assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs, name


def test_no_preset_product_runs_the_reference_kernel(monkeypatch, rng):
    # every working modulus of a preset is below 2^31, lifts included
    def refuse(*args):
        raise AssertionError("a planned product ran the pure-Python kernel")

    for name in ("reference_rows", "butterfly_ct", "butterfly_gs"):
        monkeypatch.setattr(transforms, name, refuse)
    for name in preset_names():
        ring, plan = preset(name)
        a, b = sample_operands(ring, plan, rng)
        assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs, name


@pytest.mark.parametrize("prefer, q, kw", [
    ("full", 2151677953, {}),
    ("incomplete", 2151677953, {"beta": 2}),
    ("hntt", 1099516870657, {"alpha": 1, "beta": 1}),
    ("composite", 8192, {"basis": (65537, 114689), "allow_bigmod": True}),
])
def test_plans_at_or_above_2_31_run_the_array_kernel(monkeypatch, rng, prefer, q, kw):
    # a transform modulus >= 2^31 runs the object stages on object
    # buffers, never the reference kernel
    def refuse(*args):
        raise AssertionError("a planned product ran the pure-Python kernel")

    seen = set()
    run_levels = transforms.run_levels

    def record(buf, sched):
        seen.add((buf.dtype, sched.stage_class))
        return run_levels(buf, sched)

    for name in ("reference_rows", "butterfly_ct", "butterfly_gs"):
        monkeypatch.setattr(transforms, name, refuse)
    monkeypatch.setattr(transforms, "run_levels", record)
    ring = RingSpec(XN_PLUS_1, 64, q)
    plan = make_plan(ring, prefer, **kw)
    assert plan.strategy == prefer
    assert (plan.basis.product if plan.basis else q) >= 2**31
    edge = Poly([q - 1] * ring.n, ring)
    for a, b in [(Poly.random(ring, rng), Poly.random(ring, rng)), (edge, edge)]:
        assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs
    assert seen == {(np.dtype(object), (bounds.OBJECT, bounds.OBJECT_WIDTH))}


def test_replaced_modulus_is_named_in_the_plan():
    _, plan = preset("ntru-509")
    assert plan.replaced_by == (2134904833,)
    assert "lift(549755809793 -> 2134904833)" in plan.describe()
    assert ("lift modulus 549755809793 >= 2^31 runs on basis 2134904833", True) in plan.checks
    _, plan = preset("ntru-701")
    assert plan.replaced_by == () and "->" not in plan.describe().split("lift")[1].split(")")[0]
    # a named big prime: the request stays on the plan, the basis runs
    ring = RingSpec(XN_PLUS_1, 64, 8192)
    N = search_prime(128, 1 << 33)  # the bound is 64 * 8192^2 = 2^32
    plan = make_plan(ring, "bigprime", N=N, allow_bigmod=True)
    basis = plan.replaced_by
    assert plan.N == N and len(basis) == 2 and all((p - 1) % 128 == 0 for p in basis)
    assert plan.describe() == f"bigprime N={N} -> {basis[0]}*{basis[1]}, beta=0"
    assert all(ok for _, ok in plan.checks)


def test_plan_checks_recorded():
    _, plan = preset("kyber")
    assert plan.checks and all(ok for _, ok in plan.checks)
    assert "3329" in plan.checks[0][0]


def test_strategy_cross_equivalence_kyber(rng):
    ring, _ = preset("kyber")
    plans = [
        make_plan(ring, "incomplete", beta=1),
        make_plan(ring, "hntt", alpha=0, beta=1),
        make_plan(ring, "split-pt", alpha=1),
        make_plan(ring, "split-k", alpha=1),
        make_plan(ring, "hntt", alpha=1, beta=0),
    ]
    for _ in range(5):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        outs = [multiply(a, b, p).coeffs for p in plans]
        assert all(o == outs[0] for o in outs)
        assert outs[0] == oracle_multiply(a, b).coeffs


def test_strategy_cross_equivalence_saber(rng):
    ring, big = preset("saber-m4")
    _, rns = preset("saber-avx2")
    _, comp = preset("saber-m3")
    for _ in range(3):
        a, b = sample_operands(ring, big, rng)
        outs = [multiply(a, b, p).coeffs for p in (big, rns, comp)]
        assert outs[0] == outs[1] == outs[2] == oracle_multiply(a, b).coeffs


def test_matvec_reduces_to_single_multiply(rng):
    ring, plan = preset("kyber")
    pair = plan.pair
    a, s = Poly.random(ring, rng), Poly.random(ring, rng)
    ahat = pair.forward(a)
    out = matvec_multiply([[ahat]], [s], pair)
    assert out[0].coeffs == multiply(a, s, plan).coeffs


def test_matvec_oracle_and_counts(rng):
    ring, plan = preset("kyber")
    pair = plan.pair
    k = 3
    Ahat = [[sample_ntt_domain_uniform(ring, pair, 13 * i + j) for j in range(k)]
            for i in range(k)]
    s = [Poly.random(ring, rng) for _ in range(k)]
    with modarith.counting() as c:
        rows = matvec_multiply(Ahat, s, pair)
    assert c.forward_transforms == k
    assert c.inverse_transforms == k
    for i in range(k):
        acc = Poly.zero(ring)
        for j in range(k):
            acc = acc.add(oracle_multiply(pair.inverse(Ahat[i][j]), s[j]))
        assert rows[i].coeffs == acc.coeffs


def test_matvec_refuses_an_empty_vector():
    ring, plan = preset("kyber")
    with pytest.raises(ShapeCondition):
        matvec_multiply([[]], [], plan)


# every s_j outside the plan's ring is one refusal, whichever field differs
@pytest.mark.parametrize("other", [RingSpec(XN_PLUS_1, 256, 7681), RingSpec(XN_PLUS_1, 128, 3329),
                                   RingSpec(XN_MINUS_1, 256, 3329)], ids=["q", "n", "form"])
def test_matvec_refuses_a_vector_over_another_ring(other, rng):
    ring, plan = preset("kyber")
    ahat = sample_ntt_domain_uniform(ring, plan, 1)
    s = [Poly.random(ring, rng), Poly.random(other, rng)]
    with modarith.counting() as c, pytest.raises(RingMismatch):
        matvec_multiply([[ahat, ahat]], s, plan)
    assert c == modarith.OpCounter()


def _foreign_entries(ring, pair):
    """Transform-domain entries outside the pair's domain: its inverse
    spec, another beta, another ring and another leaf degree."""
    vals = sample_ntt_domain_uniform(ring, pair, 2).values
    other = RingSpec(XN_PLUS_1, 256, 7681)
    cropped = transforms.TransformSpec(transforms.NWC, transforms.CT, transforms.FORWARD,
                                       transforms.NATURAL, transforms.BIT_REVERSED, 2)
    return {"spec": NttDomainPoly(vals, pair.inv_spec, ring, 2),
            "beta": NttDomainPoly(vals, cropped, ring, 2),
            "ring": NttDomainPoly(vals, pair.fwd_spec, other, 2),
            "leaf degree": NttDomainPoly(vals, pair.fwd_spec, ring, 1)}


@pytest.mark.parametrize("field", ["spec", "beta", "ring", "leaf degree"])
def test_matvec_refuses_a_foreign_matrix_entry_before_any_arithmetic(field, rng):
    ring, plan = preset("kyber")
    pair = plan.pair
    good = sample_ntt_domain_uniform(ring, pair, 1)
    s = [Poly.random(ring, rng) for _ in range(2)]
    with modarith.counting() as c, pytest.raises(SpecMismatch):
        matvec_multiply([[good, good], [good, _foreign_entries(ring, pair)[field]]], s, pair)
    assert c == modarith.OpCounter()


def _row_sum_boundary(q):
    """The largest cols with cols (q-1)^2 < 2^63."""
    cols = ((1 << 63) - 1) // (q - 1) ** 2
    assert cols * (q - 1) ** 2 < 1 << 63 <= (cols + 1) * (q - 1) ** 2
    return cols


# the smallest primes = 1 (mod 16) (an 8-point negacyclic pair) with
# (q-1)^2 above 2^63 / 4 (a row sums 3 raw products) and 2^63 / 3 (2)
@pytest.mark.parametrize("q, cols", [(1518500449, 3), (1753413121, 2)])
@pytest.mark.parametrize("extra", [0, 1])
def test_matvec_row_sum_rule_at_its_boundary(monkeypatch, q, cols, extra):
    assert modarith.is_prime(q) and _row_sum_boundary(q) == cols
    cols += extra
    reduced, pointwise_rows = [], polymul.pointwise_rows

    def spy(*args):  # the reduced rule reduces each product in pointwise_rows
        reduced.append(args)
        return pointwise_rows(*args)

    monkeypatch.setattr(polymul, "pointwise_rows", spy)
    ring = RingSpec(XN_PLUS_1, 8, q)
    pair = polymul.make_transform_pair(ring, 0)
    # all q-1 on both sides of every transform-domain product: each raw
    # product is (q-1)^2, and a row sums cols of them
    top = NttDomainPoly([q - 1] * 8, pair.fwd_spec, ring)
    s = [pair.inverse(top)] * cols
    assert all(v == q - 1 for v in pair.forward(s[0]).values.tolist())
    rows = matvec_multiply([[top] * cols] * 2, s, pair)
    assert bool(reduced) == bool(extra), f"wrong summing rule for {cols} columns at q = {q}"
    want = Poly.zero(ring)
    for _ in range(cols):
        want = want.add(oracle_multiply(pair.inverse(top), s[0]))
    assert [r.coeffs for r in rows] == [want.coeffs] * 2


# (mults, adds, subs, forward, inverse) of one product or matvec: the
# batched transforms, leaves and cross sums count what one polynomial at
# a time counted
OP_COUNTS = {
    "matvec kyber 3x3": (11904, 8064, 5376, 3, 3),
    "matvec dilithium 6x5": (20480, 17408, 11264, 5, 6),
    "good ntru-701": (27904, 21760, 20736, 2, 1),
    "hntt alpha=1 beta=1": (3584, 3456, 3072, 4, 2),
    "hntt alpha=0 beta=1": (3456, 3072, 2944, 2, 1),
    "hntt alpha=3 beta=0": (3552, 4608, 3712, 16, 8),
    "split-pt alpha=2": (3776, 3072, 2304, 8, 4),
    "split-pt alpha=3": (4448, 3712, 1920, 16, 8),
    "trinomial nttru-768": (13952, 11264, 9216, 2, 1),
}


def _op_count_case(name, rng):
    """(ring, a thunk running the case) for an OP_COUNTS entry."""
    kyber_ring = RingSpec(XN_PLUS_1, 256, 3329)
    if name.startswith("matvec"):
        ring, plan = preset(name.split()[1])
        rows, cols = map(int, name.split()[2].split("x"))
        A = [[sample_ntt_domain_uniform(ring, plan, cols * i + j) for j in range(cols)]
             for i in range(rows)]
        s = [Poly.random(ring, rng) for _ in range(cols)]
        return lambda: matvec_multiply(A, s, plan)
    if name.startswith("good"):
        ring, plan = preset(name.split()[1])
    elif name.startswith("trinomial"):
        ring = RingSpec(TRINOMIAL, 768, 7681)
        plan = make_plan(ring, "trinomial")
    else:
        ring = kyber_ring
        kw = dict(arg.split("=") for arg in name.split()[1:])
        plan = make_plan(ring, name.split()[0], **{k: int(v) for k, v in kw.items()})
    a, b = sample_operands(ring, plan, rng)
    return lambda: multiply(a, b, plan)


@pytest.mark.parametrize("name", sorted(OP_COUNTS))
def test_op_counts_are_pinned(name, rng):
    run = _op_count_case(name, rng)
    run()  # tables built outside the count
    with modarith.counting() as c:
        run()
    assert (c.mults, c.adds, c.subs, c.forward_transforms, c.inverse_transforms) == OP_COUNTS[name]


def test_trinomial_product_runs_the_entry_points(monkeypatch, rng):
    # a planned nttru-768 product is one ntt_forward (both operands as one
    # batch) and one ntt_inverse, as on every planned route, counted as
    # pinned
    run = _op_count_case("trinomial nttru-768", rng)
    run()  # tables built outside the count
    calls = []

    def counted(name):
        entry = getattr(transforms, name)

        def call(*args, **kwargs):
            calls.append(name)
            return entry(*args, **kwargs)
        return call

    for name in ("ntt_forward", "ntt_inverse"):
        monkeypatch.setattr(transforms, name, counted(name))
    with modarith.counting() as c:
        run()
    assert calls == ["ntt_forward", "ntt_inverse"]
    assert (c.mults, c.adds, c.subs, c.forward_transforms, c.inverse_transforms) == \
        OP_COUNTS["trinomial nttru-768"]


def test_sample_domain_uniform_refuses_another_ring():
    ring, plan = preset("kyber")
    with pytest.raises(RingMismatch):
        sample_ntt_domain_uniform(RingSpec(XN_PLUS_1, 256, 7681), plan, 42)


def test_sample_domain_uniform_properties():
    ring, plan = preset("kyber")
    pair = plan.pair
    one = sample_ntt_domain_uniform(ring, pair, 42)
    two = sample_ntt_domain_uniform(ring, pair, 42)
    assert one.values.tolist() == two.values.tolist()  # reproducible
    assert all(0 <= v < ring.q for v in one.values)
    seen = {tuple(sample_ntt_domain_uniform(ring, pair, s).values) for s in range(64)}
    assert len(seen) == 64  # distinct seeds separate


def test_trinomial_ring_plans(rng):
    ring = RingSpec(TRINOMIAL, 768, 7681)
    plan = make_plan(ring)
    assert plan.strategy == "trinomial"
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs


def test_embedding_auto_routes(rng):
    # non-power-of-two cyclic ring in Good shape, friendly q: no lift
    ring = RingSpec(XN_MINUS_1, 1536, 7681)
    plan = make_plan(ring)
    assert plan.strategy == "embed"
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs

    # prime-degree ring, unfriendly q: searched lift via the pad route
    small = RingSpec(XN_MINUS_1, 37, 64)
    for pref in ("good", "pad-pow2", "schonhage"):
        if pref == "schonhage":
            continue  # q even: 2n not invertible
        p2 = make_plan(small, pref)
        a, b = Poly.random(small, rng), Poly.random(small, rng)
        assert multiply(a, b, p2).coeffs == oracle_multiply(a, b).coeffs, pref

    odd = RingSpec(XN_MINUS_1, 37, 101)
    p3 = make_plan(odd, "schonhage")
    a, b = Poly.random(odd, rng), Poly.random(odd, rng)
    assert multiply(a, b, p3).coeffs == oracle_multiply(a, b).coeffs


def test_preset_unknown_strategy_or_chain_tag(monkeypatch):
    registry = planner._registry()
    entry = dict(registry["ntru-701"], chain=[["zero_pad", 1536, "x^n-1"], ["warp", 3]])
    monkeypatch.setitem(registry, "ntru-warp", entry)
    with pytest.raises(UnknownPreset):
        preset("ntru-warp")
    monkeypatch.setitem(registry, "kyber-warp", dict(registry["kyber"], strategy="warp"))
    with pytest.raises(UnknownPreset):
        preset("kyber-warp")


class _ReadEntry(dict):
    """A registry entry that records the keys read from it."""

    def __init__(self, entry):
        super().__init__(entry)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _unread_keys(monkeypatch, name: str, entry: dict) -> set:
    """The keys of ``entry`` that ``preset`` does not read, planned as ``name``."""
    recorded = _ReadEntry(entry)
    monkeypatch.setitem(planner._registry(), name, recorded)
    preset(name)
    return set(entry) - recorded.read


def test_registry_entries_use_only_keys_preset_reads(monkeypatch):
    # a key that planning ignores (a stale or misspelt one) fails here
    registry = planner._registry()
    assert {name: _unread_keys(monkeypatch, name, registry[name]) for name in preset_names()} \
        == {name: set() for name in preset_names()}
    saber = registry["saber-m4"]
    assert _unread_keys(monkeypatch, "stale", dict(saber, sample_b=["small", 4])) == {"sample_b"}
    assert _unread_keys(monkeypatch, "typo", dict(saber, bata=2)) == {"bata"}


@pytest.mark.parametrize("profile", [(bigmod.FULL_FULL,), (bigmod.FULL_SMALL, 2), (bigmod.MATVEC, 3, 8)])
def test_sample_operands_draw_from_the_profile(profile, rng):
    # b is uniform under full*full and at most mu // 2 in magnitude under
    # a small profile, so a sampled product always fits the sized modulus
    ring = RingSpec(XN_PLUS_1, 256, 8192)
    plan = make_plan(ring, "bigprime", allow_bigmod=True, profile=profile)
    bound = bigmod.small_bound(profile)
    for _ in range(3):
        a, b = sample_operands(ring, plan, rng)
        top = np.abs(bigmod.lift_centered(a.array, b.array, ring.q)).max(axis=1)
        assert top[0] > ring.q // 4 and (top[1] > ring.q // 4 if bound is None else top[1] <= bound)
        assert multiply(a, b, plan) == oracle_multiply(a, b)


# every name through which a plan could build a table or search a root
TABLE_BUILDERS = (
    (polymul, "make_transform_pair"),
    (polymul, "build_twiddles"),
    (polymul, "find_root"),
    (modarith, "build_twiddles"),
    (modarith, "find_root"),
    (bigmod, "find_principal_root_composite"),
    (trinomial, "find_root"),
    (trinomial, "make_plan"),
)


def test_tables_are_built_once_per_plan(monkeypatch, rng):
    plans = {name: preset(name) for name in preset_names()}
    for ring, plan in plans.values():
        multiply(*sample_operands(ring, plan, rng), plan)

    def refuse(*args, **kwargs):
        raise RuntimeError("table built inside a product")

    for module, name in TABLE_BUILDERS:
        monkeypatch.setattr(module, name, refuse)
    for name, (ring, plan) in plans.items():
        a, b = sample_operands(ring, plan, rng)
        assert multiply(a, b, plan).coeffs == oracle_multiply(a, b).coeffs, name


def test_concurrent_first_multiply_on_a_fresh_plan(rng):
    # more threads than cores race to build the same lazily built tables
    ring, plan = preset("saber-m3")
    operands = [sample_operands(ring, plan, rng) for _ in range(4)]
    barrier = threading.Barrier(len(operands))
    out = [None] * len(operands)

    def first_multiply(i):
        barrier.wait()
        out[i] = multiply(*operands[i], plan)

    threads = [threading.Thread(target=first_multiply, args=(i,)) for i in range(len(operands))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (a, b), got in zip(operands, out):
        assert got is not None and got.coeffs == oracle_multiply(a, b).coeffs


KYBER_RING = RingSpec(XN_PLUS_1, 256, 3329)
FRESH_PLANS = {
    "full": lambda: preset("dilithium"),
    "incomplete": lambda: preset("kyber"),
    "split-pt": lambda: (KYBER_RING, make_plan(KYBER_RING, "split-pt", alpha=1)),
    "split-k": lambda: (KYBER_RING, make_plan(KYBER_RING, "split-k", alpha=1)),
    "hntt": lambda: (KYBER_RING, make_plan(KYBER_RING, "hntt", alpha=1, beta=0)),
    "bigprime": lambda: preset("saber-m4"),
    "rns": lambda: preset("saber-avx2"),
    "composite": lambda: preset("saber-m3"),
    "embed": lambda: preset("ntru-701"),
    "trinomial": lambda: (RingSpec(TRINOMIAL, 768, 7681),
                          make_plan(RingSpec(TRINOMIAL, 768, 7681))),
}


@pytest.mark.parametrize("strategy", list(FRESH_PLANS))
def test_first_multiply_counts_like_the_second(strategy, rng):
    # building the plan's tables on its first multiply adds no counted work
    ring, plan = FRESH_PLANS[strategy]()
    assert plan.strategy == strategy
    a, b = sample_operands(ring, plan, rng)
    with modarith.counting() as first:
        got = multiply(a, b, plan)
    with modarith.counting() as second:
        multiply(a, b, plan)
    assert first == second and first.mults > 0
    assert got.coeffs == oracle_multiply(a, b).coeffs


def test_one_shots_run_their_plan_executor(monkeypatch, rng):
    # each split and block one-shot is one run of the executor a plan runs:
    # one ``run`` per product, and the plan's product and op tallies
    runs = []
    for cls in (splitting.SplitExecutor, embed.BlockExecutor):
        def counted(self, X, table, real=cls.run):
            runs.append(type(self))
            return real(self, X, table)

        monkeypatch.setattr(cls, "run", counted)
    kyber, split = RingSpec(XN_PLUS_1, 256, 3329), splitting.SplitExecutor
    cases = [
        (lambda a, b: splitting.ptntt_multiply(a, b, 1), kyber, dict(prefer="split-pt", alpha=1), split),
        (lambda a, b: splitting.kntt_multiply(a, b, 1), kyber, dict(prefer="split-k", alpha=1), split),
        (lambda a, b: splitting.hntt_multiply(a, b, 1, 1), kyber,
         dict(prefer="hntt", alpha=1, beta=1), split),
    ]
    for one_shot, step, form in ((embed.schonhage_multiply, embed.Schonhage(3, 2), XN_MINUS_1),
                                 (embed.nussbaumer_multiply, embed.Nussbaumer(3, 4), XN_PLUS_1),
                                 (embed.nussbaumer_multiply, embed.Nussbaumer(5, 8), XN_PLUS_1)):
        ring = RingSpec(form, 2 * step.m * step.n, 4591)  # not a power of two: a chain plan
        cases.append((lambda a, b, f=one_shot, s=step: f(a, b, s.m, s.n), ring,
                      dict(chain=(embed.ZeroPad(ring.n, form), step)), embed.BlockExecutor))
    for one_shot, ring, how, executor in cases:
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        plan = make_plan(ring, **how)
        want = oracle_multiply(a, b)
        tallies = []
        for run in (lambda: one_shot(a, b), lambda: multiply(a, b, plan)):
            runs.clear()
            with modarith.counting() as c:
                assert run() == want, how
            assert runs == [executor], how
            tallies.append(c)
        assert tallies[0] == tallies[1] and tallies[0].mults > 0, how
