"""Truncated transforms on padded chains (``transforms.truncate``).

A padded chain's plain or Good terminal runs its transform pair on the
live prefix of each operand, on pads of 2^k points or of 2^k chunks of
three coefficients: its schedules skip the levels that only block 0 of
the product needs, and its outer stages the columns and rows that meet
only zeros or that no one reads.  Every truncated product must
equal the full one, the reference kernel on the full schedule and the
oracle, count exactly what the full product counts, and depend on the
plan alone, never on the operands.
"""

import numpy as np
import pytest

from test_transforms import forward_specs, inverse_specs_for, tables_for

from nttkit import bigmod, bounds, planner, polymul, transforms
from nttkit.embed import EmbedChain, Good, LiftModulus, PlainNtt, ZeroPad, general_phi_multiply
from nttkit.errors import ParameterCondition, SpecViolation
from nttkit.modarith import NATURAL, counting
from nttkit.polymul import make_transform_pair, oracle_multiply, schoolbook_linear
from nttkit.rings import Poly, RingSpec, XN_MINUS_1, XN_MINUS_X_MINUS_1, XN_PLUS_1
from nttkit.transforms import CC, NWC, make_schedule, reference_rows, truncate

LIMB_Q = 1073750017  # 1 mod 4096, float64-limb from 9 levels on
# (stage class of the truncated schedules, q, padded length, source
# lengths): live at c 2^j - 1, c 2^j and c 2^j + 1, c = 1 or 3 (the odd
# part of the pad), so keep = 2 live - 1 falls on both sides of
# K = c 2^(j+1), the length that pruned levels leave
BOUNDARY_CASES = [
    (bounds.INT64, 7681, 64, (7, 8, 9, 15, 16, 17, 31, 32)),
    (bounds.FLOAT64, 12289, 2048, (511, 512, 513, 1023, 1024)),
    (bounds.FLOAT64_LIMB, LIMB_Q, 2048, (511, 512, 513, 1023, 1024)),
    (bounds.INT64, 7681, 96, (5, 6, 7, 11, 12, 13, 23, 24, 25, 47, 48)),
    (bounds.FLOAT64, 12289, 3072, (769, 1535, 1536)),
]


def _pruned_length(n, source, beta):
    """K: the shortest n >> j, at least one chunk, holding the product."""
    K, chunk = n, n // (n & -n) << beta
    while K // 2 >= 2 * source - 1 and K // 2 >= chunk:
        K //= 2
    return K


@pytest.mark.parametrize("cls, q, n, sources", BOUNDARY_CASES)
@pytest.mark.parametrize("form", [XN_MINUS_1, XN_PLUS_1])
@pytest.mark.parametrize("beta", [0, 1])
def test_truncated_pairs_at_their_boundaries(cls, q, n, sources, form, beta, rng):
    # per source length: the truncated forward transform of an all-(q-1)
    # operand is the first K values of the reference kernel's on the full
    # schedule; the truncated product of two all-(q-1) operands, and of
    # two random ones, is the keep prefix of the full product, the
    # reference kernel's and the oracle's linear product, which are zero
    # from keep on; the chain through the same pad gives the oracle's
    # product in the source ring
    for s in sources:
        pair = make_transform_pair(RingSpec(form, n, q), beta, source=s)
        f, i = pair.fwd_sched, pair.inv_sched
        full_f, full_i = (make_schedule(sc.spec, sc.table, n) for sc in (f, i))
        K = _pruned_length(n, s, beta)
        assert (f.n, i.n, f.full, i.full) == (K, K, full_f, full_i)
        assert f.stage_class[0] == i.stage_class[0] == cls
        top = np.zeros(n, dtype=np.int64)
        top[:s] = q - 1
        rows = [top.tolist()]
        reference_rows(rows, full_f)
        X = np.zeros(K, dtype=np.int64)
        X[:s] = q - 1
        assert transforms.ntt_forward(X, pair.fwd_tw, pair.fwd_spec, sched=f).tolist() == rows[0][:K]
        full = make_transform_pair(pair.ring, beta)
        for x, y in ((top, top), (_random(n, s, q, rng), _random(n, s, q, rng))):
            src = RingSpec(XN_MINUS_1, s, q)
            want = schoolbook_linear(Poly(x[:s], src), Poly(y[:s], src)) + [0] * (n - 2 * s + 1)
            assert pair.product(np.array((x[:s], y[:s]))).tolist() == want[: pair.keep]
            assert full.product(np.array((x, y))).tolist() == want
        rows = [full.pointwise(full.forward(top), full.forward(top)).values.tolist()]
        reference_rows(rows, full_i)
        assert rows[0][: pair.keep] == pair.product(np.array((top[:s], top[:s]))).tolist()
        ring = RingSpec(XN_MINUS_X_MINUS_1, s, q)
        chain = EmbedChain((ZeroPad(n, form), PlainNtt(beta)))
        for a in (Poly([q - 1] * s, ring), Poly(_random(s, s, q, rng), ring)):
            assert general_phi_multiply(a, a, chain) == oracle_multiply(a, a)


# (stage class, q, padded length, source length): keep = 2 source - 1
# fits half the pad, so the forward schedule prunes a level and narrows
# its first stage
CENTERED_CASES = [
    (bounds.INT64, 7681, 64, 9),
    (bounds.FLOAT64, 12289, 2048, 300),
    (bounds.FLOAT64_LIMB, LIMB_Q, 2048, 300),
    (bounds.OBJECT, 2151677953, 64, 9),
]


def _signed(n, s, q, rng):
    """n entries, zero from s on, of either sign and at most q - 1 in
    magnitude, the extremes first."""
    ends = [q - 1, 1 - q, q // 2, -(q // 2), 0]
    return [ends[i] if i < len(ends) else rng.randrange(1 - q, q) for i in range(s)] + [0] * (n - s)


@pytest.mark.parametrize("cls, q, n, source", CENTERED_CASES)
@pytest.mark.parametrize("form", [XN_MINUS_1, XN_PLUS_1])
def test_centered_entries_run_every_stage_class(cls, q, n, source, form, rng):
    # a lifted stack reaches a working modulus centered, each entry of
    # either sign and at most q - 1 in magnitude (``bounds.centered_input``):
    # every stage class, the full schedules in both directions, the
    # level-pruned and narrowed forward schedule, the leaf kernels and the
    # stack product map it as its canonical residues, as the reference
    # kernel and the canonical product do
    pair = make_transform_pair(RingSpec(form, n, q), 0, source=source)
    f = pair.fwd_sched
    full_f, full_i = (make_schedule(sc.spec, sc.table, n) for sc in (f, pair.inv_sched))
    assert f.n == _pruned_length(n, source, 0) < n and f.stages[0].narrowed
    assert f.stage_class[0] == full_f.stage_class[0] == full_i.stage_class[0] == cls
    dtype = transforms.buffer_dtype(q)
    x, y = (_signed(n, source, q, rng) for _ in range(2))
    canonical = [[v % q for v in w] for w in (x, y)]
    for sched in (full_f, full_i):
        rows = [list(canonical[0])]
        reference_rows(rows, sched)
        buf = np.array(x, dtype=dtype)
        transforms.run_levels(buf, sched)
        assert buf.tolist() == rows[0]
    rows = [list(canonical[0])]
    reference_rows(rows, full_f)
    X = np.array(x[: f.n], dtype=dtype)
    assert transforms.ntt_forward(X, pair.fwd_tw, pair.fwd_spec, sched=f).tolist() == rows[0][: f.n]
    A, B = (np.array(w, dtype=dtype) for w in (x, y))
    g = np.array([rng.randrange(q) for _ in range(n // 4)], dtype=dtype)
    assert polymul.leaf_rows(A, B, 4, g, q).tolist() == polymul.leaf_rows(A % q, B % q, 4, g, q).tolist()
    U, V = A.reshape(-1, 4).T, B.reshape(-1, 4).T
    for gamma in (-1, g):
        assert (polymul.leaf_products(U, V, gamma, q).tolist()
                == polymul.leaf_products(U % q, V % q, gamma, q).tolist())
    want = make_transform_pair(pair.ring, 0).product(np.array(canonical, dtype=dtype))
    S = np.array((x[:source], y[:source]), dtype=dtype)
    assert pair.product(S).tolist() == want[: pair.keep].tolist()


def _random(n, s, q, rng):
    x = np.zeros(n, dtype=np.int64)
    x[:s] = [rng.randrange(q) for _ in range(s)]
    return x


@pytest.mark.parametrize("kind", [CC, NWC])
@pytest.mark.parametrize("beta", [0, 1])
def test_every_natural_end_spec_truncates_to_the_reference(kind, beta, rng):
    # forward specs with natural input and inverse specs with natural
    # output, CT and GS, on 64 points and on 32 chunks of 3: for live and
    # keep on both sides of each K, the truncated forward is the first K
    # values of the reference kernel's on the full schedule, and the
    # truncated inverse of those values gives the input back in its first
    # keep entries; the other orders refuse to truncate
    for n, q, cuts in NATURAL_END_CASES:
        _natural_end_specs_truncate(kind, beta, n, q, cuts, rng)


NATURAL_END_CASES = [
    (64, 7681, ((1, 1), (3, 5), (8, 15), (8, 16), (9, 17), (16, 31), (17, 33), (32, 63), (5, 40), (40, 5))),
    (96, 7681, ((1, 1), (2, 3), (5, 11), (6, 12), (7, 13), (11, 23), (12, 24), (13, 25), (24, 47),
                (24, 48), (25, 49), (47, 95), (6, 40), (40, 6))),
]


def _natural_end_specs_truncate(kind, beta, n, q, cuts, rng):
    fwd_tw, inv_tw = tables_for(kind, n, q, beta)
    for fs in forward_specs(kind, beta):
        for ivs in inverse_specs_for(fs):
            if fs.in_order != NATURAL:
                with pytest.raises(SpecViolation, match="natural-order end"):
                    make_schedule(fs, fwd_tw, n, 5, 9)
                with pytest.raises(SpecViolation, match="natural-order end"):
                    make_schedule(ivs, inv_tw, n, 5, 9)
                continue
            for live, keep in cuts:
                f = make_schedule(fs, fwd_tw, n, live, keep)
                i = make_schedule(ivs, inv_tw, n, live, keep)
                K = f.n
                assert K == i.n >= max(live, keep, f.chunk) and (K == f.chunk or K // 2 < max(live, keep))
                x = [rng.randrange(q) for _ in range(live)] + [0] * (n - live)
                full = [list(x)]
                reference_rows(full, make_schedule(fs, fwd_tw, n))
                X = transforms.buffer(x[:K], q)
                assert transforms.ntt_forward(X, fwd_tw, fs, sched=f).tolist() == full[0][:K]
                # x has degree below K, so block 0's values give it back
                got = transforms.ntt_inverse(X, inv_tw, ivs, sched=i)
                assert got.tolist()[:keep] == x[:keep]


def test_untruncated_requests_return_the_full_schedule():
    fwd_tw, inv_tw = tables_for(NWC, 64, 7681)
    fs = forward_specs(NWC)[0]
    full = make_schedule(fs, fwd_tw, 64)
    assert make_schedule(fs, fwd_tw, 64, 64, 64) is full
    assert make_schedule(fs, fwd_tw, 64, 100, 127) is full
    cut = make_schedule(fs, fwd_tw, 64, 9, 17)
    assert make_schedule(fs, fwd_tw, 64, 9, 17) is cut and cut.full is full
    assert (cut.n, len(cut.levels), cut.live, cut.keep) == (32, 5, 9, 17)
    assert truncate(full, 9, 17).levels == cut.levels
    # a bare buffer runs a given schedule only on its table and length
    buf = transforms.buffer(list(range(32)), 7681)
    with pytest.raises(SpecViolation, match="length-32 buffers of its own table"):
        transforms.ntt_forward(transforms.buffer(list(range(64)), 7681), fwd_tw, fs, sched=cut)
    other, _ = tables_for(NWC, 64, 7681)
    with pytest.raises(SpecViolation, match="its own table"):
        transforms.ntt_forward(buf, other, fs, sched=cut)
    assert buf.tolist() == list(range(32))
    with pytest.raises(ParameterCondition, match="source length 0"):
        make_transform_pair(RingSpec(XN_PLUS_1, 64, 7681), source=0)


def test_narrowed_stages_read_live_columns_and_write_kept_rows():
    # ntru-821's registry chain: 2048 points, 821 live inputs, 1641 kept
    # outputs; no level is pruned, the first forward stage multiplies 7
    # of its 16 columns and the last inverse stage computes 7 of its 8 rows
    ring, plan = planner.preset("ntru-821")
    for pair in plan.executor.tables:
        f, i = pair.fwd_sched, pair.inv_sched
        assert (f.n, f.live, f.keep) == (2048, 821, 1641)
        assert f.stages[0].matrices.shape[-2:] == (16, 7) and f.stages[0].narrowed
        assert i.stages[-1].matrices.shape[-2:] == (7, 8) and i.stages[-1].narrowed
        assert not any(st.narrowed for st in f.stages[1:] + i.stages[:-1])
    # ntru-509's: 10 levels on 1024 points in place of 11 on 2048
    ring, plan = planner.preset("ntru-509")
    for pair in plan.executor.tables:
        assert (pair.fwd_sched.n, len(pair.fwd_sched.levels), len(pair.fwd_sched.full.levels)) == (1024, 10, 11)
    # ntru-701's Good terminal: 512 chunks of 3, 701 live inputs and 1401
    # kept outputs; the first forward stage multiplies 15 of its 32
    # columns (of 48 entries each) and the last inverse stage computes 15
    # of its 16 rows (of 96)
    ring, plan = planner.preset("ntru-701")
    (pair,) = plan.executor.tables
    f, i = pair.fwd_sched, pair.inv_sched
    assert (f.n, f.chunk, len(f.levels), f.live, f.keep) == (1536, 3, 9, 701, 1401)
    assert f.stages[0].matrices.shape[-2:] == (32, 15) and f.stages[0].narrowed
    assert i.stages[-1].matrices.shape[-2:] == (15, 16) and i.stages[-1].narrowed
    assert not any(st.narrowed for st in f.stages[1:] + i.stages[:-1])


def _terminal_and_full(ring, plan):
    """A padded chain's terminal and the same terminal with full schedules."""
    term = plan.executor
    basis = term.moduli if len(term.moduli) > 1 else ()
    return term, bigmod.BigPrimeExecutor(term.ring, term.N, term.beta, basis)


GENERATED_CHAINS = [
    (RingSpec(XN_MINUS_X_MINUS_1, 17, 7681), (ZeroPad(64, XN_PLUS_1), PlainNtt(1))),
    (RingSpec(XN_MINUS_X_MINUS_1, 31, 7681), (ZeroPad(64, XN_MINUS_1), PlainNtt(0))),
    (RingSpec(XN_MINUS_X_MINUS_1, 9, 2048), (ZeroPad(64, XN_MINUS_1), LiftModulus(None), PlainNtt(0))),
    (RingSpec(XN_MINUS_1, 509, 2048), (ZeroPad(2048, XN_PLUS_1), LiftModulus(None), PlainNtt(0))),
    (RingSpec(XN_MINUS_X_MINUS_1, 11, 7681), (ZeroPad(48, XN_MINUS_1), Good(3, 4))),
    (RingSpec(XN_MINUS_1, 23, 2048), (ZeroPad(96, XN_MINUS_1), LiftModulus(None), Good(3, 5))),
]


PADDED_PLANS = ["ntru-509", "ntru-821", "ntru-701", *GENERATED_CHAINS]


def _plan(case):
    """(ring, plan) of a preset name or of a generated (ring, chain)."""
    if isinstance(case, str):
        return planner.preset(case)
    ring, chain = case
    return ring, planner.make_plan(ring, chain=chain)


def _case_id(case):
    return case if isinstance(case, str) else f"n{case[0].n}-pad{case[1][0].n_prime}{case[1][0].form}"


@pytest.mark.parametrize("case", PADDED_PLANS, ids=_case_id)
def test_truncated_terminal_counts_what_the_full_one_counts(case, rng):
    # the terminal's product, truncated, is the keep prefix of the full
    # terminal's and has its op counts, transform tallies included; the
    # chain's product is the oracle's
    ring, plan = _plan(case)
    term, full = _terminal_and_full(ring, plan)
    assert term.tables[0].fwd_sched.full is not None
    n = term.ring.n
    for a, b in (planner.sample_operands(ring, plan, rng), (Poly([ring.q - 1] * ring.n, ring),) * 2):
        assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
        x, y = (np.concatenate((v.array, np.zeros(n - ring.n, dtype=np.int64))) for v in (a, b))
        with counting() as cut:
            got = term.product(x, y)
        with counting() as whole:
            assert np.array_equal(got, full.product(x, y)[: 2 * ring.n - 1])
        assert len(got) == 2 * ring.n - 1
        assert vars(cut) == vars(whole)


@pytest.mark.parametrize("case", PADDED_PLANS, ids=_case_id)
def test_truncation_is_decided_when_the_plan_is_built(case, monkeypatch, rng):
    # the transform length is fixed by the plan, never by the operands:
    # operands whose effective length is below the source length (zero,
    # one, a short prefix) run the very Schedule objects, on buffers of
    # the same shape, that full operands run; otherwise the time of a
    # product would leak the degree of a secret operand
    ring, plan = _plan(case)
    runs, real = [], transforms.run_levels
    monkeypatch.setattr(transforms, "run_levels", lambda buf, sched: runs.append((sched, buf.shape))
                        or real(buf, sched))
    q, n = ring.q, ring.n
    full = planner.sample_operands(ring, plan, rng)
    short = [Poly.zero(ring), Poly.from_ints([1], ring), Poly([q - 1] * 3 + [0] * (n - 3), ring)]
    seen = []
    for a, b in [full, *((s, full[1]) for s in short), (short[2], short[2])]:
        runs.clear()
        assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
        seen.append([(id(sched), shape) for sched, shape in runs])
    assert seen[0] and all(s == seen[0] for s in seen)
    assert np.flatnonzero(short[2].array).tolist() == [0, 1, 2] and 3 < n  # effective length 3


def test_lift_reads_only_the_source_prefix(monkeypatch, rng):
    # a lifted padded chain, plain (ntru-509) or Good (ntru-701), lifts
    # only the source length of each operand, not the padded array, into
    # one (2, n) stack
    lifted, real = [], bigmod.lift_centered
    monkeypatch.setattr(bigmod, "lift_centered", lambda x, y, q: lifted.append(real(x, y, q)) or lifted[-1])
    for name, n in (("ntru-509", 509), ("ntru-701", 701)):
        ring, plan = planner.preset(name)
        a, b = planner.sample_operands(ring, plan, rng)
        lifted.clear()
        assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
        assert [s.shape for s in lifted] == [(2, n)], name


def test_recovery_reads_only_the_keep_prefix(monkeypatch, rng):
    # a truncated terminal recovers only the keep = 2n - 1 leading entries
    # of each residue, the rest of its product being zero: 1017 of 2048
    # on ntru-509, 1401 of 1536 on ntru-701 (one working modulus each)
    recovered, real = [], bigmod.recover_centered
    monkeypatch.setattr(bigmod, "recover_centered", lambda residues, moduli, q: recovered.append(
        [len(r) for r in residues]) or real(residues, moduli, q))
    for name, keep in (("ntru-509", 1017), ("ntru-701", 1401)):
        ring, plan = planner.preset(name)
        for a, b in (planner.sample_operands(ring, plan, rng), (Poly([ring.q - 1] * ring.n, ring),) * 2):
            recovered.clear()
            assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
            assert recovered == [[keep]], name
