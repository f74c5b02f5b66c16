import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from nttkit import bigmod, bounds, embed, modarith, planner, polymul, trinomial
from nttkit.embed import (
    SCHOOLBOOK_FLOOR,
    EmbedChain,
    Good,
    LiftModulus,
    Nussbaumer,
    PlainNtt,
    Schonhage,
    ZeroPad,
    _rotation,
    general_phi_multiply,
    good_multiply,
    nussbaumer_multiply,
    schonhage_multiply,
    zero_pad_multiply,
)
from nttkit.errors import (
    BadShape,
    ChainMismatch,
    PadTooSmall,
    ParameterCondition,
    RingMismatch,
    ShapeCondition,
)
from nttkit.polymul import (
    basecase_mul,
    make_transform_pair,
    ntt_multiply,
    oracle_multiply,
    reduce_mod_phi,
    schoolbook_cyclic,
    schoolbook_linear,
    schoolbook_nwc,
)
from nttkit.rings import GENERAL, TRINOMIAL, Poly, RingSpec, XN_MINUS_1, XN_MINUS_X_MINUS_1, XN_PLUS_1
from nttkit.transforms import NttDomainPoly
from nttkit.trinomial import trinomial_pointwise


# ---------------------------------------------------------------------------
# zero padding


def test_zero_pad_exact_at_2n(rng):
    # n' = 2n exactly: no wraparound, any exact backend works
    src = RingSpec(XN_MINUS_1, 12, 7681)
    for _ in range(20):
        a, b = Poly.random(src, rng), Poly.random(src, rng)
        got = zero_pad_multiply(a, b, 24, schoolbook_cyclic)
        want = reduce_mod_phi(schoolbook_linear(a, b), src)
        assert got.coeffs == want.coeffs
    # and through a real transform backend at the next power of two
    src16 = RingSpec(XN_MINUS_1, 16, 7681)
    pair = make_transform_pair(RingSpec(XN_MINUS_1, 32, 7681), 0)
    for _ in range(20):
        a, b = Poly.random(src16, rng), Poly.random(src16, rng)
        got = zero_pad_multiply(a, b, 32, lambda x, y: ntt_multiply(x, y, pair))
        want = reduce_mod_phi(schoolbook_linear(a, b), src16)
        assert got.coeffs == want.coeffs


def test_zero_pad_too_small(rng):
    # the one-shot pad and a chain's terminal both refuse a pad that would wrap
    src = RingSpec(XN_MINUS_1, 12, 7681)
    a = Poly.random(src, rng)
    with pytest.raises(PadTooSmall):
        zero_pad_multiply(a, a, 22, lambda x, y: x)
    for terminal in (PlainNtt(), Schonhage(2, 4)):
        with pytest.raises(PadTooSmall):
            general_phi_multiply(a, a, EmbedChain((ZeroPad(16), terminal)))


def test_zero_pad_zero_operand(rng):
    src = RingSpec(XN_MINUS_1, 12, 7681)
    pair = make_transform_pair(RingSpec(XN_MINUS_1, 32, 7681), 0)
    got = zero_pad_multiply(Poly.random(src, rng), Poly.zero(src), 32,
                            lambda x, y: ntt_multiply(x, y, pair))
    assert got.coeffs == [0] * 12


# ---------------------------------------------------------------------------
# Good's trick: the transform pair of x^(h*2^k) - 1 on length-h chunks


def test_good_rejects_bad_shape():
    a = Poly.zero(RingSpec(XN_MINUS_1, 16, 17))
    with pytest.raises(BadShape):
        good_multiply(a, a, 4, 2, 17)  # even h
    b = Poly.zero(RingSpec(XN_MINUS_1, 10, 7681))
    with pytest.raises(BadShape):
        good_multiply(b, b, 3, 2, 7681)  # wrong length


def test_good_multiply_small(rng):
    ring = RingSpec(XN_MINUS_1, 12, 13)  # 13 = 1 (mod 4)
    for _ in range(50):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        assert good_multiply(a, b, 3, 2, 13).coeffs == schoolbook_cyclic(a, b).coeffs


def test_good_h1_degenerates_to_plain(rng):
    ring = RingSpec(XN_MINUS_1, 16, 17)
    pair = make_transform_pair(ring, 0)
    for _ in range(10):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = good_multiply(a, b, 1, 4, 17)
        assert got.coeffs == ntt_multiply(a, b, pair).coeffs


def test_good_congruence_checked(rng):
    ring = RingSpec(XN_MINUS_1, 12, 13)
    a = Poly.zero(ring)
    with pytest.raises(ParameterCondition):
        good_multiply(a, a, 3, 2, 19)  # 19 != 1 (mod 4)
    # a prime >= 2^31, 1 (mod 4): the pair runs the object class
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    assert good_multiply(a, b, 3, 2, 2147483713) == oracle_multiply(a, b)


# ---------------------------------------------------------------------------
# block embeddings


def test_neg_rotate_behaviour():
    q = 17

    def rot(blk, t):
        index, sign = _rotation(t, len(blk))
        return (np.array(blk)[index] * sign % q).tolist()

    blk = [1, 2, 3, 4]
    assert rot(blk, 0) == [1, 2, 3, 4]
    assert rot(blk, 1) == [(17 - 4) % 17, 1, 2, 3]
    assert rot(blk, 4) == [(17 - x) % 17 for x in blk]  # x^L = -1
    assert rot(blk, 8) == blk  # full cycle, x^(2L) = 1
    assert rot(rot(blk, 3), 5) == blk
    assert rot(rot(blk, 3), 1) == [(17 - x) % 17 for x in blk]
    # one exponent per block: row i turns by x^i
    index, sign = _rotation(np.array([0, 1, 4]), len(blk))
    rows = (np.array(blk)[index] * sign % q).tolist()
    assert rows == [rot(blk, 0), rot(blk, 1), rot(blk, 4)]


def _block_levels(blocks, L, stride, inverse, span=None):
    """The levels of a block transform of a natural (blocks, L, batch)
    array, block b's coefficient l its row b * L + l."""
    return embed._levels(np.arange(blocks * L).reshape(blocks, L), None, L, stride, inverse, span)[0]


def _block_ntt(X, levels):
    """One direction of a block transform run in X, as a product runs a
    depth (``embed._bind``, ``embed._run``) and counted the same way;
    returns X."""
    work = np.empty(X.size, dtype=X.dtype)
    embed._run(embed._bind(X, levels, work), [lv.sign for lv in levels if lv.index is not None])
    embed._count_levels(levels, X.size // 2)
    return X


def test_block_transform_multiplies_nothing(rng):
    blocks = np.array([[[rng.randrange(17)] for _ in range(8)] for _ in range(8)])
    with modarith.counting() as c:
        _block_ntt(blocks, _block_levels(8, 8, 1, False))
    assert c.mults == 0
    with modarith.counting() as ci:
        _block_ntt(blocks, _block_levels(8, 8, 1, True))
    assert ci.mults == 0


@pytest.mark.parametrize("q", [17, 4591])
def test_schonhage_smallest(q, rng):
    ring = RingSpec(XN_MINUS_1, 8, q)
    for _ in range(100):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = schonhage_multiply(a, b, 2, 2)
        assert got.coeffs == schoolbook_cyclic(a, b).coeffs


def test_schonhage_shape_errors(rng):
    ring = RingSpec(XN_MINUS_1, 8, 17)
    a = Poly.random(ring, rng)
    with pytest.raises(BadShape):
        schonhage_multiply(a, a, 2, 4)  # 2mn = 16 != 8
    ring_even = RingSpec(XN_MINUS_1, 8, 16)
    z = Poly.zero(ring_even)
    with pytest.raises(ParameterCondition):
        schonhage_multiply(z, z, 2, 2)  # gcd(2n, q) != 1


def test_nussbaumer_examples(rng):
    ring = RingSpec(XN_PLUS_1, 8, 17)
    one = Poly.from_ints([1], ring)
    b = Poly.random(ring, rng)
    assert nussbaumer_multiply(one, b, 2, 2).coeffs == b.coeffs
    for _ in range(100):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        assert nussbaumer_multiply(a, b, 2, 2).coeffs == schoolbook_nwc(a, b).coeffs


def test_nussbaumer_shape_condition(rng):
    ring = RingSpec(XN_PLUS_1, 16, 17)
    a = Poly.random(ring, rng)
    with pytest.raises(ShapeCondition):
        nussbaumer_multiply(a, a, 4, 2)  # n < m


def test_nussbaumer_recursive_64(rng):
    ring = RingSpec(XN_PLUS_1, 64, 4591)
    for _ in range(10):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        assert nussbaumer_multiply(a, b, 4, 8).coeffs == schoolbook_nwc(a, b).coeffs
    nwc = Poly.zero(RingSpec(XN_PLUS_1, 64, 17))
    assert nussbaumer_multiply(nwc, nwc, 4, 8) == nwc


def test_schonhage_with_nussbaumer_inside(rng):
    # the published route: length 2048 cyclic, inner ring x^64 + 1
    ring = RingSpec(XN_MINUS_1, 2048, 4591)
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    got = schonhage_multiply(a, b, 32, 32)
    assert got.coeffs == schoolbook_cyclic(a, b).coeffs


@pytest.mark.parametrize("m, n", [(3, 3), (6, 3), (12, 4), (6, 2), (5, 1), (1, 4)])
def test_schonhage_bad_block_shapes_raise(m, n):
    # 2n not a power of two (radix-2 block transform), 2m above the floor
    # and not a power of two (Nussbaumer split of the blocks), or n not
    # dividing 2m (x^(2m/n) is no 2n-th root)
    z = Poly.zero(RingSpec(XN_MINUS_1, 2 * m * n, 17))
    with pytest.raises(ShapeCondition):
        schonhage_multiply(z, z, m, n)


@pytest.mark.parametrize("m, n", [(3, 3), (2, 3), (3, 6)])
def test_nussbaumer_bad_block_shapes_raise(m, n):
    z = Poly.zero(RingSpec(XN_PLUS_1, 2 * m * n, 17))
    with pytest.raises(ShapeCondition):
        nussbaumer_multiply(z, z, m, n)


def test_odd_block_shapes_still_multiply(rng):
    # q = 65537 runs int64, where the Nussbaumer fold's negation of its
    # wrapped rows is a strided in-place op (numpy 2.4's np.negative
    # miscomputes that view for Nussbaumer(3, 4) and (4, 4))
    for shape in (Nussbaumer(3, 4), Nussbaumer(4, 4)):
        assert embed.block_route(embed.block_schedule(shape), 65537).dtype == np.int64
    for q in (17, 4591, 65537):
        ring = RingSpec(XN_MINUS_1, 12, q)
        for _ in range(10):
            a, b = Poly.random(ring, rng), Poly.random(ring, rng)
            assert schonhage_multiply(a, b, 3, 2).coeffs == schoolbook_cyclic(a, b).coeffs
        for m, n in ((3, 4), (4, 4), (5, 8)):
            ring = RingSpec(XN_PLUS_1, 2 * m * n, q)
            for _ in range(10):
                a, b = Poly.random(ring, rng), Poly.random(ring, rng)
                assert nussbaumer_multiply(a, b, m, n).coeffs == schoolbook_nwc(a, b).coeffs


# derandomized, and each test pins @seed(0): a derandomized draw alone
# would move with every edit of the test's source
BLOCK_BUDGET = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def block_cases(draw):
    """(function, oracle, m, n, q, a, b) over valid shapes, odd m included,
    with q on both sides of the int32 rule (the floor's leaf peak passes
    2^31 near q = 46340), below 2^31 and above (refused)."""
    n = 1 << draw(st.integers(0, 4))
    if draw(st.booleans()):
        fn, oracle, form = schonhage_multiply, schoolbook_cyclic, XN_MINUS_1
        ms = [m for m in (1, 2, 3, 4, 8, 16) if (2 * m) % n == 0 and 2 * m * n <= 256]
    else:
        n = max(n, 2)
        fn, oracle, form = nussbaumer_multiply, schoolbook_nwc, XN_PLUS_1
        ms = list(range(2, n + 1))
    m = draw(st.sampled_from(ms))
    q = draw(st.one_of(st.integers(1, (1 << 30) - 1), st.integers(1 << 30, (1 << 41) - 1),
                       st.integers(23100, 23250))) * 2 + 1
    size = 2 * m * n
    operands = st.one_of(
        st.just([0] * size),
        st.just([1] + [0] * (size - 1)),
        st.just([q - 1] * size),
        st.lists(st.integers(0, q - 1), min_size=size, max_size=size),
    )
    return fn, oracle, m, n, RingSpec(form, size, q), draw(operands), draw(operands)


@BLOCK_BUDGET
@seed(0)
@given(block_cases())
def test_block_embeddings_match_oracle(case):
    # the one-shot functions, and a chain plan that pads x^(mn) - x - 1
    # into the block ring over q itself: one block code path for both;
    # all-(q-1) operands on every q, in int32 or int64 blocks
    fn, oracle, m, n, ring, a, b = case
    a, b = Poly(a, ring), Poly(b, ring)
    if ring.q > 1 << 31:
        with pytest.raises(ParameterCondition):
            fn(a, b, m, n)
    else:
        top = Poly([ring.q - 1] * ring.n, ring)
        assert fn(a, b, m, n).coeffs == oracle(a, b).coeffs
        assert fn(top, top, m, n).coeffs == oracle(top, top).coeffs
    if m * n < 2:  # x - x - 1 is no ring
        return
    small = RingSpec(XN_MINUS_X_MINUS_1, m * n, ring.q)
    chain = (ZeroPad(ring.n, ring.form), (Schonhage if fn is schonhage_multiply else Nussbaumer)(m, n))
    if ring.q > 1 << 31:
        with pytest.raises(ParameterCondition):
            planner.make_plan(small, chain=chain)
    else:
        x, y = Poly(a.coeffs[: m * n], small), Poly(b.coeffs[: m * n], small)
        plan = planner.make_plan(small, chain=chain)
        assert planner.multiply(x, y, plan).coeffs == oracle_multiply(x, y).coeffs


def test_schonhage_preset_product_and_counts_pinned(monkeypatch, rng):
    # the block route needs no schoolbook oracle; its op counts are those
    # of the per-block list code it replaced plus its 8192 length-8 floor
    # products, counted as basecase_mul counts them
    ring, plan = planner.preset("ntruprime-761-schonhage")
    a, b = planner.sample_operands(ring, plan, rng)
    want = oracle_multiply(a, b)

    def boom(*args):
        raise AssertionError("the block route must not call the oracle")

    monkeypatch.setattr(polymul, "schoolbook_nwc", boom)
    monkeypatch.setattr(polymul, "schoolbook_cyclic", boom)
    with modarith.counting() as c:
        assert planner.multiply(a, b, plan) == want
    assert (c.mults, c.adds, c.subs) == (667648, 498688, 531232)


def _only_workspaces_of(monkeypatch, dtype):
    """Make a block workspace of any other dtype than ``dtype`` raise."""
    build = embed.BlockWorkspace

    def only(schedule, dt):
        if dt != dtype:
            raise AssertionError(f"a {dt} workspace was built where {dtype} runs")
        return build(schedule, dt)

    monkeypatch.setattr(embed, "BlockWorkspace", only)


# the odd q nearest each side of L*(q-1)^2 < 2^63 for the leaf lengths the
# routes use: 8 (block floor), 4 (incomplete beta = 2), 3 (Good h = 3,
# trinomial), and of the int32 rule of the two block routes below
@pytest.mark.parametrize("q", [(1 << 30) - 1, (1 << 30) + 1, (1 << 31) - 1,
                               1518500249, 1518500251, 1753413057, 1753413059,
                               16383, 16385, 46337, 46339])
def test_lazy_reduction_boundaries(monkeypatch, q):
    # 8*(q-1)^2 < 2^63 just below 2^30 (raw floor sums), = 2^63 at 2^30 + 1
    # (each product reduced); 2^31 - 1 is the largest odd q a block route
    # takes.  Both routes below end in length-8 floors, so their walk keeps
    # int32 while the floor's peak does: 8 (q-1)^2 < 2^31 up to q = 16383
    # (raw sums), then (q-1)(q+7) < 2^31 up to q = 46337 (each product
    # reduced); from 46339 they run int64, and the int32 path raises
    dtype = np.int32 if q <= 46337 else np.int64
    _only_workspaces_of(monkeypatch, dtype)
    for fn, oracle, form, step in ((schonhage_multiply, schoolbook_cyclic, XN_MINUS_1, Schonhage(16, 16)),
                                   (nussbaumer_multiply, schoolbook_nwc, XN_PLUS_1, Nussbaumer(8, 16))):
        m, n = step.m, step.n
        assert embed.block_route(embed.block_schedule(step), q).dtype == dtype
        ring = RingSpec(form, 2 * m * n, q)
        a = Poly([q - 1] * ring.n, ring)
        assert fn(a, a, m, n).coeffs == oracle(a, a).coeffs
    # the leaf kernel itself on all-(q-1) columns, whose top linear
    # coefficient sums L products of q - 1, for every kind of gamma
    for L in (3, 4, SCHOOLBOOK_FLOOR):
        ref = trinomial_pointwise if L == 3 else basecase_mul  # basecase_mul takes powers of two
        top = np.full((L, 3), q - 1)
        for gamma, g in ((np.full(3, q - 1), q - 1), (-1, q - 1), (1, 1)):
            want = ref([q - 1] * L, [q - 1] * L, g, q)
            assert polymul.leaf_products(top, top.copy(), gamma, q).T.tolist() == [want] * 3


# Schonhage(2, 2) is one depth of 4 blocks of length 4.  Its walk: the
# forward transform leaves 2^2 (q-1), which lazy leaves take while
# 4 (2^2 (q-1))^2 stays below the limit (in int64 up to q = 379625063).
# Past that its input is already canonical, so all blocks are reduced
# after it, and the leaf products peak at 4 (q-1)^2 summing raw products,
# or at (q-1)(q+3) reducing each first, once the raw sums would reach the
# limit (in int64 at q = 1518500251); then inverse 2^2 (q-1), fold
# 2^3 (q-1) and the final scale, in int64, 2^3 (q-1)^2
@pytest.mark.parametrize("q", [46339, 46341, 1518500249, 1518500251, (1 << 30) - 1, (1 << 30) + 1])
def test_block_walk_boundaries(monkeypatch, q):
    int32 = (q - 1) * (q + 3) < 1 << 31  # up to q = 46339, on reduce-first leaves past q = 23171
    before_scale = 8 * (q - 1) ** 2 >= 1 << 63  # from q = 2^30 + 1
    assert bounds.fits(np.int64, q - 1, q - 1, 4) == (4 * (q - 1) ** 2 < 1 << 63)
    route = embed.block_route(embed.block_schedule(Schonhage(2, 2)), q)
    assert route.dtype == (np.int32 if int32 else np.int64)
    after_forward = 4 * (4 * (q - 1)) ** 2 >= (1 << 31 if int32 else 1 << 63)  # all but 46341
    # before: the forward, the leaves, the inverse, the fold, the scale
    assert route.reduce == (False, after_forward, False, False, before_scale)
    assert route.leaf_bound == (q - 1 if after_forward else 4 * (q - 1))
    _only_workspaces_of(monkeypatch, route.dtype)
    ring = RingSpec(XN_MINUS_1, 8, q)
    a = Poly([q - 1] * ring.n, ring)
    assert schonhage_multiply(a, a, 2, 2).coeffs == schoolbook_cyclic(a, a).coeffs


def test_preset_block_route_reduces_three_times(monkeypatch, rng):
    # q = 4591 on Schonhage(32, 32): every bound of the walk stays below
    # 2^31, and the int32 product reduces the floor's two live input
    # blocks before its forward transform, the leaf sums once, and the
    # product once more after the final scale
    route = embed.block_route(embed.block_schedule(Schonhage(32, 32)), 4591)
    assert route.dtype == np.int32
    assert route.reduce == (False, False, True) + (False,) * 8  # before the floor's forward
    assert route.leaf_bound == 2 * 4590
    ring, plan = planner.preset("ntruprime-761-schonhage")
    a, b = planner.sample_operands(ring, plan, rng)
    want = oracle_multiply(a, b)
    reduced, real = [], polymul._mod
    monkeypatch.setattr(embed, "_mod", lambda *args: reduced.append(args[0].dtype) or real(*args))
    monkeypatch.setattr(polymul, "_mod", lambda *args: reduced.append(args[0].dtype) or real(*args))
    assert planner.multiply(a, b, plan) == want
    assert reduced == [np.int32, np.int32, np.int64]  # the last one on the scaled int64 product


@pytest.mark.parametrize("q, live_input", [(8191, True), (8193, False)])
def test_floor_reduces_its_live_input_while_the_leaves_take_it(monkeypatch, q, live_input):
    # Schonhage(32, 32)'s floor forward transform has one level that is
    # not a copy, so a reduction of its two live input blocks leaves
    # 2 (q-1)-bounded leaf operands, which lazy int32 leaves take while
    # 8 (2 (q-1))^2 < 2^31, up to q = 8191; from q = 8193 all eight
    # blocks are reduced after the transform.  The other placement raises
    schedule = embed.block_schedule(Schonhage(32, 32))
    route = embed.block_route(schedule, q)
    assert route.dtype == np.int32
    # before the floor's forward transform, or before its leaves
    assert route.reduce == (False, False, live_input, not live_input) + (False,) * 7
    assert route.leaf_bound == (2 if live_input else 1) * (q - 1)
    assert bounds.fits(np.int32, 2 * (q - 1), 2 * (q - 1), 8) == live_input
    above, floor = schedule[-2:]
    # the floor's operands, or its source: the depth above's forward output, flat, 64 columns per operand
    other = (2, floor.L, 2 * floor.step.n, 1024) if live_input else (2 * 2 * above.step.n * above.L * 64,)
    real = embed._mod

    def placed(X, *args):
        if X.shape == other:
            raise AssertionError(f"the floor reduced {X.shape}")
        seen.append(X.shape)
        return real(X, *args)

    seen = []
    monkeypatch.setattr(embed, "_mod", placed)
    ring = RingSpec(XN_MINUS_1, 2048, q)
    rng = np.random.default_rng(q)
    for a in (Poly([q - 1] * ring.n, ring), Poly(rng.integers(0, q, ring.n), ring)):
        b = Poly(rng.integers(0, q, ring.n), ring)
        assert schonhage_multiply(a, b, 32, 32).coeffs == schoolbook_cyclic(a, b).coeffs
    placements = {(2 * 2 * above.step.n * above.L * 64,), (2, floor.L, 2 * floor.step.n, 1024)}
    assert placements & set(seen) == placements - {other}


@pytest.mark.parametrize("m, n", [(3, 4), (3, 8), (5, 8), (6, 8)])
def test_nussbaumer_zeroes_only_the_parts_the_copies_skip(m, n, rng):
    # m not a power of two: the parts from m on, which the forward
    # transform's copy levels would fill, are read from the zero rows that
    # follow each source; a product zeroes nothing, so a workspace full of
    # stale values outside those rows still multiplies, and no product
    # writes them
    ring = RingSpec(XN_PLUS_1, 2 * m * n, 4591)
    ex = embed.BlockExecutor(ring, Nussbaumer(m, n), ring.q)
    route = ex.table(ring.q)
    ws = embed.BlockWorkspace(ex.schedule, route.dtype)
    zeros, rows = [ws.operands[ex.schedule[0].source :]], 1
    for buf in (ws.operands[: ex.schedule[0].source], ws.scratch, ws.floor, ws.acc):
        buf[...] = 12345
    for depth, buf in zip(ex.schedule, ws.blocks):
        size = 2 * (2 * depth.step.n) * depth.L * rows  # both operands' blocks
        if buf is not None:
            buf[:size] = 12345
            zeros += [buf[size:]] if depth is not ex.schedule[-1] else []
        rows *= 2 * depth.step.n
    assert len(zeros) == len(ex.schedule) and all(z.size and not z.any() for z in zeros)
    ex.workspaces[route.dtype].put(ws)
    for _ in range(3):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        assert ex.multiply(a, b).coeffs == schoolbook_nwc(a, b).coeffs
    assert not any(z.any() for z in zeros)


@pytest.mark.parametrize("half", [1, 2, 4, 8])
@pytest.mark.parametrize("extra", [0, 1])
def test_inverse_block_transform_prunes_levels_past_keep(half, extra):
    # with only the first keep blocks read, the levels whose halves hold at
    # least keep blocks add only (``sums``): keep = half prunes the level
    # of that half and every later one, keep = half + 1 only the later
    # ones; the kept blocks and the counts are those of the full inverse
    keep, blocks, L, q = half + extra, 16, 8, 7681
    rng = np.random.default_rng(keep)
    X = rng.integers(0, q, size=(blocks, L, 3))
    levels = _block_levels(blocks, L, 2, True, keep)
    assert sum(lv.sums for lv in levels) == 4 - half.bit_length() + 1 - extra
    assert all(lv.sums for lv in levels if lv.half >= keep)
    with modarith.counting() as full_ctr:
        full = _block_ntt(X.copy(), _block_levels(blocks, L, 2, True))
    with modarith.counting() as kept_ctr:
        kept = _block_ntt(X.copy(), levels)
    # both leave block b's coefficient l at the same row of X
    rows = embed._levels(np.arange(blocks * L).reshape(blocks, L), None, L, 2, True, keep)[1][:keep]
    assert np.array_equal(full.reshape(-1, 3)[rows], kept.reshape(-1, 3)[rows])
    assert (full_ctr.adds, full_ctr.subs) == (kept_ctr.adds, kept_ctr.subs)


def _block_terminals():
    """(ring, plan, dtype) of a chain of every kind of block terminal: the
    Schoenhage preset (int32), the same chain over q = 65537 (int64), a
    Nussbaumer chain (int32), and a lifted Schoenhage terminal, over the
    basis prime that replaces 549755809793 (int64)."""
    wide = RingSpec(XN_MINUS_X_MINUS_1, 761, 65537)
    nussbaumer = RingSpec(XN_MINUS_X_MINUS_1, 200, 4591)
    lifted = RingSpec(XN_MINUS_1, 509, 2048)
    return [
        (*planner.preset("ntruprime-761-schonhage"), np.int32),
        (wide, planner.make_plan(wide, chain=(ZeroPad(2048), Schonhage(32, 32))), np.int64),
        (nussbaumer, planner.make_plan(nussbaumer, chain=(ZeroPad(512, XN_PLUS_1), Nussbaumer(16, 16))), np.int32),
        (lifted, planner.make_plan(lifted, chain=(ZeroPad(2048), LiftModulus(549755809793), Schonhage(32, 32))),
         np.int64),
    ]


def _owned_buffers(ws) -> list:
    """The buffers a block workspace allocated: the arrays it holds, alone
    or in lists, that own their memory."""
    held = [x for v in vars(ws).values() for x in (v if isinstance(v, list) else [v])]
    return [x for x in held if isinstance(x, np.ndarray) and x.base is None]


def test_block_products_touch_no_fresh_pages(rng):
    # after a warm-up product every buffer of the route's size is reused,
    # on every kind of block terminal
    resource = pytest.importorskip("resource")
    for ring, plan, _ in _block_terminals():
        a, b = planner.sample_operands(ring, plan, rng)
        want = oracle_multiply(a, b)
        assert planner.multiply(a, b, plan) == want
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            planner.multiply(a, b, plan)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
        assert faults <= 10, (plan.describe(), faults)


def test_threads_never_share_a_block_workspace(rng):
    # planning builds no workspace; two threads multiplying at once each
    # take their own of the modulus's dtype, and give it back, on every
    # kind of block terminal: the preset (q = 4591) runs int32, the same
    # chain over q = 65537 int64, with every buffer twice as large; the
    # preset's workspace stays within 2.4 MiB
    nbytes = {}
    for ring, plan, dtype in _block_terminals():
        block = plan.executor  # the chain's terminal executor
        assert all(pool.empty() for pool in block.workspaces.values())
        cases = [planner.sample_operands(ring, plan, rng) for _ in range(4)]
        wants = [oracle_multiply(a, b) for a, b in cases]
        barrier = threading.Barrier(2)
        results = [[], []]

        def run(k):
            barrier.wait()
            for i in range(20):
                a, b = cases[(i + k) % 4]
                results[k].append(planner.multiply(a, b, plan) == wants[(i + k) % 4])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[True] * 20] * 2
        pool = block.workspaces[np.dtype(dtype)]
        assert 1 <= pool.qsize() <= 2
        assert all(other.empty() for d, other in block.workspaces.items() if d != dtype)
        buffers = _owned_buffers(pool.get())
        assert buffers and all(buf.dtype == dtype for buf in buffers)
        nbytes[ring] = sum(buf.nbytes for buf in buffers)
    preset, wide = (ring for ring, _, _ in _block_terminals()[:2])
    assert nbytes[wide] == 2 * nbytes[preset] <= 2 * 2506752


def test_preset_block_route_holds_its_pinned_bytes(rng):
    # the preset's int32 workspace, with no buffer per data-moving pass,
    # and its route's signs, one column per last forward level of a depth
    ring, plan = planner.preset("ntruprime-761-schonhage")
    a, b = planner.sample_operands(ring, plan, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
    block = plan.executor
    ws = block.workspaces[np.dtype(np.int32)].get()
    assert sum(buf.nbytes for buf in _owned_buffers(ws)) == 1483392  # 1.41 MiB
    route = block.table(ring.q)
    signs = [lv.sign for depth in route.depths for lv in depth.forward + depth.inverse if lv.sign is not None]
    assert all(sign.dtype == np.int32 for sign in signs)
    assert sum(sign.nbytes for sign in signs) == 344064  # 0.33 MiB


def test_block_schedule_built_on_first_multiply_only(monkeypatch, rng):
    build = embed.block_schedule

    def refuse(step):
        raise AssertionError("block schedule built outside the first multiply")

    monkeypatch.setattr(embed, "block_schedule", refuse)
    ring, plan = planner.preset("ntruprime-761-schonhage")  # planning builds none
    monkeypatch.setattr(embed, "block_schedule", build)
    a, b = planner.sample_operands(ring, plan, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
    monkeypatch.setattr(embed, "block_schedule", refuse)
    a, b = planner.sample_operands(ring, plan, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)


# ---------------------------------------------------------------------------
# chains


def ntruprime_ring(n=761, q=4591):
    return RingSpec(XN_MINUS_X_MINUS_1, n, q)


def ref_ntruprime(a, b):
    # independent reduction: x^n = x + 1 folded by hand
    n, q = a.ring.n, a.ring.q
    c = list(schoolbook_linear(a, b))
    for i in range(len(c) - 1, n - 1, -1):
        v = c[i]
        c[i - n + 1] = (c[i - n + 1] + v) % q
        c[i - n] = (c[i - n] + v) % q
    return c[:n]


def test_chain_schonhage_route(rng):
    ring = ntruprime_ring()
    chain = EmbedChain((ZeroPad(2048), Schonhage(32, 32)))
    a, b = Poly.random(ring, rng), Poly.random_small(ring, rng, 1)
    got = general_phi_multiply(a, b, chain)
    assert got.coeffs == ref_ntruprime(a, b)
    assert got.coeffs == reduce_mod_phi(schoolbook_linear(a, b), ring).coeffs


@pytest.mark.parametrize("ring, chain", [
    (RingSpec(XN_MINUS_1, 2048, 4591), (ZeroPad(2048), Schonhage(32, 32))),
    (RingSpec(XN_PLUS_1, 256, 3329), (ZeroPad(256, XN_PLUS_1), Nussbaumer(8, 16))),
])
def test_a_given_chain_plans_a_power_of_two_ring(ring, chain, rng):
    # x^2048 - 1 over 4591 has an incomplete transform and x^256 + 1 over
    # 3329 is kyber's ring, yet the chain given is the plan
    plan = planner.make_plan(ring, chain=chain)
    assert plan.strategy == "embed" and plan.chain.steps == chain
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)


@pytest.mark.parametrize("n", [653, 761, 857])
def test_block_and_good_routes_agree_on_edge_operands(n, rng):
    # the Schoenhage and Good presets of one NTRU Prime ring give the
    # oracle's product on 0, 1, all q - 1 (b = -1 in the small profile),
    # and an operand whose last nonzero coefficient ends a top block
    (ring, block), (_, good) = (planner.preset(f"ntruprime-{n}-{r}") for r in ("schonhage", "good"))
    q, m = ring.q, block.executor.step.m
    ends = [rng.randrange(1, q) for _ in range(n // m * m)] + [0] * (n - n // m * m)
    operands = [Poly.zero(ring), Poly.from_ints([1], ring), Poly([q - 1] * n, ring), Poly(ends, ring)]
    for a in operands:
        for b in (Poly([q - 1] * n, ring), planner.sample_operands(ring, block, rng)[1]):
            want = oracle_multiply(a, b)
            assert planner.multiply(a, b, block) == want
            assert planner.multiply(a, b, good) == want


@pytest.mark.parametrize("n, live", [(480, 15), (512, 16), (513, 17), (992, 31), (1024, 32)])
def test_chain_source_length_sets_the_live_top_blocks(n, live, rng):
    # x^n - x - 1 through pad 2048 and Schonhage(32, 32): the terminal
    # transforms only ceil(n/32) live top blocks, on both sides of each
    # block boundary; the product is the oracle's, and the terminal's
    # values (the keep prefix) and op counts are those of the full 64
    # live blocks
    ring = RingSpec(XN_MINUS_X_MINUS_1, n, 4591)
    plan = planner.make_plan(ring, chain=(ZeroPad(2048), Schonhage(32, 32)))
    terminal = plan.executor
    full = embed.BlockExecutor(terminal.ring, terminal.step, terminal.N)
    for a, b in (planner.sample_operands(ring, plan, rng), (Poly([4590] * n, ring), Poly([4590] * n, ring))):
        assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
        x, y = (np.concatenate((v.array, np.zeros(2048 - n, dtype=np.int64))) for v in (a, b))
        with modarith.counting() as live_ctr:
            got = terminal.product(x, y)
        with modarith.counting() as full_ctr:
            assert np.array_equal(got, full.product(x, y)[: 2 * n - 1])
        assert len(got) == 2 * n - 1
        assert (live_ctr.mults, live_ctr.adds, live_ctr.subs) == (full_ctr.mults, full_ctr.adds, full_ctr.subs)
    assert (terminal.schedule[0].live, full.schedule[0].live) == (live, 64)


def test_chain_good_route(rng):
    ring = ntruprime_ring()
    chain = EmbedChain((ZeroPad(1536), LiftModulus(6984193), Good(3, 9)))
    a, b = Poly.random(ring, rng), Poly.random_small(ring, rng, 1)
    assert general_phi_multiply(a, b, chain).coeffs == ref_ntruprime(a, b)


def test_chain_routes_agree(rng):
    # two different embeddings of the same product coincide
    ring = ntruprime_ring(653, 4621)
    a, b = Poly.random(ring, rng), Poly.random_small(ring, rng, 1)
    via_schonhage = general_phi_multiply(a, b, EmbedChain((ZeroPad(2048), Schonhage(32, 32))))
    from nttkit.planner import search_prime

    N = search_prime(512, bigmod.required_bound(653, 4621, (bigmod.FULL_SMALL, 2)))
    via_good = general_phi_multiply(
        a, b, EmbedChain((ZeroPad(1536), LiftModulus(N), Good(3, 9))))
    assert via_schonhage.coeffs == via_good.coeffs


def test_chain_pad_only(rng):
    # single-step chain over a transform-friendly q equals plain padding
    ring = RingSpec(XN_MINUS_X_MINUS_1, 5, 7681)
    chain = EmbedChain((ZeroPad(16),))
    pair = make_transform_pair(RingSpec(XN_MINUS_1, 16, 7681), 0)
    for _ in range(20):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        got = general_phi_multiply(a, b, chain)
        want = zero_pad_multiply(a, b, 16, lambda x, y: ntt_multiply(x, y, pair))
        assert got.coeffs == want.coeffs


def test_chain_pad_only_searches_a_lift_for_the_padded_transform(rng):
    # a chain without a terminal runs a plain transform of the padded
    # length, so a searched lift modulus must be 1 mod 16
    ring = RingSpec(XN_MINUS_X_MINUS_1, 5, 2048)
    plan = planner.make_plan(ring, chain=(ZeroPad(16), LiftModulus(None)))
    N = plan.chain.lift.modulus
    assert (f"padded transform over {N}: {N} = 1 (mod 16)", True) in plan.checks
    for _ in range(10):
        a, b = Poly.random(ring, rng), Poly.random(ring, rng)
        assert planner.multiply(a, b, plan) == oracle_multiply(a, b)


def test_chain_validation():
    with pytest.raises(ChainMismatch):
        EmbedChain((Schonhage(2, 2), ZeroPad(8)))  # pad not first
    with pytest.raises(ChainMismatch):
        EmbedChain((ZeroPad(8), Schonhage(2, 2), PlainNtt(0)))  # two terminals
    with pytest.raises(ChainMismatch):  # a step of no known type
        planner.make_plan(RingSpec(XN_MINUS_X_MINUS_1, 5, 7681), chain=(ZeroPad(16), "bogus"))
    ring = ntruprime_ring()
    a = Poly.zero(ring)
    with pytest.raises(ChainMismatch):
        # terminal shape disagrees with the pad target
        general_phi_multiply(a, a, EmbedChain((ZeroPad(2048), Good(3, 9))))
    with pytest.raises(BadShape):  # Good's h is odd ...
        EmbedChain((ZeroPad(1024), Good(2, 9)))
    with pytest.raises(BadShape):  # ... and its ring x^n - 1
        EmbedChain((ZeroPad(1536, XN_PLUS_1), Good(3, 9)))


def test_chain_checks_block_shape_and_lift_modulus(rng):
    # a Schoenhage shape the block transform cannot run fails at plan time
    ring5 = RingSpec(XN_MINUS_X_MINUS_1, 5, 17)
    with pytest.raises(ParameterCondition):
        planner.make_plan(ring5, chain=(ZeroPad(18), Schonhage(3, 3)))
    with pytest.raises(ParameterCondition):  # n does not divide 2m
        planner.make_plan(RingSpec(XN_MINUS_X_MINUS_1, 3, 17),
                          chain=(ZeroPad(8), Schonhage(1, 4)))
    # 2n must be invertible mod the modulus the blocks run over: the lift
    # modulus when there is one (q = 2048 is even, N is odd), here the one
    # odd prime below 2^31 that replaces it ...
    ring = RingSpec(XN_MINUS_1, 509, 2048)
    plan = planner.make_plan(ring, chain=(ZeroPad(2048), LiftModulus(549755809793),
                                          Schonhage(32, 32)))
    (p,) = plan.replaced_by
    assert p % 2 == 1 and p < 1 << 31 and "lift(549755809793 -> " in plan.describe()
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
    # ... else q itself, for Nussbaumer terminals too
    with pytest.raises(ParameterCondition):
        planner.make_plan(RingSpec(XN_MINUS_X_MINUS_1, 5, 16),
                          chain=(ZeroPad(16, XN_PLUS_1), Nussbaumer(2, 4)))
    # unlifted block terminals run int64 arrays: q must be below 2^31;
    # an unlifted Good terminal runs the object class, as a plain one does
    with pytest.raises(ParameterCondition):
        planner.make_plan(RingSpec(XN_MINUS_X_MINUS_1, 5, 2147483713),
                          chain=(ZeroPad(16), Schonhage(2, 4)))
    ring = RingSpec(XN_MINUS_1, 12, 2147483713)
    plan = planner.make_plan(ring, chain=(ZeroPad(12), Good(3, 2)))
    a, b = Poly.random(ring, rng), Poly.random(ring, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)


def test_ntru_chain_and_direct_good_agree(rng):
    ring = RingSpec(XN_MINUS_1, 701, 8192)
    a, b = Poly.random(ring, rng), Poly.random_small(ring, rng, 1)
    chain = EmbedChain((ZeroPad(1536), LiftModulus(5747201), Good(3, 9)))
    got_chain = general_phi_multiply(a, b, chain)
    got_direct = zero_pad_multiply(a, b, 1536, lambda x, y: good_multiply(x, y, 3, 9, 5747201))
    assert got_chain.coeffs == got_direct.coeffs == schoolbook_cyclic(a, b).coeffs


@pytest.mark.parametrize("ring, k, lift", [
    (RingSpec(XN_MINUS_1, 701, 8192), 9, (LiftModulus(None),)),
    (RingSpec(XN_MINUS_X_MINUS_1, 23, 7681), 4, ()),
    (RingSpec(XN_MINUS_1, 48, 7681), 4, ()),
], ids=["ntru-701-lifted", "pad-48", "in-place-48"])
def test_good_and_plain_chains_on_one_pad_agree(ring, k, lift, rng):
    # Good(3, k) names the plain transform of its 3 2^k pad: the same
    # searched lift, the same products and the same op counts
    pad = ZeroPad(3 << k)
    good, plain = (planner.make_plan(ring, chain=(pad, *lift, t)) for t in (Good(3, k), PlainNtt()))
    assert good.replaced_by == plain.replaced_by and good.chain.lift == plain.chain.lift
    for a, b in (planner.sample_operands(ring, good, rng), (Poly([ring.q - 1] * ring.n, ring),) * 2):
        with modarith.counting() as via_good:
            got = planner.multiply(a, b, good)
        with modarith.counting() as via_plain:
            assert planner.multiply(a, b, plain) == got == oracle_multiply(a, b)
        assert vars(via_good) == vars(via_plain)


def test_unlifted_block_terminal_skips_the_lift(monkeypatch, rng):
    # a Schoenhage terminal over q itself runs on the operands as they are;
    # a lifted route still lifts both operands and recovers the product
    lift, recover = bigmod.lift_centered, bigmod.recover_centered

    def boom(*args):
        raise AssertionError("an unlifted terminal must not lift or recover")

    monkeypatch.setattr(bigmod, "lift_centered", boom)
    monkeypatch.setattr(bigmod, "recover_centered", boom)
    ring, plan = planner.preset("ntruprime-761-schonhage")
    a, b = planner.sample_operands(ring, plan, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)

    calls = []
    monkeypatch.setattr(bigmod, "lift_centered", lambda *x: calls.append("lift") or lift(*x))
    monkeypatch.setattr(bigmod, "recover_centered", lambda *x: calls.append("recover") or recover(*x))
    ring, plan = planner.preset("ntru-701")
    a, b = planner.sample_operands(ring, plan, rng)
    assert planner.multiply(a, b, plan) == oracle_multiply(a, b)
    assert calls == ["lift", "recover"]


# every preset, a split plan and a trinomial plan: one plan of every executor
PLAN_NAMES = (*planner.preset_names(), "kyber-hntt", "trinomial-768")


def _plan(name):
    """(ring, plan) of a preset, of hntt (alpha = beta = 1) on the kyber
    ring, or of the n = 768, q = 7681 trinomial ring."""
    if name == "kyber-hntt":
        ring = planner.preset("kyber")[0]
        return ring, planner.make_plan(ring, "hntt", alpha=1, beta=1)
    if name == "trinomial-768":
        ring = RingSpec(TRINOMIAL, 768, 7681)
        return ring, planner.make_plan(ring)
    return planner.preset(name)


@pytest.mark.parametrize("name", PLAN_NAMES)
def test_chain_plan_refuses_another_ring(name, rng):
    # a plan's checks hold for its own ring only: a degree-300 ring over the
    # same q is refused, even when both operands live in it, by every route
    ring, plan = _plan(name)
    other = RingSpec(XN_MINUS_1, 300, ring.q)
    x = Poly.random(other, rng)
    with pytest.raises(RingMismatch):
        planner.multiply(x, x, plan)
    with pytest.raises(RingMismatch):
        planner.multiply(Poly.random(ring, rng), x, plan)


def _every_plan():
    general = RingSpec(GENERAL, 12, 7681, (3, 0, 5, 7680, 0, 0, 1, 0, 2, 0, 0, 4, 1))
    return [_plan(n) for n in PLAN_NAMES] + [(general, planner.make_plan(general))]


def test_no_poly_is_validated_mid_product(monkeypatch, rng):
    # operands are built first; from then on a product reads their arrays
    # and constructs exactly one Poly, its result, and every table is built
    # once, on first use
    cases = [(plan, *planner.sample_operands(ring, plan, rng)) for ring, plan in _every_plan()]
    assert any(plan.ring.form == GENERAL for plan, _, _ in cases)
    wants = [oracle_multiply(a, b) for _, a, b in cases]
    built, init = [], Poly.__init__

    def counted(self, values, ring):
        built.append(ring)
        init(self, values, ring)

    def boom(*args, **kwargs):
        raise AssertionError("built mid-product")

    def run_all(swap):
        for (plan, a, b), want in zip(cases, wants):
            built.clear()
            x, y = (b, a) if swap else (a, b)
            assert planner.multiply(x, y, plan) == want, plan.describe()
            assert built == [plan.ring], plan.describe()

    monkeypatch.setattr(Poly, "__init__", counted)
    run_all(False)
    monkeypatch.setattr(embed, "block_schedule", boom)
    monkeypatch.setattr(polymul, "make_transform_pair", boom)
    monkeypatch.setattr(trinomial, "make_plan", boom)
    run_all(True)


def test_no_list_on_the_product_path(monkeypatch, rng):
    # every planned product and matvec reads Poly.array; only the oracle
    # (run before the patch) reads the list ``coeffs``, and only the
    # sampled matvec inputs are NttDomainPolys
    cases = [(plan, *planner.sample_operands(ring, plan, rng)) for ring, plan in _every_plan()]
    wants = [oracle_multiply(a, b) for _, a, b in cases]
    matvecs = []
    for name, k, l, bound in (("kyber", 3, 3, 2), ("dilithium", 6, 5, 4)):
        ring, plan = planner.preset(name)
        Ahat = [[planner.sample_ntt_domain_uniform(ring, plan, 7 * i + j) for j in range(l)]
                for i in range(k)]
        s = [Poly.random_small(ring, rng, bound) for _ in range(l)]
        rows = [Poly.zero(ring) for _ in range(k)]
        for i, row in enumerate(Ahat):
            for a, sj in zip(row, s):
                rows[i] = rows[i].add(oracle_multiply(plan.pair.inverse(a), sj))
        matvecs.append((plan, Ahat, s, rows))

    def boom(self, *args):
        raise AssertionError("Poly.coeffs read, or a tagged domain poly built, on the product path")

    def run_all():
        for (plan, a, b), want in zip(cases, wants):
            assert planner.multiply(a, b, plan) == want, plan.describe()
        for plan, Ahat, s, rows in matvecs:
            assert planner.matvec_multiply(Ahat, s, plan) == rows, plan.describe()

    monkeypatch.setattr(Poly, "coeffs", property(boom))
    run_all()
    # bare buffers from forward transform to inverse: no route tags its
    # intermediate values
    monkeypatch.setattr(NttDomainPoly, "__init__", boom)
    run_all()


@pytest.mark.parametrize("m, n", [(2, 4), (2, 2), (4, 4), (3, 8), (8, 8)])
def test_forward_block_transform_copies_levels_of_zero_parts(m, n):
    # with only the first m parts nonzero, the levels whose halves hold at
    # least m parts would copy: they gather nothing, the first level that
    # gathers reads the copies from the live parts, and the values and the
    # counts are those of the full butterflies
    rng = np.random.default_rng(m * 100 + n)
    q, L, blocks = 7681, 2 * n, 2 * n
    X = np.zeros((blocks, L, 3), dtype=np.int64)
    X[:m] = rng.integers(0, q, size=(m, L, 3))
    with modarith.counting() as full_ctr:
        full = _block_ntt(X.copy(), _block_levels(blocks, L, 2, False))
    with modarith.counting() as live_ctr:  # the copies read the live parts, the rest untouched
        live = _block_ntt(X.copy(), _block_levels(blocks, L, 2, False, m))
    assert np.array_equal(full, live)
    assert (full_ctr.adds, full_ctr.subs) == (live_ctr.adds, live_ctr.subs)


def test_plan_refuses_a_pad_to_the_same_length_in_another_form():
    # ZeroPad(n) keeps the ring only when the form matches; x^8 - 1 cannot
    # hold a degree-14 product of x^8 - x - 1, so the plan fails its check
    with pytest.raises(ParameterCondition, match="pad 8 >= 2n-1 = 15"):
        planner.make_plan(RingSpec(XN_MINUS_X_MINUS_1, 8, 7681), chain=(ZeroPad(8, XN_MINUS_1),))
    ring = RingSpec(XN_MINUS_1, 12, 7681)
    plan = planner.make_plan(ring, chain=(ZeroPad(12, XN_MINUS_1), Good(3, 2)))
    assert ("pad 12 >= 2n-1 = 23", True) in plan.checks


@pytest.mark.parametrize("name, kernel", [("ntru-701", "leaf_rows"),
                                          ("ntruprime-761-schonhage", "leaf_products")],
                         ids=["ntru-701", "ntruprime-761-schonhage"])
def test_every_leaf_batch_is_counted(name, kernel, monkeypatch, rng):
    # Good's leaves of degree 3 (rows of leaves) and the block floor
    # (columns) count each leaf as basecase_mul would, per working modulus
    ring, plan = _plan(name)
    a, b = planner.sample_operands(ring, plan, rng)
    with modarith.counting() as counted:
        want = planner.multiply(a, b, plan)
    seen, real = [], getattr(polymul, kernel)

    def recording(U, V, *args, **kwargs):
        if kernel == "leaf_rows":  # (A, B, L, gammas, q)
            seen.append((args[0], np.broadcast(U, V).size // args[0]))
        else:
            seen.append((U.shape[0], np.broadcast(U[0], V[0]).size))
        return real(U, V, *args, **kwargs)

    monkeypatch.setattr(polymul, kernel, recording)
    monkeypatch.setattr(polymul, "_count_leaves", lambda *args: None)
    with modarith.counting() as bare:
        assert planner.multiply(a, b, plan) == want
    assert seen
    for i, tally in enumerate(("mults", "adds", "subs")):
        extra = sum(polymul.leaf_ops(L, False)[i] * cols for L, cols in seen)
        assert getattr(counted, tally) - getattr(bare, tally) == extra, tally
