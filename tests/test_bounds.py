"""The one owner of magnitude decisions: ``nttkit.bounds``.

Every buffer class, stage class and reduction of the fast path is a call
of ``bounds.fits`` or ``bounds.walk``; these tests pin the buffer rule at
its edge, the walk's placements on small chains, the agreement of the
buffer and stage classes at every modulus around 2^31, and that no other
module of the library writes a magnitude limit of its own.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import nttkit
from nttkit import bounds
from nttkit.errors import NotInvertible
from nttkit.polymul import make_transform_pair, ntt_multiply, oracle_multiply
from nttkit.rings import XN_MINUS_1, Poly, RingSpec

# 1 << k or 2**k for the limits of int32, float64 and int64, and the
# oracle's headroom under int64
LIMIT_LITERAL = re.compile(r"\b1\s*<<\s*(31|53|62|63)\b|\b2\s*\*\*\s*(31|53|62|63)\b")


def test_magnitude_limits_are_written_only_in_bounds():
    # the oracle's own rule (``polymul._INT64_LIMIT``) stays apart, as the
    # oracle shares no code with what it checks
    found = []
    for path in sorted(Path(nttkit.__file__).parent.glob("*.py")):
        if path.name == "bounds.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            oracle = path.name == "polymul.py" and line.startswith("_INT64_LIMIT = ")
            if LIMIT_LITERAL.search(line) and not oracle:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_limits_and_fits():
    assert [bounds.LIMITS[d] for d in (np.int32, np.int64, np.float64, object)] == [
        2**31 - 1, 2**63 - 1, 2**53, None]
    for d in (np.int32, np.int64, np.float64, object):
        assert bounds.LIMITS[np.dtype(d)] == bounds.LIMITS[d]
    assert bounds.fits(np.int32, 2**31 - 1) and not bounds.fits(np.int32, 2**31)
    assert bounds.fits(np.float64, 2**52, 1, 2) and not bounds.fits(np.float64, 2**52, 1, 2, 1)
    assert bounds.fits(np.int64, 3, 5, 7, 2**63 - 1 - 105)
    assert not bounds.fits(np.int64, 3, 5, 7, 2**63 - 105)
    assert bounds.fits(object, 2**100, 2**100, 2**100)


def test_the_buffer_limit_is_the_buffer_rule():
    # int64 buffers while two products of entries up to q fit int64
    top = bounds.VECTOR_LIMIT
    assert bounds.fits(np.int64, top - 1, top - 1, 2) and not bounds.fits(np.int64, top, top, 2)
    assert bounds.vectorized(top - 1) and not bounds.vectorized(top)


def test_walk_reduces_right_before_a_step_that_would_pass():
    def double(b):
        return 2 * b if 2 * b <= 10 else None

    # from 3: 6, then 12 would pass, so reduce to 1 before step 1: 2, 4, 8
    assert bounds.walk([double] * 4, 3, 1) == ((False, True, False, False), (3, 1, 2, 4))
    # a step that passes even on reduced input
    assert bounds.walk([double, lambda b: None], 3, 1) is None
    # early: the reduction before step 1 moves before step 0, where step 1
    # takes what step 0 makes of reduced input; step 3 then needs its own
    assert bounds.walk([double] * 4, 3, 1, early=(1,)) == ((True, False, False, True), (1, 2, 4, 1))
    # and stays where step 1 cannot take that
    assert bounds.walk([double, lambda b: b if b <= 1 else None], 3, 1, early=(1,)) == (
        (False, True), (3, 1))
    grow5 = bounds.grow(5, np.int32)
    assert grow5(2**29) is None and grow5(2**28) == 5 * 2**28


@pytest.mark.parametrize("q", [2**31 - 1, 2**31, 2**31 + 1])
def test_products_on_either_side_of_2_31(q, rng):
    # the buffer class and the stage class agree at every modulus: 2^31 is
    # the first ``object`` buffer, and its stages are the object class, so
    # its forward transform runs (x^2 - 1 with root q - 1, a square root of
    # 1 mod any q).  Its inverse needs 1/2, which no even q has: the product
    # raises the typed error, where the two rules once disagreed and a
    # float64-limb stage shifted Python floats
    ring = RingSpec(XN_MINUS_1, 2, q)
    pair = make_transform_pair(ring, 0, root=q - 1)
    assert (pair.fwd_sched.stage_class[0] == bounds.OBJECT) == (q >= 2**31)
    cases = [(Poly.random(ring, rng), Poly.random(ring, rng)), (Poly([q - 1] * 2, ring),) * 2]
    for a, b in cases:
        x0, x1 = a.coeffs
        assert pair.forward(a).values.tolist() == [(x0 + x1) % q, (x0 - x1) % q]
        if q % 2:
            assert ntt_multiply(a, b, pair) == oracle_multiply(a, b)
        else:
            with pytest.raises(NotInvertible):
                ntt_multiply(a, b, pair)
