"""Library preconditions raise typed NttErrors, also under ``python -O``.

``-O`` strips ``assert`` statements, so each check below runs in an
optimized subprocess and must still raise its own NttError subclass.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import numpy as np

from nttkit import bigmod, embed, modarith, planner, polymul, splitting, transforms, trinomial
from nttkit.errors import NttError
from nttkit.rings import TRINOMIAL, XN_MINUS_1, XN_PLUS_1, Poly, RingSpec

print("optimize", sys.flags.optimize)


def expect(fn):
    try:
        fn()
    except NttError as e:
        print(type(e).__name__)
    else:
        print("no-error")


ring = RingSpec(XN_MINUS_1, 8, 17)
a = Poly([8] * 8, ring)
# the lifted operands' products must fit in (N-1)/2
expect(lambda: bigmod.bigprime_multiply(a, a, 257, 0, (bigmod.FULL_SMALL, 2)))
# the CRT lift of the per-prime candidates must be a principal root
candidates = modarith.root_candidates_prime
modarith.root_candidates_prime = lambda k, p: iter([1])
expect(lambda: bigmod.find_principal_root_composite(4, bigmod.RnsBasis((13, 17))))
modarith.root_candidates_prime = candidates
# the trinomial leaves must cover the units mod n; n = 18 is not 3*2^e,
# so the ring is built without RingSpec's own check
ring18 = object.__new__(RingSpec)
for k, v in dict(form=TRINOMIAL, n=18, q=19, phi=None).items():
    object.__setattr__(ring18, k, v)
expect(lambda: trinomial.make_plan(ring18))
# the split and block one-shots run their executors' checks: 2^alpha must
# divide n, the block shape must multiply, and both operands share a ring
nwc = Poly.zero(RingSpec(XN_PLUS_1, 8, 17))
expect(lambda: splitting.ptntt_multiply(nwc, nwc, 4))
z18 = Poly.zero(RingSpec(XN_MINUS_1, 18, 17))
expect(lambda: embed.schonhage_multiply(z18, z18, 3, 3))
expect(lambda: splitting.kntt_multiply(nwc, Poly.zero(RingSpec(XN_PLUS_1, 8, 97)), 1))
expect(lambda: embed.schonhage_multiply(a, Poly.zero(RingSpec(XN_MINUS_1, 8, 97)), 2, 2))
# a given chain is checked on a power-of-two ring too: Schonhage(1, 3)
# has length 6, and the pad 8
expect(lambda: planner.make_plan(ring, chain=(embed.ZeroPad(8), embed.Schonhage(1, 3))))
# a route refuses a parameter it does not take
expect(lambda: planner.make_plan(RingSpec(XN_PLUS_1, 8, 17), "full", beta=1))
# a bare working buffer must have the modulus's dtype
pair = polymul.make_transform_pair(RingSpec(XN_PLUS_1, 8, 17), 0)
expect(lambda: transforms.ntt_forward(np.zeros(8), pair.fwd_tw, pair.fwd_spec))
expect(lambda: transforms.ntt_inverse(np.zeros(8, dtype=np.int32), pair.inv_tw, pair.inv_spec))
"""


def test_checks_raise_typed_errors_under_python_O():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        "optimize",
        "1",
        "BoundTooSmall",
        "InvalidRoot",
        "ParameterCondition",
        "BadAlpha",
        "ShapeCondition",
        "RingMismatch",
        "RingMismatch",
        "ChainMismatch",
        "ParameterCondition",
        "SpecViolation",
        "SpecViolation",
    ]


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so no library check may be one
    found = []
    for path in sorted((SRC / "nttkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _negates_into_out(node) -> bool:
    """A call of numpy's ``negative`` that writes into an array: a second
    argument or an ``out`` keyword."""
    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    return name == "negative" and (len(node.args) > 1 or any(k.arg == "out" for k in node.keywords))


def test_library_negates_into_no_out_array():
    # numpy 2.4.6 computes np.negative(a, out=a) wrongly on a strided
    # int64 view (``F[::8]`` of an arange column leaves -2 in row 8, not
    # -9), so no library code negates into an ``out`` array; it
    # multiplies by -1 instead
    found = []
    for path in sorted((SRC / "nttkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _negates_into_out(node)]
    assert found == []


def test_negation_scan_finds_the_miscomputed_call():
    # the scan above flags every spelling of the call, and nothing else
    flagged = [_negates_into_out(ast.parse(src).body[0].value) for src in (
        "np.negative(F[::8], out=F[::8])", "numpy.negative(a, a)", "negative(a, out=b)",
        "np.negative(a)", "np.multiply(a, -1, out=a)")]
    assert flagged == [True, True, True, False, False]
