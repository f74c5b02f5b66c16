"""Golden outputs of every preset: products, op counts and CLI lines.

For each registry preset the fixture ``golden/presets.json`` holds the
``nttkit plan`` and ``nttkit count-ops`` output lines with their exit
codes, the ``verify --trials 2 --seed 5`` line without ``wall_ms``, and
the sha256 and ``OpCounter`` tallies of eight seeded products: a = 0, 1
and all q - 1 against one b from the preset's profile, then five
operand pairs drawn from the profile.  A refactor that keeps outputs
bit-identical keeps this test passing.

Regenerate the fixture (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from nttkit import cli, modarith, planner
from nttkit.rings import Poly

FIXTURE = Path(__file__).resolve().parent / "golden" / "presets.json"


def _cli_line(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"exit": code, "line": out.getvalue().rstrip("\n")}


def _verify_line(name: str) -> dict:
    got = _cli_line("verify", "--preset", name, "--trials", "2", "--seed", "5")
    report = json.loads(got["line"])
    del report["wall_ms"]
    return {"exit": got["exit"], "line": json.dumps(report, sort_keys=True, separators=(",", ":"))}


def _products(name: str) -> list:
    ring, plan = planner.preset(name)
    rng = random.Random(f"golden:{name}")
    _, b0 = planner.sample_operands(ring, plan, rng)
    edges = (Poly.zero(ring), Poly.one(ring), Poly([ring.q - 1] * ring.n, ring))
    pairs = [(a, b0) for a in edges]
    pairs +=[planner.sample_operands(ring, plan, rng) for _ in range(5)]
    out = []
    for a, b in pairs:
        with modarith.counting() as ctr:
            c = planner.multiply(a, b, plan)
        out.append({
            "sha256": hashlib.sha256(",".join(map(str, c.coeffs)).encode()).hexdigest(),
            "ops": [ctr.mults, ctr.adds, ctr.subs, ctr.forward_transforms, ctr.inverse_transforms],
        })
    return out


def golden(name: str) -> dict:
    return {
        "plan": _cli_line("plan", "--preset", name),
        "count_ops": _cli_line("count-ops", "--preset", name),
        "verify": _verify_line(name),
        "products": _products(name),
    }


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_preset():
    assert sorted(_fixture()) == planner.preset_names()


@pytest.mark.parametrize("name", planner.preset_names())
def test_preset_outputs_are_unchanged(name):
    want = _fixture()[name]
    got = golden(name)
    for key in ("plan", "count_ops", "verify"):
        assert got[key] == want[key], (name, key)
    for i, (g, w) in enumerate(zip(got["products"], want["products"])):
        assert g == w, (name, "product", i)
    assert len(got["products"]) == len(want["products"]) == 8


if __name__ == "__main__":
    data = {name: golden(name) for name in planner.preset_names()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(data)} presets)", file=sys.stderr)
