#!/usr/bin/env python3
"""nttkit benchmark: closed-loop ring products, one process, one thread.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 25 --trace 0

A round is one product per workload entry, in a fixed order; rounds run
back to back for ``--seconds``.  Operands are made fresh for every round
and every product is checked against ``polymul.oracle_multiply``, both
outside the timed region.  Plans are built before timing starts.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown (see README.md).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
product matched the oracle, 1 when any product differed or raised, 2
when the arguments are wrong or nttkit cannot be loaded from ``src/``
beside this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("direct", "matvec", "bigmod", "embed")


def load_library():
    """Import nttkit from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nttkit

    origin = Path(nttkit.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"nttkit was imported from {origin}, not from {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: cannot load nttkit: {exc}", file=sys.stderr)
        return 2
    from harness import E2E_UNITS, bench, layer_units

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = layer_units() if args.trace else E2E_UNITS
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        lines, m, a, f = bench(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
