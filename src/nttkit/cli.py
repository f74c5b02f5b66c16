"""Verification / benchmark command line.

Subcommands: verify | count-ops | bench | mul | plan.  Machine output is
one JSON object per line with sorted keys; --pretty adds a human table.
Exit status: 0 all verdicts pass, 1 verification mismatch, 2 usage or
parameter error.

Polynomial file grammar (bit-exact round-trip):

    # comment lines and blank lines are ignored
    ring <form> n=<int> q=<int>
    <coefficients, ascending degree, whitespace/newline separated>

with <form> one of x^n-1, x^n+1, x^n-x^(n/2)+1, x^n-x-1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import __version__, modarith, planner, polymul, transforms
from .errors import IncompatibleRings, NttError, ParseError, UnknownPreset
from .rings import FORMS, GENERAL, Poly, RingSpec

FILE_FORMS = [f for f in FORMS if f != GENERAL]


# ---------------------------------------------------------------------------
# polynomial files


def parse_poly_file(text: str) -> Poly:
    ring = None
    coeffs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ring is None:
            toks = line.split()
            if len(toks) != 4 or toks[0] != "ring":
                raise ParseError("expected 'ring <form> n=<int> q=<int>'", lineno, 1)
            form = toks[1]
            if form not in FILE_FORMS:
                raise ParseError(f"unknown form {form!r}", lineno, line.find(form) + 1)
            fields = {}
            for t in toks[2:]:
                key, _, val = t.partition("=")
                if key not in ("n", "q") or not val.lstrip("-").isdigit():
                    raise ParseError(f"bad header field {t!r}", lineno, line.find(t) + 1)
                fields[key] = int(val)
            if set(fields) != {"n", "q"}:
                raise ParseError("header needs both n= and q=", lineno, 1)
            try:
                ring = RingSpec(form, fields["n"], fields["q"])
            except (NttError, ValueError) as e:
                raise ParseError(str(e), lineno, 1) from None
            continue
        col = 1
        for tok in line.split():
            col = line.find(tok, col - 1) + 1
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad coefficient {tok!r}", lineno, col) from None
            if not 0 <= v < ring.q:
                raise ParseError(f"coefficient {v} not in [0, q)", lineno, col)
            coeffs.append(v)
    if ring is None:
        raise ParseError("missing ring header", 1, 1)
    if len(coeffs) > ring.n:
        raise ParseError(f"{len(coeffs)} coefficients for degree {ring.n}", 1, 1)
    coeffs += [0] * (ring.n - len(coeffs))
    return Poly(coeffs, ring)


def format_poly_file(p: Poly) -> str:
    lines = [f"ring {p.ring.form} n={p.ring.n} q={p.ring.q}"]
    for i in range(0, p.ring.n, 16):
        lines.append(" ".join(map(str, p.array[i : i + 16])))
    return "\n".join(lines) + "\n"


def read_poly(path: str) -> Poly:
    with open(path) as f:
        return parse_poly_file(f.read())


# ---------------------------------------------------------------------------
# report plumbing


def emit(report: dict, pretty: bool):
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    if pretty:
        w = max(len(k) for k in report)
        for k in sorted(report):
            print(f"  {k:<{w}}  {report[k]}", file=sys.stderr)


def _resolve_plan(args):
    if args.preset:
        ring, plan = planner.preset(args.preset)
        return args.preset, ring, plan
    if not (args.form and args.n and args.q):
        raise UnknownPreset("need --preset or all of --form, -n, -q")
    ring = RingSpec(args.form, args.n, args.q)
    plan = planner.make_plan(
        ring,
        prefer=args.strategy,
        beta=args.beta,
        alpha=args.alpha,
        allow_bigmod=args.allow_bigmod,
    )
    return f"{args.form} n={args.n} q={args.q}", ring, plan


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("NTTKIT_THREADS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    name, ring, plan = _resolve_plan(args)

    def one_trial(i: int) -> bool:
        rng = random.Random((args.seed << 20) ^ i)
        a, b = planner.sample_operands(ring, plan, rng)
        got = planner.multiply(a, b, plan)
        want = polymul.oracle_multiply(a, b)
        return got == want

    t0 = time.perf_counter()
    workers = _thread_count()
    idx = range(args.trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(one_trial, idx))
    else:
        results = [one_trial(i) for i in idx]
    elapsed = time.perf_counter() - t0
    passed = all(results)
    emit(
        {
            "command": "verify",
            "target": name,
            "strategy": plan.describe(),
            "trials": args.trials,
            "seed": args.seed,
            "verdict": "pass" if passed else "fail",
            "failures": results.count(False),
            "wall_ms": round(elapsed * 1000, 3),
            "version": __version__,
        },
        args.pretty,
    )
    return 0 if passed else 1


def cmd_count_ops(args) -> int:
    from .errors import NoStrategy

    name, ring, plan = _resolve_plan(args)
    if plan.pair is None:
        raise NoStrategy("count-ops needs a plan with a direct transform stage")
    pair = plan.pair
    n, q = ring.n, ring.q
    rng = random.Random(args.seed)
    a = Poly.random(ring, rng)

    with modarith.counting() as cf:
        ah = pair.forward(a)
    with modarith.counting() as ci:
        pair.inverse(ah)
    logn = n.bit_length() - 1
    beta = pair.beta
    expect_fwd = n * (logn - beta) // 2
    expect_inv = expect_fwd + n
    report = {
        "command": "count-ops",
        "target": name,
        "n": n,
        "beta": beta,
        "forward_mults": cf.mults,
        "forward_expected": expect_fwd,
        "inverse_mults": ci.mults,
        "inverse_expected": expect_inv,
        "version": __version__,
    }
    ok = cf.mults == expect_fwd and ci.mults == expect_inv
    if ring.form == "x^n+1" and beta == 0:
        # separate pre/post-processing variants cost + n each
        psi = pair.fwd_tw.root
        omega = psi * psi % q
        cc = polymul.make_transform_pair(RingSpec("x^n-1", n, q), root=omega)
        psi_tw = modarith.build_twiddles(psi, 2 * n, q)
        psi_itw = modarith.build_twiddles(psi, 2 * n, q, inverse=True)
        with modarith.counting() as cs:
            sh = transforms.nwc_forward_separate(Poly(a.array, cc.ring), cc.fwd_tw, psi_tw, cc.fwd_spec)
        with modarith.counting() as cs2:
            transforms.nwc_inverse_separate(sh, cc.inv_tw, psi_itw, cc.inv_spec)
        report["separate_forward_mults"] = cs.mults
        report["separate_forward_expected"] = expect_fwd + n
        report["separate_inverse_mults"] = cs2.mults
        report["separate_inverse_expected"] = expect_fwd + 2 * n
        ok = ok and cs.mults == expect_fwd + n and cs2.mults == expect_fwd + 2 * n
    report["verdict"] = "pass" if ok else "fail"
    emit(report, args.pretty)
    return 0 if ok else 1


def _schoolbook_baseline(a: Poly, b: Poly) -> list:
    # timing reference in the same technology as the transform path
    # (the verification oracle may be vectorized; this one never is)
    n, q = a.ring.n, a.ring.q
    x, y = a.coeffs, b.coeffs
    neg = a.ring.form == "x^n+1"
    out = [0] * n
    for i in range(n):
        xi = x[i]
        if xi:
            for j in range(n):
                k = i + j
                if k < n:
                    out[k] = (out[k] + xi * y[j]) % q
                elif neg:
                    out[k - n] = (out[k - n] - xi * y[j]) % q
                else:
                    out[k - n] = (out[k - n] + xi * y[j]) % q
    return out


def _median_ms(fn, pairs) -> float:
    """Median wall time of ``fn(a, b)`` over ``pairs``, in ms."""
    times = []
    for a, b in pairs:
        t0 = time.perf_counter()
        fn(a, b)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1000, 4)


def cmd_bench(args) -> int:
    name, ring, plan = _resolve_plan(args)
    rng = random.Random(args.seed)
    pairs = [planner.sample_operands(ring, plan, rng) for _ in range(args.trials)]
    for a, b in pairs[:1]:  # builds the plan's tables outside the timed calls
        planner.multiply(a, b, plan)

    baseline = _schoolbook_baseline if ring.form in ("x^n-1", "x^n+1") else polymul.oracle_multiply
    fast = _median_ms(lambda a, b: planner.multiply(a, b, plan), pairs)
    slow = _median_ms(baseline, pairs)
    oracle = slow if baseline is polymul.oracle_multiply else _median_ms(polymul.oracle_multiply, pairs)
    emit(
        {
            "command": "bench",
            "target": name,
            "strategy": plan.describe(),
            "trials": args.trials,
            "ntt_median_ms": fast,
            "schoolbook_median_ms": slow,
            "oracle_median_ms": oracle,
            "version": __version__,
        },
        args.pretty,
    )
    return 0


def cmd_mul(args) -> int:
    a = read_poly(args.file_a)
    b = read_poly(args.file_b)
    if a.ring != b.ring:
        raise IncompatibleRings(f"{args.file_a} and {args.file_b} declare different rings")
    plan = planner.make_plan(
        a.ring,
        prefer=args.strategy,
        beta=args.beta,
        alpha=args.alpha,
        allow_bigmod=args.allow_bigmod,
    )
    c = planner.multiply(a, b, plan)
    with open(args.out, "w") as f:
        f.write(format_poly_file(c))
    emit(
        {
            "command": "mul",
            "ring": f"{a.ring.form} n={a.ring.n} q={a.ring.q}",
            "strategy": plan.describe(),
            "out": args.out,
            "version": __version__,
        },
        args.pretty,
    )
    return 0


def cmd_plan(args) -> int:
    name, ring, plan = _resolve_plan(args)
    cls = planner.classify(ring)
    report = {
        "command": "plan",
        "target": name,
        "class": cls.describe(),
        "strategy": plan.describe(),
        "checks": [f"{desc}: {'ok' if ok else 'FAIL'}" for desc, ok in plan.checks],
        "version": __version__,
    }
    if plan.replaced_by:  # the primes that run in place of a modulus >= 2^31
        report["basis"] = list(plan.replaced_by)
    emit(report, args.pretty)
    if args.trace:
        if ring.n > 16:
            print("trace: only available for n <= 16", file=sys.stderr)
            return 2
        if plan.pair is None:
            print("trace: plan has no direct transform stage", file=sys.stderr)
            return 2
        spec = plan.pair.fwd_spec
        print(f"# butterfly schedule, {spec.butterfly} {spec.in_order}->{spec.out_order}")
        cur = None
        for lvl, lo, hi, e in transforms.butterfly_schedule(plan.pair.fwd_sched):
            if lvl != cur:
                print(f"level {lvl}:")
                cur = lvl
            print(f"  ({lo:2d},{hi:2d}) twiddle exponent {e}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nttkit",
        description="verify, count and benchmark NTT multiplication strategies",
    )
    p.add_argument("--version", action="version", version=f"nttkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, trials_default=100):
        sp.add_argument("--preset", help="named parameter set")
        sp.add_argument("--form", choices=FILE_FORMS, help="ring modulus polynomial form")
        sp.add_argument("-n", type=int, help="ring degree")
        sp.add_argument("-q", type=int, help="coefficient modulus")
        sp.add_argument("--beta", type=int, default=None, help="levels to crop")
        sp.add_argument("--alpha", type=int, default=None, help="splitting rounds")
        sp.add_argument(
            "--strategy",
            default="auto",
            choices=[
                "auto", "full", "incomplete", "split-pt", "split-k", "hntt",
                "bigprime", "rns", "composite", "good", "pad-pow2", "schonhage",
                "trinomial",
            ],
        )
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--pretty", action="store_true", help="human table on stderr")
        sp.add_argument(
            "--allow-bigmod",
            action="store_true",
            help="permit large-modulus strategies when auto-planning",
        )

    sp = sub.add_parser("verify", help="random multiplications against the schoolbook oracle")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("count-ops", help="instrumented multiplication counts vs formulas")
    common(sp)
    sp.set_defaults(func=cmd_count_ops)

    sp = sub.add_parser("bench", help="median wall time, plan vs schoolbook")
    common(sp, trials_default=10)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("mul", help="multiply two polynomial files")
    common(sp)
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("out")
    sp.set_defaults(func=cmd_mul)

    sp = sub.add_parser("plan", help="classification, strategy and checked congruences")
    common(sp)
    sp.add_argument("--trace", action="store_true", help="butterfly schedule (n <= 16)")
    sp.set_defaults(func=cmd_plan)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NttError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
