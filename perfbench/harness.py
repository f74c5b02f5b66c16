"""Measurement of one workload: set-up, timed rounds, checks and tracing.

``bench`` builds the plans and plays a warm-up round, then either the
timed end-to-end phase (with set-up samples taken between rounds) or,
when tracing, an untraced and a traced phase plus one op-counting round.
It expects nttkit to be importable (``run.load_library`` arranges that).
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import traceback
from time import perf_counter

import numpy
from nttkit import modarith

from layers import Tracer
from workloads import build, digest, round_inputs

SETUP_MIN_SAMPLES = 15
SETUP_SHARE = 0.04
SETUP_BATCH_S = 0.005
DIGEST_ROUNDS = 10

# the speed probe's duration at the reference speed
REFERENCE_S = 0.00036

E2E_UNITS = {
    "products_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "oracle_ratio": "ratio",
    "setup_s": "s",
}

# layer keys whose self time (and, for some, call count) is reported per round
ROUND_MS = (
    "transforms.forward", "transforms.inverse",
    "polymul.pointwise", "polymul.tables", "polymul.schoolbook", "polymul.reduce",
    "polymul.pipeline",
    "splitting.self",
    "trinomial.forward", "trinomial.inverse", "trinomial.self",
    "bigmod.lift", "bigmod.recover", "bigmod.root_search", "bigmod.self",
    "embed.pad", "embed.good", "embed.block", "embed.chain",
    "planner.dispatch", "planner.matvec",
    "modarith.twiddle", "modarith.root",
)
ROUND_CALLS = ("transforms.forward", "transforms.inverse", "polymul.pointwise",
               "polymul.tables", "embed.block")
# layer keys reported for one traced build of every plan of the workload
SETUP_MS = ("polymul.tables", "modarith.twiddle", "modarith.root", "transforms.forward")
OP_COUNTS = ("mults", "adds", "subs")


def layer_units() -> dict:
    units = {f"{k}_ms": "ms" for k in ROUND_MS}
    units.update({f"{k}_calls": "count" for k in ROUND_CALLS})
    units["planner.plan_ms"] = "ms"
    units.update({f"setup.{k}_ms": "ms" for k in SETUP_MS})
    units.update({f"modarith.{k}": "count" for k in OP_COUNTS})
    units["trace.unattributed_ms"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# rounds


class Phase:
    """Timings and verdicts of the rounds played in one phase.

    Round and call times are scaled to the reference speed (see
    ``speed_scale``); ``raw_walls`` keeps the unscaled round times.
    """

    def __init__(self, n_entries: int):
        self.walls = []  # scaled seconds per round
        self.raw_walls = []  # wall seconds per round
        self.route = [[] for _ in range(n_entries)]  # scaled seconds per call, per entry
        self.raw_route = [[] for _ in range(n_entries)]  # wall seconds per call
        self.oracle = [[] for _ in range(n_entries)]  # scaled oracle seconds per call
        self.attempted = 0
        self.failed = 0
        self.raised = set()  # entries whose exception was already printed


_PROBE_DATA = list(range(4096))


def reference_seconds() -> float:
    """Wall seconds of a fixed piece of pure-Python list work, the speed probe."""
    t0 = perf_counter()
    q = 12289
    out = [x * 1479 % q for x in _PROBE_DATA]
    out = [x + y for x, y in zip(out, _PROBE_DATA)]
    return perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that maps a wall time to the reference speed, from the probes
    taken just before and just after it."""
    return REFERENCE_S / ((before + after) / 2)


def play(planned, inputs, tracer=None):
    """Run one round; returns (outputs, wall seconds per entry, scale per entry).

    The speed probe runs before the first call and after each call,
    outside the timed calls.
    """
    outs, times, scales = [], [], []
    probe = reference_seconds()
    for p, x in zip(planned, inputs):
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = p.entry.run(p.plan, x)
        except Exception as exc:  # a product that raises is a failed product
            out = exc
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        outs.append(out)
        after = reference_seconds()
        scales.append(speed_scale(probe, after))
        if tracer is not None:
            tracer.commit(scales[-1])
        probe = after
    return outs, times, scales


def check(planned, inputs, outs, phase: Phase):
    """Compare every output with the oracle and tally the verdicts.

    Oracle times are scaled like call times, with probes around each
    entry's check.
    """
    probe = reference_seconds()
    for i, (p, x, out) in enumerate(zip(planned, inputs, outs)):
        phase.attempted += p.entry.products
        if isinstance(out, Exception) and p.entry.name not in phase.raised:
            phase.raised.add(p.entry.name)
            print(f"perfbench: {p.entry.name} raised:", file=sys.stderr)
            traceback.print_exception(out, file=sys.stderr)
        failed, oracle_s = p.entry.check(p.ring, p.plan, x, out)
        phase.failed += failed
        after = reference_seconds()
        phase.oracle[i].append(oracle_s * speed_scale(probe, after))
        probe = after


def one_round(planned, workload, seed, tag, phase: Phase, tracer=None):
    inputs = round_inputs(planned, workload, seed, tag)
    outs, times, scales = play(planned, inputs, tracer)
    scaled = [t * s for t, s in zip(times, scales)]
    phase.walls.append(sum(scaled))
    phase.raw_walls.append(sum(times))
    for i, (t, s) in enumerate(zip(times, scaled)):
        phase.route[i].append(s)
        phase.raw_route[i].append(t)
    check(planned, inputs, outs, phase)


class SetupTimer:
    """Cold builds of every plan of a workload, timed between rounds.

    Samples are spread over the run so that they see the same machine
    states as the rounds.  Builds are timed in batches of at least
    SETUP_BATCH_S so that the clock and the speed probe stay small beside
    what they measure; a sample is the scaled seconds of one build.
    """

    def __init__(self, workload):
        self.workload = workload
        build(workload)  # first-call effects and the preset registry load
        t0 = perf_counter()
        self.planned = build(workload)
        self.batch = max(1, round(SETUP_BATCH_S / (perf_counter() - t0)))
        self.samples = []
        self.raw = 0.0  # wall seconds spent in timed builds

    def sample(self):
        probe = reference_seconds()
        t0 = perf_counter()
        for _ in range(self.batch):
            build(self.workload)
        dt = perf_counter() - t0
        self.samples.append(dt * speed_scale(probe, reference_seconds()) / self.batch)
        self.raw += dt

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def run_phase(planned, workload, seed, seconds, first_round, tracer=None,
              setup: SetupTimer | None = None) -> Phase:
    """Closed loop: play rounds back to back until ``seconds`` have passed.

    With ``setup``, a set-up sample is taken after a round whenever set-up
    has had less than SETUP_SHARE of the time so far.
    """
    phase = Phase(len(planned))
    start = perf_counter()
    r = first_round
    while not phase.walls or perf_counter() < start + seconds:
        one_round(planned, workload, seed, r, phase, tracer)
        r += 1
        if setup is not None and setup.raw < SETUP_SHARE * (perf_counter() - start):
            setup.sample()
    return phase


def count_ops(planned, workload, seed, phase: Phase):
    """modarith op counts of one round under modarith.counting(), untimed."""
    inputs = round_inputs(planned, workload, seed, "count")
    with modarith.counting() as ctr:
        outs, _, _ = play(planned, inputs)
    check(planned, inputs, outs, phase)
    return {f"modarith.{k}": getattr(ctr, k) for k in OP_COUNTS}


# ---------------------------------------------------------------------------
# metrics


def tail(walls):
    """(value, percentile): the highest percentile, at most p90, with at
    least ten rounds above it (nearest rank); the slowest round when a
    phase holds ten rounds or fewer."""
    xs = sorted(walls)
    n = len(xs)
    idx = min(math.ceil(0.9 * n) - 1, n - 11) if n > 10 else n - 1
    return xs[idx], 100.0 * (idx + 1) / n


def end_to_end(planned, phase: Phase, setup_s):
    total = sum(phase.walls)
    per_round = sum(p.entry.products for p in planned)
    ratios = [statistics.median(r) / statistics.median(o)
              for r, o in zip(phase.route, phase.oracle)]
    tail_s, _ = tail(phase.walls)
    return {
        "products_per_s": per_round * len(phase.walls) / total,
        "round_ms_p50": statistics.median(phase.walls) * 1e3,
        "round_ms_tail": tail_s * 1e3,
        "oracle_ratio": math.exp(statistics.fmean(math.log(x) for x in ratios)),
        "setup_s": setup_s,
    }


def entry_table(planned, phase: Phase) -> list:
    """Per entry: median ms of one call, scaled and wall, and of its oracle, scaled."""
    lines = [f"{'entry':26s} {'products':>8s} {'mul_ms':>10s} {'wall_ms':>10s} "
             f"{'oracle_ms':>10s} {'ratio':>8s}"]
    for p, r, w, o in zip(planned, phase.route, phase.raw_route, phase.oracle):
        mul, wall, orc = (statistics.median(v) * 1e3 for v in (r, w, o))
        lines.append(f"{p.entry.name:26s} {p.entry.products:8d} {mul:10.3f} {wall:10.3f} "
                     f"{orc:10.3f} {mul / orc:8.2f}")
    return lines


def machine() -> str:
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


# ---------------------------------------------------------------------------
# one workload


def bench(workload, seed, seconds, trace):
    """Run one workload; returns (report lines, metrics, attempted, failed)."""
    setup = SetupTimer(workload)
    planned = setup.planned
    sha = digest(planned, [round_inputs(planned, workload, seed, r) for r in range(DIGEST_ROUNDS)])
    warm = Phase(len(planned))
    one_round(planned, workload, seed, "warmup", warm)
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}",
             f"machine {machine()}",
             f"inputs_sha256 {sha}  (operands of rounds 0-{DIGEST_ROUNDS - 1})"]
    if trace:
        metrics, phases, extra = trace_breakdown(planned, workload, seed, seconds)
        lines += extra
    else:
        phase = run_phase(planned, workload, seed, seconds, 0, setup=setup)
        metrics = end_to_end(planned, phase, setup.median())
        phases = [phase]
        _, pct = tail(phase.walls)
        wall_p50 = statistics.median(phase.raw_walls) * 1e3
        notes = {
            "round_ms_p50": f"wall p50 {wall_p50:.3f} ms before speed scaling",
            "round_ms_tail": f"p{pct:.1f} of {len(phase.walls)} rounds",
            "setup_s": f"median of {len(setup.samples)} samples of {setup.batch} cold builds",
            "oracle_ratio": "geometric mean over entries of median mul / median oracle",
        }
        lines += entry_table(planned, phase)
        for k, v in metrics.items():
            lines.append(f"{k:16s} {v:14.6f} {E2E_UNITS[k]:6s} {notes.get(k, '')}")
    attempted = warm.attempted + sum(ph.attempted for ph in phases)
    failed = warm.failed + sum(ph.failed for ph in phases)
    lines.append(f"{'fail_ratio':16s} {failed / attempted:14.6f} {'ratio':6s} "
                 f"{failed} of {attempted} products failed or raised")
    return lines, metrics, attempted, failed


def trace_breakdown(planned, workload, seed, seconds):
    """Untraced then traced halves of the run, one traced set-up, one counting round."""
    untraced = run_phase(planned, workload, seed, seconds / 2, 0)
    with Tracer() as tracer:
        missing = tracer.install()
        probe = reference_seconds()
        tracer.active = True
        build(workload)
        tracer.active = False
        tracer.commit(speed_scale(probe, reference_seconds()))
        setup_self = dict(tracer.self_s)
        tracer.reset()
        traced = run_phase(planned, workload, seed, seconds / 2, len(untraced.walls), tracer)
    counted = Phase(len(planned))
    m = {}
    rounds = len(traced.walls)
    for k in ROUND_MS:
        m[f"{k}_ms"] = tracer.self_s[k] * 1e3 / rounds
    for k in ROUND_CALLS:
        m[f"{k}_calls"] = tracer.calls[k] / rounds
    m["planner.plan_ms"] = setup_self.get("planner.plan", 0.0) * 1e3
    for k in SETUP_MS:
        m[f"setup.{k}_ms"] = setup_self.get(k, 0.0) * 1e3
    m.update(count_ops(planned, workload, seed, counted))
    m["trace.unattributed_ms"] = (sum(traced.walls) - tracer.covered) * 1e3 / rounds
    m["trace.overhead"] = statistics.median(traced.walls) / statistics.median(untraced.walls)
    units = layer_units()
    lines = [f"traced {rounds} rounds, untraced {len(untraced.walls)} rounds; "
             "_ms is self time per round, planner.plan_ms and setup.* per set-up"]
    if missing:
        lines.append(f"not found, not traced: {', '.join(missing)}")
    lines += [f"{k:32s} {v:14.6f} {units[k]}" for k, v in m.items()]
    return m, [untraced, traced, counted], lines
