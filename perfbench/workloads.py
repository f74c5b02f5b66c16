"""The benchmark's workloads: their entries, operands and oracle checks.

An entry is one planned product (``Product``) or one matrix-vector
product (``MatVec``).  Operands come from the benchmark's own random
generator with each entry's profile written here, so a change to the
library cannot change what it is given.  The library is reached only
through its public API: ``planner.preset``, ``planner.make_plan``,
``planner.multiply``, ``planner.matvec_multiply``,
``planner.sample_ntt_domain_uniform`` and ``polymul.oracle_multiply``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, ClassVar

from nttkit import planner, polymul
from nttkit.rings import Poly, RingSpec


def uniform(ring: RingSpec, rng: random.Random) -> Poly:
    return Poly([rng.randrange(ring.q) for _ in range(ring.n)], ring)


def small(ring: RingSpec, rng: random.Random, bound: int) -> Poly:
    """Centered coefficients in [-bound, bound], stored canonically."""
    q = ring.q
    return Poly([rng.randint(-bound, bound) % q for _ in range(ring.n)], ring)


def _oracle(a: Poly, b: Poly):
    """(oracle product, seconds it took)."""
    t0 = perf_counter()
    c = polymul.oracle_multiply(a, b)
    return c, perf_counter() - t0


@dataclass(frozen=True)
class Product:
    """One ring product a*b: a uniform, b uniform or small with ``b_bound``."""

    name: str
    build: Callable  # () -> (RingSpec, NttPlan), through the public planner
    b_bound: int | None = None
    products: ClassVar[int] = 1

    def inputs(self, ring, plan, rng):
        a = uniform(ring, rng)
        b = uniform(ring, rng) if self.b_bound is None else small(ring, rng, self.b_bound)
        return a, b

    def run(self, plan, x):
        return planner.multiply(x[0], x[1], plan)

    def check(self, ring, plan, x, out):
        """(failed products, oracle seconds); out must equal the oracle exactly.

        ``out`` may be anything, an exception included; only an exact
        match passes.
        """
        want, dt = _oracle(x[0], x[1])
        ok = isinstance(out, Poly) and out.ring == ring and out.coeffs == want.coeffs
        return (0 if ok else 1), dt

    def words(self, x):
        return [x[0].coeffs, x[1].coeffs]


@dataclass(frozen=True)
class MatVec:
    """A rows x cols matvec: A-hat sampled in the transform domain, s small.

    It counts as rows*cols products.  Each output row is checked against
    the oracle sum over j of A_ij * s_j, with A_ij the inverse transform
    of A-hat_ij under the plan's own transform pair.
    """

    name: str
    build: Callable
    rows: int
    cols: int
    s_bound: int

    @property
    def products(self) -> int:
        return self.rows * self.cols

    def inputs(self, ring, plan, rng):
        ahat = [[planner.sample_ntt_domain_uniform(ring, plan, rng.getrandbits(64))
                 for _ in range(self.cols)] for _ in range(self.rows)]
        s = [small(ring, rng, self.s_bound) for _ in range(self.cols)]
        return ahat, s

    def run(self, plan, x):
        return planner.matvec_multiply(x[0], x[1], plan)

    def check(self, ring, plan, x, out):
        ahat, s = x
        if not isinstance(out, list) or len(out) != self.rows:
            out = [None] * self.rows
        failed, oracle_s = 0, 0.0
        for row, got in zip(ahat, out):
            want = None
            for ahat_ij, s_j in zip(row, s):
                term, dt = _oracle(plan.pair.inverse(ahat_ij), s_j)
                oracle_s += dt
                want = term if want is None else want.add(term)
            ok = isinstance(got, Poly) and got.ring == ring and got.coeffs == want.coeffs
            failed += 0 if ok else self.cols
        return failed, oracle_s

    def words(self, x):
        return [v.values for row in x[0] for v in row] + [p.coeffs for p in x[1]]


def _preset(name):
    return lambda: planner.preset(name)


KYBER_RING = RingSpec("x^n+1", 256, 3329)
NTTRU_RING = RingSpec("x^n-x^(n/2)+1", 768, 7681)

WORKLOADS = {
    # every direct transform route over friendly rings, one product each
    "direct": (
        Product("kyber", _preset("kyber")),
        Product("dilithium", _preset("dilithium")),
        Product("falcon-512", _preset("falcon-512")),
        Product("falcon-1024", _preset("falcon-1024")),
        Product("kyber-hntt-a1b1", lambda: (
            KYBER_RING, planner.make_plan(KYBER_RING, "hntt", alpha=1, beta=1))),
        Product("nttru-768", lambda: (NTTRU_RING, planner.make_plan(NTTRU_RING, "trinomial"))),
    ),
    # transform reuse: k forward and k inverse transforms per k*l products
    "matvec": (
        MatVec("kyber-768-3x3", _preset("kyber"), 3, 3, s_bound=2),
        MatVec("dilithium-6x5", _preset("dilithium"), 6, 5, s_bound=4),
    ),
    # unfriendly q = 2^13: lift, CRT and recovery
    "bigmod": (
        Product("saber-m4", _preset("saber-m4"), b_bound=4),
        Product("lightsaber-m4", _preset("lightsaber-m4"), b_bound=5),
        Product("saber-avx2", _preset("saber-avx2"), b_bound=4),
        Product("saber-m3", _preset("saber-m3"), b_bound=4),
    ),
    # non-power-of-two rings: padding, Good, Schoenhage/Nussbaumer, reduce mod phi
    "embed": (
        Product("ntru-509", _preset("ntru-509")),
        Product("ntru-701", _preset("ntru-701"), b_bound=1),
        Product("ntruprime-761-good", _preset("ntruprime-761-good"), b_bound=1),
        Product("ntruprime-761-schonhage", _preset("ntruprime-761-schonhage"), b_bound=1),
    ),
}


@dataclass(frozen=True)
class Planned:
    """An entry with the ring and plan it runs on."""

    entry: object
    ring: RingSpec
    plan: object


def build(workload: str) -> list:
    """Build every plan the workload uses (the timed set-up)."""
    return [Planned(e, *e.build()) for e in WORKLOADS[workload]]


def round_inputs(planned, workload: str, seed: int, tag) -> list:
    """Operands of one round: a pure function of (workload, seed, tag)."""
    rng = random.Random(f"nttkit-perfbench:{workload}:{seed}:{tag}")
    return [p.entry.inputs(p.ring, p.plan, rng) for p in planned]


def digest(planned, inputs_per_round) -> str:
    """sha256 over the coefficient words of the given rounds' operands."""
    h = hashlib.sha256()
    for inputs in inputs_per_round:
        for p, x in zip(planned, inputs):
            for words in p.entry.words(x):
                h.update(",".join(map(str, words)).encode())
                h.update(b";")
    return h.hexdigest()
