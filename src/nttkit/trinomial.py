"""Transform over Z_q[x]/(x^n - x^(n/2) + 1) with n = 3*2^e.

The first level splits the trinomial ring into x^(n/2) - z1 times
x^(n/2) - z2 with z1 + z2 = 1 and z1*z2 = 1 (one multiplication and one
extra addition per pair); the remaining e-1 levels are ordinary radix-2
butterflies, stopping at degree-2 leaves in x^3 - psi^j with j running
over the invertible residues mod n.

After the split, each half x^(n/2) - psi^t (t = 1 resp. 5, in units of
n/6) is a cyclic transform of n/6 length-3 chunks twisted by psi^t: a
block twiddle of the cyclic schedule with exponent e becomes
psi^(t*half + 6e), and the leaves x^3 - psi^(t + 6*brv(p)).  Both halves
run as one forward and one inverse ``transforms.Schedule``; the split
level stays unreduced where int64 stages take it (``lazy_split``), and
the leaves are one ``polymul.leaf_rows`` pass.  A plan runs
``TrinomialExecutor``, a ``bigmod.LiftedExecutor`` over q whose one
table is the ``TrinomialPlan``, on bare buffers; ``trinomial_forward``
and ``trinomial_inverse`` tag them at the public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from . import bigmod, modarith, polymul, transforms
from .errors import ParameterCondition, PlanMismatch
from .modarith import find_root, is_prime, mod_inv
from .rings import TRINOMIAL, Poly, RingSpec
from .transforms import CYCLIC_BLOCK_PAIR


@dataclass(frozen=True)
class TrinomialPlan:
    """Roots, constants, leaf order and the radix-2 schedules for one (n, q).

    Built by make_plan and never mutated.
    """

    ring: RingSpec
    psi: int
    zeta1: int
    zeta2: int
    leaf_exponents: tuple  # exponent j of x^3 - psi^j per in-place leaf slot
    leaf_constants: tuple = field(compare=False, repr=False)  # psi^j per leaf slot
    forward: transforms.Schedule = field(compare=False, repr=False)
    inverse: transforms.Schedule = field(compare=False, repr=False)

    @cached_property
    def leaf_vector(self) -> np.ndarray:
        """The leaf constants as a read-only buffer mod q."""
        return transforms.read_only(transforms.buffer(self.leaf_constants, self.q))

    @cached_property
    def lazy_split(self) -> bool:
        """Whether ``_forward_rows`` skips the split level's reductions.
        Unreduced, t = z1 h < q^2 and l + t, h + l - t are at most q (q-1)
        in magnitude; the first int64 stage sums w = 2^k of them times
        canonical matrix entries, so below w q (q-1)^2, then takes % q.
        Lazy where that is below 2^63; not before float stages or none."""
        stages = self.forward.stages
        return (self.forward.stage_class[0] == transforms.INT64 and bool(stages)
                and stages[0].matrices.shape[-1] * self.q * (self.q - 1) ** 2 < 1 << 63)

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def q(self) -> int:
        return self.ring.q


@dataclass(frozen=True)
class TrinomialDomainPoly:
    """Degree-2 leaf images, kept separate from the radix-2 domain type:
    rows of n canonical residues, checked and frozen on construction as
    ``NttDomainPoly`` checks and freezes them."""

    values: np.ndarray
    plan: TrinomialPlan

    def __post_init__(self):
        object.__setattr__(self, "values", transforms.frozen_rows(self.values, self.plan.n, self.plan.q))

    def __eq__(self, other) -> bool:  # the generated one would compare arrays elementwise
        return (isinstance(other, TrinomialDomainPoly) and self.plan == other.plan
                and np.array_equal(self.values, other.values))


def check_ring(ring: RingSpec) -> None:
    """The preconditions of make_plan, checked without building anything."""
    n, q = ring.n, ring.q
    if ring.form != TRINOMIAL:
        raise ParameterCondition("plan needs a trinomial ring")
    if not is_prime(q):
        raise ParameterCondition(f"q={q} must be prime")
    if (q - 1) % n != 0:
        raise ParameterCondition(f"q={q} fails q = 1 (mod n) for n={n}")


_TWISTS = (1, 5)  # psi^(t*n/6) = zeta1, zeta2


def _schedule(spec, tw, m: int) -> transforms.Schedule:
    """Both split halves' twisted cyclic levels of m chunks as one schedule."""
    levels = tuple((2 * nblocks, half, tuple(t * half + 6 * e for t in _TWISTS for e in exps))
                   for nblocks, half, exps in transforms.level_geometry(spec, m))
    return transforms.Schedule(spec, tw, 6 * m, 3, levels)


def make_plan(ring: RingSpec) -> TrinomialPlan:
    check_ring(ring)
    n, q = ring.n, ring.q
    psi = find_root(n, q)
    zeta1 = pow(psi, n // 6, q)
    zeta2 = pow(zeta1, 5, q)
    if (zeta1 + zeta2) % q != 1 or zeta1 * zeta2 % q != 1:
        raise ParameterCondition("zeta constants fail z1+z2 = z1*z2 = 1")
    m = n // 6  # length-3 chunks per split half
    exps = tuple(t + 6 * e for t in _TWISTS for e in modarith.bitrev_permutation(m))
    if sorted(exps) != [e for e in range(n) if gcd(e, n) == 1]:
        raise ParameterCondition(f"leaf exponents {exps} do not cover the units mod n={n}")
    tw = modarith.build_twiddles(psi, n, q)
    consts = tuple(tw.power_of_base(e) for e in exps)
    return TrinomialPlan(ring, psi, zeta1, zeta2, exps, consts,
                         _schedule(CYCLIC_BLOCK_PAIR[0], tw, m),
                         _schedule(CYCLIC_BLOCK_PAIR[1], modarith.build_twiddles(psi, n, q, inverse=True), m))


def _forward_rows(vals, plan: TrinomialPlan) -> np.ndarray:
    """The array core of ``trinomial_forward``: the split level (reduced
    unless ``TrinomialPlan.lazy_split``) and the radix-2 levels on the rows
    of canonical ``vals``, in place and counted, unchecked."""
    q, half, pairs = plan.q, plan.n // 2, vals.size // 2
    # split level: 1 mult, 2 adds, 1 sub per pair
    lo, hi = vals[..., :half], vals[..., half:]
    t = hi * plan.zeta1
    if not plan.lazy_split:
        t %= q
    hi += lo
    hi -= t
    lo += t
    if not plan.lazy_split:
        vals %= q
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += pairs
        ctr.adds += 2 * pairs
        ctr.subs += pairs
    return transforms.forward_rows(vals, plan.forward)


def _inverse_rows(vals, plan: TrinomialPlan) -> np.ndarray:
    """The array core of ``trinomial_inverse``: the radix-2 levels with
    their scaling, then the unsplit (see ``_forward_rows``)."""
    q, half, pairs = plan.q, plan.n // 2, vals.size // 2
    transforms.inverse_rows(vals, plan.inverse)
    # undo the split level exactly: invert [[1, z1], [1, z2]]
    z1, z2 = plan.zeta1, plan.zeta2
    det_inv = mod_inv((z2 - z1) % q, q)
    l, r = vals[..., :half].copy(), vals[..., half:]
    x = z2 * l - z1 * r
    x %= q
    x *= det_inv
    vals[..., :half] = x
    r -= l
    r %= q
    r *= det_inv
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += 4 * pairs
        ctr.adds += pairs
        ctr.subs += pairs
    vals %= q
    return vals


def trinomial_forward(a, plan: TrinomialPlan, ring=None) -> TrinomialDomainPoly:
    """Forward transform of a Poly, or, with ``ring``, of a length-n array
    or list of canonical residues over that ring (checked as ``Poly``
    checks them), or of a (batch, n) array of them, into a fresh buffer;
    every row runs at once (``_forward_rows``)."""
    if ring is None:
        ring, a = a.ring, a.array
    else:
        a = transforms.checked_rows(a, ring.n, ring.q)
    if ring != plan.ring:
        raise PlanMismatch("polynomial ring does not match the plan")
    return TrinomialDomainPoly(_forward_rows(transforms.buffer(a, plan.q), plan), plan)


def trinomial_inverse(ahat: TrinomialDomainPoly, plan: TrinomialPlan, as_buffer=False):
    """Inverse transform back to a Poly, or with ``as_buffer`` to its
    buffer of canonical residues; ``ahat.values`` is never mutated.  A
    batch of rows runs at once and needs ``as_buffer``."""
    if ahat.plan is not plan and ahat.plan != plan:
        raise PlanMismatch("domain values were produced under a different plan")
    vals = _inverse_rows(transforms.buffer(ahat.values, plan.q), plan)
    return vals if as_buffer else Poly(vals, plan.ring)


def trinomial_pointwise(u, v, psi_j: int, q: int) -> list:
    """(u*v) mod (x^3 - psi_j) for length-3 leaves."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.mults += 11
        ctr.adds += 5
    c0 = (u0 * v0 + psi_j * (u1 * v2 + u2 * v1)) % q
    c1 = (u0 * v1 + u1 * v0 + psi_j * (u2 * v2)) % q
    c2 = (u0 * v2 + u1 * v1 + u2 * v0) % q
    return [c0, c1, c2]


def _product(x, y, plan: TrinomialPlan) -> np.ndarray:
    """x*y for two arrays of canonical coefficients, unchecked, on bare
    buffers: both forward as one batch, the degree-2 leaves, the inverse."""
    X = _forward_rows(transforms.buffer((x, y), plan.q), plan)
    vals = polymul.leaf_rows(X[0], X[1], 3, plan.leaf_vector, plan.q)
    ctr = modarith.active_counter()
    if ctr is not None:
        leaves = len(plan.leaf_constants)
        ctr.mults += 11 * leaves
        ctr.adds += 5 * leaves
    return _inverse_rows(vals, plan)


def trinomial_multiply(a: Poly, b: Poly, plan: TrinomialPlan) -> Poly:
    """Forward both operands as one batch, multiply the degree-2 leaves,
    invert."""
    if a.ring != plan.ring or b.ring != plan.ring:
        raise PlanMismatch("operands do not live in the plan's ring")
    return Poly(_product(a.array, b.array, plan), plan.ring)


class TrinomialExecutor(bigmod.LiftedExecutor):
    """Plan executor of the trinomial route, over q: its table is the
    TrinomialPlan."""

    def __init__(self, ring: RingSpec):
        check_ring(ring)
        super().__init__(ring, ring.q)

    def table(self, p: int) -> TrinomialPlan:
        return make_plan(self.ring)

    def run(self, x, y, plan):
        return _product(x, y, plan)
