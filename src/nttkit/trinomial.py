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
run as one forward ``transforms.Schedule``, which opens with the split,
one matrix [[1, z1], [1, z2]] on the pairs n/2 apart, and one inverse
schedule, which ends with the unsplit, det^-1 [[z2, -z1], [-1, 1]] with
det = z2 - z1; the leaves are one ``polymul.leaf_rows`` pass.  Both
schedules are kept on their twiddle tables and carry what the split
costs beyond a butterfly per pair (``Schedule.cost``), so a plan's
``TrinomialExecutor`` (a ``bigmod.LiftedExecutor`` over q whose one table
is the ``TrinomialPlan``) runs ``transforms.ntt_forward`` and
``ntt_inverse`` on bare buffers, as every planned route does;
``trinomial_forward`` and ``trinomial_inverse`` tag them as
``NttDomainPoly``s with leaf degree 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from . import bigmod, modarith, polymul, transforms
from .errors import LengthMismatch, ParameterCondition, PlanMismatch
from .modarith import find_root, is_prime, mod_inv
from .rings import TRINOMIAL, Poly, RingSpec
from .transforms import CYCLIC_BLOCK_PAIR, NttDomainPoly


@dataclass(frozen=True)
class TrinomialPlan:
    """Roots, constants, leaf order and the schedules, split level
    included, for one (n, q).

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

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def q(self) -> int:
        return self.ring.q


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


def _schedule(spec, tw, m: int, split, cost) -> transforms.Schedule:
    """Both split halves' twisted cyclic levels of m chunks as one schedule,
    after the split level (matrix ``split`` mod q, costing ``cost`` per
    pair beyond a butterfly) forward, before it inverse; kept on ``tw``."""
    levels = tuple((2 * nblocks, half, tuple(t * half + 6 * e for t in _TWISTS for e in exps))
                   for nblocks, half, exps in transforms.level_geometry(spec, m))
    split = ((1, m, transforms.read_only(transforms.buffer([split], tw.modulus) % tw.modulus)),)
    levels = split + levels if spec.direction == transforms.FORWARD else levels + split
    return tw.schedules.setdefault((spec, 6 * m), transforms.Schedule(spec, tw, 6 * m, 3, levels, cost))


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
    itw = modarith.build_twiddles(psi, n, q, inverse=True)
    d = mod_inv((zeta2 - zeta1) % q, q)  # the unsplit: d [[z2, -z1], [-1, 1]]
    # beyond a butterfly per pair: one more add forward (the high half is
    # l + h - z1 h), three more mults inverse (z2 l - z1 r, then d twice)
    return TrinomialPlan(ring, psi, zeta1, zeta2, exps, consts,
                         _schedule(CYCLIC_BLOCK_PAIR[0], tw, m, [[1, zeta1], [1, zeta2]], (0, 1, 0)),
                         _schedule(CYCLIC_BLOCK_PAIR[1], itw, m, [[zeta2 * d, -zeta1 * d], [-d, d]],
                                   (3, 0, 0)))


def trinomial_forward(a, plan: TrinomialPlan, ring=None) -> NttDomainPoly:
    """Forward transform of a Poly, or, with ``ring``, of a length-n array
    or list of canonical residues over that ring (checked as ``Poly``
    checks them), or of a (batch, n) array of them, into a fresh buffer
    of degree-2 leaf images; every row runs at once."""
    if ring is None:
        ring, a = a.ring, a.array
    else:
        a = transforms.checked_rows(a, ring.n, ring.q)
    if ring != plan.ring:
        raise PlanMismatch("polynomial ring does not match the plan")
    f = plan.forward
    return NttDomainPoly(transforms.ntt_forward(transforms.buffer(a, plan.q), f.table, f.spec),
                         f.spec, ring, 3)


def trinomial_inverse(ahat: NttDomainPoly, plan: TrinomialPlan, as_buffer=False):
    """Inverse transform back to a Poly, or with ``as_buffer`` to its
    buffer of canonical residues; ``ahat.values`` is never mutated.  A
    batch of rows runs at once and needs ``as_buffer``."""
    if (ahat.spec, ahat.ring, ahat.leaf_degree) != (plan.forward.spec, plan.ring, 3):
        raise PlanMismatch("domain values were produced under a different plan")
    if not as_buffer and ahat.values.ndim != 1:
        raise LengthMismatch(f"a batch of shape {ahat.values.shape} inverts only with as_buffer")
    i = plan.inverse
    vals = transforms.ntt_inverse(transforms.buffer(ahat.values, plan.q), i.table, i.spec)
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
    f, i = plan.forward, plan.inverse
    X = transforms.ntt_forward(transforms.buffer((x, y), plan.q), f.table, f.spec)
    vals = polymul.leaf_rows(X[0], X[1], 3, plan.leaf_vector, plan.q)
    ctr = modarith.active_counter()
    if ctr is not None:
        leaves = len(plan.leaf_constants)
        ctr.mults += 11 * leaves
        ctr.adds += 5 * leaves
    return transforms.ntt_inverse(vals, i.table, i.spec)


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

    def run(self, X, plan):
        return _product(*X, plan)
