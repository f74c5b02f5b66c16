"""Transform over Z_q[x]/(x^n - x^(n/2) + 1) with n = 3*2^e.

The first level splits the trinomial ring into x^(n/2) - z1 times
x^(n/2) - z2 with z1 + z2 = 1 and z1*z2 = 1 (one multiplication and one
extra addition per pair); the remaining e-1 levels are ordinary radix-2
butterflies, stopping at degree-2 leaves in x^3 - psi^j with j running
over the invertible residues mod n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from . import modarith, transforms
from .errors import ParameterCondition, PlanMismatch
from .modarith import find_root, is_prime, mod_inv
from .rings import TRINOMIAL, Poly, RingSpec


@dataclass(frozen=True)
class TrinomialPlan:
    """Roots, constants, leaf order and twiddle schedule for one (n, q).

    ``levels`` holds one (nblocks, seg, twiddles, inverse twiddles) entry
    per radix-2 level in forward order, one twiddle per block; ``arrays``
    holds their int64 twins plus the leaf constants when q < 2^31.  All
    of it is built by make_plan and never mutated.
    """

    ring: RingSpec
    psi: int
    zeta1: int
    zeta2: int
    leaf_exponents: tuple  # exponent j of x^3 - psi^j per in-place leaf slot
    leaf_constants: tuple = field(compare=False, repr=False)  # psi^j per leaf slot
    levels: tuple = field(compare=False, repr=False)
    arrays: tuple | None = field(compare=False, repr=False)  # (levels, leaf constants)

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def q(self) -> int:
        return self.ring.q


@dataclass
class TrinomialDomainPoly:
    """Degree-2 leaf images, kept separate from the radix-2 domain type."""

    values: list
    plan: TrinomialPlan


def check_ring(ring: RingSpec) -> None:
    """The preconditions of make_plan, checked without building anything."""
    n, q = ring.n, ring.q
    if ring.form != TRINOMIAL:
        raise ParameterCondition("plan needs a trinomial ring")
    if not is_prime(q):
        raise ParameterCondition(f"q={q} must be prime")
    if (q - 1) % n != 0:
        raise ParameterCondition(f"q={q} fails q = 1 (mod n) for n={n}")


def make_plan(ring: RingSpec) -> TrinomialPlan:
    check_ring(ring)
    n, q = ring.n, ring.q
    psi = find_root(n, q)
    zeta1 = pow(psi, n // 6, q)
    zeta2 = pow(zeta1, 5, q)
    if (zeta1 + zeta2) % q != 1 or zeta1 * zeta2 % q != 1:
        raise ParameterCondition("zeta constants fail z1+z2 = z1*z2 = 1")
    # block twiddles and leaf exponents follow the forward butterfly schedule
    levels = []
    exps = [n // 6, 5 * n // 6]
    seg = n // 2
    while seg > 3:
        seg //= 2
        halves = [e // 2 for e in exps]
        fwd = tuple(pow(psi, h, q) for h in halves)
        inv = tuple(pow(psi, (n - h) % n, q) for h in halves)
        levels.append((len(exps), seg, fwd, inv))
        exps = [x for h in halves for x in (h, h + n // 2)]
    exps = tuple(e % n for e in exps)
    if 3 * len(exps) != n or any(gcd(e, n) != 1 for e in exps):
        raise ParameterCondition(f"leaf exponents {exps} do not cover the units mod n={n}")
    consts = tuple(pow(psi, e, q) for e in exps)
    arrays = None
    if modarith.vectorized(q):
        vec_levels = tuple(
            (np.array(fwd, dtype=np.int64).reshape(nb, 1, 1),
             np.array(inv, dtype=np.int64).reshape(nb, 1, 1))
            for nb, _, fwd, inv in levels
        )
        arrays = (vec_levels, np.array(consts, dtype=np.int64))
    return TrinomialPlan(ring, psi, zeta1, zeta2, exps, consts, tuple(levels), arrays)


def trinomial_forward(a: Poly, plan: TrinomialPlan) -> TrinomialDomainPoly:
    if a.ring != plan.ring:
        raise PlanMismatch("polynomial ring does not match the plan")
    n, q = plan.n, plan.q
    vec = plan.arrays is not None
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.forward_transforms += 1
    half = n // 2
    z1 = plan.zeta1
    # split level: 1 mult, 2 adds, 1 sub per pair
    if vec:
        vals = np.array(a.coeffs, dtype=np.int64)
        lo, hi = vals[:half], vals[half:]
        t = hi * z1
        t %= q
        hi += lo
        hi -= t
        hi %= q
        lo += t
        lo %= q
    else:
        vals = list(a.coeffs)
        for i in range(half):
            hi = vals[i + half]
            t = z1 * hi % q
            vals[i + half] = (vals[i] + hi - t) % q
            vals[i] = (vals[i] + t) % q
    if ctr is not None:
        ctr.mults += half
        ctr.adds += 2 * half
        ctr.subs += half
    for li, (nblocks, seg, tws, _) in enumerate(plan.levels):
        if vec:
            transforms.ct_level(vals, nblocks, seg, 1, plan.arrays[0][li][0], q)
        else:
            for si, z in enumerate(tws):
                base = si * 2 * seg
                for j in range(base, base + seg):
                    t = z * vals[j + seg] % q
                    u = vals[j]
                    vals[j] = (u + t) % q
                    vals[j + seg] = (u - t) % q
        if ctr is not None:
            work = seg * nblocks
            ctr.mults += work
            ctr.adds += work
            ctr.subs += work
    return TrinomialDomainPoly(vals.tolist() if vec else vals, plan)


def trinomial_inverse(ahat: TrinomialDomainPoly, plan: TrinomialPlan) -> Poly:
    if ahat.plan is not plan and ahat.plan != plan:
        raise PlanMismatch("domain values were produced under a different plan")
    n, q = plan.n, plan.q
    vec = plan.arrays is not None
    vals = np.array(ahat.values, dtype=np.int64) if vec else list(ahat.values)
    ctr = modarith.active_counter()
    if ctr is not None:
        ctr.inverse_transforms += 1
    half = n // 2
    for li in reversed(range(len(plan.levels))):
        nblocks, seg, _, itws = plan.levels[li]
        if vec:
            transforms.gs_level(vals, nblocks, seg, 1, plan.arrays[0][li][1], q)
        else:
            for si, zinv in enumerate(itws):
                base = si * 2 * seg
                for j in range(base, base + seg):
                    u = vals[j]
                    v = vals[j + seg]
                    vals[j] = (u + v) % q
                    vals[j + seg] = (u - v) * zinv % q
        if ctr is not None:
            work = seg * nblocks
            ctr.mults += work
            ctr.adds += work
            ctr.subs += work
    # undo the split level exactly: invert [[1, z1], [1, z2]]
    z1, z2 = plan.zeta1, plan.zeta2
    det_inv = mod_inv((z2 - z1) % q, q)
    if vec:
        l, r = vals[:half].copy(), vals[half:].copy()
        x = z2 * l - z1 * r
        x %= q
        x *= det_inv
        x %= q
        vals[:half] = x
        r -= l
        r %= q
        r *= det_inv
        r %= q
        vals[half:] = r
    else:
        for i in range(half):
            l, r = vals[i], vals[i + half]
            vals[i] = (z2 * l - z1 * r) % q * det_inv % q
            vals[i + half] = (r - l) % q * det_inv % q
    if ctr is not None:
        ctr.mults += 4 * half
        ctr.adds += half
        ctr.subs += half
    if plan.levels:
        s = mod_inv(1 << len(plan.levels), q)
        if vec:
            vals *= s
            vals %= q
        else:
            vals = [v * s % q for v in vals]
        if ctr is not None:
            ctr.mults += n
    return Poly(vals.tolist() if vec else vals, plan.ring)


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


def _pointwise_vec(u, v, psi, q: int) -> list:
    """trinomial_pointwise on every leaf at once (int64, q < 2^31, uncounted).

    Every product is reduced before it is added, so no sum leaves int64.
    """
    U = np.array(u, dtype=np.int64).reshape(-1, 3).T
    V = np.array(v, dtype=np.int64).reshape(-1, 3).T
    (u0, u1, u2), (v0, v1, v2) = U, V
    out = np.empty_like(U)
    out[0] = (u1 * v2 % q + u2 * v1 % q) * psi % q + u0 * v0 % q
    out[1] = u2 * v2 % q * psi % q + u0 * v1 % q + u1 * v0 % q
    out[2] = u0 * v2 % q + u1 * v1 % q + u2 * v0 % q
    out %= q
    return out.T.ravel().tolist()


def trinomial_multiply(a: Poly, b: Poly, plan: TrinomialPlan) -> Poly:
    """Forward both operands, multiply the degree-2 leaves, invert."""
    A = trinomial_forward(a, plan)
    B = trinomial_forward(b, plan)
    q = plan.q
    if plan.arrays is not None:
        vals = _pointwise_vec(A.values, B.values, plan.arrays[1], q)
        ctr = modarith.active_counter()
        if ctr is not None:
            leaves = len(plan.leaf_constants)
            ctr.mults += 11 * leaves
            ctr.adds += 5 * leaves
    else:
        vals = [0] * plan.n
        for li, c in enumerate(plan.leaf_constants):
            s = 3 * li
            vals[s : s + 3] = trinomial_pointwise(A.values[s : s + 3], B.values[s : s + 3], c, q)
    return trinomial_inverse(TrinomialDomainPoly(vals, plan), plan)


class TrinomialExecutor:
    """Plan executor of the trinomial route; its TrinomialPlan is built on first use."""

    def __init__(self, ring: RingSpec):
        check_ring(ring)
        self.ring = ring

    @cached_property
    def plan(self) -> TrinomialPlan:
        return make_plan(self.ring)

    def multiply(self, a: Poly, b: Poly) -> Poly:
        return trinomial_multiply(a, b, self.plan)
