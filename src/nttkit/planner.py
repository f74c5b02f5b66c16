"""Ring classification, strategy selection, presets and batched patterns.

classify() sorts a ring into friendliness categories; make_plan() turns
a ring plus preferences into an immutable NttPlan whose congruence and
bound preconditions were already verified; preset() loads the shipped
parameter-set registry.  matvec_multiply() is the transform-saving
matrix-vector pattern used by module-lattice workloads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import gcd, prod

from . import bigmod, embed, polymul, splitting, transforms, trinomial
from .bounds import vectorized
from .errors import (
    NoStrategy,
    ParameterCondition,
    RingMismatch,
    ShapeCondition,
    SpecMismatch,
    UnknownPreset,
)
from .modarith import MODULUS_CEILING, is_prime
from .rings import TRINOMIAL, XN_MINUS_1, XN_PLUS_1, Poly, RingSpec, is_pow2
from .transforms import NttDomainPoly, root_order

POW2_FULL = "pow2_full_friendly"
POW2_PARTIAL = "pow2_partial_friendly"
POW2_UNFRIENDLY = "pow2_unfriendly"
NON_POW2 = "non_pow2"
GENERAL_PHI = "general_phi"


@dataclass(frozen=True)
class RingClass:
    kind: str
    deficit: int = 0  # minimal levels to crop (partial-friendly only)
    h: int = 0  # odd part of n (non-pow2 only)
    k: int = 0  # 2-adic valuation of n (non-pow2 only)

    def describe(self) -> str:
        if self.kind == POW2_PARTIAL:
            return f"{self.kind}(deficit={self.deficit})"
        if self.kind == NON_POW2:
            return f"{self.kind}(h={self.h}, k={self.k})"
        return self.kind


def classify(ring: RingSpec) -> RingClass:
    """Deterministic friendliness category of a ring."""
    n, q = ring.n, ring.q
    if ring.form in (XN_MINUS_1, XN_PLUS_1):
        if is_pow2(n):
            if not is_prime(q):
                return RingClass(POW2_UNFRIENDLY)
            need = root_order(ring.form, n)
            if (q - 1) % need == 0:
                return RingClass(POW2_FULL)
            max_beta = n.bit_length() - 2  # beta < log2 n
            for t in range(1, max_beta + 1):
                if (q - 1) % (need >> t) == 0:
                    return RingClass(POW2_PARTIAL, deficit=t)
            return RingClass(POW2_UNFRIENDLY)
        h = n
        k = 0
        while h % 2 == 0:
            h //= 2
            k += 1
        return RingClass(NON_POW2, h=h, k=k)
    return RingClass(GENERAL_PHI)


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class NttPlan:
    """A fully resolved multiplication strategy for one ring.

    Immutable after construction; every congruence and bound the chosen
    route needs was checked while building it.  The executor runs the
    route and owns its parameters and tables (built on first use).
    """

    strategy: str
    ring: RingSpec
    executor: object
    profile: tuple = (bigmod.FULL_FULL,)
    sample_b: tuple = ("uniform",)
    checks: tuple = ()  # (description, ok) pairs, for plan inspection

    # route parameters live on the executor; 0 or None where the route has none
    beta = property(lambda self: getattr(self.executor, "beta", 0))
    alpha = property(lambda self: getattr(self.executor, "alpha", 0))
    basis = property(lambda self: getattr(self.executor, "basis", None))
    chain = property(lambda self: getattr(self.executor, "chain", None))

    @property
    def N(self) -> int:
        """The big prime of a bigprime plan (as requested), else 0."""
        return self.executor.N if self.strategy == "bigprime" else 0

    @property
    def replaced_by(self) -> tuple:
        """The primes below 2^31 that run in place of a requested working
        modulus >= 2^31, or () when the plan runs the modulus it names."""
        if self.strategy == "bigprime":
            ex = self.executor
            return ex.moduli if ex.moduli != (ex.N,) else ()
        lift = getattr(self.executor, "lift", None)
        return lift.basis if lift else ()

    @property
    def pair(self):
        """The transform pair of a direct (full/incomplete) plan, else None."""
        return self.executor.tables[0] if self.strategy in ("full", "incomplete") else None

    def describe(self) -> str:
        bits = [self.strategy]
        if self.strategy == "incomplete":
            bits.append(f"beta={self.beta}")
        if self.strategy in ("split-pt", "split-k"):
            bits.append(f"alpha={self.alpha}")
        if self.strategy == "hntt":
            bits.append(f"alpha={self.alpha}, beta={self.beta}")
        if self.strategy == "bigprime":
            bits.append(f"N={_replaced(self.N, self.replaced_by)}, beta={self.beta}")
        if self.strategy in ("rns", "composite"):
            bits.append(f"basis={'*'.join(str(p) for p in self.basis.primes)}, beta={self.beta}")
        if self.strategy == "embed":
            bits.append(_describe_chain(self.chain))
        return " ".join(bits)


def _replaced(N: int, basis: tuple) -> str:
    """N, and the basis that runs in its place when there is one."""
    return f"{N} -> {'*'.join(map(str, basis))}" if basis else str(N)


_STEP_FORMATS = {
    embed.ZeroPad: "pad({0.n_prime},{0.form})",
    embed.Good: "good(h={0.h},k={0.k})",
    embed.Schonhage: "schonhage(m={0.m},n={0.n},inner=nussbaumer)",
    embed.Nussbaumer: "nussbaumer(m={0.m},n={0.n})",
    embed.PlainNtt: "ntt(beta={0.beta})",
}


def _describe_chain(chain: embed.EmbedChain) -> str:
    return " -> ".join(f"lift({_replaced(s.modulus, s.basis)})" if isinstance(s, embed.LiftModulus)
                       else _STEP_FORMATS[type(s)].format(s) for s in chain.steps)


def search_prime(congruence: int, above: int) -> int:
    """Smallest prime p = 1 (mod congruence) with p > above; deterministic."""
    c = max((above - 1) // congruence, 0)
    while True:
        c += 1
        p = c * congruence + 1
        if p > above and is_prime(p):
            return p


def _ceil_root(x: int, k: int) -> int:
    """Smallest r with r^k >= x, for x >= 1."""
    r = max(round(x ** (1 / k)), 1)
    while r ** k < x:
        r += 1
    while r > 1 and (r - 1) ** k >= x:
        r -= 1
    return r


@lru_cache(maxsize=256)
def search_basis(congruence: int, bound: int) -> tuple:
    """The fewest primes below 2^31, each 1 (mod congruence), whose product
    exceeds ``bound`` and stays within the 2^42 ceiling; deterministic.

    For k = 1, 2, ... the k smallest such primes from ceil((bound+1)^(1/k))
    upward are tried; their product exceeds the bound by construction.  A
    result depends on its two arguments alone and is kept, so planning a
    ring again runs no primality test.
    """
    if bound >= MODULUS_CEILING:
        raise ParameterCondition(f"bound {bound} leaves no working modulus within 2^42")
    for k in range(1, 27):  # 27 odd primes already exceed 2^42
        primes, p = [], _ceil_root(bound + 1, k) - 1
        for _ in range(k):
            p = search_prime(congruence, p)
            primes.append(p)
        if vectorized(p) and prod(primes) <= MODULUS_CEILING:
            return tuple(primes)
    raise ParameterCondition(f"no basis of primes below 2^31 = 1 (mod {congruence}) "
                             f"exceeds bound {bound} within 2^42")


def _basis_checks(what: str, basis: tuple, ring: RingSpec, prof) -> list:
    """The checks of a basis that runs in place of a working modulus >= 2^31."""
    P = prod(basis)
    return [(f"{what} >= 2^31 runs on basis {'*'.join(map(str, basis))}",
             all(map(vectorized, basis))),
            bigmod.bound_check(P, ring, prof, f"basis product {P}")]


def _cong_check(q: int, need: int, what: str):
    ok = need >= 1 and (q - 1) % need == 0
    return (f"{what}: {q} = 1 (mod {need})", ok)


def make_plan(ring: RingSpec, prefer: str = "auto", beta: int | None = None,
              alpha: int | None = None, allow_bigmod: bool = False,
              profile: tuple | None = None, sample_b: tuple = ("uniform",),
              N: int | None = None, basis=None, chain=None) -> NttPlan:
    """Resolve a strategy for the ring, verifying every precondition now.

    ``prefer`` picks among the routes valid for the ring's class:
    full / incomplete / split-pt / split-k / hntt for friendly rings,
    bigprime / rns / composite for unfriendly ones (these require
    allow_bigmod when reached through "auto"), good / pad-pow2 /
    schonhage for embeddings, and trinomial for that ring form; with
    "auto", a beta > 0 on a fully friendly ring plans incomplete.  A
    given ``chain`` is the plan's embedding chain on every ring class,
    power of two or not.  A route parameter that the chosen route does
    not take raises ParameterCondition (``_refuse``).  The plan's tables
    are built on its first multiply.
    """
    cls = classify(ring)
    n, q = ring.n, ring.q
    prof = profile if profile is not None else (bigmod.FULL_FULL,)
    checks = []

    def plan(strategy, executor):
        if not all(ok for _, ok in checks):
            raise ParameterCondition(f"{strategy} preconditions fail: {checks}")
        return NttPlan(strategy, ring, executor, prof, sample_b, tuple(checks))

    def chained(chain):
        executor = embed.ChainExecutor(ring, _resolve_chain(ring, chain, prof))
        checks.extend(_chain_checks(ring, executor, prof))
        return plan("embed", executor)

    if chain is not None:  # a given chain runs on every ring class
        _refuse("embed", beta=beta, alpha=alpha, N=N, basis=basis)
        return chained(chain)

    if ring.form == TRINOMIAL and prefer in ("auto", "trinomial"):
        _refuse("trinomial", beta=beta, alpha=alpha, N=N, basis=basis)
        checks.append(_cong_check(q, n, "trinomial order"))
        return plan("trinomial", trinomial.TrinomialExecutor(ring))

    if cls.kind == POW2_FULL and (prefer == "full" or prefer == "auto" and not beta):
        _refuse("full", beta=beta or None, alpha=alpha, N=N, basis=basis)  # beta = 0 is full
        checks.append(_cong_check(q, root_order(ring.form, n), "full transform"))
        return plan("full", bigmod.BigPrimeExecutor(ring, q))

    if cls.kind in (POW2_FULL, POW2_PARTIAL):
        t = cls.deficit
        if prefer in ("auto", "incomplete"):
            _refuse("incomplete", alpha=alpha, N=N, basis=basis)
            b = beta if beta is not None else t
            checks.append(_cong_check(q, root_order(ring.form, n, b), f"incomplete beta={b}"))
            return plan("incomplete", bigmod.BigPrimeExecutor(ring, q, b))
        if prefer in ("split-pt", "split-k"):
            _refuse(prefer, beta=beta, N=N, basis=basis)
            a_ = alpha if alpha is not None else t
            checks.append(_cong_check(q, root_order(ring.form, n, a_), f"split alpha={a_}"))
            return plan(prefer, splitting.SplitExecutor(ring, a_, 0, prefer == "split-k", False))
        if prefer == "hntt":
            _refuse("hntt", N=N, basis=basis)
            a_ = alpha if alpha is not None else 0
            b = beta if beta is not None else max(t - a_, 0)
            checks.append(_cong_check(q, root_order(ring.form, n, a_ + b),
                                      f"hntt alpha={a_} beta={b}"))
            return plan("hntt", splitting.SplitExecutor(ring, a_, b, True, True))
        raise NoStrategy(f"preference {prefer!r} does not apply to {cls.describe()}")

    if cls.kind == POW2_UNFRIENDLY:
        if prefer == "auto" and not allow_bigmod:
            raise NoStrategy(
                f"ring ({ring.form}, n={n}, q={q}) is {cls.describe()}; "
                "large-modulus routes need allow_bigmod"
            )
        choice = "bigprime" if prefer == "auto" else prefer
        b = beta if beta is not None else 0
        bound = bigmod.required_bound(n, q, prof)
        order = root_order(ring.form, n, b)
        if choice == "bigprime":
            _refuse("bigprime", alpha=alpha, basis=basis)
            bigN = N if N is not None else search_prime(order, bound)
            checks.append((f"N={bigN} prime", is_prime(bigN)))
            checks.append(_cong_check(bigN, order, "lifted transform"))
            checks.append(bigmod.bound_check(bigN, ring, prof, f"N={bigN}"))
            basis = () if vectorized(bigN) else search_basis(order, bound)
            if basis:
                checks.extend(_basis_checks(f"N={bigN}", basis, ring, prof))
                checks.extend(_cong_check(p, order, f"basis prime {p}") for p in basis)
            return plan("bigprime", bigmod.BigPrimeExecutor(ring, bigN, b, basis))
        if choice in ("rns", "composite"):
            _refuse(choice, alpha=alpha, N=N)
            bs = bigmod.RnsBasis(tuple(basis)) if basis is not None else _search_basis(order, bound)
            for p in bs.primes:
                checks.append(_cong_check(p, order, f"basis prime {p}"))
            checks.append(bigmod.bound_check(bs.product, ring, prof, f"product {bs.product}"))
            route = bigmod.RnsExecutor if choice == "rns" else bigmod.CompositeExecutor
            return plan(choice, route(ring, bs, b))
        raise NoStrategy(f"preference {prefer!r} does not apply to {cls.describe()}")

    # non-power-of-two or general phi: embedding chains, N naming a lift
    chain = _default_chain(ring, cls, prefer, N)
    _refuse("embed", beta=beta, alpha=alpha, N=None if chain.lift else N, basis=basis)
    return chained(chain)


def _refuse(strategy: str, beta=None, alpha=None, N=None, basis=None) -> None:
    """Refuse the given (not None) route parameters: the route takes none."""
    if beta is not None or alpha is not None or N is not None or basis is not None:
        given = {"beta": beta, "alpha": alpha, "N": N, "basis": basis}
        raise ParameterCondition(f"route {strategy} does not take " + ", ".join(
            f"{k}={v}" for k, v in given.items() if v is not None))


def _search_basis(order: int, bound: int) -> bigmod.RnsBasis:
    primes = []
    prod = 1
    p = 1
    while prod <= bound:
        p = search_prime(order, p)
        primes.append(p)
        prod *= p
    return bigmod.RnsBasis(tuple(primes))


def _good_target(n2: int):
    """Smallest 3*2^k >= n2 (Good's shape with h=3)."""
    k = 0
    while 3 << k < n2:
        k += 1
    return 3, k


def _default_chain(ring: RingSpec, cls: RingClass, prefer: str, N):
    """The chain ``prefer`` names; ``_resolve_chain`` searches a lift left None."""
    n, q = ring.n, ring.q
    if cls.kind == NON_POW2 and cls.k > 0 and cls.h in (3, 5, 7, 9) and ring.form == XN_MINUS_1 \
            and prefer in ("auto", "good"):
        # already the Good shape: no padding step needed
        bigN = N if N is not None else (q if (q - 1) % (1 << cls.k) == 0 else None)
        return embed.EmbedChain((embed.ZeroPad(n, XN_MINUS_1), embed.LiftModulus(bigN),
                                 embed.Good(cls.h, cls.k)))
    if prefer in ("auto", "good"):
        h, k = _good_target(2 * n)
        return embed.EmbedChain((embed.ZeroPad(h << k, XN_MINUS_1), embed.LiftModulus(N),
                                 embed.Good(h, k)))
    if prefer == "pad-pow2":
        np_ = 1 << (2 * n - 1).bit_length()
        return embed.EmbedChain((embed.ZeroPad(np_, XN_MINUS_1), embed.LiftModulus(N),
                                 embed.PlainNtt(0)))
    if prefer == "schonhage":
        np_ = 1 << (2 * n - 1).bit_length()
        m = 1 << ((np_.bit_length() - 2) // 2)
        return embed.EmbedChain((embed.ZeroPad(np_, XN_MINUS_1),
                                 embed.Schonhage(m, np_ // (2 * m))))
    raise NoStrategy(f"preference {prefer!r} does not apply to {cls.describe()}")


def _resolve_chain(ring: RingSpec, chain, prof):
    """Fill in a searched modulus (lift(None), 1 mod the chain's congruence)
    and the basis of primes below 2^31 that runs in place of one >= 2^31."""
    if not isinstance(chain, embed.EmbedChain):
        chain = embed.EmbedChain(tuple(chain))
    s = chain.lift
    if s is None or s.basis or s.modulus == ring.q or s.modulus is not None and vectorized(s.modulus):
        return chain
    cong, bound = chain.congruence, bigmod.required_bound(ring.n, ring.q, prof)
    N = s.modulus if s.modulus is not None else search_prime(cong, bound)
    lift = embed.LiftModulus(N, () if vectorized(N) else search_basis(cong, bound))
    return embed.EmbedChain(tuple(lift if t is s else t for t in chain.steps))


def _chain_checks(ring: RingSpec, ex: embed.ChainExecutor, prof):
    """The chain's checks, in step order, from its parsed steps."""
    chain, lift, s = ex.chain, ex.lift, ex.step
    checks = [(f"pad {ex.pad.n_prime} >= 2n-1 = {2 * ring.n - 1}",
               ex.pad.n_prime >= 2 * ring.n - 1 or ex.in_place)]
    moduli = (ring.q,)
    if lift and lift.modulus != ring.q:  # self-lifts wrap mod q by design
        checks.append(bigmod.bound_check(lift.modulus, ring, prof, f"lift modulus {lift.modulus}"))
        if lift.basis:
            checks.extend(_basis_checks(f"lift modulus {lift.modulus}", lift.basis, ring, prof))
        moduli = lift.basis or (lift.modulus,)
    blocks = {embed.Schonhage: "schonhage", embed.Nussbaumer: "nussbaumer"}.get(type(s))
    if blocks:
        checks.append((f"{blocks} shape 2mn = {2 * s.m * s.n}", embed.block_shape_fault(s) is None))
    what = "good rows" if isinstance(s, embed.Good) else "padded transform"
    for mod in moduli:
        if blocks:
            checks.append((f"2n = {2 * s.n} invertible mod {mod}", gcd(2 * s.n, mod) == 1))
            if not vectorized(mod):
                checks.append((f"terminal modulus {mod} < 2^31 (int64 arrays)", False))
        else:
            checks.append(_cong_check(mod, chain.congruence, f"{what} over {mod}"))
    return checks


# ---------------------------------------------------------------------------
# execution


def multiply(a: Poly, b: Poly, plan: NttPlan) -> Poly:
    """Run the plan's executor; exact equality with the schoolbook oracle."""
    return plan.executor.multiply(a, b)


# ---------------------------------------------------------------------------
# presets


_registry_cache: dict | None = None


def _registry() -> dict:
    global _registry_cache
    if _registry_cache is None:
        with resources.files(__package__).joinpath("presets.json").open() as f:
            _registry_cache = json.load(f)
    return _registry_cache


def preset_names() -> list:
    return sorted(_registry())


# registry strategy -> (make_plan preference, entry keys passed through)
_PRESET_ROUTES = {
    "full": ("full", ()),
    "incomplete": ("incomplete", ("beta",)),
    "bigprime": ("bigprime", ("beta", "N")),
    "rns": ("rns", ("beta", "basis")),
    "composite": ("composite", ("beta", "basis")),
    "embed": ("auto", ("chain",)),
    "trinomial": ("trinomial", ()),
}

# registry chain tag -> embedding step; the tag's arguments follow it
_CHAIN_STEPS = {
    "zero_pad": embed.ZeroPad,
    "lift": embed.LiftModulus,
    "good": embed.Good,
    "schonhage": embed.Schonhage,
    "nussbaumer": embed.Nussbaumer,
    "plain": embed.PlainNtt,
}


def preset(name: str):
    """(RingSpec, NttPlan) for a named parameter set from the registry."""
    e = _registry().get(name)
    if e is None:
        raise UnknownPreset(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    ring = RingSpec(e["form"], e["n"], e["q"])
    prof = tuple(e["profile"]) if "profile" in e else (bigmod.FULL_FULL,)
    sample_b = tuple(e["sample_b"]) if "sample_b" in e else ("uniform",)
    try:
        prefer, keys = _PRESET_ROUTES[e["strategy"]]
        kw = {k: e[k] for k in keys}
        if "chain" in kw:
            kw["chain"] = [_CHAIN_STEPS[st[0]](*st[1:]) for st in kw["chain"]]
    except KeyError as exc:
        raise UnknownPreset(f"preset {name!r}: unknown or missing {exc.args[0]!r}") from None
    return ring, make_plan(ring, prefer, allow_bigmod=True, profile=prof, sample_b=sample_b, **kw)


def sample_operands(ring: RingSpec, plan: NttPlan, rng):
    """(a, b) drawn per the plan's operand profile."""
    a = Poly.random(ring, rng)
    if plan.sample_b[0] == "small":
        b = Poly.random_small(ring, rng, int(plan.sample_b[1]))
    else:
        b = Poly.random(ring, rng)
    return a, b


# ---------------------------------------------------------------------------
# transform-domain patterns


def _as_pair(plan_or_pair):
    pair = getattr(plan_or_pair, "pair", None)
    if pair is not None:
        return pair
    if hasattr(plan_or_pair, "forward"):
        return plan_or_pair
    raise NoStrategy("this operation needs a plan with a direct transform stage")


def matvec_multiply(Ahat, s, plan) -> list:
    """INTT(sum_j Ahat[i][j] o NTT(s_j)) per row, for a plan or a bare pair:
    the s_j forward as one batch, the row sums one ``pointwise_sums``, the
    rows back as one inverse batch, on bare buffers.  Before any
    arithmetic, Ahat entries of another spec, ring or leaf degree raise
    SpecMismatch and s_j over another ring RingMismatch."""
    pair = _as_pair(plan)
    ring, tags = pair.ring, (pair.fwd_spec, pair.ring, pair.fwd_sched.chunk)
    if not s or any(len(row) != len(s) for row in Ahat):
        raise ShapeCondition("matvec needs a non-empty vector as long as every matrix row")
    if not all(isinstance(a, NttDomainPoly) and (a.spec, a.ring, a.leaf_degree) == tags
               for row in Ahat for a in row):
        raise SpecMismatch("matrix entry is not in the plan's transform domain")
    if not all(isinstance(sj, Poly) and sj.ring == ring for sj in s):
        raise RingMismatch(f"vector entry is not a polynomial over {ring}")
    if not Ahat:
        return []
    q = ring.q
    A = transforms.buffer([[a.values for a in row] for row in Ahat], q)
    S = transforms.ntt_forward(transforms.buffer([sj.array for sj in s], q), pair.fwd_tw,
                               pair.fwd_spec)
    rows = polymul.pointwise_sums(A, S, pair.fwd_sched.chunk, pair.leaf_vector, q)
    rows = transforms.ntt_inverse(rows, pair.inv_tw, pair.inv_spec)
    return [Poly(r, ring) for r in rows]


def sample_ntt_domain_uniform(ring: RingSpec, plan, seed) -> NttDomainPoly:
    """Seeded uniform values taken directly as transform-domain data."""
    pair = _as_pair(plan)
    if ring != pair.ring:
        raise RingMismatch(f"ring {ring} is not the plan's ring {pair.ring}")
    rng = random.Random(seed)
    vals = [rng.randrange(ring.q) for _ in range(ring.n)]
    return NttDomainPoly(vals, pair.fwd_spec, ring, pair.fwd_sched.chunk)
