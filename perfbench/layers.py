"""Per-layer tracing by wrapping the library's public functions at run time.

Each target below is replaced, for the traced phase only, by a wrapper
that times the call and charges its self time (duration minus the time
of wrapped calls nested inside it) to one layer key.  A name a module
imported by value (``polymul.find_root``, ``polymul.build_twiddles``,
``trinomial.find_root``) is wrapped where the caller looks it up.
Per-coefficient helpers (``mod_mul``, ``crt_recombine``, ``centered``,
``bitrev``) are never wrapped; their time falls into the caller's self
time.  Spans are aggregated in memory per key, not kept one by one.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer key)
TARGETS = (
    ("transforms", "ntt_forward", "transforms.forward"),
    ("transforms", "ntt_inverse", "transforms.inverse"),
    ("polymul", "pointwise_mul", "polymul.pointwise"),
    ("polymul", "make_transform_pair", "polymul.tables"),
    ("polymul", "schoolbook_linear", "polymul.schoolbook"),
    ("polymul", "schoolbook_cyclic", "polymul.schoolbook"),
    ("polymul", "schoolbook_nwc", "polymul.schoolbook"),
    ("polymul", "reduce_mod_phi", "polymul.reduce"),
    ("polymul", "ntt_multiply", "polymul.pipeline"),
    ("splitting", "ptntt_multiply", "splitting.self"),
    ("splitting", "kntt_multiply", "splitting.self"),
    ("splitting", "hntt_multiply", "splitting.self"),
    ("trinomial", "trinomial_forward", "trinomial.forward"),
    ("trinomial", "trinomial_inverse", "trinomial.inverse"),
    ("trinomial", "trinomial_multiply", "trinomial.self"),
    ("bigmod", "lift_centered", "bigmod.lift"),
    ("bigmod", "recover_centered", "bigmod.recover"),
    ("bigmod", "find_principal_root_composite", "bigmod.root_search"),
    ("bigmod", "bigprime_multiply", "bigmod.self"),
    ("bigmod", "rns_multiply", "bigmod.self"),
    ("bigmod", "composite_multiply", "bigmod.self"),
    ("embed", "zero_pad_multiply", "embed.pad"),
    ("embed", "good_multiply", "embed.good"),
    ("embed", "schonhage_multiply", "embed.block"),
    ("embed", "nussbaumer_multiply", "embed.block"),
    ("embed", "general_phi_multiply", "embed.chain"),
    ("planner", "multiply", "planner.dispatch"),
    ("planner", "matvec_multiply", "planner.matvec"),
    ("planner", "make_plan", "planner.plan"),
    ("planner", "preset", "planner.plan"),
    ("modarith", "build_twiddles", "modarith.twiddle"),
    ("polymul", "build_twiddles", "modarith.twiddle"),
    ("modarith", "find_root", "modarith.root"),
    ("polymul", "find_root", "modarith.root"),
    ("trinomial", "find_root", "modarith.root"),
)


class Tracer:
    """Self time and call count per layer key, while ``active`` is set.

    Spans accumulate as pending until ``commit(scale)`` adds them to the
    totals, multiplied by the caller's speed scale.  ``covered`` is the
    time spent inside outermost wrapped calls, so the caller can compute
    what no layer accounts for.
    """

    def __init__(self):
        self.active = False
        self._installed = []  # (module, attribute, original)
        self._nested = []  # time of wrapped children, one slot per open span
        self._pending = defaultdict(float)
        self._pending_covered = 0.0
        self.self_s = defaultdict(float)  # scaled self seconds per key
        self.calls = defaultdict(int)
        self.covered = 0.0

    def reset(self):
        """Drop committed totals; the wrappers keep writing to the same dicts."""
        self.self_s.clear()
        self.calls.clear()
        self.covered = 0.0

    def commit(self, scale: float):
        for key, s in self._pending.items():
            self.self_s[key] += s * scale
        self.covered += self._pending_covered * scale
        self._pending.clear()
        self._pending_covered = 0.0

    def _wrap(self, fn, key):
        nested, pending, calls = self._nested, self._pending, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nested.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                pending[key] += dt - nested.pop()
                calls[key] += 1
                if nested:
                    nested[-1] += dt
                else:
                    self._pending_covered += dt

        return traced

    def install(self) -> list:
        """Wrap every target that exists; returns the ones not found."""
        missing = []
        for mod_name, attr, key in TARGETS:
            mod = importlib.import_module(f"nttkit.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, key))
        return missing

    def uninstall(self):
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.active = False
        self.uninstall()
