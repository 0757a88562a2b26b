"""Spans around calls into capell's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``capell`` module that binds it (``cli`` imports ``solve_R`` and
``capacity`` by name, ``weil`` imports ``isolate_real_roots``, and so on), and
traced methods on their classes.  A module that kept an unwrapped binding
would let its calls escape the trace, so ``install`` fails if one is left.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id set by the caller.  Spans stay
in memory until ``uninstall``; ``self_times`` turns them into per-name self
time (duration minus the time covered by child spans) and call counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, span name).  Several methods may share
# one span name; a name's self time sums over them.
SPANNED = [
    ("capell.cli", "main", "cli.main"),
    ("capell.abel", "solve_R", "abel.solve_R"),
    ("capell.abel", "abel_capacity", "abel.abel_capacity"),
    ("capell.abel", "BandDensity.__init__", "abel.density"),
    ("capell.abel", "BandDensity.density", "abel.density"),
    ("capell.abel", "BandDensity.cdf", "abel.density"),
    ("capell.capacity", "capacity", "capacity.capacity"),
    ("capell.capacity", "chebyshev_constant", "capacity.chebyshev_constant"),
    ("capell.capacity", "fekete_points", "capacity.fekete_points"),
    ("capell.pellabel", "detect_pell_abel", "pellabel.detect_pell_abel"),
    ("capell.pellabel", "construct_pa_polynomial", "pellabel.construct_pa_polynomial"),
    ("capell.pellabel", "certify_structure", "pellabel.certify_structure"),
    ("capell.pellabel", "rationalize", "pellabel.rationalize"),
    ("capell.robinson", "generate", "robinson.generate"),
    ("capell.robinson", "generate_at", "robinson.generate_at"),
    ("capell.robinson", "compose_Pn", "robinson.compose_Pn"),
    ("capell.robinson", "make_instance", "robinson.make_instance"),
    ("capell.robinson", "root_measure_from_certificate",
     "robinson.root_measure_from_certificate"),
    ("capell.robinson", "convergence_report", "robinson.convergence_report"),
    ("capell.core", "isolate_real_roots", "core.isolate_real_roots"),
    ("capell.core", "ExactPoly.sturm_chain", "core.sturm_chain"),
    ("capell.core", "ExactPoly.count_roots", "core.count_roots"),
    ("capell.weil", "weil_lift", "weil.weil_lift"),
    ("capell.weil", "pushforward_check", "weil.pushforward_check"),
    ("capell.weil", "support_capacity_bound", "weil.support_capacity_bound"),
]

# Called far too often for a span each; only counted.
COUNTED = [
    ("capell.core", "ExactPoly.__call__", "core.exact_eval"),
]


def _resolve(modname: str, attr: str):
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _capell_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "capell" or name.startswith("capell."))]


class Tracer:
    """Span recorder for one process; ``hooks`` maps a span name to a
    callback that receives each return value of that span."""

    def __init__(self, hooks=None):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self.hooks = dict(hooks or {})
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in ``capell``."""
        originals = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for modname, attr, name in table:
                owner, leaf = _resolve(modname, attr)
                orig = owner.__dict__[leaf]
                originals.append(orig)
                if isinstance(owner, type):
                    self._patch(owner, leaf, make(name, orig))
                    continue
                wrapped = make(name, orig)
                for mod in _capell_modules():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapped)
        escaped = [f"{mod.__name__}.{key}" for mod in _capell_modules()
                   for key, val in vars(mod).items()
                   if any(val is o for o in originals)]
        if escaped:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings left: {escaped}")

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per span name: total self time in seconds, and call count."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        self_s[name] += (t1 - t0) - covered[i]
        calls[name] += 1
    return dict(self_s), calls
