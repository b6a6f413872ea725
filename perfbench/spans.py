"""Per-layer tracing of the program, installed from outside it.

`Tracer.install` wraps the public functions of each layer listed in
`TRACED`.  A function bound into several modules by `from . import` is
replaced in every module that holds it, and the group methods are
replaced on the class, so every caller goes through the wrapper.

Each wrapped call appends one span (function, parent span, start, end)
to flat in-memory arrays; nothing is written until `dump`.  Per-layer
figures are computed from the spans afterwards: `calls` counts spans,
and `self_s` is a span's duration minus the durations of its direct
child spans, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# Layer module -> traced functions.  The `group` entries are methods of
# MetacyclicGroup; the rest are module-level functions.
TRACED = {
    "group": ("subgroups", "cyclic_subgroups", "normalizer", "core", "generated"),
    "invariants": ("mcinv", "t_subgroup", "sylow_mcinv_consistency",
                   "valid_tuples", "validate_tuple", "construct_group"),
    "numth": ("cyclic_subgroups", "units"),
    "wedderburn": ("strong_shoda_pairs", "component_of", "decomposition"),
    "analysis": ("recover_R", "max_degree_branch", "formula_NE", "count_B",
                 "regime_U", "count_C", "formula_NG", "section7_witness"),
    "cli": ("main", "run_checks"),
}

SSP = "wedderburn.strong_shoda_pairs"
# The host-speed probe runs between items, inside the program's spans.
# Its spans are subtracted from their parents' self time and belong to
# no layer.
PROBE = "perfbench.probe"


def metric_names() -> list[str]:
    """Every per-layer metric `summary` reports, in a fixed order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
        names += [f"{module}.self_s", f"{module}.errors"]
    return names + ["group.generated.elems", "invariants.mcinv.reuse_ratio",
                    "wedderburn.decomposition.reuse_ratio",
                    "wedderburn.ssp.accept_ratio"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(args, result)` runs on
        each normal return, outside the span."""
        name_id = len(self.names)
        self.names.append(name)
        module = name.split(".")[0]
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, errors, clock = self.stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters kept at the layer boundaries ----------------------------

    def _first_seen(self, name: str, args) -> bool:
        keys = self.seen.setdefault(name, set())
        key = args[0].key
        if key in keys:
            return False
        keys.add(key)
        return True

    def _after_generated(self, args, result) -> None:
        self.counts["group.generated.elems"] += len(result.elems)

    def _after_subgroups(self, args, result) -> None:
        if self.stack and self.names[self.span_name[self.stack[-1]]] == SSP:
            self.counts["ssp.scanned"] += len(result)

    def _after_ssp(self, args, result) -> None:
        # Cached per group: only a first call scans the subgroups.
        if self._first_seen(SSP, args):
            self.counts["ssp.accepted"] += len(result)

    def _after_keyed(self, name: str):
        return lambda args, result: self._first_seen(name, args)

    def install(self) -> None:
        """Wrap every function in TRACED; the program must be imported."""
        modules = [m for key, m in sys.modules.items()
                   if key == "metacyclic" or key.startswith("metacyclic.")]
        hooks = {"group.generated": self._after_generated,
                 "group.subgroups": self._after_subgroups,
                 SSP: self._after_ssp,
                 "invariants.mcinv": self._after_keyed("invariants.mcinv"),
                 "wedderburn.decomposition": self._after_keyed("wedderburn.decomposition")}
        for module, functions in TRACED.items():
            mod = sys.modules[f"metacyclic.{module}"]
            for fn in functions:
                name = f"{module}.{fn}"
                if module == "group":
                    cls = mod.MetacyclicGroup
                    setattr(cls, fn, self.wrap(name, getattr(cls, fn), hooks.get(name)))
                    continue
                original = getattr(mod, fn)
                traced = self.wrap(name, original, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics named by `metric_names`."""
        n = len(self.start)
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[span_name[i]] += 1
            self_s[span_name[i]] += end[i] - start[i] - child[i]
        out: dict[str, float] = dict.fromkeys(metric_names(), 0)
        for name_id, name in enumerate(self.names):
            module = name.split(".")[0]
            if module not in TRACED:
                continue
            out[f"{name}.calls"] += calls[name_id]
            out[f"{name}.self_s"] += self_s[name_id]
            out[f"{module}.self_s"] += self_s[name_id]
        for module in TRACED:
            out[f"{module}.errors"] = self.errors[module]
        out["group.generated.elems"] = self.counts["group.generated.elems"]
        for name in ("invariants.mcinv", "wedderburn.decomposition"):
            c = out[f"{name}.calls"]
            out[f"{name}.reuse_ratio"] = 1 - len(self.seen.get(name, ())) / c if c else 0.0
        scanned = self.counts["ssp.scanned"]
        out["wedderburn.ssp.accept_ratio"] = self.counts["ssp.accepted"] / scanned if scanned else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped text: a header line of function names,
        then one `function parent start_ns end_ns` line per span."""
        with gzip.open(path, "wt") as f:
            f.write(" ".join(self.names) + "\n")
            for i in range(len(self.start)):
                f.write(f"{self.span_name[i]} {self.parent[i]} "
                        f"{round(self.start[i] * 1e9)} {round(self.end[i] * 1e9)}\n")
