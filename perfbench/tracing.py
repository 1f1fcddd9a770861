"""Per-layer tracing installed from the benchmark's side.

`Tracer.install()` replaces the public functions of secix's six
modules (gf, model, codes, oracle, analysis, cli), and a few methods,
with timing wrappers.  A function is replaced under every name it is
bound to, including names re-bound by `from ... import` such as
`secix.analysis.check_security`, so calls between modules are seen
too.  `uninstall()` puts the originals back.

Each boundary call records a span (name, start, end, parent span, job)
kept in memory; hot calls made once per enumerated state or per matrix
(`LinearCode.encode`, `FieldMatrix.__init__`, `LinearCode.__init__`,
...) only add to a count and a summed time.  Self time is a call's
duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("gf", "model", "codes", "oracle", "analysis", "cli")

# several functions report under one name
RENAMES = {
    "codes.construct_mds_code": "codes.construct",
    "codes.single_access_code": "codes.construct",
    "analysis.decide_t_level": "analysis.decide",
}
METHODS = {
    "gf": {"FieldMatrix.rref": "gf.rref", "FieldMatrix.rank": "gf.rank",
           "FieldMatrix.solve": "gf.solve", "FieldMatrix.nullspace": "gf.nullspace",
           "FieldMatrix.__matmul__": "gf.matmul", "FieldMatrix.__init__": "gf.matrix_new"},
    "model": {"AccessStructure.expand": "model.expand",
              "BipartiteGraph.is_acyclic": "model.is_acyclic"},
    "codes": {"LinearCode.encode": "codes.encode", "LinearCode.__init__": "codes.linear_code_new"},
}
# called per state, per state group or per matrix: counted, not recorded as spans
HOT = {"gf.matrix_new", "gf.is_prime", "codes.encode", "codes.linear_code_new",
       "oracle.entropy_bits", "oracle.state_count"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, job)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.job = -1
        self._stack = []  # [name, time in traced children, span index]
        self._oracle_depth = 0
        self._last_refusal = None
        self._restore = []

    # ---- wrappers ------------------------------------------------------------

    def _span(self, name, fn, refusal):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        layer = name.split(".", 1)[0]
        oracle = layer == "oracle"
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            if oracle:
                self._oracle_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except refusal as exc:
                if exc is not self._last_refusal:  # count it where it is raised
                    self._last_refusal = exc
                    self.counts[f"{layer}.budget_refusals"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if oracle:
                    self._oracle_depth -= 1
                    if not self._oracle_depth:
                        self.counts["oracle.calls"] += 1
                        self.counts["oracle.inclusive_s"] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                spans[frame[2]] = (name, start, end, parent[2] if parent else -1, self.job)
            if after is not None:
                after(self, result, parent[0] if parent else None)
            return result
        return wrapper

    def _hot(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        counts = self.counts
        if name == "codes.encode":
            def note(parent):
                if self._oracle_depth:
                    counts["oracle.states_visited"] += 1
        elif name == "codes.linear_code_new":
            def note(parent):
                if parent == "analysis.search_linear":
                    counts["analysis.search.candidates"] += 1
        else:
            note = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(stack[-1][0] if stack else None)
            frame = [name, 0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
        return wrapper

    def _after_security(self, report, parent):
        self.counts["oracle.pairs_checked"] += len(report.checks)
        if parent == "analysis.search_linear":
            self.counts["analysis.search.security_checks"] += 1

    def _after_decodability(self, verdicts, parent):
        if parent == "analysis.search_linear" and all(verdicts):
            self.counts["analysis.search.decodable"] += 1

    _after = {"oracle.check_security": _after_security,
              "oracle.check_decodability": _after_decodability}

    # ---- installation ----------------------------------------------------------

    def _targets(self, modules):
        """(owner, attribute, original, trace name) for every wrapped callable."""
        for layer in LAYERS:
            mod = modules[layer]
            if layer == "cli":
                names = [n for n in vars(mod) if n == "main" or n.startswith("cmd_")]
            else:
                names = getattr(mod, "__all__", ())
            for attr in names:
                fn = getattr(mod, attr, None)
                if callable(fn) and not isinstance(fn, type):
                    full = f"{layer}.{attr}"
                    yield mod, attr, fn, RENAMES.get(full, full)
            for path, name in METHODS.get(layer, {}).items():
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and attr in vars(cls):
                    yield cls, attr, vars(cls)[attr], name

    def install(self, package, refusal=()):
        """Wrap the callables of the package's six modules, binding each
        wrapper under every name in them (and in the package) that refers
        to the original.  `refusal` is the budget exception type."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for owner, attr, fn, name in list(self._targets(modules)):
            wrapper = self._hot(name, fn) if name in HOT else self._span(name, fn, refusal)
            if isinstance(owner, type):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._restore.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # ---- results -----------------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def write_spans(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, job]))
                fh.write("\n")
