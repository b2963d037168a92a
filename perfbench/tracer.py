"""Outside-in span tracer for one benchmark pass.

The package carries no instrumentation. `Tracer.install()` replaces every
public module-level function of the measured modules with a wrapper that
records a span (name, layer, start, end, parent). Names bound elsewhere by
`from ... import` are patched where they are looked up, so a call such as
`verify.enumerate_mis(...)` is seen even though it never goes through
`cactus_mis.oracle`.

Spans stay in memory; `metrics()` derives the per-layer numbers and
`write()` dumps the spans as JSON lines after the pass is timed. Counters that
need a look at a return value (sets listed, coefficient bits) are computed
after the span has closed, so their cost shows as tracing overhead and not as
layer time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("catalog", "graphs", "oracle", "series", "asymptotics", "verify", "cli")

# run_verification's own time (everything it does outside the public verify_*
# functions and the other wrapped calls) is the process-pool prefill plus
# report assembly, so its self time is booked to a layer of its own.
LAYER_OF = {"verify.run_verification": "pool"}
SELF_LAYERS = LAYERS + ("pool",)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "children_ns", "info")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.start = self.end = 0
        self.parent = parent
        self.children_ns = 0
        self.info = None

    @property
    def ns(self) -> int:
        return self.end - self.start


def _graph_key(span: Span) -> str:
    """family/kind/n of the lookup that triggered an oracle call."""
    p = span.parent
    return p.info if p is not None and p.name == "verify.oracle_distribution" else "?"


def _oracle_detail(span: Span) -> dict:
    return {"graph": _graph_key(span), "vertices": span.info, "s": span.ns / 1e9}


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self.counts = {"oracle.sets": 0, "graphs.vertices": 0,
                       "series.terms": 0, "series.coeff_bits": 0}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every measured module, at every binding."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cactus_mis.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self._wrap(fn, name, LAYER_OF.get(name, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cactus_mis" and not mod_name.startswith("cactus_mis."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counted = self.spans, self._stack, self._count
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.children_ns += span.ns
            counted(span, args, result)
            if span.parent is not None:
                # the counting is tracing overhead, not the parent's own work
                span.parent.children_ns += clock() - span.end
            return result

        return wrapper

    def _count(self, span: Span, args, result) -> None:
        name = span.name
        if name == "oracle.enumerate_mis":
            self.counts["oracle.sets"] += result.total
            span.info = args[0].vertex_count
        elif name == "verify.oracle_distribution":
            span.info = f"{args[0]}/{args[1]}/n={args[2]}"
        elif name == "graphs.build_graph":
            self.counts["graphs.vertices"] += result.vertex_count
        elif name == "series.series_in_x":
            self.counts["series.terms"] += len(result)
            self.counts["series.coeff_bits"] += sum(abs(c).bit_length() for p in result for c in p.coeffs)
        elif name == "series.recurrence_sequence":
            self.counts["series.terms"] += len(result)
            self.counts["series.coeff_bits"] += sum(abs(c).bit_length() for c in result)
        elif name == "verify.report_to_json":
            span.info = len(result.encode("utf-8"))

    # -- derived numbers --------------------------------------------------

    def _outermost(self, name: str) -> list[Span]:
        """Spans of `name` that are not nested inside another span of `name`."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None:
                out.append(span)
        return out

    def _total_s(self, name: str) -> float:
        return sum(s.ns for s in self._outermost(name)) / 1e9

    def _calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def metrics(self, work_start_ns: int, wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics and the details behind them (oracle keys).

        Self times only count spans that began inside the timed work, so they
        add up to the traced wall time less the unattributed remainder.
        """
        self_ns = dict.fromkeys(SELF_LAYERS, 0)
        for span in self.spans:
            if span.start >= work_start_ns:
                self_ns[span.layer] += span.ns - span.children_ns

        oracle = [s for s in self.spans if s.name == "oracle.enumerate_mis"]
        oracle_ns = sum(s.ns for s in oracle)
        worst = max(oracle, key=lambda s: s.ns, default=None)
        largest = sorted(oracle, key=lambda s: (-s.info, _graph_key(s)))[:10]
        lookups = self._calls("verify.oracle_distribution")
        reports = [s.info for s in self.spans if s.name == "verify.report_to_json"]
        m = {
            "catalog.load_s": self._total_s("catalog.load_catalog"),
            "catalog.loads": self._calls("catalog.load_catalog"),
            "catalog.self_s": self_ns["catalog"] / 1e9,
            "graphs.build_s": self._total_s("graphs.build_graph"),
            "graphs.builds": self._calls("graphs.build_graph"),
            "graphs.vertices": self.counts["graphs.vertices"],
            "graphs.self_s": self_ns["graphs"] / 1e9,
            "oracle.busy_s": self._total_s("oracle.enumerate_mis"),
            "oracle.calls": len(oracle),
            "oracle.sets": self.counts["oracle.sets"],
            "oracle.ns_per_set": oracle_ns / self.counts["oracle.sets"] if oracle else 0.0,
            "oracle.max_call_s": worst.ns / 1e9 if worst else 0.0,
            "oracle.top10_s": sum(s.ns for s in largest) / 1e9,
            "oracle.self_s": self_ns["oracle"] / 1e9,
            "verify.lookups": lookups,
            "verify.cache_hit_ratio": 1 - len(oracle) / lookups if lookups else 0.0,
            "verify.family_s": self._total_s("verify.verify_family"),
            "verify.transfer_s": self._total_s("verify.verify_transfer"),
            "verify.asymptotics_s": self._total_s("verify.verify_asymptotics"),
            "verify.self_s": self_ns["verify"] / 1e9,
            "verify.report_json_s": self._total_s("verify.report_to_json"),
            "verify.report_bytes": sum(reports),
            "pool.prefill_s": self_ns["pool"] / 1e9,
            "series.expand_s": self._total_s("series.series_in_x"),
            "series.expand_calls": self._calls("series.series_in_x"),
            "series.terms": self.counts["series.terms"],
            "series.coeff_bits": self.counts["series.coeff_bits"],
            "series.recurrence_s": self._total_s("series.recurrence_sequence"),
            "series.reduce_s": self._total_s("series.reduce_fraction"),
            "series.self_s": self_ns["series"] / 1e9,
            "asymptotics.root_s": self._total_s("asymptotics.smallest_positive_root"),
            "asymptotics.root_calls": self._calls("asymptotics.smallest_positive_root"),
            "asymptotics.estimate_s": self._total_s("asymptotics.family_estimate"),
            "asymptotics.self_s": self_ns["asymptotics"] / 1e9,
            "cli.self_s": self_ns["cli"] / 1e9,
            "trace.unattributed_s": wall_s - sum(self_ns.values()) / 1e9,
        }
        details = {
            "layer_calls": {layer: sum(1 for s in self.spans if s.layer == layer) for layer in SELF_LAYERS},
            "oracle_max_call": None if worst is None else _oracle_detail(worst),
            "oracle_top10": [_oracle_detail(s) for s in largest],
        }
        return m, details

    def write(self, path) -> None:
        """Dump every span as one JSON line; parents are referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "pass": self.pass_id, "id": i, "name": s.name, "layer": s.layer,
                    "start_ns": s.start, "end_ns": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                }) + "\n")
