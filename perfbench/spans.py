"""In-memory span tracing for the traced run, and the per-layer metrics.

A traced pass replaces the stage functions that ``semispec.experiments``
looks up with wrappers from this file; the package itself is not changed.
Each call records a span (name, start, end, parent, item id) plus counts
taken from the call's inputs and outputs.  Spans stay in memory until the
benchmark writes them out at the end.

A span's self time is its duration minus the durations of its child spans
(calls nest and never overlap: one thread).  The self times of all spans
of a pass add up to the pass's duration.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    item: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._items = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            item = None
        elif self.spans[parent].parent is None:  # a pass's child: new item
            item = self._items
            self._items += 1
        else:
            item = self.spans[parent].item
        s = Span(name, parent=parent, item=item)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def to_json(self):
        return [asdict(s) for s in self.spans]


def _wrap(tracer, span_name, fn, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as s:
            out = fn(*args, **kwargs)
        if describe is not None:
            s.attrs.update(describe(args, out))
        return out
    return wrapper


def _matrix(args, op):
    return {"matrix_bytes": op.matrix.nbytes}


# Name looked up on semispec.experiments -> (span name, counts from the call).
STAGES = {
    "run_experiment": ("experiments.run", None),
    "write_result": ("experiments.write", lambda a, out: {"dir": str(out)}),
    "parse_circle": ("grammar.parse", None),
    "parse_plane": ("grammar.parse", None),
    "quantize_circle": ("circle_quantize.quantize", _matrix),
    "quantize_plane": ("fock_quantize.quantize", _matrix),
    "eigenvalues_of": ("eig.solve", lambda a, spec: {
        "dim": len(spec.eigenvalues),
        "fingerprint": spec.source_fingerprint,
        "backward_error": spec.tolerance}),
    "default_rect": ("action.rect", None),
    "predict_spectrum": ("action.predict", lambda a, pred: {
        "mode": pred.mode, "points": len(pred.points)}),
    "pair_spectra": ("compare.pair", lambda a, pairs: {
        "candidates": len(a[0]) * len(a[1]), "pairs": len(pairs)}),
    "summarize_pairs": ("compare.summarize", None),
}


@contextmanager
def traced(module, tracer):
    """Swap the STAGES names on ``module`` for wrappers; yield the names
    that were absent (their layers report zeros); restore on exit."""
    saved = {}
    absent = []
    for name, (span_name, describe) in STAGES.items():
        fn = getattr(module, name, None)
        if fn is None:
            absent.append(name)
            continue
        saved[name] = fn
        setattr(module, name, _wrap(tracer, span_name, fn, describe))
    try:
        yield absent
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def record_written(tracer):
    """Add file counts and sizes to experiments.write spans (untimed)."""
    for s in tracer.spans:
        if s.name == "experiments.write" and "files" not in s.attrs:
            files = [p for p in Path(s.attrs["dir"]).iterdir() if p.is_file()]
            s.attrs["files"] = len(files)
            s.attrs["bytes"] = sum(p.stat().st_size for p in files)


# (name, unit, better): the traced run reports these, per traced pass.
PER_LAYER = (
    ("eig.calls", "count", "lower"),
    ("eig.self_s", "s", "lower"),
    ("eig.share", "ratio", "lower"),
    ("eig.distinct_matrices", "count", "lower"),
    ("eig.reuse_ratio", "ratio", "higher"),
    ("eig.dim3_sum", "count", "lower"),
    ("eig.ns_per_dim3", "ns", "lower"),
    ("eig.max_backward_error", "rel", "lower"),
    ("action.exact_calls", "count", "lower"),
    ("action.exact_self_s", "s", "lower"),
    ("action.averaged_self_s", "s", "lower"),
    ("action.rect_s", "s", "lower"),
    ("action.points", "count", "higher"),
    ("action.share", "ratio", "lower"),
    ("compare.calls", "count", "lower"),
    ("compare.self_s", "s", "lower"),
    ("compare.candidates", "count", "lower"),
    ("compare.pairs", "count", "higher"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("experiments.files_written", "count", "lower"),
    ("experiments.bytes_written", "B", "lower"),
    ("grammar.calls", "count", "lower"),
    ("grammar.self_s", "s", "lower"),
    ("circle_quantize.calls", "count", "lower"),
    ("circle_quantize.self_s", "s", "lower"),
    ("circle_quantize.matrix_bytes", "B", "lower"),
    ("fock_quantize.calls", "count", "lower"),
    ("fock_quantize.self_s", "s", "lower"),
    ("fock_quantize.matrix_bytes", "B", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.bench_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics as means per traced pass.

    Counts repeat exactly from pass to pass.  Times are means, so the self
    times of all layers plus ``trace.bench_self_s`` add up to
    ``trace.pass_s``.  A ratio with a zero base (eig on a workload that
    solves nothing) reads 0.  ``trace.overhead_s`` is added by the caller,
    which also timed untraced passes.
    """
    spans = tracer.spans
    self_s = [s.end - s.start for s in spans]
    root_of = []
    for i, s in enumerate(spans):
        if s.parent is not None:
            self_s[s.parent] -= s.end - s.start
        root_of.append(i if s.parent is None else root_of[s.parent])
    n = sum(1 for s in spans if s.parent is None)
    time_s = {}
    calls = {}
    count = {}
    fingerprints = set()
    max_backward = 0.0
    for i, s in enumerate(spans):
        key = s.name
        if key == "action.predict":
            key = ("action.exact" if s.attrs.get("mode") == "principal_exact"
                   else "action.averaged")
        time_s[key] = time_s.get(key, 0.0) + self_s[i]
        calls[key] = calls.get(key, 0) + 1
        for attr in ("matrix_bytes", "points", "candidates", "pairs",
                     "files", "bytes"):
            if attr in s.attrs:
                name = f"{key}.{attr}"
                count[name] = count.get(name, 0) + s.attrs[attr]
        if key == "eig.solve" and s.attrs:  # no attrs: the call raised
            count["dim3"] = count.get("dim3", 0) + s.attrs["dim"] ** 3
            fingerprints.add((root_of[i], s.attrs["fingerprint"]))
            max_backward = max(max_backward, s.attrs["backward_error"])

    def t(*keys):
        return sum(time_s.get(k, 0.0) for k in keys) / n

    def c(key):
        return count.get(key, 0) / n

    def k(key):
        return calls.get(key, 0) / n

    pass_s = sum(s.end - s.start for s in spans if s.parent is None) / n
    eig_s = t("eig.solve")
    distinct = len(fingerprints) / n
    return {
        "eig.calls": k("eig.solve"),
        "eig.self_s": eig_s,
        "eig.share": _ratio(eig_s, pass_s),
        "eig.distinct_matrices": distinct,
        "eig.reuse_ratio": _ratio(distinct, k("eig.solve")),
        "eig.dim3_sum": c("dim3"),
        "eig.ns_per_dim3": _ratio(eig_s * 1e9, c("dim3")),
        "eig.max_backward_error": max_backward,
        "action.exact_calls": k("action.exact"),
        "action.exact_self_s": t("action.exact"),
        "action.averaged_self_s": t("action.averaged"),
        "action.rect_s": t("action.rect"),
        "action.points":
            c("action.exact.points") + c("action.averaged.points"),
        "action.share": _ratio(
            t("action.exact", "action.averaged", "action.rect"), pass_s),
        "compare.calls": k("compare.pair"),
        "compare.self_s": t("compare.pair", "compare.summarize"),
        "compare.candidates": c("compare.pair.candidates"),
        "compare.pairs": c("compare.pair.pairs"),
        "experiments.self_s": t("experiments.run"),
        "experiments.write_s": t("experiments.write"),
        "experiments.files_written": c("experiments.write.files"),
        "experiments.bytes_written": c("experiments.write.bytes"),
        "grammar.calls": k("grammar.parse"),
        "grammar.self_s": t("grammar.parse"),
        "circle_quantize.calls": k("circle_quantize.quantize"),
        "circle_quantize.self_s": t("circle_quantize.quantize"),
        "circle_quantize.matrix_bytes":
            c("circle_quantize.quantize.matrix_bytes"),
        "fock_quantize.calls": k("fock_quantize.quantize"),
        "fock_quantize.self_s": t("fock_quantize.quantize"),
        "fock_quantize.matrix_bytes": c("fock_quantize.quantize.matrix_bytes"),
        "trace.pass_s": pass_s,
        "trace.bench_self_s": t("pass", "bench.item"),
    }
