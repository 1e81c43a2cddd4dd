"""In-memory span tracing of ecpsim's public functions, installed from the benchmark.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces each
traced function with a wrapper in every ``ecpsim`` module namespace that binds
it: ``oracle``, ``protocol`` and ``cli`` import names such as ``alice_round``,
``detect`` and ``compare_all`` directly, so patching only the defining module
would miss those calls.  Methods are wrapped on their class.

A span's self time is its duration minus the time its child spans cover.
Counting hooks (tree nodes, detection events, shots, bytes) run after a span
closes; their time is charged to ``hook_s`` and to no layer.  Aggregates are
kept for every span; full span records (name, start, end, parent, op) only
for the ops started while ``record`` is set, and are written out at the end.

None of the traced layers has a queue: the benchmark is a single-threaded
closed loop, so no op ever waits, and no wait time is reported.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter

# Public closed forms; p1_total/p2_total call p1_round/p2_round, and each call is counted.
CLOSED_FORMS = (
    "p1_round", "p2_round", "p1_total", "p2_total", "pt_one_round",
    "practical_p1", "practical_p2", "practical_total",
)

# (metric, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("hilbert.builds", "count", "lower", "throughput_per_s, latency_p50_ms on verify-grid; then trace-sweep"),
    ("hilbert.build_self_s", "s", "lower", "throughput_per_s, latency_p50_ms on verify-grid; then trace-sweep"),
    ("hilbert.tensor_self_s", "s", "lower", "throughput_per_s, latency_p50_ms on verify-grid; then trace-sweep"),
    ("cavity.gate_calls", "count", "lower", "verify-grid, then trace-sweep"),
    ("cavity.gate_self_s", "s", "lower", "verify-grid, then trace-sweep"),
    ("cavity.hwp_self_s", "s", "lower", "verify-grid, then trace-sweep"),
    ("cavity.detect_self_s", "s", "lower", "verify-grid, then trace-sweep"),
    ("cavity.detect_events", "count", "lower", "verify-grid, then trace-sweep"),
    ("cavity.scatter_calls", "count", "lower", "trace-sweep"),
    ("cavity.scatter_self_s", "s", "lower", "trace-sweep"),
    ("protocol.rounds", "count", "lower", "verify-grid, then trace-sweep"),
    ("protocol.round_self_s", "s", "lower", "verify-grid, then trace-sweep"),
    ("protocol.round_mean_us", "us", "lower", "verify-grid, then trace-sweep"),
    ("protocol.run_self_s", "s", "lower", "throughput_per_s on mc-sample"),
    ("protocol.shots", "count", "higher", "throughput_per_s on mc-sample"),
    ("protocol.branch_records", "count", "lower", "throughput_per_s on mc-sample"),
    ("protocol.uniforms_used_ratio", "1", "higher", "throughput_per_s on mc-sample"),
    ("protocol.to_json_self_s", "s", "lower", "latency_p50_ms on trace-sweep and mc-sample"),
    ("analytics.closed_form_calls", "count", "lower", "trace-sweep; small share on verify-grid"),
    ("analytics.closed_form_self_s", "s", "lower", "trace-sweep; small share on verify-grid"),
    ("analytics.sweep_points", "count", "higher", "trace-sweep"),
    ("analytics.sweep_self_s", "s", "lower", "trace-sweep"),
    ("analytics.csv_self_s", "s", "lower", "trace-sweep"),
    ("analytics.csv_bytes", "B", "lower", "trace-sweep"),
    ("oracle.tree_nodes", "count", "lower", "verify-grid"),
    ("oracle.enumerate_self_s", "s", "lower", "verify-grid"),
    ("oracle.compare_self_s", "s", "lower", "verify-grid"),
    ("oracle.comparisons", "count", "higher", "verify-grid"),
    ("oracle.comparisons_failed", "count", "lower", "verify-grid"),
    ("cli.import_s", "s", "lower", "setup_s on all workloads"),
    ("cli.main_self_s", "s", "lower", "latency on trace-sweep and mc-sample"),
    ("cli.stdout_bytes", "B", "lower", "latency on trace-sweep and mc-sample"),
    ("trace.ops", "count", "higher", "ops in the traced pass (the same inputs as the untraced pass)"),
    ("trace.untraced_throughput_per_s", "units/s", "higher", "throughput_per_s, measured without tracing"),
    ("trace.traced_throughput_per_s", "units/s", "higher", "throughput_per_s, measured with tracing"),
    ("trace.overhead_ratio", "1", "lower", "1 - traced/untraced throughput"),
    ("trace.self_share", "1", "higher", "layer self time over op wall time; must be >= 0.95"),
)

# Span name -> (metric counting its calls or None, metric summing its self time).
_SPAN_METRICS = {
    "hilbert.build": ("hilbert.builds", "hilbert.build_self_s"),
    "hilbert.tensor": (None, "hilbert.tensor_self_s"),
    "cavity.gate": ("cavity.gate_calls", "cavity.gate_self_s"),
    "cavity.hwp": (None, "cavity.hwp_self_s"),
    "cavity.detect": (None, "cavity.detect_self_s"),
    "cavity.scatter": ("cavity.scatter_calls", "cavity.scatter_self_s"),
    "protocol.round": ("protocol.rounds", "protocol.round_self_s"),
    "protocol.run": (None, "protocol.run_self_s"),
    "protocol.to_json": (None, "protocol.to_json_self_s"),
    "analytics.closed_form": ("analytics.closed_form_calls", "analytics.closed_form_self_s"),
    "analytics.sweep": (None, "analytics.sweep_self_s"),
    "analytics.csv": (None, "analytics.csv_self_s"),
    "oracle.enumerate": (None, "oracle.enumerate_self_s"),
    "oracle.compare": (None, "oracle.compare_self_s"),
    "cli.main": (None, "cli.main_self_s"),
}

ROOT_SPAN = "bench.op"


class Tracer:
    """Span stack plus per-span-name aggregates; one per traced run."""

    def __init__(self) -> None:
        self.active = False
        self.record = False
        self.op_index = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.hook_s = 0.0
        self.spans: list[tuple] = []
        # Open spans: [name, start, child_seconds, span_id or None].
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def open(self, name: str) -> list:
        span_id = None
        if self.record:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = _perf()
        return frame

    def close(self, frame: list) -> float:
        end = _perf()
        stack = self._stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if stack:
            stack[-1][2] += duration
        if span_id is not None:
            parent = stack[-1][3] if stack else None
            self.spans[span_id] = (span_id, parent, name, start, end, self.op_index)
        return end

    def charge_hook(self, since: float) -> None:
        """Keep the time a counting hook took out of every layer's self time."""
        spent = _perf() - since
        self.hook_s += spent
        if self._stack:
            self._stack[-1][2] += spent

    def wrap(self, name, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pre = before() if before is not None else None
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.close(frame)
            if after is not None:
                after(tracer.counts, args, kwargs, result, pre)
                tracer.charge_hook(end)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _patch_function(self, name, module, attr, after=None, before=None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ecpsim" or mod_name.startswith("ecpsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _patch_method(self, name, cls, attr, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._restore.append((cls, attr, original))

    def install(self) -> None:
        from ecpsim import analytics, cavity, cli, hilbert, oracle, protocol

        self._patch_method("hilbert.build", hilbert.StateVector, "__init__")
        self._patch_method("hilbert.tensor", hilbert.StateVector, "tensor_with_photon")
        self._patch_function("cavity.gate", cavity, "apply_ebs_gate")
        self._patch_function("cavity.hwp", cavity, "hwp45")
        self._patch_function("cavity.detect", cavity, "detect", after=_count_detect)
        self._patch_function("cavity.scatter", cavity, "scatter_coefficients")
        self._patch_function("protocol.round", protocol, "alice_round")
        self._patch_function("protocol.round", protocol, "charlie_round")
        self._patch_function("protocol.run", protocol, "run_protocol", after=_count_run)
        self._patch_method("protocol.to_json", protocol.ProtocolTrace, "to_json_obj")
        for attr in CLOSED_FORMS:
            self._patch_function("analytics.closed_form", analytics, attr)
        self._patch_function("analytics.sweep", analytics, "sweep", after=_count_sweep)
        self._patch_function(
            "analytics.csv", analytics, "write_sweep_csv", after=_count_csv, before=_stdout_pos
        )
        self._patch_function("oracle.enumerate", oracle, "enumerate_tree", after=_count_tree)
        self._patch_function("oracle.compare", oracle, "compare_all", after=_count_reports)
        self._patch_function("cli.main", cli, "main", after=_count_stdout, before=_stdout_pos)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric of :data:`LAYER_METRICS` that the spans and hooks give."""
        out: dict[str, float] = {}
        for span, (calls_metric, self_metric) in _SPAN_METRICS.items():
            if calls_metric is not None:
                out[calls_metric] = self.calls.get(span, 0)
            out[self_metric] = self.self_s.get(span, 0.0)
        rounds = self.calls.get("protocol.round", 0)
        out["protocol.round_mean_us"] = (
            1e6 * self.total_s.get("protocol.round", 0.0) / rounds if rounds else 0.0
        )
        drawn = self.counts.get("uniforms_drawn", 0)
        out["protocol.uniforms_used_ratio"] = (
            self.counts.get("uniforms_used", 0) / drawn if drawn else 0.0
        )
        for metric in (
            "cavity.detect_events", "protocol.shots", "protocol.branch_records",
            "analytics.sweep_points", "analytics.csv_bytes", "oracle.tree_nodes",
            "oracle.comparisons", "oracle.comparisons_failed", "cli.stdout_bytes",
        ):
            out[metric] = self.counts.get(metric, 0)
        return out

    def layer_self_s(self) -> float:
        """Self time of every traced layer, excluding the benchmark's own root span."""
        return sum(s for name, s in self.self_s.items() if name != ROOT_SPAN)

    def write_spans(self, path: Path) -> None:
        fields = ["id", "parent", "name", "start_s", "end_s", "op"]
        spans = [s for s in self.spans if s is not None]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": fields, "spans": spans}))


# -- counting hooks: (counts, args, kwargs, result, value from before) --------------


def _stdout_pos():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _stdout_delta(pre) -> int:
    post = _stdout_pos()
    return 0 if pre is None or post is None else post - pre


def _count_detect(counts, args, kwargs, events, pre) -> None:
    counts["cavity.detect_events"] += len(events)


def _count_run(counts, args, kwargs, trace, pre) -> None:
    counts["protocol.branch_records"] += len(trace.branches)
    if trace.shots:
        config = args[1] if len(args) > 1 else kwargs["config"]
        stages = config.max_rounds_alice + config.max_rounds_charlie
        counts["protocol.shots"] += trace.shots
        counts["uniforms_drawn"] += trace.shots * stages
        counts["uniforms_used"] += sum(b.count * len(b.path) for b in trace.branches)


def _count_sweep(counts, args, kwargs, points, pre) -> None:
    counts["analytics.sweep_points"] += len(points)


def _count_csv(counts, args, kwargs, result, pre) -> None:
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    if stream is sys.stdout:
        counts["analytics.csv_bytes"] += _stdout_delta(pre)


def _count_tree(counts, args, kwargs, root, pre) -> None:
    counts["oracle.tree_nodes"] += sum(1 for _ in root.walk())


def _count_reports(counts, args, kwargs, reports, pre) -> None:
    counts["oracle.comparisons"] += len(reports)
    counts["oracle.comparisons_failed"] += sum(1 for r in reports if not r.passed)


def _count_stdout(counts, args, kwargs, code, pre) -> None:
    counts["cli.stdout_bytes"] += _stdout_delta(pre)
