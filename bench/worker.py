"""Run one ecpsim benchmark workload in this fresh interpreter.

Started by ``run.py``, never imported.  It imports ``ecpsim`` first thing, so
that the interval from ``--spawned-at`` (the parent's CLOCK_MONOTONIC reading
just before it spawned this process) to the end of that import is one
``setup_s`` sample.  It then issues ops closed loop from one thread, checks
every output and prints one JSON object as its last stdout line.

Every run issues a fixed number of ops, derived from ``--seconds`` and the
workload's nominal rate (``Workload.op_count``), so that ``attempted`` and
``failed`` repeat exactly whatever the host's speed.  With ``--trace 0`` those
ops run once and the end-to-end numbers are reported.  Op times are put on the
reference scale of ``gauge.SpeedGauge``, sampled between ops, so that the speed
phases of a shared host cancel; the unscaled wall-clock figures are reported
beside them.  With ``--trace 1`` half as many ops run twice over the same
inputs: untraced, then traced; the difference in throughput is the tracing
overhead.
"""

import sys
import time

_IMPORT_START = time.clock_gettime(time.CLOCK_MONOTONIC)
import ecpsim  # noqa: E402
import ecpsim.cli  # noqa: E402

_IMPORT_END = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from gauge import SpeedGauge  # noqa: E402
from tracer import LAYER_METRICS, ROOT_SPAN, Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, CheckFailed, known_defect  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGEST_OPS = 16  # outputs of the first ops of a seed are hashed; informational only
SPAN_OPS = 1  # full span records are kept for this many traced ops
MIN_TRACE_OPS = 2
_perf = time.perf_counter


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    wall_s: float = 0.0
    scaled_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    scaled_latencies_s: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    unexpected: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    digest_ops: int = 0

    @property
    def correct(self) -> bool:
        """No op gave a wrong output or failed in a way not recorded as a known defect."""
        return not self.unexpected


def run_ops(workload, inputs, gauge, tracer=None) -> Stats:
    """Closed loop: issue one op, wait for it, check its output, repeat for every input."""
    stats = Stats()
    for i, inp in enumerate(inputs):
        gauge.maybe_sample()
        if tracer is not None:
            tracer.op_index, tracer.record = i, i < SPAN_OPS
            frame = tracer.open(ROOT_SPAN)
            tracer.active = True
        start = _perf()
        try:
            outcome, error = workload.run(inp), None
        except Exception as exc:  # an op that raises is a failed op, never a crashed run
            outcome, error = None, exc
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.close(frame)
        elapsed = _perf() - start
        gauge.maybe_sample()  # a long op is scaled by samples taken on both sides of it
        scaled = elapsed * gauge.scale()

        if error is None:
            try:
                workload.check(inp, outcome)
            except Exception as exc:  # a malformed output fails its check, whatever raises
                error = exc
        stats.attempted += 1
        stats.wall_s += elapsed
        stats.scaled_s += scaled
        if error is None:
            stats.units += outcome.units
            stats.latencies_s.append(elapsed)
            stats.scaled_latencies_s.append(scaled)
        else:
            stats.failed += 1
            defect = known_defect(error)
            if defect is not None:
                stats.failures[defect.name] += 1
            else:
                kind = "check" if isinstance(error, CheckFailed) else type(error).__name__
                stats.failures[kind] += 1
                if len(stats.unexpected) < 3:
                    stats.unexpected.append(f"op {i}: {type(error).__name__}: {error}")
        if i < DIGEST_OPS:
            text = outcome.digest_text() if outcome is not None else f"error {type(error).__name__}\n"
            stats.digest.update(text.encode())
            stats.digest_ops += 1
    return stats


def _warm_up(workload, inp) -> None:
    try:
        workload.run(inp)
    except Exception:  # the measured loop runs this input again and records the outcome
        pass
    gc.collect()


def _percentile_90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _timings(units: int, total_s: float, latencies_s: list, attempted: int) -> dict:
    # Latency is over successful ops; failed ops are counted in completed_ratio instead.
    lat = latencies_s or [total_s / max(attempted, 1)]
    return {
        "throughput_per_s": (units / total_s, "units/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * _percentile_90(lat), "ms"),
    }


def _end_to_end(stats: Stats) -> dict:
    return {
        **_timings(stats.units, stats.scaled_s, stats.scaled_latencies_s, stats.attempted),
        "completed_ratio": ((stats.attempted - stats.failed) / stats.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _raw(stats: Stats) -> dict:
    """The same timings unscaled, as the wall clock read them."""
    return {
        name: value
        for name, (value, _) in _timings(
            stats.units, stats.wall_s, stats.latencies_s, stats.attempted
        ).items()
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _summary(stats: Stats) -> dict:
    return {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "correct": stats.correct,
        "failures": dict(stats.failures),
        "unexpected": stats.unexpected,
        "samples": len(stats.latencies_s),
        "outputs_sha256": stats.digest.hexdigest(),
        "digest_ops": stats.digest_ops,
    }


def untraced_run(workload, seed: int, seconds: float) -> dict:
    inputs = workload.inputs(seed, workload.op_count(seconds))
    gauge = SpeedGauge()
    _warm_up(workload, inputs[0])
    stats = run_ops(workload, inputs, gauge)
    return {
        **_summary(stats),
        **gauge.summary(),
        "raw": _raw(stats),
        "metrics": _end_to_end(stats),
    }


def traced_run(workload, seed: int, seconds: float) -> dict:
    inputs = workload.inputs(seed, max(MIN_TRACE_OPS, workload.op_count(seconds / 2)))
    gauge = SpeedGauge()
    _warm_up(workload, inputs[0])
    untraced = run_ops(workload, inputs, gauge)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, inputs, gauge, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.json")

    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    values = tracer.layer_metrics()
    untraced_tp = untraced.units / untraced.scaled_s
    traced_tp = traced.units / traced.scaled_s
    values.update({
        "cli.import_s": _IMPORT_END - _IMPORT_START,
        "trace.ops": traced.attempted,
        "trace.untraced_throughput_per_s": untraced_tp,
        "trace.traced_throughput_per_s": traced_tp,
        "trace.overhead_ratio": 1.0 - traced_tp / untraced_tp if untraced_tp else 0.0,
        "trace.self_share": tracer.layer_self_s() / traced.wall_s,
    })
    summary = _summary(traced)
    summary["correct"] = untraced.correct and traced.correct
    summary["hook_s"] = tracer.hook_s
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return {**summary, **gauge.summary(), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    expected = (ROOT / "src" / "ecpsim").resolve()
    if Path(ecpsim.__file__).resolve().parent != expected:
        print(f"worker: ecpsim imported from {ecpsim.__file__}, not {expected}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    result = run(workload, args.seed, args.seconds)
    result.update({
        "workload": workload.name,
        "op": workload.op,
        "work_unit": workload.unit,
        "known_defects": {
            d.name: {"description": d.description, "reproducer": list(d.reproducer)}
            for d in KNOWN_DEFECTS
            if d.name in result["failures"]
        },
        "seed": args.seed,
        "trace": args.trace,
        "setup_sample_s": _IMPORT_END - args.spawned_at,
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
