"""ecpsim benchmark: one command that runs a workload, checks every op and prints its metrics.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own fresh interpreter (``worker.py``), so set-up
time and peak memory are never shared between workloads.  ``setup_s`` is the
median over several fresh interpreters of the time from spawning one until
``import ecpsim, ecpsim.cli`` has finished: fifteen probe interpreters that only
import, plus the worker itself.  The median is put on the reference scale of
``gauge.SpeedGauge`` with one factor for the run, from the kernel times taken
before each spawn: single imports are too noisy to scale one by one, but a
slow host phase lasting minutes moves them all.  BLAS/OpenMP thread pools are
pinned to one thread.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  ``correct`` is false when an op gave a wrong
output or failed in a way not recorded in ``workloads.KNOWN_DEFECTS``; every
failed op, known or not, counts in ``failed`` and in ``completed_ratio``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-grid", "mc-sample", "trace-sweep")
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
_PROBE = (
    "import time\n"
    "import ecpsim, ecpsim.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), ecpsim.__file__)\n"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported ecpsim and ecpsim.cli."""
    spawned = _now()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr.strip()}")
    stamp, _, where = proc.stdout.strip().partition(" ")
    if Path(where).resolve().parent != (SRC / "ecpsim").resolve():
        raise BenchError(f"ecpsim imported from {where}, not from {SRC}")
    return float(stamp) - spawned


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    env = child_env()
    gauge = SpeedGauge()
    setup_probe(env)  # unmeasured: compiles bytecode once, as an installed package would have
    samples = []
    for _ in range(SETUP_PROBES):
        gauge.sample()
        samples.append(setup_probe(env))
    gauge.sample()
    spawned = _now()
    try:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--spawned-at", repr(spawned),
            ],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    samples.append(result.pop("setup_sample_s"))
    result["setup_samples_s"] = samples
    if not trace:
        scale = gauge.REFERENCE_S / statistics.median(gauge.samples)
        result["metrics"]["setup_s"] = (statistics.median(samples) * scale, "s")
        result["raw"]["setup_s"] = statistics.median(samples)
    return result


def report(result: dict) -> None:
    """Print every metric by name with its unit, and what qualifies it."""
    env = result["environment"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu']}"
    )
    print(f"  op: {result['op']}; work unit: {result['work_unit']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':<34} {failed / attempted:>16.6g} 1  ({failed} of {attempted} ops)")
    for kind, n in sorted(result["failures"].items()):
        print(f"    failures[{kind}] = {n} ({n / attempted:.4f} of attempted ops)")
        if kind in result["known_defects"]:
            defect = result["known_defects"][kind]
            print(f"      known defect: {defect['description']}")
            print(f"      reproducer: ecpsim {' '.join(defect['reproducer'])}")
    for line in result["unexpected"]:
        print(f"    unexpected failure: {line}")
    print(f"  latency samples: {result['samples']} successful ops")
    if "raw" in result:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items())
        print(f"  unscaled wall clock: {raw}")
    print(
        f"  speed gauge: {result['speed_samples']} samples, kernel median "
        f"{1e3 * result['speed_median_s']:.3f} ms (min {1e3 * result['speed_min_s']:.3f}, "
        f"max {1e3 * result['speed_max_s']:.3f})"
    )
    print(
        f"  setup samples (s): {', '.join(f'{s:.4f}' for s in result['setup_samples_s'])}"
    )
    if "hook_s" in result:
        print(f"  tracing hooks (charged to no layer): {result['hook_s']:.4f} s")
    print(f"  outputs_sha256 (first {result['digest_ops']} ops): {result['outputs_sha256']}")


def final_line(results: list) -> str:
    many = len(results) > 1
    metrics = {}
    for res in results:
        for name, (value, unit) in res["metrics"].items():
            key = f"{res['workload']}/{name}" if many else name
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ecpsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "ecpsim" / "__init__.py").is_file():
        print(f"bench: no ecpsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    print(final_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
