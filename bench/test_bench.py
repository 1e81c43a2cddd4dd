"""Self-tests for the ecpsim benchmark.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from ecpsim import oracle, protocol  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(workload_name, seed=0):
    return wl.WORKLOADS[workload_name].inputs(seed, 1)[0]


# -- definitions agree ----------------------------------------------------------------


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)


def test_per_layer_metrics_agree():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    for workload in wl.WORKLOADS.values():
        first = workload.inputs(7, 5)
        assert len(first) == 5
        assert first == workload.inputs(7, 5)
        assert first != workload.inputs(8, 5)


def test_mc_design_is_the_same_for_every_seed():
    def design(seed):
        return sorted((inp.alpha, inp.rounds) for inp in wl.mc_inputs(seed, 40))

    assert design(7) == design(8)
    assert [inp.mc_seed for inp in wl.mc_inputs(7, 40)] != [
        inp.mc_seed for inp in wl.mc_inputs(8, 40)
    ]


def test_op_count_is_fixed_by_seconds():
    for workload in wl.WORKLOADS.values():
        assert workload.op_count(30) == round(30 * workload.ops_per_s)
        assert workload.op_count(0.01) == 1


# -- every metric is emitted with its unit ----------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert f"  {name} " in proc.stdout
        assert isinstance(metric["value"], (int, float))


def test_run_refuses_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- checkers reject corrupted outputs ------------------------------------------------


def test_verify_check_rejects_a_failed_or_missing_comparison():
    inp = _first("verify-grid")
    good = wl.verify_op(inp)
    wl.check_verify(inp, good)

    bad = list(good.value)
    bad[3] = replace(bad[3], simulated=bad[3].simulated + 1e-6)
    with pytest.raises(wl.CheckFailed):
        wl.check_verify(inp, replace(good, value=bad))
    with pytest.raises(wl.CheckFailed):
        wl.check_verify(inp, replace(good, value=good.value[:-1]))


def _mc_ok_input():
    return wl.McInput(alpha=(0.8, 0.36, 0.48), rounds=(2, 2), mc_seed=5)


def _parse(simulate_out):
    return json.loads(simulate_out.rstrip("\n").rpartition("\n")[0])


def _render(trace):
    """``simulate`` stdout for a trace object: the JSON, then the summary line."""
    total = trace["total_success_probability"]
    return json.dumps(trace, indent=2) + f"\ntotal_success_probability={total!r}\n"


def test_mc_check_rejects_bad_counts_and_bad_total():
    inp = _mc_ok_input()
    good = wl.mc_op(inp)
    wl.check_mc(inp, good)

    miscounted = _parse(good.text)
    miscounted["monte_carlo"]["counts"]["alice_retry"] += 1
    with pytest.raises(wl.CheckFailed):
        wl.check_mc(inp, replace(good, text=_render(miscounted)))

    off = _parse(good.text)
    off["total_success_probability"] += 0.05
    with pytest.raises(wl.CheckFailed):
        wl.check_mc(inp, replace(good, text=_render(off)))


def _trace_sweep_ideal_input():
    inp = _first("trace-sweep")  # even ops are ideal
    assert inp.cavity is None
    return inp


def test_trace_sweep_check_rejects_total_off_by_1e_6():
    inp = _trace_sweep_ideal_input()
    good = wl.trace_sweep_op(inp)
    wl.check_trace_sweep(inp, good)
    trace_out, csv_out = good.value
    trace = _parse(trace_out)
    trace["total_success_probability"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.check_trace_sweep(inp, replace(good, value=(_render(trace), csv_out)))


def test_trace_sweep_check_rejects_branches_not_summing_to_one():
    inp = _trace_sweep_ideal_input()
    good = wl.trace_sweep_op(inp)
    trace_out, csv_out = good.value
    trace = _parse(trace_out)
    trace["branches"][0]["probability"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.check_trace_sweep(inp, replace(good, value=(_render(trace), csv_out)))


@pytest.mark.parametrize("column", [5, 8])  # p_total, p_practical
def test_trace_sweep_check_rejects_csv_row_that_is_not_a_product(column):
    inp = _trace_sweep_ideal_input()
    good = wl.trace_sweep_op(inp)
    trace_out, csv_out = good.value
    lines = csv_out.splitlines()
    cells = lines[10].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-9))
    lines[10] = ",".join(cells)
    with pytest.raises(wl.CheckFailed):
        wl.check_trace_sweep(inp, replace(good, value=(trace_out, "\n".join(lines) + "\n")))


def test_known_defect_matches_only_its_raising_function():
    def _sample_branches():
        raise ValueError("inhomogeneous shape")

    def elsewhere():
        raise ValueError("inhomogeneous shape")

    for fn, expected in ((_sample_branches, "mc-ragged-stages"), (elsewhere, None)):
        with pytest.raises(ValueError) as info:
            fn()
        defect = wl.known_defect(info.value)
        assert (defect.name if defect else None) == expected


# -- tracing ----------------------------------------------------------------------------


def test_traced_counts_per_verify_grid_point_and_uninstall():
    original = protocol.alice_round
    tracer = Tracer()
    tracer.install()
    try:
        assert oracle.alice_round is not original
        tracer.active = True
        frame = tracer.open("bench.op")
        wl.verify_op(_first("verify-grid"))
        tracer.close(frame)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert oracle.alice_round is original and protocol.alice_round is original
    metrics = tracer.layer_metrics()
    assert metrics["protocol.rounds"] == 465
    assert metrics["oracle.tree_nodes"] == 1861
    assert metrics["hilbert.builds"] == 6511
    assert metrics["oracle.comparisons"] == 9
    assert tracer.layer_self_s() >= 0.95 * tracer.total_s["bench.op"]
