import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import ecpsim
import ecpsim.errors
from ecpsim import (
    CavityParams,
    DenominatorConvention,
    ProtocolConfig,
    WCoefficients,
    ZeroStateError,
    p1_total,
    p2_total,
    run_protocol,
)
from ecpsim.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- simulate -----------------------------------------------------------------


def test_simulate_tree_summary_line(capsys):
    code, out, _ = run(
        ["simulate", "--alpha", "0.5774,0.5774,0.5774", "--rounds", "1,1", "--mode", "tree"],
        capsys,
    )
    assert code == 0
    summary = [l for l in out.splitlines() if l.startswith("total_success_probability=")]
    assert len(summary) == 1
    value = float(summary[0].split("=", 1)[1])
    assert value == pytest.approx(0.25, abs=1e-12)


def test_simulate_emits_parseable_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    code, _, _ = run(
        ["simulate", "--alpha", "0.6,0.6,0.52915", "--seed", "9", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["config"]["rng_seed"] == 9
    assert obj["branches"]
    assert 0.0 <= obj["total_success_probability"] <= 1.0


def test_simulate_degenerate_alpha_exits_2(capsys):
    code, _, err = run(["simulate", "--alpha", "1,0,0"], capsys)
    assert code == 2
    assert "InvalidCoefficients" in err


def test_simulate_mc_requires_shots(capsys):
    code, _, err = run(["simulate", "--alpha", "0.5774,0.5774,0.5774", "--mode", "mc"], capsys)
    assert code == 2
    assert "n_shots" in err


def test_simulate_mc_byte_identical(tmp_path, capsys):
    args = [
        "simulate",
        "--alpha",
        "0.5774,0.5774,0.5774",
        "--mode",
        "mc",
        "--shots",
        "100000",
        "--seed",
        "42",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(f1)], capsys)[0] == 0
    assert run(args + ["--out", str(f2)], capsys)[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    obj = json.loads(f1.read_text())
    assert obj["monte_carlo"]["shots"] == 100000


def test_simulate_mc_with_ragged_stages(tmp_path, capsys):
    # At 7 rounds some detectors' amplitudes all fall below tolerance, so the
    # stages have different numbers of outcomes.
    shots = 20000
    out_file = tmp_path / "trace.json"
    code, _, _ = run(
        ["simulate", "--mode", "mc", "--alpha", "0.8,0.36,0.48", "--rounds", "7,7",
         "--shots", str(shots), "--seed", "5", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert sum(obj["monte_carlo"]["counts"].values()) == shots
    c = WCoefficients.normalized(0.8, 0.36, 0.48)
    expected = p1_total(c, 7) * p2_total(c, 7)
    assert expected == pytest.approx(0.3888, abs=1e-4)
    sigma = math.sqrt(expected * (1.0 - expected) / shots)
    assert abs(obj["total_success_probability"] - expected) <= 5.0 * sigma


def test_simulate_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ECP_SEED", "123")
    out_file = tmp_path / "trace.json"
    code, _, _ = run(
        ["simulate", "--alpha", "0.5774,0.5774,0.5774", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert json.loads(out_file.read_text())["config"]["rng_seed"] == 123


def test_simulate_seed_flag_overrides_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ECP_SEED", "123")
    out_file = tmp_path / "trace.json"
    run(
        ["simulate", "--alpha", "0.5774,0.5774,0.5774", "--seed", "7", "--out", str(out_file)],
        capsys,
    )
    assert json.loads(out_file.read_text())["config"]["rng_seed"] == 7


def test_simulate_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("ECP_SEED", "not-a-number")
    code, _, err = run(["simulate", "--alpha", "0.5774,0.5774,0.5774"], capsys)
    assert code == 2
    assert "ECP_SEED" in err


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--alpha", "1,1,1"], ["sweep", "--points", "3"]],
    ids=["simulate", "sweep"],
)
@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-parent", "directory"])
def test_unwritable_out_exits_2(argv, target, tmp_path, capsys):
    code, out, err = run(argv + ["--out", str(tmp_path / target)], capsys)
    assert code == 2
    assert "ConfigError: out: cannot write" in err
    assert out == ""


def test_simulate_at_the_round_limit(tmp_path, capsys):
    # 64 rounds per station is the closed forms' limit too; 65 exits 2.
    out_file = tmp_path / "trace.json"
    argv = ["simulate", "--alpha", "1,1,1", "--rounds", "64,64", "--out", str(out_file)]
    assert run(argv, capsys)[0] == 0
    assert out_file.stat().st_size > 0


def test_simulate_malformed_alpha(capsys):
    code, _, err = run(["simulate", "--alpha", "0.5,0.5"], capsys)
    assert code == 2
    assert "alpha" in err


# -- config files -----------------------------------------------------------------


def write_config(tmp_path, obj):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_config_file_drives_simulation(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"alpha": [0.5774, 0.5774, 0.5774], "rounds": [2, 2], "mode": "mc", "shots": 1000, "seed": 3},
    )
    out_file = tmp_path / "trace.json"
    code, _, _ = run(["simulate", "--config", path, "--out", str(out_file)], capsys)
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["config"]["max_rounds_alice"] == 2
    assert obj["config"]["rng_seed"] == 3
    assert obj["monte_carlo"]["shots"] == 1000


def test_config_file_flags_override(tmp_path, capsys):
    path = write_config(tmp_path, {"alpha": [0.5774, 0.5774, 0.5774], "seed": 3})
    out_file = tmp_path / "trace.json"
    run(["simulate", "--config", path, "--seed", "11", "--out", str(out_file)], capsys)
    assert json.loads(out_file.read_text())["config"]["rng_seed"] == 11


def test_config_seed_skips_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ECP_SEED", "abc")
    path = write_config(tmp_path, {"alpha": [0.5774, 0.5774, 0.5774], "seed": 5})
    out_file = tmp_path / "trace.json"
    code, _, _ = run(["simulate", "--config", path, "--out", str(out_file)], capsys)
    assert code == 0
    assert json.loads(out_file.read_text())["config"]["rng_seed"] == 5


def test_config_file_unknown_key_named(tmp_path, capsys):
    path = write_config(tmp_path, {"alpha": [0.5774, 0.5774, 0.5774], "alpha4": 0.2})
    code, _, err = run(["simulate", "--config", path], capsys)
    assert code == 2
    assert "alpha4" in err


def test_config_file_unknown_cavity_key(tmp_path, capsys):
    # "convention" is CavityParams's last field, but the file keeps it a top-level key
    for key, value in (("xi", 2), ("convention", "corrected")):
        path = write_config(
            tmp_path, {"alpha": [0.5774, 0.5774, 0.5774], "cavity": {"kappa_s": 0.1, key: value}}
        )
        code, _, err = run(["simulate", "--config", path], capsys)
        assert code == 2
        assert err == f"error: ConfigError: config: unknown cavity key {key!r}\n"


def test_config_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    code, _, err = run(["simulate", "--config", str(path)], capsys)
    assert code == 2
    assert "config" in err


def test_config_file_missing(tmp_path, capsys):
    code, _, err = run(["simulate", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2


BEYOND_FLOAT = 10**400  # a JSON integer no float can hold
SQUARE_BEYOND_FLOAT = 10**200  # a float can hold it, but not its square


@pytest.mark.parametrize(
    "argv, obj, error",
    [
        (["simulate"], {"alpha": [BEYOND_FLOAT, 1, 1]}, "ConfigError: config: alpha must be 3 numbers"),
        (
            ["simulate"],
            {"alpha": [1, 1, 1], "cavity": {"kappa_s": 0.1, "g": BEYOND_FLOAT, "gamma": 0.1}},
            "ConfigError: config: cavity values must be numbers",
        ),
        (
            ["sweep"],
            {"sweep": {"alpha1_range": [0.1, -BEYOND_FLOAT]}},
            "ConfigError: config: sweep.alpha1_range must be [lo, hi]",
        ),
        (["sweep"], {"sweep": {"alpha2": BEYOND_FLOAT}}, "ConfigError: config: sweep.alpha2 must be a number"),
        (
            ["sweep"],
            {"cavity": {"kappa_s": BEYOND_FLOAT, "g": 0.5, "gamma": 0.1}},
            "ConfigError: config: cavity values must be numbers",
        ),
        (
            ["simulate"],
            {"alpha": [1, 1, 1], "rounds": [BEYOND_FLOAT, 1]},
            "ConfigError: round limits must be at most 64",
        ),
        (  # normalizes to (1, 1e-200, 1e-200), whose a2 and a3 fall below the amplitude drop
            ["simulate"],
            {"alpha": [SQUARE_BEYOND_FLOAT, 1, 1]},
            "InvalidCoefficientsError: no alice_success outcome",
        ),
        (
            ["sweep"],
            {"sweep": {"alpha1_range": [0.1, SQUARE_BEYOND_FLOAT]}},
            "DomainError: alpha1 range exceeds normalization",
        ),
        (["sweep"], {"sweep": {"points": BEYOND_FLOAT}}, "DomainError: n_points must be at most 100000"),
    ],
    ids=[
        "alpha", "cavity", "alpha1_range", "alpha2", "sweep-cavity", "rounds", "alpha-square",
        "alpha1_range-square", "points",
    ],
)
def test_config_integer_beyond_float_range_exits_2(tmp_path, capsys, argv, obj, error):
    path = write_config(tmp_path, obj)
    code, out, err = run(argv + ["--config", path, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert error in err
    assert "total_success_probability" not in out


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_config_integer_beyond_digit_limit_exits_2(tmp_path, capsys, command):
    # json.load raises a plain ValueError for an integer past Python's
    # 4 300-digit int/str conversion limit, not a JSONDecodeError.
    path = tmp_path / "run.json"
    path.write_text('{"alpha": [1, 1, 1], "rounds": [' + "9" * 5000 + ", 1]}")
    code, out, err = run([command, "--config", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "ConfigError: config: unreadable number in" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_integer_alpha_matches_flag(tmp_path, capsys):
    path = write_config(tmp_path, {"alpha": [1, 2, 3]})
    from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
    assert run(["simulate", "--config", path, "--out", str(from_file)], capsys)[0] == 0
    assert run(["simulate", "--alpha", "1,2,3", "--out", str(from_flag)], capsys)[0] == 0
    assert from_file.read_text() == from_flag.read_text()


def test_simulate_requires_alpha_somewhere(capsys):
    code, _, err = run(["simulate"], capsys)
    assert code == 2
    assert "alpha" in err


def with_configs(tmp_path, argv):
    """``argv`` with a dict or list in it written to a config file and replaced by its path."""
    return [write_config(tmp_path, arg) if isinstance(arg, (dict, list)) else arg for arg in argv]


def resolved(command, argv, tmp_path, capsys):
    """simulate's trace or sweep's CSV rows; None when the command exits 2."""
    out_file = tmp_path / "out"
    code, _, err = run([command, *argv, "--out", str(out_file)], capsys)
    if code == 2:
        return None
    assert code == 0, err
    text = out_file.read_text()
    if command == "sweep":
        return [[float(x) for x in row.split(",")] for row in text.splitlines()[1:]]
    return json.loads(text)


_ALPHA = ["--alpha", "1,2,3"]

# (command, config key, config value, flag, other flags, read, (default, config, flag));
# a default of None means the command exits 2 without the value.
RESOLVED = [
    ("simulate", "alpha", [1, 2, 3], ["--alpha", "3,2,1"], [],
     lambda t: [round(a, 6) for a in t["coefficients"]],
     (None, [0.267261, 0.534522, 0.801784], [0.801784, 0.534522, 0.267261])),
    ("simulate", "rounds", [2, 3], ["--rounds", "4,5"], _ALPHA,
     lambda t: (t["config"]["max_rounds_alice"], t["config"]["max_rounds_charlie"]),
     ((1, 1), (2, 3), (4, 5))),
    ("simulate", "mode", "mc", ["--mode", "tree"], _ALPHA + ["--shots", "5"],
     lambda t: t["config"]["mode"], ("tree", "mc", "tree")),
    ("simulate", "shots", 7, ["--shots", "9"], _ALPHA + ["--mode", "mc"],
     lambda t: t["monte_carlo"]["shots"], (None, 7, 9)),
    ("simulate", "seed", 5, ["--seed", "6"], _ALPHA, lambda t: t["config"]["rng_seed"], (0, 5, 6)),
    ("simulate", "cavity", {"kappa_s": 0.2, "g": 0.4, "gamma": 0.1}, ["--cavity", "0.3,0.8,0.1"],
     _ALPHA, lambda t: t["config"].get("cavity", {}).get("g"), (None, 0.4, 0.8)),
    ("simulate", "convention", "corrected", ["--convention", "verbatim"],
     _ALPHA + ["--cavity", "0.1,0.5,0.1"], lambda t: t["config"]["convention"],
     ("verbatim", "corrected", "verbatim")),
    ("sweep", "sweep.alpha2", 0.5, ["--alpha2", "0.55"], [], lambda rows: rows[0][1],
     (1.0 / math.sqrt(3.0), 0.5, 0.55)),
    ("sweep", "sweep.alpha1_range", [0.2, 0.5], ["--alpha1-range", "0.1:0.4"], [],
     lambda rows: (rows[0][0], rows[-1][0]), ((0.01, 0.8105), (0.2, 0.5), (0.1, 0.4))),
    ("sweep", "sweep.points", 3, ["--points", "4"], [], len, (200, 3, 4)),
]


@pytest.mark.parametrize(
    "command, key, value, flag, others, read, expected", RESOLVED, ids=[case[1] for case in RESOLVED]
)
def test_flag_over_config_over_default(
    command, key, value, flag, others, read, expected, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("ECP_SEED", raising=False)
    section, _, name = key.rpartition(".")
    config = write_config(tmp_path, {section: {name: value}} if section else {name: value})
    observed = []
    for argv in (others, others + ["--config", config], others + ["--config", config] + flag):
        output = resolved(command, argv, tmp_path, capsys)
        observed.append(None if output is None else read(output))
    assert tuple(observed) == expected


@pytest.mark.parametrize(
    "config, flag",
    [
        ({"rounds": [65, 1]}, ["--rounds", "2,2"]),
        ({"mode": "bogus"}, ["--mode", "tree"]),
        ({"seed": -1, "mode": "mc", "shots": 10}, ["--seed", "3"]),
        ({"cavity": {"kappa": -1}}, ["--cavity", "0.1,0.5,0.1"]),
        ({"convention": "sideways"}, ["--convention", "corrected"]),
    ],
    ids=["rounds", "mode", "seed", "cavity", "convention"],
)
def test_flag_overrides_an_invalid_config_value(config, flag, tmp_path, capsys):
    path = write_config(tmp_path, {"alpha": [1, 1, 1], **config})
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "out")], capsys)[0] == 2
    assert resolved("simulate", ["--config", path] + flag, tmp_path, capsys) is not None


def test_bad_flag_reported_before_bad_config_file(tmp_path, capsys):
    code, out, err = run(
        ["simulate", "--config", str(tmp_path / "absent.json"), "--alpha", "1,1"], capsys
    )
    assert code == 2
    assert err == "error: ConfigError: alpha: expected 3 comma-separated values, got '1,1'\n"
    assert out == ""


def test_every_package_error_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ZeroStateError("cannot normalize the zero vector")

    monkeypatch.setattr("ecpsim.cavity.scatter_coefficients", fail)
    code, out, err = run(["coeffs"], capsys)
    assert code == 2
    assert err == "error: ZeroStateError: cannot normalize the zero vector\n"
    assert out == ""


# -- sweep -------------------------------------------------------------------------


def test_sweep_stdout_csv(capsys):
    code, out, _ = run(["sweep", "--points", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha1,alpha2,alpha3,p1,p2,p_total,p1_practical,p2_practical,p_practical"
    assert len(lines) == 6
    assert float(lines[1].split(",")[0]) == pytest.approx(0.01)


def test_sweep_to_file_with_cavity(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run(
        ["sweep", "--points", "10", "--cavity", "0.1,0.5,0.1", "--out", str(out_file)], capsys
    )
    assert code == 0
    rows = out_file.read_text().strip().split("\n")[1:]
    assert len(rows) == 10
    for row in rows:
        fields = [float(x) for x in row.split(",")]
        assert fields[6] < fields[3]  # leakage reduces the first-station column


def test_sweep_rejects_inverted_range(capsys):
    code, _, err = run(["sweep", "--alpha1-range", "0.8:0.1"], capsys)
    assert code == 2


def test_sweep_rejects_overweight_range(capsys):
    code, _, err = run(["sweep", "--alpha1-range", "0.2:0.9"], capsys)
    assert code == 2
    assert "alpha1" in err


def test_sweep_config_file_section(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"sweep": {"alpha1_range": [0.2, 0.5], "points": 3}}))
    code, out, _ = run(["sweep", "--config", str(path)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.5)


# -- verify -------------------------------------------------------------------------


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(["verify", "--grid", "1", "--depth", "1,1"], capsys)
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out
    # the symmetric point puts 0.25 in both value columns of the joint row
    joint = [l for l in out.splitlines() if l.startswith("pt_one_round")]
    assert len(joint) == 1
    parts = joint[0].split()
    assert float(parts[2]) == pytest.approx(0.25, abs=1e-12)
    assert float(parts[3]) == pytest.approx(0.25, abs=1e-12)


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("ecpsim.analytics.p1_round", lambda k, c: 0.42)
    code, out, _ = run(["verify", "--grid", "1", "--depth", "1,1"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_lossy_grid(capsys):
    code, out, _ = run(
        ["verify", "--grid", "2", "--depth", "2,2", "--cavity", "0.5,0.5,0.1"], capsys
    )
    assert code == 0
    assert "p_practical" in out


# -- coeffs -------------------------------------------------------------------------


def test_coeffs_frozen_point(capsys):
    code, out, _ = run(["coeffs", "--kappa-s", "0.1", "--g", "0.5", "--gamma", "0.1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["t0"]["re"] == pytest.approx(-0.9524, abs=1e-4)
    assert obj["t"]["re"] == pytest.approx(-0.769, abs=1e-3)
    assert obj["convention"] == "verbatim"
    assert obj["transmitted_signal_fraction"] == pytest.approx(0.7779411802037215, abs=1e-12)


def test_coeffs_empty_cavity_limit(capsys):
    code, out, _ = run(["coeffs", "--kappa-s", "0", "--g", "0", "--gamma", "0.2"], capsys)
    obj = json.loads(out)
    assert obj["t0"]["re"] == pytest.approx(-1.0)
    assert obj["r0"]["re"] == pytest.approx(0.0, abs=1e-15)


def test_coeffs_conventions_differ(capsys):
    _, out_v, _ = run(["coeffs", "--kappa-s", "0.1", "--g", "0.5", "--gamma", "0.1"], capsys)
    _, out_c, _ = run(
        ["coeffs", "--kappa-s", "0.1", "--g", "0.5", "--gamma", "0.1", "--convention", "corrected"],
        capsys,
    )
    t_v = json.loads(out_v)["t"]["re"]
    t_c = json.loads(out_c)["t"]["re"]
    assert abs(t_v - t_c) > 0.1


def test_coeffs_detuning_gives_complex_parts(capsys):
    _, out, _ = run(
        ["coeffs", "--kappa-s", "0.1", "--g", "0.5", "--gamma", "0.1", "--omega-detuning", "0.4"],
        capsys,
    )
    obj = json.loads(out)
    assert obj["t"]["im"] != 0.0


def test_coeffs_defaults_give_empty_cavity_limit(capsys):
    code, out, _ = run(["coeffs"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["t"] == obj["t0"] == {"re": -1.0, "im": 0.0}


def test_coeffs_unknown_convention(capsys):
    code, _, err = run(["coeffs", "--convention", "sideways"], capsys)
    assert code == 2
    assert "convention" in err


# g/kappa of 1e200 (or 5e299) overflows g^2; the lossy gate then takes the
# strong-coupling limit t = 0, r = 1, as g = 1e150 nearly does, not r = NaN.
@pytest.mark.parametrize(
    "source",
    [["--cavity", "0,1e200,0"], ["--config", {"cavity": {"kappa": 1e-300, "g": 0.5}}]],
    ids=["flag", "config"],
)
def test_overflowing_coupling_takes_the_strong_coupling_limit(source, tmp_path, capsys):
    argv = ["simulate", "--alpha", "0.8,0.36,0.48", *with_configs(tmp_path, source)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1] == "total_success_probability=0.206928898128898"


def test_overflowing_coupling_in_coeffs_and_sweep(capsys):
    code, out, _ = run(["coeffs", "--g", "1e200"], capsys)
    assert code == 0
    assert "NaN" not in out
    assert json.loads(out)["reflected_signal_fraction"] == 1.0
    code, out, _ = run(["sweep", "--points", "3", "--cavity", "0,1e200,0"], capsys)
    assert code == 0
    for row in out.splitlines()[1:]:
        fields = row.split(",")
        assert fields[6:] == fields[3:6]  # no leakage, full coupling: nothing lost


# g/kappa of 1e-170 makes g^2 round to 0; the coupling still reflects, as it
# does at 1e-160, and only g = 0 leaves the reflected port empty.
@pytest.mark.parametrize(
    "g, convention, total",
    [
        ("1e-170", "verbatim", "0.14632082709040406"),
        ("1e-170", "corrected", "0.206928898128898"),
        ("0", "verbatim", "0.0"),
        ("0", "corrected", "0.0"),
    ],
)
def test_weak_coupling_is_not_zero_coupling(g, convention, total, capsys):
    argv = ["simulate", "--alpha", "0.8,0.36,0.48", "--cavity", f"0,{g},0", "--convention", convention]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1] == f"total_success_probability={total}"


def test_weak_coupling_in_coeffs_and_sweep(capsys):
    code, out, _ = run(["coeffs", "--g", "1e-170"], capsys)
    assert code == 0
    assert json.loads(out)["reflected_signal_fraction"] == 1.0
    code, out, _ = run(["sweep", "--points", "3", "--cavity", "0,1e-170,0"], capsys)
    assert code == 0
    for row in out.splitlines()[1:]:
        fields = row.split(",")
        assert fields[7] == fields[4]  # p2_practical: the reflected port keeps its signal


@pytest.mark.parametrize("alpha", ["1e200,1e200,1e200", "1e-200,1e-200,1e-200"])
def test_alpha_scale_does_not_matter(alpha, tmp_path, capsys):
    scaled, unit = tmp_path / "scaled.json", tmp_path / "unit.json"
    code, out, _ = run(["simulate", "--alpha", alpha, "--out", str(scaled)], capsys)
    assert code == 0
    assert out == "total_success_probability=0.25\n"
    assert run(["simulate", "--alpha", "1,1,1", "--out", str(unit)], capsys)[0] == 0
    assert scaled.read_text() == unit.read_text()


def test_retry_map_keeps_coefficients_whose_squares_underflow(tmp_path, capsys):
    # a1^2 and a2^2 underflow; the retry map still gives (1e-170, 1e-170, 1), so
    # the later rounds have a photon to prepare
    trace_file = tmp_path / "trace.json"
    argv = ["simulate", "--alpha", "1e-170,1e-170,1", "--rounds", "3,1", "--out", str(trace_file)]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert out == "total_success_probability=0.0\n"
    retries = [r for r in json.loads(trace_file.read_text())["rounds"]
               if r["classification"] == "alice_retry"]
    assert len(retries) == 6
    assert all(r["post_coefficients"] == [1e-170, 1e-170, 1.0] for r in retries)


@pytest.mark.parametrize("rounds", ["1,1", "3,3", "64,64"])
@pytest.mark.parametrize(
    "mode",
    [[], ["--mode", "mc", "--shots", "2000", "--seed", "1"], ["--cavity", "0.1,0.5,0.1"]],
    ids=["tree", "mc", "lossy"],
)
def test_chain_ends_on_a_round_with_no_retry_outcome(rounds, mode, tmp_path, capsys):
    # Only the |uud> term and the photon's R component survive the 1e-12 drop,
    # and they reach Alice's success detectors alone, so her chain ends after
    # its first round, with no alice_retry leaf.  A lossy gate books the signal
    # it loses to the retry outcomes, and with none to carry it the run exits 2.
    trace_file = tmp_path / "trace.json"
    argv = ["simulate", "--alpha", "1e-180,1e-200,1", "--rounds", rounds, *mode,
            "--out", str(trace_file)]
    code, out, err = run(argv, capsys)
    if "--cavity" in mode:
        assert code == 2
        assert err.startswith("error: InvalidCoefficientsError: no alice_retry outcome")
        assert not trace_file.exists()
        return
    assert code == 0, err
    assert out == "total_success_probability=0.0\n"
    branches = json.loads(trace_file.read_text())["branches"]
    assert branches
    for branch in branches:
        assert "" not in branch["path"]
        assert 0.0 <= branch["probability"] <= 1.0
        assert branch["classification"] != "alice_retry"
    if "--mode" not in mode:
        k_alice, k_charlie = map(int, rounds.split(","))
        c = WCoefficients.normalized(1e-180, 1e-200, 1.0)
        total = json.loads(trace_file.read_text())["total_success_probability"]
        assert abs(total - p1_total(c, k_alice) * p2_total(c, k_charlie)) <= 1e-10


def test_negative_value_in_exponent_form(capsys):
    code, out, _ = run(["coeffs", "--omega-detuning", "-1e-3"], capsys)
    assert code == 0
    assert run(["coeffs", "--omega-detuning=-1e-3"], capsys)[1] == out
    assert json.loads(out)["t0"]["im"] != 0.0


# -- golden outputs -----------------------------------------------------------------


# A Monte Carlo run whose first 65 536-shot chunk the sampler walks in two
# parts where two or more CPUs are usable.
_THREADED_MC = ["simulate", "--mode", "mc", "--alpha", "0.8,0.36,0.48", "--rounds", "6,6",
                "--shots", "70000", "--seed", "5"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sweep", "--points", "200"], "57ec234eeabaa2864574292db033bb1b9f99abead99077127a8ac20d913e7e4a"),
        (
            ["verify", "--grid", "3", "--depth", "4,4"],
            "c63989c55f795acfef1f0e67e744ca5fc884dde4534da48259da4eceb64012e5",
        ),
        (["sweep", "--points", "1"], "f251909867f1487eee6f9b3630931838a533c6dfe470724447a5f2cadee257c2"),
        (["coeffs"], "d0e318c87f70bb518a28f169c9052e2eaa9aa460b9ed4974ab9a8de1c8ece57d"),
        (
            # The deep Monte Carlo trace: the longest paths, up to 128 detector tokens.
            ["simulate", "--alpha", "0.8,0.36,0.48", "--mode", "mc", "--rounds", "64,64",
             "--shots", "5000", "--seed", "3"],
            "efce339bd194ccc7465143ec6447f50c893239f9e889e463c3244821ffaca362",
        ),
        (
            # The full verify grid, and a small grid at depths past the four
            # compared rounds: at two of its points the amplitude drop removes
            # whole detectors from rounds past the fourth.
            ["verify", "--grid", "10", "--depth", "4,4"],
            "195c6f5ab79592800899c7bc1d3440a3e8d40329c9cb5388a0eb72579e360268",
        ),
        (
            ["verify", "--grid", "3", "--depth", "6,6"],
            "07d34b5ab787a8809fcb7189cac815ab786a28dd7dc3c6de68ec76ef58c72495",
        ),
        (
            # The deepest trees, where the table memo merges the most inputs.
            ["verify", "--grid", "2", "--depth", "8,8"],
            "27c4da08f4cc66d013c24f999f3b530d1c2aeeaf7c7732ba62602a63247b02d7",
        ),
        (
            # Deep trees at 16 points, where the mass walk replays the most rows.
            ["verify", "--grid", "4", "--depth", "8,8"],
            "2b5d7a8853e88fceda6e66e5e5382b38cdc8bce883b45c2874644462b390316d",
        ),
        (
            # The one-pass sweep kernel's CSV bytes over 1000 points.
            ["sweep", "--points", "1000", "--alpha2", "0.5", "--alpha1-range", "0.01:0.84"],
            "a034f0752723d4f0edc7a1c12fdf18e1b43fa262de7c51d100c2a72d3cd7c0d5",
        ),
        (
            # The 100 000-shot Monte Carlo trace; it ends on
            # total_success_probability=0.2482.
            ["simulate", "--alpha", "0.577,0.577,0.577", "--mode", "mc", "--shots", "100000",
             "--seed", "7"],
            "ce3dd56f8436e865b50a69dc3c368d7d5631903ea8bbd7a8807e97b9d267360e",
        ),
        (
            # A one-station tree (k_charlie = 0); it ends on "summary: 8 comparisons, 0 failed".
            ["verify", "--grid", "2", "--depth", "2,0"],
            "1b3ffda43cd5355aa541ea66cb4d8204b3bdd6700817f0b19e009eee7c45fc7d",
        ),
        (
            # A full 65 536-shot chunk, walked in parts on two or more usable
            # CPUs, then a partial one of 4 464 shots.
            _THREADED_MC,
            "2c938b0b9b5e73ae9982bb9cf42b6d1c8eccc876362f8b213ffd54680bd3ffc1",
        ),
    ],
)
def test_stdout_golden_digest(argv, digest, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_SKEWED_TREE = ["simulate", "--alpha", "0.8,0.36,0.48", "--rounds", "4,4"]
_SKEWED_MC = ["simulate", "--alpha", "0.8,0.36,0.48", "--rounds", "7,7", "--mode", "mc",
              "--shots", "20000", "--seed", "7"]
_CORRECTED = ["--convention", "corrected"]


# The lossy gate scales each station's success by a signal fraction of the
# cavity's scattering amplitudes; these pin the simulate trace (tree and the
# ragged (7,7) Monte Carlo run), the verify table and the sweep CSV with it.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            _SKEWED_TREE + ["--cavity", "0.1,0.5,0.1"],
            "60fab7704808ddc9f0a18db20ad63d505253762fc6f3f87da13df67152151d0a",
        ),
        (
            _SKEWED_TREE + ["--cavity", "0.1,0.5,0.1"] + _CORRECTED,
            "4b2f0fba1fc59114085fddb0c9ff4de86625a29b5e7d5093ec318ed3bcb81b67",
        ),
        (
            _SKEWED_MC + ["--cavity", "0.1,0.5,0.1"],
            "3f2415e6b11026038bddc1555c1fd96293ebb4fd8e05cd3733c73c46db8e6dbb",
        ),
        (
            _SKEWED_MC + ["--cavity", "0.1,0.5,0.1"] + _CORRECTED,
            "b45b89c25ce018e4358968a416aee9453db3a96734ea3aaa0b746c526ed90d13",
        ),
        (
            ["verify", "--grid", "4", "--depth", "3,2", "--cavity", "0.3,0.8,0.1"],
            "868dee3b1a36b0529adbe098ef78ef9ff19cd6a4692a3ad2139ae67ff523fc30",
        ),
        (
            ["verify", "--grid", "4", "--depth", "3,2", "--cavity", "0.3,0.8,0.1"] + _CORRECTED,
            "145afbf0fe24aac572d4ddb1776e3e7ca8b50ddd614089a96ea351dc7b8f9d07",
        ),
        (
            ["sweep", "--cavity", "0.3,0.8,0.1"],
            "73d044c2f1fa30212a3b418eebda02154cd218fe478c391cbda8651922f2e365",
        ),
        (
            # The lossy 1000-point sweep.
            ["sweep", "--points", "1000", "--alpha2", "0.5", "--alpha1-range", "0.01:0.84",
             "--cavity", "0.3,1.0,0.1"] + _CORRECTED,
            "0259968421be856bca5db9739b371a07702366c12e30b7e5d608b94fc15a1792",
        ),
        (
            # A small lossy verify; it ends on "summary: 32 comparisons, 0 failed".
            ["verify", "--grid", "2", "--depth", "2,2", "--cavity", "0.1,0.5,0.1"],
            "febbbf6366e28302942bf17290790e85f16cd74a3f6ce2a307b69048da2f8f79",
        ),
        (
            # One-station trees with the lossy rows, which still take both
            # stations' first rounds; it ends on "summary: 54 comparisons, 0 failed".
            ["verify", "--grid", "3", "--depth", "3,0", "--cavity", "0.1,0.5,0.1"],
            "75af085cb5d8d299eb1b1c1ec0f14674b2b0860764cc4c460e708668a343b016",
        ),
    ],
    ids=["tree", "tree-corrected", "mc", "mc-corrected", "verify", "verify-corrected", "sweep",
         "sweep-1000-corrected", "verify-small", "verify-one-station"],
)
def test_lossy_stdout_golden_digest(argv, digest, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- JSON trace writer -----------------------------------------------------------------

# Coefficients over 300 decades: the 1e-12 drop removes a triple's small terms,
# which leaves None slots in post-states and ends chains before their limits.
_COEFFICIENT = st.floats(0.01, 1.0) | st.builds(
    lambda mantissa, decades: mantissa * 10.0**-decades,
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(0, 300),
)
_TRACE_CAVITY = st.none() | st.builds(
    lambda kappa_s, g, gamma: CavityParams(kappa_s=kappa_s, g=g, gamma=gamma),
    st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
)


@given(
    alpha=st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT),
    rounds=st.tuples(st.integers(1, 64), st.integers(1, 64)),
    mode=st.sampled_from(["tree", "mc"]),
    cavity=_TRACE_CAVITY,
    convention=st.sampled_from(DenominatorConvention),
    shots=st.integers(1, 2000),
    seed=st.integers(0, 2**128 - 1),
)
@example(alpha=(0.8, 0.36, 0.48), rounds=(64, 64), mode="mc", cavity=None,
         convention=DenominatorConvention.VERBATIM, shots=2000, seed=2**128 - 1)
@example(alpha=(1e-180, 1e-200, 1.0), rounds=(3, 3), mode="tree", cavity=None,
         convention=DenominatorConvention.VERBATIM, shots=1, seed=0)
@example(alpha=(0.8, 0.36, 0.48), rounds=(7, 7), mode="mc", cavity=CavityParams(kappa_s=0.1, g=0.5, gamma=0.1),
         convention=DenominatorConvention.CORRECTED, shots=2000, seed=7)
# Runs whose digests or totals other tests pin: a tree, both digest-pinned Monte
# Carlo runs, a lossy tree, an overflowing g, the chain-end run as Monte Carlo,
# and the README config file.
@example(alpha=(0.8, 0.36, 0.48), rounds=(4, 4), mode="tree", cavity=None,
         convention=DenominatorConvention.VERBATIM, shots=1, seed=0)
@example(alpha=(0.577, 0.577, 0.577), rounds=(1, 1), mode="mc", cavity=None,
         convention=DenominatorConvention.VERBATIM, shots=100_000, seed=7)
@example(alpha=(0.8, 0.36, 0.48), rounds=(64, 64), mode="mc", cavity=None,
         convention=DenominatorConvention.VERBATIM, shots=5000, seed=3)
@example(alpha=(0.8, 0.36, 0.48), rounds=(4, 4), mode="tree", cavity=CavityParams(kappa_s=0.1, g=0.5, gamma=0.1),
         convention=DenominatorConvention.CORRECTED, shots=1, seed=0)
@example(alpha=(0.8, 0.36, 0.48), rounds=(1, 1), mode="tree", cavity=CavityParams(kappa_s=0.0, g=1e200, gamma=0.0),
         convention=DenominatorConvention.VERBATIM, shots=1, seed=0)
@example(alpha=(1e-180, 1e-200, 1.0), rounds=(3, 3), mode="mc", cavity=None,
         convention=DenominatorConvention.VERBATIM, shots=1000, seed=1)
@example(alpha=(0.8, 0.36, 0.48), rounds=(4, 4), mode="mc", cavity=CavityParams(kappa_s=0.1, g=0.5, gamma=0.1),
         convention=DenominatorConvention.VERBATIM, shots=100_000, seed=7)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_trace_writer_matches_indented_json_dumps(alpha, rounds, mode, cavity, convention, shots, seed):
    cavity = None if cavity is None else cavity._replace(convention=convention)
    config = ProtocolConfig(rounds[0], rounds[1], cavity, seed, mode, shots)
    try:
        trace = run_protocol(WCoefficients.normalized(*alpha), config)
    except ecpsim.EcpError:
        reject()
    assert trace.to_json_text() == json.dumps(trace.to_json_obj(), indent=2)


# -- argparse plumbing -----------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert run(["simulate", "--bogus"], capsys)[0] == 2


def test_missing_subcommand_exits_2(capsys):
    assert run([], capsys)[0] == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"], capsys)[0] == 2


def _child_env(**extra):
    """This environment for a new interpreter that imports the ecpsim under test."""
    path = [str(Path(ecpsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


def _first_call(argv, tmp_path, ecp_seed="0"):
    """(exit code, stdout, stderr) of ``argv`` as the first and only call of a new process."""
    proc = subprocess.run(
        [sys.executable, "-m", "ecpsim.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(ECP_SEED=ecp_seed), timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_a_monte_carlo_run_pinned_to_one_cpu_prints_the_same_bytes(tmp_path):
    def stdout(pin):
        code = (
            "import os, sys\n"
            f"if {pin}:\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "    assert len(os.sched_getaffinity(0)) == 1\n"
            f"sys.argv = ['ecpsim', *{_THREADED_MC!r}]\n"
            "from ecpsim.cli import entry\n"
            "entry()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=tmp_path,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert stdout(True) == stdout(False)


_PLAIN_SIMULATE = ["simulate", "--alpha", "0.8,0.36,0.48"]
_PLAIN_SWEEP = ["sweep", "--points", "3"]
_LEAKY_CONFIG = {
    "rounds": [3, 2], "mode": "mc", "shots": 50, "seed": 5,
    "cavity": {"kappa_s": 0.1, "g": 0.5, "gamma": 0.1}, "convention": "corrected",
    "sweep": {"alpha2": 0.5, "alpha1_range": [0.2, 0.5], "points": 4},
}


def test_parser_reuse_keeps_each_call_a_first_call(tmp_path, monkeypatch, capsys):
    """``main`` reuses one parser per process: no call may change what a later one prints."""
    monkeypatch.setenv("ECP_SEED", "0")
    config = tmp_path / "leaky.json"
    config.write_text(json.dumps(_LEAKY_CONFIG))
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"rounds": [1, 1], "bogus": 1}))
    for plain in (_PLAIN_SIMULATE, _PLAIN_SWEEP):
        first = _first_call(plain, tmp_path)
        assert first[0] == 0
        with_config = run([*plain, "--config", str(config)], capsys)
        assert with_config[0] == 0 and with_config[1] != first[1]
        assert run(plain, capsys) == first
        for failing in (
            [plain[0], "--bogus"],
            [*_PLAIN_SIMULATE, "--rounds", "x"],
            [*_PLAIN_SIMULATE, "--rounds", "0,1"],
            ["sweep", "--points", "0"],
            [*plain, "--config", str(bad_config)],
        ):
            assert run(failing, capsys)[0] == 2
            assert run(plain, capsys) == first


def test_parser_reuse_honours_each_calls_seed_env(tmp_path, monkeypatch, capsys):
    argv = [*_PLAIN_SIMULATE, "--mode", "mc", "--shots", "200"]
    outputs = []
    for seed in ("1", "2"):
        monkeypatch.setenv("ECP_SEED", seed)
        outputs.append(run(argv, capsys))
        assert outputs[-1] == _first_call(argv, tmp_path, ecp_seed=seed)
    assert outputs[0][1] != outputs[1][1]


# -- modules each entry point loads ------------------------------------------------------

# Imports the package and the CLI in a fresh interpreter, runs the command given,
# if any, and prints the ecpsim modules loaded and whether dataclasses and numpy are.
_LOADED_MODULES = (
    "import contextlib, io, json, sys; import ecpsim, ecpsim.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = ecpsim.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "names = sorted(m for m in sys.modules if m.split('.')[0] == 'ecpsim')\n"
    "print(json.dumps([names, 'dataclasses' in sys.modules, 'numpy' in sys.modules]))\n"
    "sys.exit(code)"
)
_IMPORT_ONLY = ["ecpsim", "ecpsim.cli", "ecpsim.errors"]
_COEFFS = [*_IMPORT_ONLY, "ecpsim.cavity"]
_TREE = [*_COEFFS, "ecpsim.protocol"]
_VERIFY = [*_TREE, "ecpsim.analytics", "ecpsim.oracle"]


@pytest.mark.parametrize(
    "argv, modules, imports_dataclasses, imports_numpy",
    [
        ([], _IMPORT_ONLY, False, False),
        (["coeffs"], _COEFFS, False, False),
        (["sweep", "--points", "5"], [*_TREE, "ecpsim.analytics"], False, False),
        (["simulate", "--alpha", "0.8,0.36,0.48", "--rounds", "4,4"], _TREE, False, False),
        (
            ["simulate", "--alpha", "0.8,0.36,0.48", "--mode", "mc", "--shots", "100"],
            [*_TREE, "ecpsim.sampling"], False, True,
        ),
        (["verify", "--grid", "1", "--depth", "2,2"], _VERIFY, True, False),
        (["verify", "--grid", "1", "--depth", "2,2", "--cavity", "0.1,0.5,0.1"], _VERIFY, True, False),
    ],
    ids=["import", "coeffs", "sweep", "simulate-tree", "simulate-mc", "verify", "verify-lossy"],
)
def test_each_entry_point_loads_only_the_modules_it_runs(
    argv, modules, imports_dataclasses, imports_numpy, tmp_path
):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [sorted(modules), imports_dataclasses, imports_numpy]


# -- non-finite and out-of-range input ------------------------------------------------


@pytest.mark.parametrize(
    "argv, error",
    [
        (["simulate", "--alpha", "nan,1,1"], "InvalidCoefficientsError: coefficients must be finite"),
        (["simulate", "--alpha", "1,inf,1"], "InvalidCoefficientsError"),
        (
            ["simulate", "--alpha", "1,1,1", "--mode", "mc", "--shots", "10", "--seed", "-1"],
            "ConfigError: seed -1 outside",
        ),
        (["simulate", "--alpha", "1,1,1", "--seed", str(1 << 128)], "ConfigError: seed"),
        (["simulate", "--alpha", "1,1,1", "--cavity", "nan,0.5,0.1"], "ConfigError: cavity"),
        (["sweep", "--cavity", "0.1,inf,0.1"], "ConfigError: cavity"),
        (["verify", "--grid", "1", "--depth", "1,1", "--cavity", "0.1,0.5,nan"], "ConfigError: cavity"),
        (["coeffs", "--kappa-s", "inf"], "ConfigError: cavity parameters must be finite"),
        (["coeffs", "--omega-detuning", "inf"], "DomainError: probe frequency inf is not finite"),
        (["coeffs", "--omega-detuning", "nan"], "DomainError: probe frequency nan is not finite"),
        (["verify", "--grid", "1", "--depth", "1,1", "--tol", "nan"], "DomainError: tolerance nan"),
        (["verify", "--grid", "1", "--depth", "1,1", "--tol", "-1"], "DomainError: tolerance -1.0"),
        # every first-station success amplitude falls below the 1e-12 drop
        (["simulate", "--alpha", "1e-12,1,1"], "InvalidCoefficientsError: no alice_success"),
        (
            ["simulate", "--alpha", "1,1e-13,1e-13", "--mode", "mc", "--shots", "10"],
            "InvalidCoefficientsError: no alice_success",
        ),
        (["simulate", "--alpha", "1,1,1", "--rounds", "65,1"], "ConfigError: round limits must be at most 64"),
        (["simulate", "--alpha", "1,1,1", "--rounds", "1,65"], "ConfigError: round limits must be at most 64"),
        (["verify", "--grid", "1", "--depth", "9,1"], "DomainError: tree depths must be at most 8"),
        (["verify", "--grid", "1", "--depth", "1,9"], "DomainError: tree depths must be at most 8"),
        (["verify", "--grid", "101", "--depth", "1,1"], "DomainError: grid size must be at most 100"),
        (["sweep", "--points", "100001"], "DomainError: n_points must be at most 100000"),
        (["sweep", "--config", {"sweep": {"points": 100001}}], "DomainError: n_points must be at most 100000"),
        (
            ["simulate", "--config", {"alpha": [1, 1, 1], "cavity": {"kappa": 1e-300, "omega_c": 1e10}}],
            "DomainError: kappa_s and the detunings over kappa must be finite",
        ),
        # negative values in exponent form reach their own checks
        (["sweep", "--alpha2", "-1e-1"], "DomainError: alpha2 -0.1 outside (0, 1)"),
        (["verify", "--grid", "1", "--depth", "1,1", "--tol", "-.5e-3"], "DomainError: tolerance -0.0005"),
        # malformed flag values and config files
        (["simulate", "--alpha", "a,b,c"], "ConfigError: alpha: non-numeric value in 'a,b,c'"),
        (
            ["simulate", "--alpha", "1,1,1", "--rounds", "1.5,2"],
            "ConfigError: rounds: non-integer value in '1.5,2'",
        ),
        (["sweep", "--alpha1-range", "0.5"], "ConfigError: alpha1-range: expected lo:hi, got '0.5'"),
        (["sweep", "--alpha1-range", "a:b"], "ConfigError: alpha1-range: non-numeric bound in 'a:b'"),
        (["simulate", "--config", [1]], "ConfigError: config: top level must be an object"),
        (["simulate", "--config", {"mode": 3}], "ConfigError: config: key 'mode' has wrong type"),
        # sweep ranges whose points WCoefficients would refuse: a NaN bound, and
        # an end just past the norm tolerance as WCoefficients measures it
        (
            ["sweep", "--alpha1-range", "0.1:nan", "--points", "1"],
            "DomainError: invalid alpha1 range (0.1, nan)",
        ),
        (
            ["sweep", "--alpha2", "0.6", "--alpha1-range", "0.1:0.8000000000006251", "--points", "2"],
            "DomainError: alpha1 range exceeds normalization with this alpha2",
        ),
        # an end WCoefficients accepts, but the last point rounds one ulp past it
        (
            ["sweep", "--alpha2", "0.6", "--alpha1-range", "0.01:0.8000000000006249", "--points", "8"],
            "DomainError: alpha1 range exceeds normalization with this alpha2",
        ),
        # a detuning whose two ends a float holds, but not their difference: as ints, as floats
        (
            ["simulate", "--config", {"alpha": [1, 1, 1], "cavity": {"omega_x": 10**308, "omega0": -(10**308)}}],
            "DomainError: kappa_s and the detunings over kappa must be finite",
        ),
        (
            ["simulate", "--config", {"alpha": [1, 1, 1], "cavity": {"omega_x": 1e308, "omega0": -1e308}}],
            "DomainError: kappa_s and the detunings over kappa must be finite",
        ),
    ],
)
def test_non_finite_or_out_of_range_input_exits_2(argv, error, capsys, tmp_path):
    code, out, err = run(with_configs(tmp_path, argv), capsys)
    assert code == 2
    assert error in err
    assert "total_success_probability" not in out


@pytest.mark.parametrize(
    "argv, fraction, tolerance",
    [
        # Python's complex division overflows inside both -1/D and -1/D0;
        # at g = 0 the true fraction is 1/sqrt(2)
        (["--kappa-s", "1.7e308", "--omega-detuning=-1.7e308"], 1 / math.sqrt(2), 1e-15),
        # and inside -1/D alone: |D|/hypot(|D|, |D0|)
        (["--g", "1.2e154", "--omega-detuning", "1.3e308"], 0.8307303731728113, 1e-12),
    ],
    ids=["both", "hot"],
)
def test_coeffs_where_the_transmission_quotients_overflow_inside(argv, fraction, tolerance, capsys):
    code, out, _ = run(["coeffs", *argv], capsys)
    assert code == 0
    assert json.loads(out)["transmitted_signal_fraction"] == pytest.approx(fraction, abs=tolerance)


def test_verify_at_the_grid_limit(capsys):
    # 100 is the largest grid side; 101 exits 2.
    code, out, _ = run(["verify", "--grid", "100", "--depth", "1,1"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "summary: 30000 comparisons, 0 failed"


# -- the exit contract ------------------------------------------------------------

_HUGE = [2**63, 10**30, -(2**63), -(10**30)]


def _mostly(usual, rare):
    """``usual`` seven times in eight, else ``rare``: many command lines then
    reach a run, and the rest the checks that come before one."""
    return st.sampled_from([usual] * 7 + [rare]).flatmap(lambda s: s)


def _ints(lo, hi, limit):
    """Integers in lo..hi, or outside the flag's range lo..limit (``None`` for
    no upper limit), including huge ones."""
    outside = [lo - 1, *(h for h in _HUGE if h < lo)]
    if limit is not None:
        outside += [limit + 1, *(h for h in _HUGE if h > limit)]
    return _mostly(st.integers(lo, hi), st.sampled_from(outside))


# Float flag values.  Rare: signed zeros, subnormals, the normal limits,
# +-1.7e308, exponent-form negatives, nan and inf tokens.  Usual: positive
# values on scales far apart, so the 1e-12 amplitude drop can leave a round
# with no outcome of some class, and ordinary values.
_EXTREME = st.sampled_from([
    "0", "-0.0", "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1.7e308", "-1.7e308",
    "-1e-3", "-2.5e-200", "nan", "-nan", "inf", "-inf",
]) | st.floats().map(repr)
_SCALES = ["1", "1e-13", "1e-100", "1e-200", "5e-324"]
_FLOAT_TOKENS = _mostly(
    st.sampled_from(_SCALES) | st.floats(min_value=0.01, max_value=1.0).map(repr), _EXTREME
)
_ONE, _PAIR, _TRIPLE = (st.lists(_FLOAT_TOKENS, min_size=n, max_size=n) for n in (1, 2, 3))
# Alpha triples: as other floats, or three distinct scales in any order, such
# as (1e-13, 1e-100, 1), whose first round has no retry outcome.
_ALPHA = _TRIPLE | st.permutations(_SCALES).map(lambda scales: scales[:3])
_ROUNDS = st.lists(_ints(1, 16, 64), min_size=2, max_size=2)
_MC_SHOTS = _ints(1, 500, None)
_TREE_SHOTS = st.integers() | st.sampled_from(_HUGE)
_SEEDS = _ints(0, 2**128 - 1, 2**128 - 1)
_POINTS = _ints(1, 50, 100_000)
_CAVITY_FIELDS = ["kappa", "kappa_s", "gamma", "g", "omega0", "omega_c", "omega_x"]
_CAVITY_SECTIONS = st.dictionaries(
    st.sampled_from(_CAVITY_FIELDS), _FLOAT_TOKENS.map(float), max_size=4
)
_CONVENTIONS = st.sampled_from(["verbatim", "corrected"])
_PLACES = {False: st.sampled_from(["flag", "config", None]), True: st.sampled_from(["flag", "config"])}
_PROBABILITY_COLUMNS = {"p1", "p2", "p_total", "p1_practical", "p2_practical", "p_practical"}
_ERROR_NAMES = {
    name for name, obj in vars(ecpsim.errors).items()
    if isinstance(obj, type) and issubclass(obj, ecpsim.EcpError)
}


@st.composite
def _cli_argv(draw):
    """A simulate (tree, Monte Carlo or lossy), sweep or coeffs command line:
    (argv without ``--config``, config file contents).  Each value goes to a
    flag or to the config file.  Within range, shots are at most 500, sweep
    points at most 50 and rounds at most 16, so no run is long: a tree trace
    near the 64-round limit can take half a second to write and check."""
    command = draw(st.sampled_from(["simulate", "simulate", "sweep", "coeffs"]))
    argv, config = [command], {}

    def place(flag, key, token, value, required=False):
        where = draw(_PLACES[required])
        if where == "flag" or (where == "config" and command == "coeffs"):
            argv.append(f"--{flag}={token}")
        elif where == "config":
            section, _, name = key.rpartition(".")
            (config.setdefault(section, {}) if section else config)[name] = value

    def floats(tokens):
        tokens = draw(tokens)
        return tokens, [float(t) for t in tokens]

    if command == "coeffs":
        for flag in ("kappa-s", "g", "gamma", "omega-detuning"):
            (token,), _ = floats(_ONE)
            place(flag, None, token, None)
    elif command == "sweep":
        (token,), (value,) = floats(_ONE)
        place("alpha2", "sweep.alpha2", token, value)
        tokens, values = floats(_PAIR)
        place("alpha1-range", "sweep.alpha1_range", ":".join(tokens), values)
        points = draw(_POINTS)
        place("points", "sweep.points", points, points, required=True)
    else:
        mode = draw(st.sampled_from(["tree", "mc"]))
        tokens, values = floats(_ALPHA)
        place("alpha", "alpha", ",".join(tokens), values, required=True)
        rounds = draw(_ROUNDS)
        place("rounds", "rounds", ",".join(map(str, rounds)), rounds)
        place("mode", "mode", mode, mode, required=mode == "mc")
        shots = draw(_MC_SHOTS if mode == "mc" else _TREE_SHOTS)
        place("shots", "shots", shots, shots, required=mode == "mc")
        seed = draw(_SEEDS)
        place("seed", "seed", seed, seed)
    if command != "coeffs" and draw(st.booleans()):
        tokens, _ = floats(_TRIPLE)
        place("cavity", "cavity", ",".join(tokens), draw(_CAVITY_SECTIONS))
    convention = draw(_CONVENTIONS)
    place("convention", "convention", convention, convention)
    return argv, config


def _check_json_numbers(obj, key=""):
    """Every number is finite; every probability and signal fraction lies in [0, 1]."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_json_numbers(v, k)
    elif isinstance(obj, list):
        for v in obj:
            _check_json_numbers(v, key)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        assert math.isfinite(obj), (key, obj)
        if key.endswith(("probability", "_fraction")):
            assert 0.0 <= obj <= 1.0, (key, obj)


@given(command=_cli_argv())
# A lossy run whose first round has no retry outcome: the loss model's retry
# share would have no branch, so its leaves would sum to 0.778.
@example(command=(["simulate", "--alpha=1e-180,1e-200,1", "--rounds=3,3", "--cavity=0.1,0.5,0.1"], {}))
@settings(max_examples=250, derandomize=True, deadline=None)
def test_exit_contract(command, tmp_path_factory):
    argv, config = command
    if config:
        path = tmp_path_factory.getbasetemp() / "exit-contract.json"
        path.write_text(json.dumps(config))
        argv = [*argv, f"--config={path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        name = re.fullmatch(r"error: (\w+): .*", err.splitlines()[-1], re.S)
        assert name and name.group(1) in _ERROR_NAMES, err
        return
    if argv[0] == "sweep":
        header, *rows = out.splitlines()
        columns = header.split(",")
        for row in rows:
            for column, value in zip(columns, map(float, row.split(",")), strict=True):
                assert math.isfinite(value), (column, value)
                if column in _PROBABILITY_COLUMNS:
                    assert 0.0 <= value <= 1.0, (column, value)
        return
    if argv[0] == "coeffs":
        _check_json_numbers(json.loads(out))
        return
    text, summary = out[:-1].rsplit("\n", 1)
    trace = json.loads(text)
    _check_json_numbers(trace)
    total = trace["total_success_probability"]
    assert summary == f"total_success_probability={total!r}"
    run_config = trace["config"]
    if run_config["mode"] == "tree":
        leaves = math.fsum(branch["probability"] for branch in trace["branches"])
        assert abs(leaves - 1.0) <= 1e-9, leaves
    if run_config["mode"] == "tree" and "cavity" not in run_config:
        c = WCoefficients(*trace["coefficients"])
        expected = p1_total(c, run_config["max_rounds_alice"]) * p2_total(
            c, run_config["max_rounds_charlie"]
        )
        assert abs(total - expected) <= 1e-10
