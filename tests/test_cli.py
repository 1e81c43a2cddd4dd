import hashlib
import json
import math

import pytest

from ecpsim import WCoefficients, p1_total, p2_total
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
    path = write_config(
        tmp_path, {"alpha": [0.5774, 0.5774, 0.5774], "cavity": {"kappa_s": 0.1, "xi": 2}}
    )
    code, _, err = run(["simulate", "--config", path], capsys)
    assert code == 2
    assert "xi" in err


def test_config_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    code, _, err = run(["simulate", "--config", str(path)], capsys)
    assert code == 2
    assert "config" in err


def test_config_file_missing(tmp_path, capsys):
    code, _, err = run(["simulate", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2


def test_simulate_requires_alpha_somewhere(capsys):
    code, _, err = run(["simulate"], capsys)
    assert code == 2
    assert "alpha" in err


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


# -- golden outputs -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sweep", "--points", "200"], "57ec234eeabaa2864574292db033bb1b9f99abead99077127a8ac20d913e7e4a"),
        (
            ["verify", "--grid", "3", "--depth", "4,4"],
            "c63989c55f795acfef1f0e67e744ca5fc884dde4534da48259da4eceb64012e5",
        ),
    ],
)
def test_stdout_golden_digest(argv, digest, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- argparse plumbing -----------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert run(["simulate", "--bogus"], capsys)[0] == 2


def test_missing_subcommand_exits_2(capsys):
    assert run([], capsys)[0] == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"], capsys)[0] == 2


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
    ],
)
def test_non_finite_or_out_of_range_input_exits_2(argv, error, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert error in err
    assert "total_success_probability" not in out
