"""Command-line front end.

Four subcommands: ``simulate`` runs the protocol once and emits a JSON
trace, ``sweep`` emits the success-probability curves as CSV, ``verify``
cross-checks closed forms against exhaustive enumeration and sets the exit
code, and ``coeffs`` evaluates the cavity scattering amplitudes.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence, TextIO

from .analytics import SweepSpec, sweep, write_sweep_csv
from .cavity import CavityParams, DenominatorConvention, scatter_coefficients
from .errors import (
    ConfigError,
    DegenerateCoefficientsError,
    DomainError,
    InvalidCoefficientsError,
)
from .oracle import compare_all, simplex_grid
from .protocol import GateMode, ProtocolConfig, WCoefficients, run_protocol

_USAGE_ERRORS = (
    ConfigError,
    DegenerateCoefficientsError,
    DomainError,
    InvalidCoefficientsError,
)


# -- flag parsing helpers ------------------------------------------------------


def _parse_floats(text: str, n: int, field: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{field}: expected {n} comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{field}: non-numeric value in {text!r}") from None


def _parse_ints(text: str, n: int, field: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{field}: expected {n} comma-separated values, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{field}: non-integer value in {text!r}") from None


def _parse_range(text: str, field: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{field}: expected lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{field}: non-numeric bound in {text!r}") from None


def _cavity_from_triple(values: Sequence[float]) -> CavityParams:
    ks, g, gm = values
    try:
        return CavityParams(kappa=1.0, kappa_s=ks, g=g, gamma=gm)
    except ValueError as exc:
        raise ConfigError(f"cavity: {exc}") from None


def _convention(token: str) -> DenominatorConvention:
    try:
        return DenominatorConvention(token)
    except ValueError:
        raise ConfigError(f"convention: unknown value {token!r}") from None


def _default_seed() -> int:
    raw = os.environ.get("ECP_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"ECP_SEED: non-integer value {raw!r}") from None


# -- config file ---------------------------------------------------------------

_CONFIG_KEYS = {
    "alpha": list,
    "rounds": list,
    "mode": str,
    "shots": int,
    "seed": int,
    "cavity": dict,
    "convention": str,
    "sweep": dict,
}
_CAVITY_KEYS = {"kappa", "kappa_s", "g", "gamma", "omega0", "omega_c", "omega_x"}
_SWEEP_KEYS = {"alpha2", "alpha1_range", "points"}


def _load_config(path: str) -> dict:
    """Read and schema-check a run-config JSON file; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config: unknown key {key!r}")
        if not isinstance(value, _CONFIG_KEYS[key]) or isinstance(value, bool):
            raise ConfigError(f"config: key {key!r} has wrong type")
    for key in raw.get("cavity", {}):
        if key not in _CAVITY_KEYS:
            raise ConfigError(f"config: unknown cavity key {key!r}")
    for key in raw.get("sweep", {}):
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"config: unknown sweep key {key!r}")
    if "alpha" in raw:
        if len(raw["alpha"]) != 3 or not all(_is_number(v) for v in raw["alpha"]):
            raise ConfigError("config: alpha must be 3 numbers")
    if "rounds" in raw:
        if len(raw["rounds"]) != 2 or not all(_is_int(v) for v in raw["rounds"]):
            raise ConfigError("config: rounds must be 2 integers")
    sw = raw.get("sweep", {})
    if "alpha1_range" in sw:
        rng = sw["alpha1_range"]
        if not isinstance(rng, list) or len(rng) != 2 or not all(_is_number(v) for v in rng):
            raise ConfigError("config: sweep.alpha1_range must be [lo, hi]")
    if "alpha2" in sw and not _is_number(sw["alpha2"]):
        raise ConfigError("config: sweep.alpha2 must be a number")
    if "points" in sw and not _is_int(sw["points"]):
        raise ConfigError("config: sweep.points must be an integer")
    if "cavity" in raw and not all(_is_number(v) for v in raw["cavity"].values()):
        raise ConfigError("config: cavity values must be numbers")
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _file_cavity(obj: dict) -> CavityParams:
    try:
        return CavityParams(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: cavity: {exc}") from None


def _cavity_and_convention(
    args: argparse.Namespace, file_cfg: dict
) -> tuple[CavityParams | None, DenominatorConvention]:
    """``--cavity``/``--convention``: the flag, else the config file, else the default."""
    convention = _convention(
        args.convention
        if args.convention is not None
        else file_cfg.get("convention", DenominatorConvention.VERBATIM.value)
    )
    if args.cavity is not None:
        cavity = _cavity_from_triple(_parse_floats(args.cavity, 3, "cavity"))
    elif "cavity" in file_cfg:
        cavity = _file_cavity(file_cfg["cavity"])
    else:
        cavity = None
    return cavity, convention


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config) if args.config else {}

    alpha = (
        _parse_floats(args.alpha, 3, "alpha")
        if args.alpha is not None
        else tuple(file_cfg["alpha"])
        if "alpha" in file_cfg
        else None
    )
    if alpha is None:
        raise ConfigError("alpha: required (flag --alpha or config file)")
    coefficients = WCoefficients.normalized(*alpha)

    rounds = (
        _parse_ints(args.rounds, 2, "rounds")
        if args.rounds is not None
        else tuple(file_cfg.get("rounds", (1, 1)))
    )
    mode = args.mode if args.mode is not None else file_cfg.get("mode", "tree")
    shots = args.shots if args.shots is not None else file_cfg.get("shots", 0)
    seed = (
        args.seed
        if args.seed is not None
        else file_cfg.get("seed", _default_seed())
    )
    cavity, convention = _cavity_and_convention(args, file_cfg)

    config = ProtocolConfig(
        max_rounds_alice=rounds[0],
        max_rounds_charlie=rounds[1],
        gate_mode=GateMode(cavity, convention),
        rng_seed=seed,
        mode=mode,
        n_shots=shots,
    )
    trace = run_protocol(coefficients, config)
    _write_text(json.dumps(trace.to_json_obj(), indent=2), args.out)
    print(f"total_success_probability={trace.total_success_probability!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config) if args.config else {}
    file_sweep = file_cfg.get("sweep", {})

    alpha2 = (
        args.alpha2
        if args.alpha2 is not None
        else file_sweep.get("alpha2", 1.0 / math.sqrt(3.0))
    )
    if args.alpha1_range is not None:
        alpha1_range = _parse_range(args.alpha1_range, "alpha1-range")
    elif "alpha1_range" in file_sweep:
        alpha1_range = tuple(file_sweep["alpha1_range"])
    else:
        alpha1_range = (0.01, 0.8105)
    points = args.points if args.points is not None else file_sweep.get("points", 200)
    cavity, convention = _cavity_and_convention(args, file_cfg)

    spec = SweepSpec(
        alpha2=alpha2,
        alpha1_range=alpha1_range,
        n_points=points,
        cavity=cavity,
        convention=convention,
    )
    curve = sweep(spec)

    if args.out is None:
        write_sweep_csv(curve, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_sweep_csv(curve, fh)
    return 0


def _print_report_table(reports, stream: TextIO) -> None:
    header = f"{'quantity':<22} {'point':<26} {'analytic':<24} {'simulated':<24} {'abs_error':<12} status"
    stream.write(header + "\n")
    for rep in reports:
        point = ",".join(f"{x:.4f}" for x in rep.point)
        stream.write(
            f"{rep.quantity:<22} {point:<26} {rep.analytic:<24.17g} "
            f"{rep.simulated:<24.17g} {rep.abs_error:<12.3e} "
            f"{'pass' if rep.passed else 'FAIL'}\n"
        )


def cmd_verify(args: argparse.Namespace) -> int:
    depths = _parse_ints(args.depth, 2, "depth")
    cavity, convention = _cavity_and_convention(args, {})

    grid = simplex_grid(args.grid)
    reports = compare_all(
        grid,
        depths=depths,
        tolerance=args.tol,
        cavity=cavity,
        convention=convention,
    )
    _print_report_table(reports, sys.stdout)
    failed = sum(1 for rep in reports if not rep.passed)
    print(f"summary: {len(reports)} comparisons, {failed} failed")
    return 1 if failed else 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    try:
        params = CavityParams(
            kappa=1.0, kappa_s=args.kappa_s, g=args.g, gamma=args.gamma
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    convention = _convention(args.convention)
    sc = scatter_coefficients(params, omega=args.omega_detuning, convention=convention)
    obj = {"convention": convention.value}
    obj.update(sc.to_json_obj())
    obj["transmitted_signal_fraction"] = sc.transmitted_signal_fraction
    obj["reflected_signal_fraction"] = sc.reflected_signal_fraction
    print(json.dumps(obj, indent=2))
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecpsim",
        description="Simulate and analyze the three-spin concentration protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the protocol once, emit a JSON trace")
    sim.add_argument("--config", help="JSON config file; flags override its values")
    sim.add_argument("--alpha", help="initial coefficients a1,a2,a3 (normalized)")
    sim.add_argument("--rounds", help="max rounds per station, kA,kC (default 1,1)")
    sim.add_argument("--mode", choices=("tree", "mc"), help="exact tree or Monte Carlo")
    sim.add_argument("--shots", type=int, help="sample count for mc mode")
    sim.add_argument("--seed", type=int, help="RNG seed (default: env ECP_SEED or 0)")
    sim.add_argument("--cavity", help="lossy gate parameters kappa_s,g,gamma (units of kappa)")
    sim.add_argument("--convention", help="lossy denominator form: verbatim or corrected")
    sim.add_argument("--out", help="trace file (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="emit success-probability curves as CSV")
    swp.add_argument("--config", help="JSON config file; flags override its values")
    swp.add_argument("--alpha2", type=float, help="fixed second coefficient (default 1/sqrt(3))")
    swp.add_argument("--alpha1-range", dest="alpha1_range", help="lo:hi (default 0.01:0.8105)")
    swp.add_argument("--points", type=int, help="number of sweep points (default 200)")
    swp.add_argument("--cavity", help="lossy gate parameters kappa_s,g,gamma")
    swp.add_argument("--convention", help="lossy denominator form: verbatim or corrected")
    swp.add_argument("--out", help="CSV file (default stdout)")
    swp.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="cross-check closed forms against enumeration")
    ver.add_argument("--grid", type=int, default=10, help="simplex grid size n (n*n points)")
    ver.add_argument("--depth", default="4,4", help="tree depths kA,kC (default 4,4)")
    ver.add_argument("--tol", type=float, default=1e-10, help="comparison tolerance")
    ver.add_argument("--cavity", help="also check lossy one-round forms at kappa_s,g,gamma")
    ver.add_argument(
        "--convention", default=DenominatorConvention.VERBATIM.value,
        help="lossy denominator form: verbatim or corrected",
    )
    ver.set_defaults(func=cmd_verify)

    cof = sub.add_parser("coeffs", help="evaluate cavity scattering amplitudes")
    cof.add_argument("--kappa-s", dest="kappa_s", type=float, default=0.0,
                     help="side-leakage rate (units of kappa)")
    cof.add_argument("--g", type=float, default=0.0, help="coupling strength (units of kappa)")
    cof.add_argument("--gamma", type=float, default=0.0, help="dipole decay rate (units of kappa)")
    cof.add_argument("--omega-detuning", dest="omega_detuning", type=float, default=0.0,
                     help="probe detuning from the shared resonance (units of kappa)")
    cof.add_argument(
        "--convention", default=DenominatorConvention.VERBATIM.value,
        help="lossy denominator form: verbatim or corrected",
    )
    cof.set_defaults(func=cmd_coeffs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
