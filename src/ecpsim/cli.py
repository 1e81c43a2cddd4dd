"""Command-line front end.

Four subcommands: ``simulate`` runs the protocol once and emits a JSON
trace, ``sweep`` emits the success-probability curves as CSV, ``verify``
cross-checks closed forms against exhaustive enumeration and sets the exit
code, and ``coeffs`` evaluates the cavity scattering amplitudes.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields
from typing import Callable, Iterator, Sequence, TextIO

from .analytics import SweepSpec, sweep, write_sweep_csv
from .cavity import CavityParams, DenominatorConvention, scatter_coefficients
from .errors import (
    ConfigError,
    DegenerateCoefficientsError,
    DomainError,
    InvalidCoefficientsError,
)
from .oracle import compare_all, simplex_grid
from .protocol import ProtocolConfig, WCoefficients, run_protocol

_USAGE_ERRORS = (
    ConfigError,
    DegenerateCoefficientsError,
    DomainError,
    InvalidCoefficientsError,
)


# -- flag parsing helpers ------------------------------------------------------


def _parse_values(text: str, n: int, field: str, kind: type = float) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{field}: expected {n} comma-separated values, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        word = "integer" if kind is int else "numeric"
        raise ConfigError(f"{field}: non-{word} value in {text!r}") from None


def _parse_range(text: str, field: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{field}: expected lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{field}: non-numeric bound in {text!r}") from None


def _pick(flag, parse: Callable, table: dict, key: str, default: Callable):
    """The flag through ``parse``, else the config file's value, else ``default()``."""
    if flag is not None:
        return parse(flag)
    return table[key] if key in table else default()


def _cavity(prefix: str, **rates) -> CavityParams:
    try:
        return CavityParams(**rates)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


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
_SECTION_KEYS = {
    "cavity": {f.name for f in fields(CavityParams)},
    "sweep": {"alpha2", "alpha1_range", "points"},
}


def _is_number(value) -> bool:
    """A JSON number a float can hold: not a bool, nor an integer beyond the float range."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(n: int, ok: Callable) -> Callable:
    return lambda value: isinstance(value, list) and len(value) == n and all(map(ok, value))


# Checked in this order, after the types and key names: (name, check, requirement).
_SHAPES = (
    ("alpha", _list_of(3, _is_number), "must be 3 numbers"),
    ("rounds", _list_of(2, _is_int), "must be 2 integers"),
    ("sweep.alpha1_range", _list_of(2, _is_number), "must be [lo, hi]"),
    ("sweep.alpha2", _is_number, "must be a number"),
    ("sweep.points", _is_int, "must be an integer"),
    ("cavity", lambda section: all(map(_is_number, section.values())), "values must be numbers"),
)


def _load_config(path: str) -> dict:
    """Read and schema-check a run-config JSON file; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
    except ValueError as exc:  # an integer past Python's int/str digit limit
        raise ConfigError(f"config: unreadable number in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config: unknown key {key!r}")
        if not isinstance(value, _CONFIG_KEYS[key]) or isinstance(value, bool):
            raise ConfigError(f"config: key {key!r} has wrong type")
    for section, known in _SECTION_KEYS.items():
        for key in raw.get(section, {}):
            if key not in known:
                raise ConfigError(f"config: unknown {section} key {key!r}")
    for name, ok, requirement in _SHAPES:
        section, _, key = name.rpartition(".")
        table = raw.get(section, {}) if section else raw
        if key in table and not ok(table[key]):
            raise ConfigError(f"config: {name} {requirement}")
    return raw


def _convention(args: argparse.Namespace, file_cfg: dict) -> DenominatorConvention:
    """``--convention``: the flag, else the config file, else verbatim."""
    token = _pick(args.convention, str, file_cfg, "convention",
                  lambda: DenominatorConvention.VERBATIM.value)
    try:
        return DenominatorConvention(token)
    except ValueError:
        raise ConfigError(f"convention: unknown value {token!r}") from None


def _cavity_and_convention(
    args: argparse.Namespace, file_cfg: dict
) -> tuple[CavityParams | None, DenominatorConvention]:
    """``--cavity``/``--convention``: the flag, else the config file, else the default."""
    convention = _convention(args, file_cfg)
    if args.cavity is not None:
        ks, g, gm = _parse_values(args.cavity, 3, "cavity")
        return _cavity("cavity: ", kappa_s=ks, g=g, gamma=gm), convention
    if "cavity" in file_cfg:
        return _cavity("config: cavity: ", **file_cfg["cavity"]), convention
    return None, convention


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """``--out``: the named file, else stdout; an unwritable file is a ConfigError."""
    if out is None:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out}: {exc}") from None


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else {}
    alpha = _pick(args.alpha, lambda text: _parse_values(text, 3, "alpha"), cfg, "alpha",
                  lambda: None)
    if alpha is None:
        raise ConfigError("alpha: required (flag --alpha or config file)")
    # As floats, so a config integer squares like the flag's value instead
    # of growing past the float range.
    coefficients = WCoefficients.normalized(*map(float, alpha))
    rounds = _pick(args.rounds, lambda text: _parse_values(text, 2, "rounds", int), cfg, "rounds",
                   lambda: (1, 1))
    mode = _pick(args.mode, str, cfg, "mode", lambda: "tree")
    shots = _pick(args.shots, int, cfg, "shots", lambda: 0)
    seed = _pick(args.seed, int, cfg, "seed", _default_seed)
    cavity, convention = _cavity_and_convention(args, cfg)

    config = ProtocolConfig(
        max_rounds_alice=rounds[0],
        max_rounds_charlie=rounds[1],
        cavity=cavity,
        convention=convention,
        rng_seed=seed,
        mode=mode,
        n_shots=shots,
    )
    trace = run_protocol(coefficients, config)
    with _output(args.out) as stream:
        stream.write(json.dumps(trace.to_json_obj(), indent=2) + "\n")
    print(f"total_success_probability={trace.total_success_probability!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else {}
    table = cfg.get("sweep", {})
    alpha1_range = _pick(args.alpha1_range, lambda text: _parse_range(text, "alpha1-range"),
                         table, "alpha1_range", lambda: (0.01, 0.8105))
    cavity, convention = _cavity_and_convention(args, cfg)

    spec = SweepSpec(
        alpha2=_pick(args.alpha2, float, table, "alpha2", lambda: 1.0 / math.sqrt(3.0)),
        alpha1_range=tuple(map(float, alpha1_range)),
        n_points=_pick(args.points, int, table, "points", lambda: 200),
        cavity=cavity,
        convention=convention,
    )
    curve = sweep(spec)
    with _output(args.out) as stream:
        write_sweep_csv(curve, stream)
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
    depths = _parse_values(args.depth, 2, "depth", int)
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
    params = _cavity("", kappa_s=args.kappa_s, g=args.g, gamma=args.gamma)
    convention = _convention(args, {})
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
    ver.add_argument("--grid", type=int, default=10, help="simplex grid size n, 1..100 (n*n points)")
    ver.add_argument("--depth", default="4,4", help="tree depths kA,kC (default 4,4)")
    ver.add_argument("--tol", type=float, default=1e-10, help="comparison tolerance")
    ver.add_argument("--cavity", help="also check lossy one-round forms at kappa_s,g,gamma")
    ver.add_argument("--convention", help="lossy denominator form: verbatim or corrected")
    ver.set_defaults(func=cmd_verify)

    cof = sub.add_parser("coeffs", help="evaluate cavity scattering amplitudes")
    cof.add_argument("--kappa-s", dest="kappa_s", type=float, default=0.0,
                     help="side-leakage rate (units of kappa)")
    cof.add_argument("--g", type=float, default=0.0, help="coupling strength (units of kappa)")
    cof.add_argument("--gamma", type=float, default=0.0, help="dipole decay rate (units of kappa)")
    cof.add_argument("--omega-detuning", dest="omega_detuning", type=float, default=0.0,
                     help="probe detuning from the shared resonance (units of kappa)")
    cof.add_argument("--convention", help="lossy denominator form: verbatim or corrected")
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
