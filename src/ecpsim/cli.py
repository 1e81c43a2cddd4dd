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
import re
import sys
from functools import cache, partial

from .errors import ConfigError, EcpError, _is_count, _is_real

# Only errors is imported here: each subcommand and flag converter imports the
# modules it runs when it runs, so a process loads those alone.  Annotations are
# not evaluated, so the names they use are imported for type checkers only.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterator, Sequence, TextIO

    from .cavity import CavityParams, DenominatorConvention


# -- flag parsing helpers ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting with ``-`` and a digit, or ``-.``
    and a digit, as a value, so ``-1e-3`` is a number as ``-0.001`` is.  No ecpsim
    option looks like that, so none is shadowed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


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


def _cavity(prefix: str, **rates) -> CavityParams:
    from .cavity import CavityParams

    try:
        return CavityParams(**rates)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _cavity_flag(text: str) -> CavityParams:
    ks, g, gm = _parse_values(text, 3, "cavity")
    return _cavity("cavity: ", kappa_s=ks, g=g, gamma=gm)


def _lossy(args: argparse.Namespace) -> CavityParams | None:
    """The flag's or config file's cavity in the ``--convention`` form, or None."""
    return None if args.cavity is None else args.cavity._replace(convention=args.convention)


def _convention(token: str) -> DenominatorConvention:
    from .cavity import DenominatorConvention

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


def _list_of(n: int, ok: Callable) -> Callable:
    return lambda value: isinstance(value, list) and len(value) == n and all(map(ok, value))


# Checked in this order, after the types and key names: (name, check, requirement).
_SHAPES = (
    ("alpha", _list_of(3, _is_real), "must be 3 numbers"),
    ("rounds", _list_of(2, _is_count), "must be 2 integers"),
    ("sweep.alpha1_range", _list_of(2, _is_real), "must be [lo, hi]"),
    ("sweep.alpha2", _is_real, "must be a number"),
    ("sweep.points", _is_count, "must be an integer"),
    ("cavity", lambda section: all(map(_is_real, section.values())), "values must be numbers"),
)


def _load_config(path: str) -> dict:
    """Read and schema-check a run-config JSON file; unknown keys are errors."""
    from .cavity import CavityParams

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
        if not (_is_count(value) if _CONFIG_KEYS[key] is int else isinstance(value, _CONFIG_KEYS[key])):
            raise ConfigError(f"config: key {key!r} has wrong type")
    sections = {"cavity": CavityParams._fields[:-1], "sweep": ("alpha2", "alpha1_range", "points")}
    for section, known in sections.items():
        for key in raw.get(section, {}):
            if key not in known:
                raise ConfigError(f"config: unknown {section} key {key!r}")
    for name, ok, requirement in _SHAPES:
        section, _, key = name.rpartition(".")
        table = raw.get(section, {}) if section else raw
        if key in table and not ok(table[key]):
            raise ConfigError(f"config: {name} {requirement}")
    return raw


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's values as parser defaults: the ``sweep`` section flattened
    into its flags' names, the ``cavity`` section built unless ``--cavity`` overrides it."""
    defaults = _load_config(args.config)
    defaults.update(defaults.pop("sweep", {}))
    if "cavity" in defaults and args.cavity is None:
        defaults["cavity"] = _cavity("config: cavity: ", **defaults["cavity"])
    return defaults


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
    from .protocol import ProtocolConfig, WCoefficients, run_protocol

    if args.alpha is None:
        raise ConfigError("alpha: required (flag --alpha or config file)")
    coefficients = WCoefficients.normalized(*args.alpha)
    config = ProtocolConfig(
        max_rounds_alice=args.rounds[0],
        max_rounds_charlie=args.rounds[1],
        cavity=_lossy(args),
        rng_seed=_default_seed() if args.seed is None else args.seed,
        mode=args.mode,
        n_shots=args.shots,
    )
    trace = run_protocol(coefficients, config)
    with _output(args.out) as stream:
        stream.write(trace.to_json_text() + "\n")
    print(f"total_success_probability={trace.total_success_probability!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analytics import SweepSpec, sweep, write_sweep_csv

    spec = SweepSpec(
        alpha2=args.alpha2,
        alpha1_range=tuple(map(float, args.alpha1_range)),
        n_points=args.points,
        cavity=_lossy(args),
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
    from .oracle import compare_all, simplex_grid

    reports = compare_all(simplex_grid(args.grid), depths=args.depth, tolerance=args.tol, cavity=_lossy(args))
    _print_report_table(reports, sys.stdout)
    failed = sum(1 for rep in reports if not rep.passed)
    print(f"summary: {len(reports)} comparisons, {failed} failed")
    return 1 if failed else 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    from .cavity import scatter_coefficients

    params = _cavity("", kappa_s=args.kappa_s, g=args.g, gamma=args.gamma, convention=args.convention)
    sc = scatter_coefficients(params, omega=args.omega_detuning)
    obj = {"convention": args.convention.value}
    obj.update(sc.to_json_obj())
    obj["transmitted_signal_fraction"] = sc.transmitted_signal_fraction
    obj["reflected_signal_fraction"] = sc.reflected_signal_fraction
    print(json.dumps(obj, indent=2))
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; a string default goes through its flag's ``type``, as a flag would."""
    parser = _Parser(
        prog="ecpsim",
        description="Simulate and analyze the three-spin concentration protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cavity(cmd: argparse.ArgumentParser, cavity_help: str) -> None:
        cmd.add_argument("--cavity", type=_cavity_flag, help=cavity_help)
        cmd.add_argument("--convention", type=_convention, default="verbatim",
                         help="lossy denominator form: verbatim or corrected")

    sim = sub.add_parser("simulate", help="run the protocol once, emit a JSON trace")
    sim.add_argument("--config", help="JSON config file; flags override its values")
    sim.add_argument("--alpha", type=partial(_parse_values, n=3, field="alpha"),
                     help="initial coefficients a1,a2,a3 (normalized)")
    sim.add_argument("--rounds", type=partial(_parse_values, n=2, field="rounds", kind=int),
                     default="1,1", help="max rounds per station, kA,kC (default %(default)s)")
    sim.add_argument("--mode", choices=("tree", "mc"), default="tree", help="exact tree or Monte Carlo")
    sim.add_argument("--shots", type=int, default=0, help="sample count for mc mode")
    sim.add_argument("--seed", type=int, help="RNG seed (default: env ECP_SEED or 0)")
    add_cavity(sim, "lossy gate parameters kappa_s,g,gamma (units of kappa)")
    sim.add_argument("--out", help="trace file (default stdout)")
    sim.set_defaults(func=cmd_simulate, command_parser=sim)

    swp = sub.add_parser("sweep", help="emit success-probability curves as CSV")
    swp.add_argument("--config", help="JSON config file; flags override its values")
    swp.add_argument("--alpha2", type=float, default=1.0 / math.sqrt(3.0),
                     help="fixed second coefficient (default 1/sqrt(3))")
    swp.add_argument("--alpha1-range", dest="alpha1_range",
                     type=partial(_parse_range, field="alpha1-range"),
                     default="0.01:0.8105", help="lo:hi (default %(default)s)")
    swp.add_argument("--points", type=int, default=200,
                     help="number of sweep points (default %(default)s)")
    add_cavity(swp, "lossy gate parameters kappa_s,g,gamma")
    swp.add_argument("--out", help="CSV file (default stdout)")
    swp.set_defaults(func=cmd_sweep, command_parser=swp)

    ver = sub.add_parser("verify", help="cross-check closed forms against enumeration")
    ver.add_argument("--grid", type=int, default=10, help="simplex grid size n, 1..100 (n*n points)")
    ver.add_argument("--depth", type=partial(_parse_values, n=2, field="depth", kind=int),
                     default="4,4", help="tree depths kA,kC (default %(default)s)")
    ver.add_argument("--tol", type=float, default=1e-10, help="comparison tolerance")
    add_cavity(ver, "also check lossy one-round forms at kappa_s,g,gamma")
    ver.set_defaults(func=cmd_verify)

    cof = sub.add_parser("coeffs", help="evaluate cavity scattering amplitudes")
    cof.add_argument("--kappa-s", dest="kappa_s", type=float, default=0.0,
                     help="side-leakage rate (units of kappa)")
    cof.add_argument("--g", type=float, default=0.0, help="coupling strength (units of kappa)")
    cof.add_argument("--gamma", type=float, default=0.0, help="dipole decay rate (units of kappa)")
    cof.add_argument("--omega-detuning", dest="omega_detuning", type=float, default=0.0,
                     help="probe detuning from the shared resonance (units of kappa)")
    cof.add_argument("--convention", type=_convention, default="verbatim",
                     help="lossy denominator form: verbatim or corrected")
    cof.set_defaults(func=cmd_coeffs)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command on the process's parser, built on the first call.  A ``--config``
    run parses again on a parser of its own, whose command parser takes the file's
    values as defaults, so each value resolves as flag > config > default and the
    shared parser keeps its own defaults."""
    try:
        args = _shared_parser().parse_args(argv)
        if getattr(args, "config", None):
            defaults = _config_defaults(args)
            parser = build_parser()
            parser.parse_args(argv).command_parser.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except EcpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
