"""Workload definitions for the ecpsim benchmark: seeded inputs, ops and output checks.

Every op is issued closed loop from one thread: the next op starts only after
the previous one has returned.  The program receives only the generated
coefficients, depths, cavity parameters and argv; the seed never reaches it
except as the Monte Carlo ``--seed`` that the generator draws.

A run issues a fixed number of ops, ``Workload.op_count(seconds)``, so that
``attempted`` and ``failed`` never depend on how fast the host happens to be.
``verify-grid`` and ``trace-sweep`` draw their inputs from a randomised
quasi-Monte Carlo stream: a Halton sequence with a seeded start index and a
seeded Cranley-Patterson shift.  ``mc-sample`` takes the first ``n`` points of
the unshifted Halton sequence as a fixed design of (alpha, rounds) and lets the
seed choose their order and each op's Monte Carlo ``--seed``.  Which ops hit
the ragged-stage crash depends only on (alpha, rounds), never on the Monte
Carlo seed, so with a fixed design the number of failed ops is a property of
the code and of ``n``: the same for every seed and every run.

Each checker uses the other route: closed forms from ``ecpsim.analytics`` for
simulated totals, and the report's own pass flags for ``compare_all``, which
is itself the cross-check.  A checker raises :class:`CheckFailed` on a wrong
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterator

from ecpsim import analytics, cli, oracle
from ecpsim.protocol import WCoefficients

# simplex_grid(10) places u and v at (i + 1) / 11 for i = 0..9.
GRID_LO, GRID_HI = 1.0 / 11.0, 10.0 / 11.0
VERIFY_DEPTHS = (4, 4)
VERIFY_REPORTS = 9  # 4 p1_round + 4 p2_round + pt_one_round
MC_SHOTS = 70_000  # one full sampler chunk of 65 536 shots plus a partial one
MC_MAX_ROUNDS = 6
TRACE_MAX_ROUNDS = 30
SWEEP_POINTS = 1000  # sized so that closed forms plus CSV take about half an op
MC_SIGMAS = 5.0
TRACE_TOTAL_TOL = 1e-10
BRANCH_SUM_TOL = 1e-9
CSV_REL_TOL = 1e-12

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class CheckFailed(Exception):
    """An op returned, but its output disagrees with the reference route."""


@dataclass(frozen=True)
class Outcome:
    """What one op produced: its output text (None when it returned objects only),
    the work units it completed and any returned value the checker needs."""

    text: str | None
    units: int
    value: Any = None

    def digest_text(self) -> str:
        if self.text is not None:
            return self.text
        return json.dumps([r.to_json_obj() for r in self.value], sort_keys=True)


@dataclass(frozen=True)
class KnownDefect:
    """A failure present at the commit that defined the benchmark, recorded rather than hidden."""

    name: str
    workload: str
    reproducer: tuple[str, ...]
    description: str
    exception: type
    raised_in: str

    def matches(self, exc: BaseException) -> bool:
        frames = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
        return isinstance(exc, self.exception) and self.raised_in in frames


KNOWN_DEFECTS = (
    KnownDefect(
        name="mc-ragged-stages",
        workload="mc-sample",
        reproducer=(
            "simulate", "--mode", "mc", "--alpha", "0.8,0.36,0.48",
            "--rounds", "7,7", "--shots", "1000",
        ),
        description=(
            "detect() drops zero-probability events, so the per-stage outcome "
            "table is ragged and np.cumsum in _sample_branches raises ValueError"
        ),
        exception=ValueError,
        raised_in="_sample_branches",
    ),
)


def known_defect(exc: BaseException) -> KnownDefect | None:
    return next((d for d in KNOWN_DEFECTS if d.matches(exc)), None)


# -- input generation ---------------------------------------------------------


def _radical_inverse(i: int, base: int) -> float:
    inv, digit_value = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * digit_value
        digit_value /= base
    return inv


def halton(start: int, shift: list[float]) -> Iterator[list[float]]:
    """Halton points ``start + 1``, ``start + 2``, ... in [0, 1)^len(shift), shifted mod 1."""
    i = start
    while True:
        i += 1
        yield [(_radical_inverse(i, b) + s) % 1.0 for b, s in zip(_PRIMES, shift)]


def qmc_stream(rng: random.Random, dims: int) -> Iterator[list[float]]:
    """Randomised Halton points in [0, 1)^dims, reproducible from ``rng``."""
    start = rng.randrange(1 << 20)
    return halton(start, [rng.random() for _ in range(dims)])


def _grid_point(u: float, v: float) -> tuple[float, float, float]:
    """Unnormalised (a1, a2, a3) under simplex_grid's (u, v) map."""
    u = GRID_LO + (GRID_HI - GRID_LO) * u
    v = GRID_LO + (GRID_HI - GRID_LO) * v
    return (math.sqrt(u), math.sqrt((1.0 - u) * v), math.sqrt((1.0 - u) * (1.0 - v)))


def _depth(x: float, top: int) -> int:
    return 1 + min(top - 1, int(top * x))


def _floats(values) -> str:
    return ",".join(repr(float(x)) for x in values)


@dataclass(frozen=True)
class VerifyInput:
    alpha: tuple[float, float, float]


@dataclass(frozen=True)
class McInput:
    alpha: tuple[float, float, float]
    rounds: tuple[int, int]
    mc_seed: int

    def argv(self) -> list[str]:
        return [
            "simulate", "--mode", "mc", "--alpha", _floats(self.alpha),
            "--rounds", f"{self.rounds[0]},{self.rounds[1]}",
            "--shots", str(MC_SHOTS), "--seed", str(self.mc_seed),
        ]


@dataclass(frozen=True)
class TraceSweepInput:
    alpha: tuple[float, float, float]
    rounds: tuple[int, int]
    cavity: tuple[float, float, float] | None
    convention: str
    sweep_alpha2: float
    sweep_hi: float

    def _cavity_args(self) -> list[str]:
        if self.cavity is None:
            return []
        return ["--cavity", _floats(self.cavity), "--convention", self.convention]

    def simulate_argv(self) -> list[str]:
        return [
            "simulate", "--alpha", _floats(self.alpha),
            "--rounds", f"{self.rounds[0]},{self.rounds[1]}",
        ] + self._cavity_args()

    def sweep_argv(self) -> list[str]:
        return [
            "sweep", "--points", str(SWEEP_POINTS), "--alpha2", repr(self.sweep_alpha2),
            "--alpha1-range", f"0.01:{self.sweep_hi!r}",
        ] + self._cavity_args()


def verify_inputs(seed: int, n: int) -> list[VerifyInput]:
    return [VerifyInput(_grid_point(u, v)) for u, v in islice(qmc_stream(random.Random(seed), 2), n)]


def mc_inputs(seed: int, n: int) -> list[McInput]:
    """The first ``n`` design points, in a seeded order, each with a seeded Monte Carlo seed."""
    design = [
        (_grid_point(x[2], x[3]), (_depth(x[0], MC_MAX_ROUNDS), _depth(x[1], MC_MAX_ROUNDS)))
        for x in islice(halton(0, [0.0] * 4), n)
    ]
    rng = random.Random(seed)
    rng.shuffle(design)
    return [McInput(alpha, rounds, rng.randrange(1 << 31)) for alpha, rounds in design]


def trace_sweep_inputs(seed: int, n: int) -> list[TraceSweepInput]:
    """Alternating ideal and lossy ops; lossy ones alternate the two conventions."""
    return list(islice(_trace_sweep_stream(seed), n))


def _trace_sweep_stream(seed: int) -> Iterator[TraceSweepInput]:
    rng = random.Random(seed)
    for i, x in enumerate(qmc_stream(rng, 8)):
        lossy = i % 2 == 1
        alpha2 = 0.35 + 0.4 * x[7]
        yield TraceSweepInput(
            alpha=_grid_point(x[2], x[3]),
            rounds=(_depth(x[0], TRACE_MAX_ROUNDS), _depth(x[1], TRACE_MAX_ROUNDS)),
            cavity=(x[4], 0.3 + 1.7 * x[5], 0.05 + 0.15 * x[6]) if lossy else None,
            convention="verbatim" if i % 4 == 1 else "corrected",
            sweep_alpha2=alpha2,
            sweep_hi=0.98 * math.sqrt(1.0 - alpha2 * alpha2),
        )


# -- ops ----------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``ecpsim`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def verify_op(inp: VerifyInput) -> Outcome:
    c = WCoefficients.normalized(*inp.alpha)
    reports = oracle.compare_all([c], VERIFY_DEPTHS)
    return Outcome(text=None, units=1, value=reports)


def mc_op(inp: McInput) -> Outcome:
    code, out, err = call_cli(inp.argv())
    if code != 0:
        raise CheckFailed(f"exit {code}: {err.strip()}")
    return Outcome(text=out, units=MC_SHOTS)


def trace_sweep_op(inp: TraceSweepInput) -> Outcome:
    code, trace_out, err = call_cli(inp.simulate_argv())
    if code != 0:
        raise CheckFailed(f"simulate exit {code}: {err.strip()}")
    code, csv_out, err = call_cli(inp.sweep_argv())
    if code != 0:
        raise CheckFailed(f"sweep exit {code}: {err.strip()}")
    return Outcome(text=trace_out + csv_out, units=1, value=(trace_out, csv_out))


# -- output checks ------------------------------------------------------------


def _closed_form_total(alpha, rounds) -> float:
    c = WCoefficients.normalized(*alpha)
    return analytics.p1_total(c, rounds[0]) * analytics.p2_total(c, rounds[1])


def _parse_simulate(out: str) -> dict:
    body, _, last = out.rstrip("\n").rpartition("\n")
    key, _, value = last.partition("=")
    if key != "total_success_probability":
        raise CheckFailed(f"missing summary line, got {last[:80]!r}")
    try:
        trace = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"trace is not JSON: {exc}") from None
    if float(value) != trace["total_success_probability"]:
        raise CheckFailed("summary line disagrees with the trace")
    return trace


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_verify(inp: VerifyInput, outcome: Outcome) -> None:
    reports = outcome.value
    if len(reports) != VERIFY_REPORTS:
        raise CheckFailed(f"{len(reports)} comparisons, expected {VERIFY_REPORTS}")
    failed = [r.quantity for r in reports if not r.passed]
    if failed:
        raise CheckFailed(f"comparisons failed: {failed}")


def check_mc(inp: McInput, outcome: Outcome) -> None:
    trace = _parse_simulate(outcome.text)
    counts = trace["monte_carlo"]["counts"]
    if sum(counts.values()) != MC_SHOTS:
        raise CheckFailed(f"counts sum to {sum(counts.values())}, not {MC_SHOTS}")
    p = _closed_form_total(inp.alpha, inp.rounds)
    sigma = math.sqrt(p * (1.0 - p) / MC_SHOTS)
    total = trace["total_success_probability"]
    if abs(total - p) > MC_SIGMAS * sigma + 1.0 / MC_SHOTS:
        raise CheckFailed(f"total {total} vs closed form {p} (sigma {sigma:.3g})")


def check_trace_sweep(inp: TraceSweepInput, outcome: Outcome) -> None:
    trace_out, csv_out = outcome.value
    trace = _parse_simulate(trace_out)
    branch_sum = sum(b["probability"] for b in trace["branches"])
    if abs(branch_sum - 1.0) > BRANCH_SUM_TOL:
        raise CheckFailed(f"branch probabilities sum to {branch_sum!r}")
    if inp.cavity is None:
        p = _closed_form_total(inp.alpha, inp.rounds)
        total = trace["total_success_probability"]
        if abs(total - p) > TRACE_TOTAL_TOL:
            raise CheckFailed(f"total {total!r} vs closed form {p!r}")

    lines = csv_out.splitlines()
    if not lines or lines[0] != analytics.CSV_HEADER:
        raise CheckFailed("CSV header missing")
    if len(lines) != SWEEP_POINTS + 1:
        raise CheckFailed(f"{len(lines) - 1} CSV rows, expected {SWEEP_POINTS}")
    for n, line in enumerate(lines[1:], 1):
        _a1, _a2, _a3, p1, p2, pt, q1, q2, qt = (float(x) for x in line.split(","))
        if not _close(pt, p1 * p2, CSV_REL_TOL):
            raise CheckFailed(f"CSV row {n}: p_total {pt!r} != p1*p2 {p1 * p2!r}")
        if not _close(qt, q1 * q2, CSV_REL_TOL):
            raise CheckFailed(f"CSV row {n}: p_practical {qt!r} != p1_practical*p2_practical")


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    unit: str
    inputs: Callable[[int, int], list]  # (seed, n) -> n inputs
    run: Callable[[Any], Outcome]
    check: Callable[[Any, Outcome], None]
    ops_per_s: float  # nominal ops/s on the reference scale at the defining commit; sizes a run

    def op_count(self, seconds: float) -> int:
        """Ops in a run of nominally ``seconds``: fixed, so counts never depend on host speed."""
        return max(1, round(seconds * self.ops_per_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-grid",
            op="oracle.compare_all([c], (4, 4)) on one seeded interior point of the --grid 10 span",
            unit="grid points",
            inputs=verify_inputs,
            run=verify_op,
            check=check_verify,
            ops_per_s=3.5,
        ),
        Workload(
            name="mc-sample",
            op=f"cli.main(simulate --mode mc --shots {MC_SHOTS}) in-process, a fixed design of "
            f"alpha and rounds 1..{MC_MAX_ROUNDS} per station in seeded order, seeded --seed",
            unit="shots",
            inputs=mc_inputs,
            run=mc_op,
            check=check_mc,
            ops_per_s=5.0,
        ),
        Workload(
            name="trace-sweep",
            op=f"one report: cli.main(simulate, tree, rounds 1..{TRACE_MAX_ROUNDS}, half lossy) "
            f"then cli.main(sweep --points {SWEEP_POINTS}) with the same cavity",
            unit="reports",
            inputs=trace_sweep_inputs,
            run=trace_sweep_op,
            check=check_trace_sweep,
            ops_per_s=18.0,
        ),
    )
}
