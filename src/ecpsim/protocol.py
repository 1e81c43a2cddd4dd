"""Two-station W-state concentration protocol.

Three parties share ``a1|duu> + a2|udu> + a3|uud>``.  The first station
(Alice, spin 1) repeatedly injects an ancilla photon prepared from her current
coefficient pair, passes it through the parity-check gate, and reads the two
output ports: the transmitted port (D3/D4) heralds success and leaves the
state in the one-repeated-coefficient form ``(a2, a2, a3)``; the reflected
port (D1/D2) heralds a retry with squared coefficients.  The second station
(Charlie, spin 3) runs the mirror-image loop where the reflected port (D5/D6)
heralds the maximally entangled W state and the transmitted port (D7/D8) a
retry.  Odd detectors need no correction; even detectors are followed by a
single-spin phase rotation at the station that ran the gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .cavity import (
    CavityParams,
    DenominatorConvention,
    DetectorLabel,
    PhotonRoutes,
    Station,
    photon_readout,
    scatter_coefficients,
)
from .errors import ConfigError, DegenerateCoefficientsError, InvalidCoefficientsError
from .hilbert import DEFAULT_TOLERANCE, SpinLabel

_NORM_TOLERANCE = 1e-12

_UP, _DOWN = SpinLabel.UP, SpinLabel.DOWN
# The kets a WState holds, in sorted ket order: |uud>, |udu>, |duu>.
_W_SPINS = ((_UP, _UP, _DOWN), (_UP, _DOWN, _UP), (_DOWN, _UP, _UP))
_W_SPIN_VALUES = tuple(tuple(s.value for s in spins) for spins in _W_SPINS)


@dataclass(frozen=True)
class WCoefficients:
    """Real nonnegative W-state coefficient triple with unit norm."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(a) for a in (self.a1, self.a2, self.a3)):
            raise InvalidCoefficientsError("coefficients must be finite")
        if self.a1 < 0.0 or self.a2 < 0.0 or self.a3 < 0.0:
            raise InvalidCoefficientsError("coefficients must be nonnegative")
        norm_sq = self.a1 * self.a1 + self.a2 * self.a2 + self.a3 * self.a3
        if abs(norm_sq - 1.0) > _NORM_TOLERANCE:
            raise InvalidCoefficientsError(f"coefficients not normalized: |a|^2 = {norm_sq}")

    @classmethod
    def normalized(cls, a1: float, a2: float, a3: float) -> WCoefficients:
        n = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        if n == 0.0:
            raise InvalidCoefficientsError("cannot normalize the zero triple")
        return cls(a1 / n, a2 / n, a3 / n)

    @classmethod
    def symmetric(cls) -> WCoefficients:
        a = 1.0 / math.sqrt(3.0)
        return cls(a, a, a)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)


class OutcomeClass(Enum):
    ALICE_SUCCESS = "alice_success"
    ALICE_RETRY = "alice_retry"
    CHARLIE_SUCCESS = "charlie_success"
    CHARLIE_RETRY = "charlie_retry"


@dataclass(frozen=True)
class GateMode:
    """Ideal gate, or the lossy gate specified by cavity parameters."""

    cavity: CavityParams | None = None
    convention: DenominatorConvention = DenominatorConvention.VERBATIM

    @property
    def is_lossy(self) -> bool:
        return self.cavity is not None

    @cached_property
    def success_factors(self) -> dict[Station, float]:
        """Factor on a lossy round's success probability, per station: the
        transmitted-port signal fraction at Alice, the reflected-port one at
        Charlie.  Evaluated once per mode."""
        coeffs = scatter_coefficients(self.cavity, convention=self.convention)
        return {
            Station.ALICE: coeffs.transmitted_signal_fraction,
            Station.CHARLIE: coeffs.reflected_signal_fraction,
        }


@dataclass(frozen=True)
class WState:
    """A state in span{|uud>, |udu>, |duu>}, the sector every round stays in.

    ``amplitudes`` holds one amplitude per ket in sorted ket order (``uud``,
    ``udu``, ``duu``), or ``None`` where the :data:`DEFAULT_TOLERANCE` drop
    removed the term.  Amplitudes are Python ``complex`` even when real: a
    float times a complex and a complex times a complex can give zeros of
    different sign, and the trace JSON shows that sign (an amplitude negated
    by a phase correction has imaginary part ``-0.0``).
    """

    amplitudes: tuple[complex | None, complex | None, complex | None]

    def to_json_obj(self) -> list[dict]:
        """``{photon, spins, re, im}`` records of the kept terms, in ket order."""
        return [
            {"photon": None, "spins": list(spins), "re": amp.real, "im": amp.imag}
            for spins, amp in zip(_W_SPIN_VALUES, self.amplitudes)
            if amp is not None
        ]


@dataclass(frozen=True)
class RoundOutcome:
    """One detector branch of a round: its probability within the round,
    the corrected post-measurement spin state, and the coefficient triple
    that parameterizes it."""

    detector: DetectorLabel
    probability: float
    post_state: WState
    post_coefficients: WCoefficients
    classification: OutcomeClass

    def to_json_obj(self) -> dict:
        return {
            "detector": self.detector.value,
            "probability": self.probability,
            "classification": self.classification.value,
            "post_coefficients": list(self.post_coefficients.as_tuple()),
            "post_state": self.post_state.to_json_obj(),
        }


@dataclass(frozen=True)
class ProtocolConfig:
    max_rounds_alice: int = 1
    max_rounds_charlie: int = 1
    gate_mode: GateMode = field(default_factory=GateMode)
    rng_seed: int = 0
    mode: str = "tree"  # "tree" or "mc"
    n_shots: int = 0

    def to_json_obj(self) -> dict:
        obj: dict = {
            "max_rounds_alice": self.max_rounds_alice,
            "max_rounds_charlie": self.max_rounds_charlie,
            "mode": self.mode,
            "rng_seed": self.rng_seed,
        }
        if self.mode == "mc":
            obj["n_shots"] = self.n_shots
        if self.gate_mode.is_lossy:
            obj["cavity"] = asdict(self.gate_mode.cavity)
            obj["convention"] = self.gate_mode.convention.value
        return obj


@dataclass(frozen=True)
class BranchRecord:
    """One aggregated leaf of the protocol tree (or one sampled path class).

    Retry steps merge the two equivalent detectors into a single token such
    as ``"D1|D2"`` in exhaustive mode, because both collapse to the same
    post-state; Monte Carlo paths keep concrete detector tokens.
    """

    path: tuple[str, ...]
    probability: float
    classification: OutcomeClass
    count: int | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {
            "path": list(self.path),
            "probability": self.probability,
            "classification": self.classification.value,
        }
        if self.count is not None:
            obj["count"] = self.count
        return obj


@dataclass
class ProtocolTrace:
    """Complete record of one protocol execution."""

    config: ProtocolConfig
    coefficients: WCoefficients
    rounds: list[RoundOutcome]
    branches: list[BranchRecord]
    total_success_probability: float
    shots: int | None = None
    counts: dict[str, int] | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {
            "config": self.config.to_json_obj(),
            "coefficients": list(self.coefficients.as_tuple()),
            "rounds": [r.to_json_obj() for r in self.rounds],
            "branches": [b.to_json_obj() for b in self.branches],
            "total_success_probability": self.total_success_probability,
        }
        if self.shots is not None:
            obj["monte_carlo"] = {
                "shots": self.shots,
                "counts": self.counts,
                "rng": _RNG_ALGORITHM,
            }
        return obj


# -- state preparation ------------------------------------------------------------


def prepare_w_state(coefficients: WCoefficients) -> WState:
    """Three-spin input state; all three coefficients must be strictly positive."""
    a1, a2, a3 = coefficients.as_tuple()
    if a1 == 0.0 or a2 == 0.0 or a3 == 0.0:
        raise InvalidCoefficientsError("protocol requires strictly positive coefficients")
    return WState(tuple(None if a < DEFAULT_TOLERANCE else complex(a) for a in (a3, a2, a1)))


def _photon_amplitudes(amp_r: float, amp_l: float) -> tuple[float, float]:
    """Normalized (R, L) amplitudes of an ancilla photon."""
    n = math.hypot(amp_r, amp_l)
    if n == 0.0:
        raise DegenerateCoefficientsError("photon amplitudes are both zero")
    return amp_r / n, amp_l / n


# -- coefficient bookkeeping ----------------------------------------------------


def coefficient_update_alice(coefficients: WCoefficients) -> WCoefficients:
    """Retry map for the first station: (a1, a2, a3) -> (a1^2, a2^2, a2*a3) normalized."""
    a1, a2, a3 = coefficients.as_tuple()
    try:
        return WCoefficients.normalized(a1 * a1, a2 * a2, a2 * a3)
    except InvalidCoefficientsError as exc:
        raise DegenerateCoefficientsError("retry map undefined for this triple") from exc


def coefficient_update_charlie(coefficients: WCoefficients) -> WCoefficients:
    """Retry map for the second station: (a1, a2, a3) -> (a2^2, a2^2, a3^2) normalized."""
    a2, a3 = coefficients.a2, coefficients.a3
    try:
        return WCoefficients.normalized(a2 * a2, a2 * a2, a3 * a3)
    except InvalidCoefficientsError as exc:
        raise DegenerateCoefficientsError("retry map undefined for this triple") from exc


def _alice_success_coefficients(coefficients: WCoefficients) -> WCoefficients:
    return WCoefficients.normalized(coefficients.a2, coefficients.a2, coefficients.a3)


def first_success(items, success_class: OutcomeClass):
    """The first of ``items`` (round outcomes or tree nodes) of ``success_class``.

    A coefficient small enough leaves every success amplitude below the
    amplitude drop; then there is no success and this raises
    :class:`InvalidCoefficientsError`.
    """
    for item in items:
        if item.classification is success_class:
            return item
    raise InvalidCoefficientsError(
        f"no {success_class.value} outcome: its amplitudes fall below the "
        f"{DEFAULT_TOLERANCE:g} amplitude drop"
    )


# -- single rounds ---------------------------------------------------------------


def _code(detector: DetectorLabel) -> int:
    return int(detector.value[1:])


@dataclass(frozen=True)
class _StationPlan:
    """What a round at one station needs, fixed at import.

    ``detectors`` come from :func:`photon_readout`, and ``routes`` holds its
    routes for the gated spin of each :class:`WState` slot.  ``success`` and
    ``flips`` are indexed by detector position; ``flips`` marks the slots an
    even detector's phase correction negates, those whose gated spin is DOWN.
    """

    station: Station
    photon_pair: Callable[[WCoefficients], tuple[float, float]]
    detectors: tuple[DetectorLabel, ...]
    routes: tuple[PhotonRoutes, PhotonRoutes, PhotonRoutes]
    success: tuple[bool, ...]
    flips: tuple[tuple[bool, bool, bool], ...]
    success_class: OutcomeClass
    retry_class: OutcomeClass
    success_coefficients: Callable[[WCoefficients], WCoefficients]
    retry_coefficients: Callable[[WCoefficients], WCoefficients]


def _station_plan(
    station: Station, gated_spin: int, success: tuple[DetectorLabel, ...], **fields
) -> _StationPlan:
    detectors, routes = photon_readout(station)
    gated = [spins[gated_spin] for spins in _W_SPINS]
    return _StationPlan(
        station=station,
        detectors=detectors,
        routes=tuple(routes[spin] for spin in gated),
        success=tuple(d in success for d in detectors),
        flips=tuple(
            tuple(_code(d) % 2 == 0 and spin is _DOWN for spin in gated) for d in detectors
        ),
        **fields,
    )


_ALICE_PLAN = _station_plan(
    Station.ALICE,
    gated_spin=0,
    success=(DetectorLabel.D3, DetectorLabel.D4),
    photon_pair=lambda c: (c.a1, c.a2),
    success_class=OutcomeClass.ALICE_SUCCESS,
    retry_class=OutcomeClass.ALICE_RETRY,
    success_coefficients=_alice_success_coefficients,
    retry_coefficients=coefficient_update_alice,
)
_CHARLIE_PLAN = _station_plan(
    Station.CHARLIE,
    gated_spin=2,
    success=(DetectorLabel.D5, DetectorLabel.D6),
    photon_pair=lambda c: (c.a2, c.a3),
    success_class=OutcomeClass.CHARLIE_SUCCESS,
    retry_class=OutcomeClass.CHARLIE_RETRY,
    success_coefficients=lambda _c: WCoefficients.symmetric(),
    retry_coefficients=coefficient_update_charlie,
)


def _station_round(
    state: WState,
    coefficients: WCoefficients,
    gate_mode: GateMode,
    plan: _StationPlan,
) -> list[RoundOutcome]:
    """Photon tensor, gate, wave plate, detection and phase correction in one pass.

    Gives exactly what the composed reference route in ``tests/reference.py``
    gives, where each of these steps builds a general ``StateVector``: the
    same complex operations in the same order, and the same
    ``DEFAULT_TOLERANCE`` drops.  The photon, wave-plate and normalization
    drops are made here.  The gate is a signed permutation that keeps each
    amplitude's magnitude, and the wave plate scales it by 1/sqrt(2), so a
    term the tensor-product or gate drop would remove is removed by the
    wave-plate drop anyway.  Each spin ket reaches each detector at most
    once, so the wave-plate and detector sums have a single term after
    ``0j``.  Slots are visited in sorted ket order, which is the order every
    intermediate state would have put them in within one detector.
    """
    tol = DEFAULT_TOLERANCE
    photon = [complex(p) for p in _photon_amplitudes(*plan.photon_pair(coefficients))]
    photon = [None if abs(p) < tol else p for p in photon]
    groups: list[list[tuple[int, complex]]] = [[] for _ in plan.detectors]
    for slot, amp in enumerate(state.amplitudes):
        if amp is None:
            continue
        for p, (sign, lands) in zip(photon, plan.routes[slot]):
            if p is None:
                continue
            gated = 0j + sign * (p * amp)
            for position, factor in lands:
                out = 0j + factor * gated
                if abs(out) >= tol:
                    groups[position].append((slot, out))

    events = []
    for position, group in enumerate(groups):
        if not group:
            continue
        norm = math.sqrt(sum(abs(a) ** 2 for _, a in group))
        probability = norm**2
        if probability == 0.0:
            continue
        flips = plan.flips[position]
        amplitudes: list[complex | None] = [None, None, None]
        for slot, amp in group:
            amp = amp / norm
            if abs(amp) >= tol:
                amplitudes[slot] = -amp if flips[slot] else amp
        events.append((position, probability, WState(tuple(amplitudes))))

    if gate_mode.is_lossy:
        # Success probabilities shrink by the port signal fraction; whatever
        # did not herald success (including photons lost to leakage) counts
        # toward the retry branches.  Post-states keep their ideal form.
        factor = gate_mode.success_factors[plan.station]
        p_succ = sum(p for position, p, _ in events if plan.success[position])
        p_retry = sum(p for position, p, _ in events if not plan.success[position])
        retry_scale = (1.0 - factor * p_succ) / p_retry if p_retry > 0.0 else 0.0

    post_coefficients: dict[bool, WCoefficients] = {}
    outcomes = []
    for position, probability, post_state in events:
        success = plan.success[position]
        if success not in post_coefficients:
            update = plan.success_coefficients if success else plan.retry_coefficients
            post_coefficients[success] = update(coefficients)
        if gate_mode.is_lossy:
            probability = probability * (factor if success else retry_scale)
        outcomes.append(
            RoundOutcome(
                detector=plan.detectors[position],
                probability=probability,
                post_state=post_state,
                post_coefficients=post_coefficients[success],
                classification=plan.success_class if success else plan.retry_class,
            )
        )
    return outcomes


def alice_round(
    state: WState,
    coefficients: WCoefficients,
    gate_mode: GateMode = GateMode(),
) -> list[RoundOutcome]:
    """One repetition at the first station; outcomes ordered D1..D4."""
    return _station_round(state, coefficients, gate_mode, _ALICE_PLAN)


def charlie_round(
    state: WState,
    coefficients: WCoefficients,
    gate_mode: GateMode = GateMode(),
) -> list[RoundOutcome]:
    """One repetition at the second station; outcomes ordered D5..D8."""
    return _station_round(state, coefficients, gate_mode, _CHARLIE_PLAN)


# -- full protocol ----------------------------------------------------------------


_SEED_LIMIT = 1 << 128  # Philox keys are 128-bit


def _validate_config(config: ProtocolConfig) -> None:
    if config.max_rounds_alice < 1 or config.max_rounds_charlie < 1:
        raise ConfigError("round limits must be at least 1")
    if not 0 <= config.rng_seed < _SEED_LIMIT:
        raise ConfigError(f"seed {config.rng_seed} outside [0, 2**128)")
    if config.mode not in ("tree", "mc"):
        raise ConfigError(f"unknown mode {config.mode!r}")
    if config.mode == "mc" and config.n_shots < 1:
        raise ConfigError("mc mode requires n_shots >= 1")


# One station's plan and its per-round outcome tables.
_Chain = tuple[_StationPlan, list[list[RoundOutcome]]]


def _stage_chains(coefficients: WCoefficients, config: ProtocolConfig) -> list[_Chain]:
    """Per-round outcome tables, one chain per station.

    Retry physics is path-independent (both retry detectors collapse to the
    same state), so one chain per station carries the complete dynamics.
    Likewise every success at a station leaves the same input for the next,
    so each chain is seeded from the previous station's first-round success.
    """
    # Built per call, so the round functions are looked up when a run starts.
    stations = (
        (alice_round, _ALICE_PLAN, config.max_rounds_alice),
        (charlie_round, _CHARLIE_PLAN, config.max_rounds_charlie),
    )
    state, coeffs = prepare_w_state(coefficients), coefficients
    chains: list[_Chain] = []
    for round_fn, plan, limit in stations:
        if chains:
            prev_plan, prev_stages = chains[-1]
            seed = first_success(prev_stages[0], prev_plan.success_class)
            state, coeffs = seed.post_state, seed.post_coefficients
        stages = []
        for _ in range(limit):
            outcomes = round_fn(state, coeffs, config.gate_mode)
            stages.append(outcomes)
            retry = next(o for o in outcomes if o.classification is plan.retry_class)
            state, coeffs = retry.post_state, retry.post_coefficients
        chains.append((plan, stages))
    return chains


def _tree_branches(chains: list[_Chain]) -> tuple[list[BranchRecord], float]:
    """Merged-retry leaves in pre-order: each success continues into the next
    station, the last station's successes and every station's exhausted
    retries end a branch."""
    stations = []
    for plan, stages in chains:
        success = [[o for o in st if o.classification is plan.success_class] for st in stages]
        retries = [[o for o in st if o.classification is not plan.success_class] for st in stages]
        tokens = ["|".join(o.detector.value for o in st) for st in retries]
        retry_mass = [sum(o.probability for o in st) for st in retries]
        stations.append((plan, success, tokens, retry_mass))

    records: list[BranchRecord] = []
    total_success = 0.0

    def walk(index: int, path: tuple[str, ...], weight: float) -> None:
        nonlocal total_success
        plan, success, tokens, retry_mass = stations[index]
        last = index == len(stations) - 1
        reach = 1.0
        for stage_success, token, mass in zip(success, tokens, retry_mass):
            for out in stage_success:
                prob = weight * reach * out.probability
                if last:
                    records.append(BranchRecord(path + (out.detector.value,), prob, plan.success_class))
                    total_success += prob
                else:
                    walk(index + 1, path + (out.detector.value,), prob)
            reach *= mass
            path += (token,)
        records.append(BranchRecord(path, weight * reach, plan.retry_class))

    walk(0, (), 1.0)
    return records, total_success


_RNG_ALGORITHM = "philox4x64; shot i consumes row i of the (shots x stages) uniform block"
_CHUNK = 1 << 16

# Paths are counted on int64 keys holding 4 bits per stage (detector number,
# or 0 where the shot had already stopped), first stage most significant, so
# key order is the lexicographic order of the paths.  Stages are folded in
# blocks: a block's key is the rank of the path prefix before it, shifted past
# the block's 44 bits, with the block's codes in those bits.  A rank is below
# the chunk size, so a key fits in 16 + 44 = 60 bits.
_BLOCK = 11
_BLOCK_BITS = 4 * _BLOCK
assert _CHUNK <= 1 << 16


def _stage_tables(
    stages: list[list[RoundOutcome]], success_class: OutcomeClass
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per stage, outcomes ordered by label: cumulative probabilities, success
    flags and detector numbers.  Stages may differ in length, because a
    detector whose amplitudes all fall below tolerance yields no outcome."""
    cum = [np.cumsum([o.probability for o in st]) for st in stages]
    success = [np.array([o.classification is success_class for o in st]) for st in stages]
    codes = [np.array([_code(o.detector) for o in st]) for st in stages]
    return cum, success, codes


def _count_paths(paths: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Distinct rows of ``paths`` in lexicographic order, and how often each occurs."""
    rank = np.zeros(len(paths), dtype=np.int64)
    for start in range(0, paths.shape[1], _BLOCK):
        key = rank << _BLOCK_BITS
        for j, column in enumerate(paths[:, start : start + _BLOCK].T):
            key |= column.astype(np.int64) << (_BLOCK_BITS - 4 * (j + 1))
        unique, rank = np.unique(key, return_inverse=True)
    # Shots of one rank share their whole row, so any of them can stand for it.
    rows = np.empty((len(unique), paths.shape[1]), dtype=paths.dtype)
    rows[rank] = paths
    return rows.tolist(), np.bincount(rank)


def _sample_branches(
    config: ProtocolConfig, chains: list[_Chain]
) -> tuple[list[BranchRecord], dict[str, int], float]:
    """Vectorized Monte Carlo walk over the stage chains.

    Each shot owns one row of a counter-based uniform block, so results are
    reproducible for a given (seed, shot index) regardless of chunking.  The
    shots that succeed at a station are the next station's input.
    """
    tables = [_stage_tables(stages, plan.success_class) for plan, stages in chains]
    n_stages = sum(len(stages) for _, stages in chains)
    # A path's class is that of its last detector's outcome.
    code_class = {
        _code(d): plan.success_class if success else plan.retry_class
        for plan, _ in chains
        for d, success in zip(plan.detectors, plan.success)
    }

    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))
    path_counts: dict[tuple[int, ...], int] = {}

    remaining = config.n_shots
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        u = rng.random((n, n_stages))
        paths = np.zeros((n, n_stages), dtype=np.int8)
        arrived = np.arange(n)
        col = 0
        for cum, success, codes in tables:
            active = arrived
            passed = []
            for k in range(len(cum)):
                if active.size == 0:
                    break
                choice = np.searchsorted(cum[k], u[active, col + k], side="right")
                np.clip(choice, 0, cum[k].size - 1, out=choice)
                paths[active, col + k] = codes[k][choice]
                won = success[k][choice]
                passed.append(active[won])
                active = active[~won]
            col += len(cum)
            arrived = np.concatenate(passed) if passed else np.empty(0, dtype=int)

        rows, counts = _count_paths(paths)
        for row, count in zip(rows, counts.tolist()):
            key = tuple(row)
            path_counts[key] = path_counts.get(key, 0) + count

    branches = []
    for row, count in sorted(path_counts.items()):
        codes = [code for code in row if code]
        branches.append(
            BranchRecord(
                path=tuple(f"D{code}" for code in codes),
                probability=count / config.n_shots,
                classification=code_class[codes[-1]],
                count=count,
            )
        )
    counts = {cls.value: 0 for cls in OutcomeClass}
    for branch in branches:
        counts[branch.classification.value] += branch.count
    total = counts[chains[-1][0].success_class.value] / config.n_shots
    return branches, counts, total


def run_protocol(coefficients: WCoefficients, config: ProtocolConfig) -> ProtocolTrace:
    """Execute the full two-loop protocol.

    In ``tree`` mode, branch probabilities are enumerated exactly; the two
    retry detectors of a round are merged into one path token because they
    collapse to identical states.  In ``mc`` mode, ``n_shots`` paths are
    sampled with a counter-based generator (one uniform row per shot), and
    branch records carry observed frequencies.
    """
    _validate_config(config)
    chains = _stage_chains(coefficients, config)
    rounds = [o for _, stages in chains for stage in stages for o in stage]

    if config.mode == "tree":
        branches, total = _tree_branches(chains)
        return ProtocolTrace(
            config=config,
            coefficients=coefficients,
            rounds=rounds,
            branches=branches,
            total_success_probability=total,
        )

    branches, counts, total = _sample_branches(config, chains)
    return ProtocolTrace(
        config=config,
        coefficients=coefficients,
        rounds=rounds,
        branches=branches,
        total_success_probability=total,
        shots=config.n_shots,
        counts=counts,
    )
