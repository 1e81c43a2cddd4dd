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

import json
import math
import sys
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable, NamedTuple

from .cavity import (
    DEFAULT_TOLERANCE,
    CavityParams,
    DetectorLabel,
    ScatterCoefficients,
    SpinLabel,
    Station,
    photon_readout,
    scatter_coefficients,
)
from .errors import (
    _REAL_TYPES,
    ConfigError,
    DegenerateCoefficientsError,
    DomainError,
    InvalidCoefficientsError,
    RoutingError,
    _is_count,
    _shown,
    _unreal,
)

_NORM_TOLERANCE = 1e-12
_NORMAL_MIN = sys.float_info.min  # least positive normal float
# Round limit per station, shared with the closed forms in ``analytics``.
MAX_ROUNDS = 64
_SEED_LIMIT = 1 << 128  # Philox keys are 128-bit
# What the generated constructor of a named tuple calls; WCoefficients and the
# round kernel's WState and RoundOutcome values are built with it directly.
_tuple_new = tuple.__new__

_UP, _DOWN = SpinLabel.UP, SpinLabel.DOWN
# The kets a WState holds, in sorted ket order: |uud>, |udu>, |duu>.
_W_SPINS = ((_UP, _UP, _DOWN), (_UP, _DOWN, _UP), (_DOWN, _UP, _UP))
_W_SPIN_VALUES = tuple(tuple(s.value for s in spins) for spins in _W_SPINS)


# -- JSON text ---------------------------------------------------------------------
# A record's ``_json_text`` is its ``to_json_obj`` as ``json.dumps(..., indent=2)``
# writes it in the trace, from a fixed template: its strings need no escaping.


class _JsonFloats(dict):
    """Each float's JSON text, made once per distinct value: ``repr`` is most of
    the writing time, and a trace's floats repeat (the detectors of a pair,
    branches with equal counts)."""

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x) if x - x == 0.0 else json.dumps(x)  # NaN, Infinity
        if x:  # 0.0 and -0.0 are one key but two texts
            self[x] = text
        return text


def _json_list(items: list[str], indent: str) -> str:
    """The JSON list of the written ``items``; ``indent`` is the list's own."""
    inner = ",\n" + indent + "  "
    return "[" + inner[1:] + inner.join(items) + "\n" + indent + "]" if items else "[]"


_KET_HEADS = tuple('{\n          "photon": null,\n          "spins": [\n            "'
                   + '",\n            "'.join(spins) + '"\n          ],\n          "re": '
                   for spins in _W_SPIN_VALUES)


class _WCoefficientsFields(NamedTuple):
    a1: float
    a2: float
    a3: float


class WCoefficients(_WCoefficientsFields):
    """Nonnegative W-state coefficient triple with unit norm, each a finite float
    or int (not a bool), checked where it is built, ``_replace`` and ``_make``
    included (:class:`InvalidCoefficientsError`)."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, a1: float, a2: float, a3: float) -> WCoefficients:
        if not (type(a1) in _REAL_TYPES and type(a2) in _REAL_TYPES and type(a3) in _REAL_TYPES):
            raise InvalidCoefficientsError(f"coefficients must be real numbers, not {_unreal((a1, a2, a3))}")
        try:
            finite = math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise InvalidCoefficientsError("coefficients must be finite")
        if a1 < 0.0 or a2 < 0.0 or a3 < 0.0:
            raise InvalidCoefficientsError("coefficients must be nonnegative")
        try:
            norm_sq = a1 * a1 + a2 * a2 + a3 * a3
            off = abs(norm_sq - 1.0) > _NORM_TOLERANCE
        except OverflowError:  # an int whose square no float holds
            norm_sq, off = math.inf, True
        if off:
            raise InvalidCoefficientsError(f"coefficients not normalized: |a|^2 = {norm_sq}")
        return _tuple_new(cls, (a1, a2, a3))

    @classmethod
    def normalized(cls, a1: float, a2: float, a3: float) -> WCoefficients:
        """The triple over its norm.  Where the sum of squares leaves the normal
        float range (it underflows, to 0 or to a few significant bits, or it
        overflows), the triple is first divided by its largest coefficient.
        Ints are taken as floats; what the constructor refuses as not a real
        number, or as an int past the float range, is refused alike."""
        if not (type(a1) is float and type(a2) is float and type(a3) is float):
            if (unreal := _unreal((a1, a2, a3))) is not None:
                raise InvalidCoefficientsError(f"coefficients must be real numbers, not {unreal}")
            try:
                a1, a2, a3 = float(a1), float(a2), float(a3)
            except OverflowError:
                raise InvalidCoefficientsError("coefficients must be finite") from None
        sum_sq = a1 * a1 + a2 * a2 + a3 * a3
        if not _NORMAL_MIN <= sum_sq < math.inf:
            m = max(abs(a1), abs(a2), abs(a3))
            if 0.0 < m < math.inf:
                a1, a2, a3 = a1 / m, a2 / m, a3 / m
                sum_sq = a1 * a1 + a2 * a2 + a3 * a3
        n = math.sqrt(sum_sq)
        if n == 0.0:
            raise InvalidCoefficientsError("cannot normalize the zero triple")
        return cls(a1 / n, a2 / n, a3 / n)

    @classmethod
    def symmetric(cls) -> WCoefficients:
        a = 1.0 / math.sqrt(3.0)
        return cls(a, a, a)


class OutcomeClass(Enum):
    ALICE_SUCCESS = "alice_success"
    ALICE_RETRY = "alice_retry"
    CHARLIE_SUCCESS = "charlie_success"
    CHARLIE_RETRY = "charlie_retry"


class WState(NamedTuple):
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

    def _json_text(self, num: _JsonFloats) -> str:
        kets = [f'{head}{num[amp.real]},\n          "im": {num[amp.imag]}\n        }}'
                for head, amp in zip(_KET_HEADS, self.amplitudes) if amp is not None]
        return _json_list(kets, "      ")


class RoundOutcome(NamedTuple):
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
            "post_coefficients": list(self.post_coefficients),
            "post_state": self.post_state.to_json_obj(),
        }

    def _json_text(self, num: _JsonFloats) -> str:
        c1, c2, c3 = self.post_coefficients
        return (
            f'{{\n      "detector": "{self.detector.value}",\n'
            f'      "probability": {num[self.probability]},\n'
            f'      "classification": "{self.classification.value}",\n'
            f'      "post_coefficients": [\n        {num[c1]},\n        {num[c2]},\n        {num[c3]}\n      ],\n'
            f'      "post_state": {self.post_state._json_text(num)}\n    }}'
        )


class _ProtocolConfigFields(NamedTuple):
    max_rounds_alice: int = 1
    max_rounds_charlie: int = 1
    cavity: CavityParams | None = None
    rng_seed: int = 0
    mode: str = "tree"  # "tree" or "mc"
    n_shots: int = 0


class ProtocolConfig(_ProtocolConfigFields):
    """One run: round limits (1..MAX_ROUNDS), the lossy gate's
    :class:`CavityParams` (``None`` for the ideal gate), the tree or Monte Carlo
    mode, seed and shots, the counts each an ``int`` and not a ``bool``; checked
    where it is built, ``_replace`` and ``_make`` included (:class:`ConfigError`)."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> ProtocolConfig:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("max_rounds_alice", "max_rounds_charlie", "rng_seed", "n_shots"):
            if not _is_count(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an int, not {type(value).__name__}")
        if self.cavity is not None and not isinstance(self.cavity, CavityParams):
            raise ConfigError(f"cavity must be a CavityParams or None, not {type(self.cavity).__name__}")
        if self.max_rounds_alice < 1 or self.max_rounds_charlie < 1:
            raise ConfigError("round limits must be at least 1")
        if self.max_rounds_alice > MAX_ROUNDS or self.max_rounds_charlie > MAX_ROUNDS:
            raise ConfigError(f"round limits must be at most {MAX_ROUNDS}")
        if not 0 <= self.rng_seed < _SEED_LIMIT:
            raise ConfigError(f"seed {_shown(self.rng_seed)} outside [0, 2**128)")
        if self.mode not in ("tree", "mc"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "mc" and self.n_shots < 1:
            raise ConfigError("mc mode requires n_shots >= 1")
        return self

    def to_json_obj(self) -> dict:
        obj: dict = {
            "max_rounds_alice": self.max_rounds_alice,
            "max_rounds_charlie": self.max_rounds_charlie,
            "mode": self.mode,
            "rng_seed": self.rng_seed,
        }
        if self.mode == "mc":
            obj["n_shots"] = self.n_shots
        if self.cavity is not None:
            obj["cavity"] = rates = self.cavity._asdict()
            obj["convention"] = rates.pop("convention").value
        return obj


class BranchRecord(NamedTuple):
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

    def _json_text(self, num: _JsonFloats) -> str:
        path = '[\n        "' + '",\n        "'.join(self.path) + '"\n      ]' if self.path else "[]"
        count = "" if self.count is None else f',\n      "count": {self.count}'
        return (f'{{\n      "path": {path},\n      "probability": {num[self.probability]},\n'
                f'      "classification": "{self.classification.value}"{count}\n    }}')


class ProtocolTrace(NamedTuple):
    """Complete record of one protocol execution."""

    config: ProtocolConfig
    coefficients: WCoefficients
    rounds: list[RoundOutcome]
    branches: list[BranchRecord]
    total_success_probability: float
    shots: int | None = None
    counts: dict[str, int] | None = None

    def to_json_obj(self) -> dict:
        return self._json_obj([r.to_json_obj() for r in self.rounds], [b.to_json_obj() for b in self.branches])

    def _json_obj(self, rounds: list, branches: list) -> dict:
        obj: dict = {
            "config": self.config.to_json_obj(),
            "coefficients": list(self.coefficients),
            "rounds": rounds,
            "branches": branches,
            "total_success_probability": self.total_success_probability,
        }
        if self.shots is not None:
            obj["monte_carlo"] = {"shots": self.shots, "counts": self.counts, "rng": _RNG_ALGORITHM}
        return obj

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)`` in one pass: the records'
        texts spliced into json's text of the rest, where json escapes each newline
        inside a string, so only the top-level keys start a line indented by two."""
        num = _JsonFloats()
        rounds = _json_list([r._json_text(num) for r in self.rounds], "  ")
        branches = _json_list([b._json_text(num) for b in self.branches], "  ")
        text = json.dumps(self._json_obj([], []), indent=2)
        return text.replace('\n  "rounds": [],\n  "branches": []',
                            f'\n  "rounds": {rounds},\n  "branches": {branches}', 1)


# -- state preparation ------------------------------------------------------------


def prepare_w_state(coefficients: WCoefficients) -> WState:
    """Three-spin input state; all three coefficients must be strictly positive."""
    if not isinstance(coefficients, WCoefficients):
        raise InvalidCoefficientsError(f"coefficients must be a WCoefficients, not {type(coefficients).__name__}")
    a1, a2, a3 = coefficients
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
    """Retry map for the first station: (a1, a2, a3) -> (a1^2, a2^2, a2*a3) normalized.

    Where m^2 underflows, m = max(a1, a2) > 0, the products are taken
    relative to m*M with M = max(m, a3), so their ratios survive at any scale.
    It runs once per retry on values the engine built, so it takes no type test.
    """
    a1, a2, a3 = coefficients
    m = max(a1, a2)
    if 0.0 < m and m * m < _NORMAL_MIN:
        big = max(m, a3)
        triple = ((a1 / m) * (a1 / big), (a2 / m) * (a2 / big), (a2 / m) * (a3 / big))
    else:
        triple = (a1 * a1, a2 * a2, a2 * a3)
    try:
        return WCoefficients.normalized(*triple)
    except InvalidCoefficientsError as exc:
        raise DegenerateCoefficientsError("retry map undefined for this triple") from exc


def coefficient_update_charlie(coefficients: WCoefficients) -> WCoefficients:
    """Retry map for the second station: (a1, a2, a3) -> (a2^2, a2^2, a3^2) normalized.

    Where m^2 underflows, m = max(a2, a3) > 0, the squares are taken relative
    to m^2, so their ratios survive at any scale.  Like the first station's map,
    it takes no type test.
    """
    a2, a3 = coefficients.a2, coefficients.a3
    m = max(a2, a3)
    if 0.0 < m and m * m < _NORMAL_MIN:
        a2, a3 = a2 / m, a3 / m
    try:
        return WCoefficients.normalized(a2 * a2, a2 * a2, a3 * a3)
    except InvalidCoefficientsError as exc:
        raise DegenerateCoefficientsError("retry map undefined for this triple") from exc


# -- single rounds ---------------------------------------------------------------


def _code(detector: DetectorLabel) -> int:
    return int(detector.value[1:])


# (slot, polarization index, weight, flip, paired weight, paired flip)
_PairLanding = tuple[int, int, float, bool, float, bool]


class _StationPlan(NamedTuple):
    """What a round at one station needs, fixed at import.

    ``pairs`` holds one ``(detector, paired detector, success, landings)`` per
    detector pair (D1/D2, D3/D4, D5/D6, D7/D8), in :func:`photon_readout`'s
    detector order; it is the plan's only record of its detectors and of
    which of them herald success.  ``landings`` holds one ``(slot,
    polarization index, weight, flip, paired weight, paired flip)`` per
    :class:`WState` slot, in slot order, from the routes of the slot's gated
    spin, where a ``flip`` marks a slot an even detector's phase correction
    negates (gated spin DOWN).  The two weights of a landing differ at most
    in sign.  ``signal_fraction`` is the lossy gate's factor on the success
    probability: the signal fraction of the station's success port.
    """

    photon_pair: Callable[[WCoefficients], tuple[float, float]]
    signal_fraction: Callable[[ScatterCoefficients], float]
    pairs: tuple[tuple[DetectorLabel, DetectorLabel, bool, tuple[_PairLanding, ...]], ...]
    success_class: OutcomeClass
    retry_class: OutcomeClass
    success_coefficients: Callable[[WCoefficients], WCoefficients]
    retry_coefficients: Callable[[WCoefficients], WCoefficients]


def _station_plan(
    readout: tuple[tuple[DetectorLabel, ...], dict],
    gated_spin: int,
    success: tuple[DetectorLabel, ...],
    **fields,
) -> _StationPlan:
    """The plan of a station whose :func:`photon_readout` is ``readout``.

    :class:`RoutingError` unless the detectors pair up in label order, each
    pair in one class and reached by the same ``(slot, polarization)``
    routes with weights of equal magnitude, which lets a round share one
    probability and one norm between the two.
    """
    detectors, routes = readout
    if len(detectors) % 2:
        raise RoutingError(f"{len(detectors)} detectors do not pair up")
    gated = [spins[gated_spin] for spins in _W_SPINS]
    landings: list[list[tuple[int, int, float, bool]]] = [[] for _ in detectors]
    for slot, spin in enumerate(gated):
        for pol, position, weight in routes[spin]:
            flip = _code(detectors[position]) % 2 == 0 and spin is _DOWN
            landings[position].append((slot, pol, weight, flip))
    is_success = tuple(d in success for d in detectors)
    pairs = []
    for position in range(0, len(detectors), 2):
        first, second = landings[position], landings[position + 1]
        names = f"{detectors[position].value}/{detectors[position + 1].value}"
        if is_success[position] is not is_success[position + 1]:
            raise RoutingError(f"{names} herald different outcome classes")
        if [(s, p, abs(w)) for s, p, w, _ in first] != [(s, p, abs(w)) for s, p, w, _ in second]:
            raise RoutingError(f"{names} do not share (slot, polarization) routes of equal weight")
        pair = tuple((s, p, w, f, w2, f2) for (s, p, w, f), (_, _, w2, f2) in zip(first, second))
        pairs.append((detectors[position], detectors[position + 1], is_success[position], pair))
    return _StationPlan(pairs=tuple(pairs), **fields)


_ALICE_PLAN = _station_plan(
    photon_readout(Station.ALICE),
    gated_spin=0,
    success=(DetectorLabel.D3, DetectorLabel.D4),
    photon_pair=lambda c: (c.a1, c.a2),
    signal_fraction=lambda sc: sc.transmitted_signal_fraction,
    success_class=OutcomeClass.ALICE_SUCCESS,
    retry_class=OutcomeClass.ALICE_RETRY,
    success_coefficients=lambda c: WCoefficients.normalized(c.a2, c.a2, c.a3),
    retry_coefficients=coefficient_update_alice,
)
# Every second-station success leaves the symmetric W state.
_SYMMETRIC = WCoefficients.symmetric()
_CHARLIE_PLAN = _station_plan(
    photon_readout(Station.CHARLIE),
    gated_spin=2,
    success=(DetectorLabel.D5, DetectorLabel.D6),
    photon_pair=lambda c: (c.a2, c.a3),
    signal_fraction=lambda sc: sc.reflected_signal_fraction,
    success_class=OutcomeClass.CHARLIE_SUCCESS,
    retry_class=OutcomeClass.CHARLIE_RETRY,
    success_coefficients=lambda _c: _SYMMETRIC,
    retry_coefficients=coefficient_update_charlie,
)


def _station_round(
    state: WState,
    coefficients: WCoefficients,
    scatter: ScatterCoefficients | None,
    plan: _StationPlan,
) -> list[RoundOutcome]:
    """Photon tensor, gate, wave plate, detection and phase correction in one pass.

    Gives exactly what the composed reference route in ``tests/reference.py``
    gives, where each of these steps builds a general ``StateVector``: the
    same floats and the same ``DEFAULT_TOLERANCE`` drops.  A landing takes
    ``0j + weight * (p * amp)`` where that route takes ``0j + factor * (0j +
    sign * (p * amp))``; the bits agree because the sign is +1 or -1,
    rounding is symmetric in sign and the outer ``0j +`` turns every zero
    into +0.0.  The photon, wave-plate and normalization drops are made
    here.  The gate is a signed permutation that keeps each amplitude's
    magnitude, and the wave plate scales it by 1/sqrt(2), so a term the
    tensor-product or gate drop would remove is removed by the wave-plate
    drop anyway.  Each spin ket reaches each detector at most once, so the
    wave-plate and detector sums have a single term after ``0j``.  A
    detector's landings are visited in sorted ket order, which is the order
    every intermediate state would have put them in, and its squares are
    added in that order from 0.0, as the reference route's norm adds them.

    The two detectors of a pair take weights that differ at most in sign
    (``_station_plan`` checks it), so their landings have equal magnitudes,
    bit for bit, and so do their squares, norm, probability and drops.  Each
    landing's ``p * amp``, magnitude and square, and each pair's norm and
    post-coefficients, are therefore made once per pair; each detector still
    takes its own ``0j + weight * (p * amp)``, so the signs of zeros are its
    own.
    """
    tol = DEFAULT_TOLERANCE
    photon_pair = _photon_amplitudes(*plan.photon_pair(coefficients))
    photon = [None if abs(p) < tol else complex(p) for p in photon_pair]
    amps = state.amplitudes
    outcomes = []
    for detector, paired, success, landings in plan.pairs:
        kept = []
        norm_sq = 0.0
        for slot, pol, weight, flip, paired_weight, paired_flip in landings:
            amp, p = amps[slot], photon[pol]
            if amp is None or p is None:
                continue
            out = p * amp
            first = 0j + weight * out
            size = abs(first)
            if size >= tol:
                kept.append((slot, first, flip, 0j + paired_weight * out, paired_flip))
                norm_sq += size**2
        if not kept:
            continue
        norm = math.sqrt(norm_sq)
        first_amps: list[complex | None] = [None, None, None]
        paired_amps: list[complex | None] = [None, None, None]
        for slot, first, flip, second, paired_flip in kept:
            first = first / norm
            if abs(first) >= tol:
                second = second / norm
                first_amps[slot] = -first if flip else first
                paired_amps[slot] = -second if paired_flip else second
        probability = norm**2
        if success:
            post, cls = plan.success_coefficients(coefficients), plan.success_class
        else:
            post, cls = plan.retry_coefficients(coefficients), plan.retry_class
        first_state = _tuple_new(WState, (tuple(first_amps),))
        paired_state = _tuple_new(WState, (tuple(paired_amps),))
        outcomes.append(_tuple_new(RoundOutcome, (detector, probability, first_state, post, cls)))
        outcomes.append(_tuple_new(RoundOutcome, (paired, probability, paired_state, post, cls)))

    if scatter is not None:
        if not isinstance(scatter, ScatterCoefficients):
            raise DomainError(f"scatter must be a ScatterCoefficients or None, not {type(scatter).__name__}")
        # Success probabilities shrink by the port signal fraction; whatever
        # did not herald success (including photons lost to leakage) counts
        # toward the retry branches.  Post-states keep their ideal form.
        factor = plan.signal_fraction(scatter)
        p_succ = p_retry = 0.0
        for o in outcomes:
            if o.classification is plan.success_class:
                p_succ += o.probability
            else:
                p_retry += o.probability
        retry_scale = (1.0 - factor * p_succ) / p_retry if p_retry > 0.0 else 0.0
        scale = {plan.success_class: factor, plan.retry_class: retry_scale}
        outcomes = [_tuple_new(RoundOutcome, (d, prob * scale[cls], post_state, post, cls))
                    for d, prob, post_state, post, cls in outcomes]
    return outcomes


def alice_round(
    state: WState,
    coefficients: WCoefficients,
    scatter: ScatterCoefficients | None = None,
) -> list[RoundOutcome]:
    """One repetition at the first station; outcomes ordered D1..D4.

    ``scatter`` gives the lossy gate of the as-published model, where the
    success probability is scaled by the transmitted-port signal fraction;
    ``None`` is the ideal gate (any other value: :class:`DomainError`).  It runs
    once per round on values the engine built, so ``state`` and ``coefficients``
    take no type test.
    """
    return _station_round(state, coefficients, scatter, _ALICE_PLAN)


def charlie_round(
    state: WState,
    coefficients: WCoefficients,
    scatter: ScatterCoefficients | None = None,
) -> list[RoundOutcome]:
    """One repetition at the second station; outcomes ordered D5..D8.

    As :func:`alice_round`, with the reflected-port signal fraction.
    """
    return _station_round(state, coefficients, scatter, _CHARLIE_PLAN)


# -- full protocol ----------------------------------------------------------------


def _stations(k_alice: int, k_charlie: int) -> list[tuple[Callable, _StationPlan, int]]:
    """``(round function, plan, limit)`` of each station whose limit is above 0,
    in protocol order; built per call, so the round functions are looked up then."""
    stations = ((alice_round, _ALICE_PLAN, k_alice), (charlie_round, _CHARLIE_PLAN, k_charlie))
    return [station for station in stations if station[2] > 0]


# One station's plan and its per-round outcome tables.
_Chain = tuple[_StationPlan, list[list[RoundOutcome]]]


def _stage_chains(
    coefficients: WCoefficients, k_alice: int, k_charlie: int, scatter: ScatterCoefficients | None
) -> list[_Chain]:
    """Per-round outcome tables, one chain per station whose round limit is
    above 0, on the lossy gate of ``scatter`` (``None`` for the ideal gate).

    Retry physics is path-independent (both retry detectors collapse to the
    same state), so one chain per station carries the complete dynamics.
    Likewise every success at a station leaves the same input for the next,
    so each chain is seeded from the previous station's first-round success;
    :class:`InvalidCoefficientsError` if the amplitude drop removed them all.
    A chain ends before its round limit at its first round whose retry
    outcomes all fall below the amplitude drop, since no retry continues it.
    On a gate that loses signal, such a round raises
    :class:`InvalidCoefficientsError` instead: the loss model books the
    share that did not herald success to the retry outcomes, and there are
    none to carry it.
    """
    state, coeffs = prepare_w_state(coefficients), coefficients
    chains: list[_Chain] = []
    for round_fn, plan, limit in _stations(k_alice, k_charlie):
        if chains:
            prev_plan, prev_stages = chains[-1]
            success = prev_plan.success_class
            seed = next((o for o in prev_stages[0] if o.classification is success), None)
            if seed is None:
                raise InvalidCoefficientsError(
                    f"no {success.value} outcome: its amplitudes fall below the "
                    f"{DEFAULT_TOLERANCE:g} amplitude drop"
                )
            state, coeffs = seed.post_state, seed.post_coefficients
        stages = []
        for _ in range(limit):
            outcomes = round_fn(state, coeffs, scatter)
            stages.append(outcomes)
            retry = next((o for o in outcomes if o.classification is plan.retry_class), None)
            if retry is None:
                if scatter is not None and plan.signal_fraction(scatter) < 1.0:
                    raise InvalidCoefficientsError(
                        f"no {plan.retry_class.value} outcome: its amplitudes fall below the "
                        f"{DEFAULT_TOLERANCE:g} amplitude drop, so the retry share of a "
                        f"lossy round has no branch"
                    )
                break
            state, coeffs = retry.post_state, retry.post_coefficients
        chains.append((plan, stages))
    return chains


def _tree_branches(chains: list[_Chain]) -> tuple[list[BranchRecord], float]:
    """Merged-retry leaves in pre-order, and the sum of the last station's
    success leaves from 0.0 in that order.  Each success continues into the
    next station; the last station's successes and every station's exhausted
    retries end a branch, except in a chain that ended on a round with no
    retry outcome."""
    stations = []
    for plan, stages in chains:
        success = [[o for o in st if o.classification is plan.success_class] for st in stages]
        retries = [[o for o in st if o.classification is not plan.success_class] for st in stages]
        tokens = ["|".join(o.detector.value for o in st) for st in retries]
        # left to right from 0.0: built-in sum() compensates from Python 3.12 on
        retry_mass = [reduce(add, (o.probability for o in st), 0.0) for st in retries]
        stations.append((plan, success, tokens, retry_mass))

    records: list[BranchRecord] = []

    def walk(index: int, path: tuple[str, ...], weight: float) -> None:
        plan, success, tokens, retry_mass = stations[index]
        last = index == len(stations) - 1
        reach = 1.0
        for stage_success, token, mass in zip(success, tokens, retry_mass):
            for out in stage_success:
                prob = weight * reach * out.probability
                if last:
                    records.append(BranchRecord(path + (out.detector.value,), prob, plan.success_class))
                else:
                    walk(index + 1, path + (out.detector.value,), prob)
            reach *= mass
            path += (token,)
        if tokens[-1]:
            records.append(BranchRecord(path, weight * reach, plan.retry_class))

    walk(0, (), 1.0)
    total_success = 0.0
    for record in records:
        if record.classification is stations[-1][0].success_class:
            total_success += record.probability
    return records, total_success


_RNG_ALGORITHM = "philox4x64; shot i consumes row i of the (shots x stages) uniform block"


def run_protocol(coefficients: WCoefficients, config: ProtocolConfig) -> ProtocolTrace:
    """Execute the full two-loop protocol.

    In ``tree`` mode, branch probabilities are enumerated exactly; the two
    retry detectors of a round are merged into one path token because they
    collapse to identical states.  In ``mc`` mode, ``n_shots`` paths are
    sampled with a counter-based generator (one uniform row per shot), and
    branch records carry observed frequencies.
    """
    if not isinstance(config, ProtocolConfig):
        raise ConfigError(f"config must be a ProtocolConfig, not {type(config).__name__}")
    scatter = None if config.cavity is None else scatter_coefficients(config.cavity)
    chains = _stage_chains(coefficients, config.max_rounds_alice, config.max_rounds_charlie, scatter)
    rounds = [o for _, stages in chains for stage in stages for o in stage]

    shots = counts = None
    if config.mode == "tree":
        branches, total = _tree_branches(chains)
    else:
        from .sampling import _sample_branches  # numpy is needed only here
        branches, counts, total = _sample_branches(config, chains)
        shots = config.n_shots
    return ProtocolTrace(config, coefficients, rounds, branches, total, shots, counts)
