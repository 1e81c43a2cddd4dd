"""Closed-form success probabilities for the concentration protocol.

These formulas are an independent route to the same numbers the state-vector
simulation produces, which is what makes the cross-validation in
:mod:`ecpsim.oracle` meaningful: nothing here touches amplitudes.

Round probabilities involve coefficients raised to the power 2^k.  They are
evaluated with every power expressed relative to the larger coefficient of
the pair, so the large common factors cancel algebraically and deep rounds
underflow gracefully to zero instead of producing 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

from .cavity import CavityParams, DenominatorConvention, ScatterCoefficients, scatter_coefficients
from .errors import DomainError
from .protocol import WCoefficients

_ALPHA2_DEFAULT = 1.0 / math.sqrt(3.0)
MAX_ROUNDS = 64
SERIES_TOLERANCE = 1e-12


def p1_round(k: int, c: WCoefficients) -> float:
    """Probability that the first station succeeds exactly at repetition ``k``."""
    if k < 1 or k > MAX_ROUNDS:
        raise DomainError(f"round index {k} outside 1..{MAX_ROUNDS}")
    a1, a2, a3 = c.as_tuple()
    m = max(a1, a2)
    if m == 0.0:
        return 0.0
    r1, r2 = a1 / m, a2 / m
    power = 2**k
    numerator = (r1**power) * (r2 ** (power - 2)) * (a3 * a3 + 2.0 * a2 * a2)
    denominator = 1.0
    for j in range(1, k + 1):
        denominator *= r1 ** (2**j) + r2 ** (2**j)
    return numerator / denominator


def p2_round(k: int, c: WCoefficients) -> float:
    """Probability that the second station succeeds exactly at repetition ``k``.

    Depends only on the (a2, a3) pair; a1 has already been consumed by the
    first station when this loop runs.
    """
    if k < 1 or k > MAX_ROUNDS:
        raise DomainError(f"round index {k} outside 1..{MAX_ROUNDS}")
    a2, a3 = c.a2, c.a3
    m = max(a2, a3)
    if m == 0.0:
        return 0.0
    r = min(a2, a3) / m
    power = 2**k
    denominator = a3 * a3 + 2.0 * a2 * a2
    for j in range(1, k + 1):
        denominator *= (a2 / m) ** (2**j) + (a3 / m) ** (2**j)
    return 3.0 * m * m * (r**power) / denominator


def _series(term, k_max: int, tol: float) -> float:
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    total = 0.0
    for k in range(1, min(k_max, MAX_ROUNDS) + 1):
        value = term(k)
        total += value
        if value < tol:
            break
    return total


def p1_total(c: WCoefficients, k_max: int = MAX_ROUNDS, tol: float = SERIES_TOLERANCE) -> float:
    """Cumulative first-station success probability over up to ``k_max`` rounds."""
    return _series(lambda k: p1_round(k, c), k_max, tol)


def p2_total(c: WCoefficients, k_max: int = MAX_ROUNDS, tol: float = SERIES_TOLERANCE) -> float:
    """Cumulative second-station success probability over up to ``k_max`` rounds."""
    return _series(lambda k: p2_round(k, c), k_max, tol)


def pt_one_round(c: WCoefficients) -> float:
    """Single-round total: 3 a1^2 a2^2 a3^2 / ((a1^2 + a2^2)(a3^2 + a2^2))."""
    a1, a2, a3 = c.as_tuple()
    denominator = (a1 * a1 + a2 * a2) * (a3 * a3 + a2 * a2)
    if denominator == 0.0:
        return 0.0
    return 3.0 * a1 * a1 * a2 * a2 * a3 * a3 / denominator


def practical_p1(c: WCoefficients, coefficients: ScatterCoefficients) -> float:
    """First-station single-round success with a leaky cavity."""
    return p1_round(1, c) * coefficients.transmitted_signal_fraction


def practical_p2(c: WCoefficients, coefficients: ScatterCoefficients) -> float:
    """Second-station single-round success with a leaky cavity."""
    return p2_round(1, c) * coefficients.reflected_signal_fraction


def practical_total(c: WCoefficients, coefficients: ScatterCoefficients) -> float:
    """Lossy single-round total; exactly the product of the two station values."""
    return practical_p1(c, coefficients) * practical_p2(c, coefficients)


_ALPHA1_LIMIT = math.sqrt(2.0 / 3.0)


def p2_simplified(alpha1: float) -> float:
    """Second-station single-round success at a2 = 1/sqrt(3), as a function of a1.

    Uses the substituted form (2/3 - a1^2) / ((1 - a1^2)(4/3 - a1^2)).
    """
    if not (0.0 <= alpha1 <= _ALPHA1_LIMIT + 1e-12):
        raise DomainError(f"alpha1 {alpha1} outside [0, sqrt(2/3)]")
    x = min(alpha1 * alpha1, 2.0 / 3.0)
    return (2.0 / 3.0 - x) / ((1.0 - x) * (4.0 / 3.0 - x))


# -- parameter sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep over a1 at fixed a2 (a3 follows from normalization)."""

    alpha2: float = _ALPHA2_DEFAULT
    alpha1_range: tuple[float, float] = (0.01, 0.8105)
    n_points: int = 200
    cavity: CavityParams | None = None
    convention: DenominatorConvention = DenominatorConvention.VERBATIM

    def __post_init__(self) -> None:
        lo, hi = self.alpha1_range
        if not (0.0 < self.alpha2 < 1.0):
            raise DomainError(f"alpha2 {self.alpha2} outside (0, 1)")
        if lo <= 0.0 or hi < lo:
            raise DomainError(f"invalid alpha1 range {self.alpha1_range}")
        if hi * hi + self.alpha2 * self.alpha2 > 1.0 + 1e-12:
            raise DomainError("alpha1 range exceeds normalization with this alpha2")
        if self.n_points < 1:
            raise DomainError("n_points must be at least 1")


@dataclass(frozen=True)
class CurvePoint:
    alpha1: float
    alpha2: float
    alpha3: float
    p1: float
    p2: float
    p_total: float
    p1_practical: float
    p2_practical: float
    p_practical: float

    def to_json_obj(self) -> dict:
        return {
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "alpha3": self.alpha3,
            "p1": self.p1,
            "p2": self.p2,
            "p_total": self.p_total,
            "p1_practical": self.p1_practical,
            "p2_practical": self.p2_practical,
            "p_practical": self.p_practical,
        }


def sweep(spec: SweepSpec) -> list[CurvePoint]:
    """Single-round probabilities along the sweep; practical columns equal the
    ideal ones when no cavity is given."""
    lo, hi = spec.alpha1_range
    if spec.cavity is not None:
        sc = scatter_coefficients(spec.cavity, convention=spec.convention)
        f1, f2 = sc.transmitted_signal_fraction, sc.reflected_signal_fraction
    else:
        f1 = f2 = 1.0

    points = []
    for i in range(spec.n_points):
        x = lo if spec.n_points == 1 else lo + i * (hi - lo) / (spec.n_points - 1)
        a3_sq = 1.0 - x * x - spec.alpha2 * spec.alpha2
        if a3_sq < -1e-9:
            raise DomainError(f"alpha1 {x} leaves no weight for alpha3")
        c = WCoefficients(x, spec.alpha2, math.sqrt(max(0.0, a3_sq)))
        p1 = p1_round(1, c)
        p2 = p2_round(1, c)
        pt = pt_one_round(c)
        points.append(
            CurvePoint(
                alpha1=x,
                alpha2=c.a2,
                alpha3=c.a3,
                p1=p1,
                p2=p2,
                p_total=pt,
                p1_practical=p1 * f1,
                p2_practical=p2 * f2,
                p_practical=pt * f1 * f2,
            )
        )
    return points


CSV_HEADER = "alpha1,alpha2,alpha3,p1,p2,p_total,p1_practical,p2_practical,p_practical"

_CSV_FIELDS = CSV_HEADER.split(",")


def write_sweep_csv(points: list[CurvePoint], stream: TextIO) -> None:
    """Write sweep points as CSV with shortest round-trip float formatting."""
    stream.write(CSV_HEADER + "\n")
    for point in points:
        stream.write(",".join(repr(getattr(point, name)) for name in _CSV_FIELDS) + "\n")
