"""Closed-form success probabilities for the concentration protocol.

These formulas are an independent route to the same numbers the state-vector
simulation produces, which is what makes the cross-validation in
:mod:`ecpsim.oracle` meaningful: nothing here touches amplitudes.

Round k of a station is a ratio whose denominator is round k-1's times one
more factor, so one loop per station returns its rounds 1..K from that running
product, and a total is the left fold of those rounds from 0.0.  Every power 2^k
is taken relative to the larger coefficient m of the pair, so the large common
factors cancel and no round is 0/0.  A second-station round whose numerator
3 m^2 r^(2^k) is below the least normal float is taken relative to m^2, so a deep
round keeps its value down to the least subnormal float.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, TextIO

from .cavity import CavityParams, ScatterCoefficients, scatter_coefficients
from .errors import _REAL_TYPES, DomainError, InvalidCoefficientsError, _is_count, _is_real, _left_sum, _shown
from .protocol import _NORMAL_MIN, _NORM_TOLERANCE, MAX_ROUNDS, WCoefficients, _tuple_new

_ALPHA2_DEFAULT = 1.0 / math.sqrt(3.0)

# Most points in one sweep: the CLI holds every point until it writes, about
# 0.3 KB each without a cavity and 0.4 KB with one, so 100 000 points peak
# near 45 MiB resident (54 MiB with a cavity).
MAX_POINTS = 100_000


def p1_round(k: int, c: WCoefficients) -> float:
    """Probability that the first station succeeds exactly at repetition ``k``."""
    return _p1_rounds(c, _round_count(k, c))[-1]


def p2_round(k: int, c: WCoefficients) -> float:
    """Probability that the second station succeeds exactly at repetition ``k``."""
    return _p2_rounds(c, _round_count(k, c))[-1]


def p1_total(c: WCoefficients, k_max: int = MAX_ROUNDS) -> float:
    """Cumulative first-station success probability over ``k_max`` rounds."""
    # At most 1: where the limit is exactly 1 (a1 = a2) the fold can pass it by 2 ulps.
    return min(_left_sum(_p1_rounds(c, _round_count(k_max, c, "k_max"))), 1.0)


def p2_total(c: WCoefficients, k_max: int = MAX_ROUNDS) -> float:
    """Cumulative second-station success probability over ``k_max`` rounds."""
    # At most 1: where the limit is exactly 1 (a2 = a3) the fold can pass it by 2 ulps.
    return min(_left_sum(_p2_rounds(c, _round_count(k_max, c, "k_max"))), 1.0)


def _round_count(k: int, c: WCoefficients, name: str = "round index") -> int:
    if not _is_count(k):
        raise DomainError(f"{name} must be an int, not {type(k).__name__}")
    if not isinstance(c, WCoefficients):
        raise InvalidCoefficientsError(f"c must be a WCoefficients, not {type(c).__name__}")
    if k < 1 or k > MAX_ROUNDS:
        raise DomainError(f"{name} {_shown(k)} outside 1..{MAX_ROUNDS}")
    return k


def _p1_rounds(c: WCoefficients, k_max: int) -> list[float]:
    """Rounds 1..k_max of the first station, over m = max(a1, a2)."""
    a1, a2, a3 = c
    m = max(a1, a2)
    if m == 0.0:
        return [0.0] * k_max
    r1, r2 = a1 / m, a2 / m
    weight = a3 * a3 + 2.0 * a2 * a2
    rounds, denominator = [], 1.0
    for k in range(1, k_max + 1):
        power = 2**k
        denominator *= r1**power + r2**power
        rounds.append((r1**power) * (r2 ** (power - 2)) * weight / denominator)
    return rounds


def _p2_rounds(c: WCoefficients, k_max: int) -> list[float]:
    """Rounds 1..k_max of the second station, from (a2, a3) alone, over m = max(a2, a3)
    and r = min(a2, a3) / m.  Where m^2 underflows, the pair is taken relative to m:
    no denominator is 0.  Where the numerator 3 m^2 r^(2^k) is below the least
    normal float, the round is taken relative to m^2, so it keeps its value
    whether r^(2^k) is normal or not."""
    a2, a3 = c.a2, c.a3
    m = max(a2, a3)
    if m == 0.0:
        return [0.0] * k_max
    r = min(a2, a3) / m
    if m * m < _NORMAL_MIN:
        a2, a3, m = a2 / m, a3 / m, 1.0
    s2, s3, scale = a2 / m, a3 / m, 3.0 * m * m
    rounds, denominator = [], a3 * a3 + 2.0 * a2 * a2
    for k in range(1, k_max + 1):
        power = 2**k
        denominator *= s2**power + s3**power
        top = r**power
        numerator = scale * top
        if numerator < _NORMAL_MIN:
            rounds.append(3.0 * top / (denominator / (m * m)))
        else:
            rounds.append(numerator / denominator)
    return rounds


def pt_one_round(c: WCoefficients) -> float:
    """Single-round total: 3 a1^2 a2^2 a3^2 / ((a1^2 + a2^2)(a3^2 + a2^2))."""
    if not isinstance(c, WCoefficients):
        raise InvalidCoefficientsError(f"c must be a WCoefficients, not {type(c).__name__}")
    return next(_round_ones(c.a2, ((c.a1, c.a3),)))[4]


def _round_ones(
    a2: float, pairs: Iterable[tuple[float, float]]
) -> Iterator[tuple[float, float, float, float, float]]:
    """``(a1, a3, p1_round(1, c), p2_round(1, c), pt_one_round(c))`` for each
    ``(a1, a3)`` of ``pairs``, ``c = (a1, a2, a3)`` a nonnegative finite triple,
    bit for bit: the same operations, less the exact factors 1.0.

    The larger coefficient m of each pair is picked as ``max`` picks it, and its
    ratio to itself, exactly 1.0, is not computed.  The a2-only terms are taken
    once.  p2 follows :func:`_p2_rounds`' one rule: the pair is taken relative to
    m where m^2 underflows, and the round relative to m^2 where its numerator
    3 m^2 r^2 is below the least normal float.  Every factor of pt's numerator
    after 3.0 is a coefficient, at most 1, so the running product only shrinks:
    where it ends at or above the smallest normal float, no step underflowed.
    Below that, the squares are taken relative to the larger coefficient of each
    pair, so a normal-range total is not lost.
    """
    sq2 = a2 * a2
    two_sq2 = 2.0 * a2 * a2
    for a1, a3 in pairs:
        sq3 = a3 * a3
        weight = sq3 + two_sq2
        # p1 over m = max(a1, a2)
        if a2 > a1:
            s1 = (a1 / a2) ** 2
            p1 = s1 * weight / (s1 + 1.0)
        elif a1 == 0.0:
            p1 = 0.0
        else:
            p1 = weight / (1.0 + (a2 / a1) ** 2)
        # p2 over m = max(a2, a3) and r = min(a2, a3) / m, as _p2_rounds takes it
        m, low = (a3, a2) if a3 > a2 else (a2, a3)
        if m == 0.0:
            p2 = 0.0
        else:
            r2 = (low / m) ** 2
            if m * m < _NORMAL_MIN:
                b2, b3 = a2 / m, a3 / m
                p2 = 3.0 * r2 / ((b3 * b3 + 2.0 * b2 * b2) * (r2 + 1.0))
            elif (num := 3.0 * m * m * r2) < _NORMAL_MIN:
                p2 = 3.0 * r2 / (weight * (r2 + 1.0) / (m * m))
            else:
                p2 = num / (weight * (r2 + 1.0))
        numerator = 3.0 * a1 * a1 * a2 * a2 * a3 * a3
        if numerator >= _NORMAL_MIN:
            pt = numerator / ((a1 * a1 + sq2) * (sq3 + sq2))
        elif a2 == 0.0:
            pt = 0.0
        else:
            m1 = a2 if a2 > a1 else a1
            m2 = a3 if a3 > a2 else a2
            u1, u2, v2, v3 = a1 / m1, a2 / m1, a2 / m2, a3 / m2
            pt = 3.0 * u1 * u1 * v3 * v3 * a2 * a2 / ((u1 * u1 + u2 * u2) * (v3 * v3 + v2 * v2))
        yield a1, a3, p1, p2, pt


def practical_p1(c: WCoefficients, coefficients: ScatterCoefficients) -> float:
    """First-station single-round success with a leaky cavity."""
    if not isinstance(coefficients, ScatterCoefficients):
        raise DomainError(f"coefficients must be a ScatterCoefficients, not {type(coefficients).__name__}")
    return p1_round(1, c) * coefficients.transmitted_signal_fraction


def practical_p2(c: WCoefficients, coefficients: ScatterCoefficients) -> float:
    """Second-station single-round success with a leaky cavity."""
    if not isinstance(coefficients, ScatterCoefficients):
        raise DomainError(f"coefficients must be a ScatterCoefficients, not {type(coefficients).__name__}")
    return p2_round(1, c) * coefficients.reflected_signal_fraction


def practical_total(c: WCoefficients, coefficients: ScatterCoefficients) -> float:
    """Lossy single-round total; exactly the product of the two station values."""
    return practical_p1(c, coefficients) * practical_p2(c, coefficients)


_ALPHA1_LIMIT = math.sqrt(2.0 / 3.0)


def p2_simplified(alpha1: float) -> float:
    """Second-station single-round success at a2 = 1/sqrt(3), as a function of a1.

    Uses the substituted form (2/3 - a1^2) / ((1 - a1^2)(4/3 - a1^2)).
    """
    if not _is_real(alpha1):
        raise DomainError(f"alpha1 must be a real number within the float range, not {type(alpha1).__name__}")
    if not (0.0 <= alpha1 <= _ALPHA1_LIMIT + 1e-12):
        raise DomainError(f"alpha1 {alpha1} outside [0, sqrt(2/3)]")
    x = min(alpha1 * alpha1, 2.0 / 3.0)
    return (2.0 / 3.0 - x) / ((1.0 - x) * (4.0 / 3.0 - x))


# -- parameter sweeps -----------------------------------------------------------


class _SweepSpecFields(NamedTuple):
    alpha2: float = _ALPHA2_DEFAULT
    alpha1_range: tuple[float, float] = (0.01, 0.8105)
    n_points: int = 200
    cavity: CavityParams | None = None


class SweepSpec(_SweepSpecFields):
    """One-dimensional sweep of ``n_points`` (an ``int``, not a ``bool``) over a1
    in ``alpha1_range``, a ``(lo, hi)`` tuple of floats, at fixed a2 (a float or an
    int, not a bool; a3 follows from normalization), checked where it is built,
    ``_replace`` and ``_make`` included (:class:`DomainError`): every point it
    sweeps gives a triple :class:`WCoefficients` accepts, so :func:`sweep` tests none."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> SweepSpec:
        self = super().__new__(cls, *args, **kwargs)
        if not _is_count(self.n_points):
            raise DomainError(f"n_points must be an int, not {type(self.n_points).__name__}")
        if self.cavity is not None and not isinstance(self.cavity, CavityParams):
            raise DomainError(f"cavity must be a CavityParams or None, not {type(self.cavity).__name__}")
        if type(self.alpha2) not in _REAL_TYPES:
            raise DomainError(f"alpha2 must be a real number, not {type(self.alpha2).__name__}")
        bounds = self.alpha1_range
        if not (type(bounds) is tuple and len(bounds) == 2 and all(type(b) is float for b in bounds)):
            raise DomainError(f"alpha1_range must be a (lo, hi) tuple of floats, not {_shown(bounds)}")
        lo, hi = bounds
        if not (0.0 < self.alpha2 < 1.0):
            raise DomainError(f"alpha2 {_shown(self.alpha2)} outside (0, 1)")
        if not 0.0 < lo <= hi:  # NaN fails too
            raise DomainError(f"invalid alpha1 range {self.alpha1_range}")
        if self.n_points < 1:
            raise DomainError("n_points must be at least 1")
        if self.n_points > MAX_POINTS:
            raise DomainError(f"n_points must be at most {MAX_POINTS}")
        # WCoefficients's norm test where a1 and a2 fill the norm (a3 = 0), on
        # hi and on the largest point, the last, which can round one ulp past hi.
        last = self.n_points - 1
        top = max(hi, lo + last * (hi - lo) / last if last else lo)
        if top * top + self.alpha2 * self.alpha2 - 1.0 > _NORM_TOLERANCE:
            raise DomainError("alpha1 range exceeds normalization with this alpha2")
        return self


class CurvePoint(NamedTuple):
    """One sweep point: a tuple whose fields are the CSV columns, in header order."""

    alpha1: float
    alpha2: float
    alpha3: float
    p1: float
    p2: float
    p_total: float
    p1_practical: float
    p2_practical: float
    p_practical: float


def sweep(spec: SweepSpec) -> list[CurvePoint]:
    """Single-round probabilities along the sweep, in one pass of :func:`_round_ones`
    over the spec's points, each point built positionally in CSV column order.
    Without a cavity the practical columns are the ideal column objects
    themselves, which :func:`write_sweep_csv` formats once."""
    if not isinstance(spec, SweepSpec):
        raise DomainError(f"spec must be a SweepSpec, not {type(spec).__name__}")
    lo, hi = spec.alpha1_range
    a2 = spec.alpha2
    rows = _round_ones(a2, _sweep_pairs(lo, hi, spec.n_points, a2))
    if spec.cavity is None:
        return [
            _tuple_new(CurvePoint, (a1, a2, a3, p1, p2, pt, p1, p2, pt))
            for a1, a3, p1, p2, pt in rows
        ]
    sc = scatter_coefficients(spec.cavity)
    f1, f2 = sc.transmitted_signal_fraction, sc.reflected_signal_fraction
    return [
        _tuple_new(CurvePoint, (a1, a2, a3, p1, p2, pt, p1 * f1, p2 * f2, pt * f1 * f2))
        for a1, a3, p1, p2, pt in rows
    ]


def _sweep_pairs(lo: float, hi: float, n: int, a2: float) -> Iterator[tuple[float, float]]:
    """``(a1, a3)`` at each of the ``n`` points spaced evenly over [lo, hi] (lo where n
    is 1), a3 = sqrt(1 - a1^2 - a2^2), or 0.0 where that is not positive.  A
    :class:`SweepSpec`'s points need no test: its checks bound the last, largest a1."""
    sq2 = a2 * a2
    span, last = hi - lo, n - 1
    for i in range(n):
        a1 = lo + i * span / last if last else lo
        rest = 1.0 - a1 * a1 - sq2
        yield a1, math.sqrt(rest) if rest > 0.0 else 0.0


CSV_HEADER = ",".join(CurvePoint._fields)


def write_sweep_csv(points: list[CurvePoint], stream: TextIO) -> None:
    """Write sweep points as CSV, one ``repr`` per field (shortest round-trip
    float formatting), all rows in one ``writelines``."""
    stream.write(CSV_HEADER + "\n")
    stream.writelines(_csv_rows(points))


def _csv_rows(points: list[CurvePoint]) -> Iterator[str]:
    """One CSV line per point.  A field that holds the same object as one already
    formatted reuses its text: the practical triple where it is the ideal one,
    and ``alpha2`` while consecutive rows share it.  Reuse goes by identity, never
    by value, since ``0.0 == -0.0`` but their reprs differ."""
    last_a2 = a2_text = None
    for a1, a2, a3, p1, p2, pt, q1, q2, qt in points:
        if a2 is not last_a2:
            last_a2, a2_text = a2, repr(a2)
        ideal = f"{p1!r},{p2!r},{pt!r}"
        if q1 is p1 and q2 is p2 and qt is pt:
            yield f"{a1!r},{a2_text},{a3!r},{ideal},{ideal}\n"
        else:
            yield f"{a1!r},{a2_text},{a3!r},{ideal},{q1!r},{q2!r},{qt!r}\n"
