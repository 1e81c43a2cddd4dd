"""Photon-spin parity-check gate and its linear-optics readout.

The ideal gate is an eight-rule signed permutation on circular photon labels
times electron spin: when the photon's spin angular momentum (set jointly by
polarization and propagation direction) matches the electron spin, the photon
is reflected with polarization label and direction both flipped and sign +1;
otherwise it is transmitted unchanged with a pi phase (sign -1).

A half-wave plate at 45 degrees converts circular to linear polarization and
a polarizing beam splitter per output port routes H/V onto labeled detectors.

With a leaky cavity the same gate is described by frequency-dependent
scattering coefficients: the coupled (reflecting) subspace scatters with
(t, r) and the uncoupled (transmitting) subspace with (t0, r0).

The labels, the amplitude drop and the tables live here.  The functions on the
reference route's general states import their module only when called.
"""

from __future__ import annotations

import cmath
import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import (
    CircularBasisPhotonError,
    DomainError,
    LinearBasisPhotonError,
    ShapeMismatchError,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations are not evaluated
    from .hilbert import BasisKet, StateVector

DEFAULT_TOLERANCE = 1e-12  # the package's one amplitude drop, wherever a state is built
_FLOAT_MAX = sys.float_info.max
# The exact types of a real number: a float, or an int, which each holder's finiteness
# test keeps within the float range.  A bool, complex, str or None is neither.
_REAL_TYPES = frozenset((float, int))


def _unreal(values) -> str | None:
    """The type name of the first of ``values`` that is not a real number, else None."""
    return next((type(v).__name__ for v in values if type(v) not in _REAL_TYPES), None)


class SpinLabel(Enum):
    """Electron spin projection along the cavity axis."""

    UP = "up"
    DOWN = "down"


class Polarization(Enum):
    """Photon polarization label; R/L are circular, H/V linear."""

    R = "R"
    L = "L"
    H = "H"
    V = "V"

    @property
    def is_circular(self) -> bool:
        return self in (Polarization.R, Polarization.L)


class Direction(Enum):
    """Photon propagation direction along the cavity axis."""

    PLUS_Z = "plus_z"
    MINUS_Z = "minus_z"

    def flipped(self) -> Direction:
        return Direction.MINUS_Z if self is Direction.PLUS_Z else Direction.PLUS_Z


_R, _L, _H, _V = Polarization.R, Polarization.L, Polarization.H, Polarization.V
_UP, _DOWN = SpinLabel.UP, SpinLabel.DOWN
_PLUS, _MINUS = Direction.PLUS_Z, Direction.MINUS_Z

# The complete interaction table: (pol, dir, spin) -> (pol', dir', sign).
# Spins never change; reflected entries flip polarization label and direction.
_INTERACTION: dict[tuple[Polarization, Direction, SpinLabel], tuple[Polarization, Direction, int]] = {
    (_R, _PLUS, _UP): (_L, _MINUS, +1),
    (_R, _MINUS, _UP): (_R, _MINUS, -1),
    (_R, _PLUS, _DOWN): (_R, _PLUS, -1),
    (_R, _MINUS, _DOWN): (_L, _PLUS, +1),
    (_L, _PLUS, _UP): (_L, _PLUS, -1),
    (_L, _MINUS, _UP): (_R, _PLUS, +1),
    (_L, _PLUS, _DOWN): (_R, _MINUS, +1),
    (_L, _MINUS, _DOWN): (_L, _MINUS, -1),
}


class Station(Enum):
    """Which party's detector bank reads out the photon."""

    ALICE = "alice"
    CHARLIE = "charlie"


class DetectorLabel(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    D7 = "D7"
    D8 = "D8"


# Detector routing.  For a photon injected along MINUS_Z, the transmitted
# port (output2) keeps MINUS_Z and the reflected port (output1) is PLUS_Z.
# H is the beam-splitter transmission, V the reflection, at every port.
_ROUTING: dict[tuple[Station, Direction, Polarization], DetectorLabel] = {
    (Station.ALICE, _PLUS, _H): DetectorLabel.D1,
    (Station.ALICE, _PLUS, _V): DetectorLabel.D2,
    (Station.ALICE, _MINUS, _H): DetectorLabel.D3,
    (Station.ALICE, _MINUS, _V): DetectorLabel.D4,
    (Station.CHARLIE, _PLUS, _H): DetectorLabel.D5,
    (Station.CHARLIE, _PLUS, _V): DetectorLabel.D6,
    (Station.CHARLIE, _MINUS, _H): DetectorLabel.D7,
    (Station.CHARLIE, _MINUS, _V): DetectorLabel.D8,
}


def ideal_interaction(ket: BasisKet, spin_index: int) -> tuple[BasisKet, int]:
    """Apply one gate pass to a single basis ket.

    Returns the image ket and its sign (+1 reflected, -1 transmitted).
    """
    from .hilbert import BasisKet, PhotonLabel
    if ket.photon is None:
        raise ShapeMismatchError("ket carries no photon")
    if not ket.photon.polarization.is_circular:
        raise LinearBasisPhotonError("gate acts on circular polarizations only")
    spin = ket.spins[spin_index]
    pol, direction, sign = _INTERACTION[(ket.photon.polarization, ket.photon.direction, spin)]
    return BasisKet(PhotonLabel(pol, direction), ket.spins), sign


def couples(polarization: Polarization, direction: Direction, spin: SpinLabel) -> bool:
    """True when this ket belongs to the coupled (reflecting) gate subspace."""
    return _INTERACTION[(polarization, direction, spin)][2] > 0


def apply_ebs_gate(state: StateVector, spin_index: int) -> StateVector:
    """Linear extension of :func:`ideal_interaction` over a whole state."""
    from .hilbert import combine_terms
    return combine_terms(
        ((new_ket, sign * amp) for ket, amp in state.items()
         for new_ket, sign in (ideal_interaction(ket, spin_index),))
    )


_SQRT_HALF = 1.0 / math.sqrt(2.0)
# R -> (H+V)/sqrt(2), L -> (H-V)/sqrt(2)
_HWP = {
    _R: ((_H, _SQRT_HALF), (_V, _SQRT_HALF)),
    _L: ((_H, _SQRT_HALF), (_V, -_SQRT_HALF)),
}


def hwp45(state: StateVector) -> StateVector:
    """Half-wave plate at 45 degrees: map circular polarizations to linear."""
    from .hilbert import BasisKet, PhotonLabel, combine_terms
    pairs = []
    for ket, amp in state.items():
        photon = ket.photon
        if photon is None:
            raise ShapeMismatchError("state carries no photon")
        if not photon.polarization.is_circular:
            raise LinearBasisPhotonError("photon already in linear basis")
        for pol, factor in _HWP[photon.polarization]:
            pairs.append((BasisKet(PhotonLabel(pol, photon.direction), ket.spins), factor * amp))
    return combine_terms(pairs)


# One (input polarization index, detector position, gate sign times wave-plate
# factor) per landing, R (index 0) before L and H before V.
PhotonRoutes = tuple[tuple[int, int, float], ...]


def photon_readout(
    station: Station,
) -> tuple[tuple[DetectorLabel, ...], dict[SpinLabel, PhotonRoutes]]:
    """Gate, wave plate and detector routing folded together for one station.

    Covers a photon injected along MINUS_Z.  Returns the station's detectors in
    label order and the routes for each value of the gated spin.  Spins never
    change, so a photonless spin ket with amplitude ``s`` puts
    ``weight * (p * s)`` on each detector its routes list, ``p`` being the
    photon amplitude of the route's input polarization.
    """
    stationed = {d for (s, _, _), d in _ROUTING.items() if s is station}
    detectors = tuple(d for d in DetectorLabel if d in stationed)
    routes = {}
    for spin in SpinLabel:
        entries = []
        for index, pol in enumerate((_R, _L)):
            out_pol, direction, sign = _INTERACTION[(pol, _MINUS, spin)]
            for linear, factor in _HWP[out_pol]:
                position = detectors.index(_ROUTING[(station, direction, linear)])
                entries.append((index, position, sign * factor))
        routes[spin] = tuple(entries)
    return detectors, routes


class DetectionEvent(NamedTuple):
    """One detector that can fire: its label, probability, and the collapsed spins."""

    detector: DetectorLabel
    probability: float
    spins: StateVector


def detect(state: StateVector, station: Station) -> list[DetectionEvent]:
    """Route a linear-basis photon onto the station's detectors.

    Returns one event per detector that a term reaches, ordered D1..D8; its
    terms are distinct spin kets of at least ``DEFAULT_TOLERANCE`` each.  Event
    probabilities sum to the squared norm of ``state``; collapsed spin states
    are normalized and carry no photon.
    """
    from .hilbert import combine_terms
    groups: dict[DetectorLabel, list[tuple[BasisKet, complex]]] = {}
    for ket, amp in state.items():
        photon = ket.photon
        if photon is None:
            raise ShapeMismatchError("state carries no photon")
        if photon.polarization.is_circular:
            raise CircularBasisPhotonError("detection requires a linear-basis photon")
        detector = _ROUTING[(station, photon.direction, photon.polarization)]
        groups.setdefault(detector, []).append((ket.without_photon(), amp))
    events = []
    for detector in [d for d in DetectorLabel if d in groups]:
        collapsed = combine_terms(groups[detector])
        events.append(DetectionEvent(detector, collapsed.norm() ** 2, collapsed.normalize()))
    return events


# -- cavity scattering --------------------------------------------------------


class DenominatorConvention(Enum):
    """Placement of the coupling term g^2 in the hot-cavity denominator.

    VERBATIM adds g^2 inside the cavity-detuning bracket, so the emitter
    bracket cancels against the numerator.  CORRECTED places g^2 outside the
    bracket product (the standard input-output form), which leaves g^2 over
    the emitter bracket once that cancels.  The two coincide when g = 0.
    """

    VERBATIM = "verbatim"
    CORRECTED = "corrected"


class _CavityParamsFields(NamedTuple):
    kappa: float = 1.0
    kappa_s: float = 0.0
    gamma: float = 0.0
    g: float = 0.0
    omega0: float = 0.0
    omega_c: float = 0.0
    omega_x: float = 0.0
    convention: DenominatorConvention = DenominatorConvention.VERBATIM


class CavityParams(_CavityParamsFields):
    """Cavity and emitter rates, each a finite float or int (not a bool) and
    normalized to kappa internally, and the cavity's denominator convention.
    Checked where it is built, ``_replace`` and ``_make`` included (:class:`ValueError`).

    A trace writes the rates as ``cavity``, in declaration order, and ``convention`` beside it."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> CavityParams:
        self = super().__new__(cls, *args, **kwargs)
        rates = self[:-1]
        if (unreal := _unreal(rates)) is not None:
            raise ValueError(f"cavity parameters must be real numbers, not {unreal}")
        if not all(abs(v) <= _FLOAT_MAX for v in rates):  # an int past the float range too
            raise ValueError("cavity parameters must be finite")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if self.kappa_s < 0.0 or self.gamma < 0.0 or self.g < 0.0:
            raise ValueError("rates must be nonnegative")
        if not isinstance(self.convention, DenominatorConvention):
            raise ValueError(f"convention must be a DenominatorConvention, not {type(self.convention).__name__}")
        return self


class ScatterCoefficients(NamedTuple):
    """Hot (t, r) and cold (t0, r0) cavity scattering amplitudes at one frequency."""

    t: complex
    r: complex
    t0: complex
    r0: complex

    @property
    def transmitted_signal_fraction(self) -> float:
        """|t0| / sqrt(|t0|^2 + |t|^2): transmitted-port amplitude that carries parity information.

        :func:`scatter_coefficients` never rounds t0 away, so the sum is never 0.
        """
        return abs(self.t0) / math.hypot(abs(self.t0), abs(self.t))

    @property
    def reflected_signal_fraction(self) -> float:
        """|r| / sqrt(|r0|^2 + |r|^2): reflected-port amplitude that carries parity information."""
        denom = math.hypot(abs(self.r0), abs(self.r))
        return abs(self.r) / denom if denom > 0.0 else 0.0

    def to_json_obj(self) -> dict:
        return {name: {"re": v.real, "im": v.imag} for name, v in zip(self._fields, self)}


# The least positive float: the coupling term where g > 0 but it rounds to 0.
_WEAKEST_COUPLING = math.ulp(0.0)


def _neg_reciprocal(d: complex) -> complex:
    """-1/d for a finite d.  Python's complex division can overflow inside for a d
    near the float limit and read 0; the quotient is then taken on d/4 and scaled back."""
    q = -1.0 / d
    return q if q != 0 else -1.0 / (d / 4.0) / 4.0


def scatter_coefficients(params: CavityParams, omega: float | None = None) -> ScatterCoefficients:
    """Weak-excitation scattering coefficients at probe frequency ``omega``, in the
    denominator form of ``params.convention``.

    ``omega`` defaults to the input-photon frequency ``params.omega0`` and must
    be finite (:class:`DomainError` otherwise).  All rates and detunings are
    divided by kappa before evaluation; kappa_s and every detuning must stay
    finite once divided (:class:`DomainError` otherwise).

    The emitter bracket ``e = i*d_x + gamma/2`` is cancelled out of the hot
    transmission: t = -1/D with D = i*d_c + 1 + kappa_s/2 + g^2 in the
    VERBATIM form and D = i*d_c + 1 + kappa_s/2 + g^2/e in the CORRECTED one,
    whose limit at e = 0 is t = 0, r = 1 for any g > 0.  Where g > 0 but the
    coupling term g^2 or g^2/e rounds to 0, the least positive float stands
    in for it: at kappa_s = 0 on resonance, where r0 = 0, a weak coupling
    then still gives r > 0, and only g = 0 gives r = 0.  In either form the
    limit is also taken where D is not finite, as where g^2 or g^2/e
    overflows: |t| is then negligible next to 1, and r = -t*(D - 1) would
    read NaN.  Every denominator has real part at least 1, so |t| <= 1 and
    |t0| <= 1 at any finite frequency.  The cold transmission is t0 = -1/D0,
    with D0 = i*d_0 + 1 + kappa_s/2, which is always finite.  Where Python's
    complex division overflows inside -1/D or -1/D0 for a finite denominator
    near the float limit, the quotient is taken on a quarter of it
    (:func:`_neg_reciprocal`), so no finite denominator gives a
    transmission of 0.

    Each reflection amplitude is r = 1 + t = -t*(D - 1), with D - 1 summed
    without the 1 (r0 likewise from D0 - 1 = i*d_0 + kappa_s/2): forming
    1 + t would cancel when t is near -1, at weak coupling and leakage.
    r - t = 1 and r0 - t0 = 1 then hold to rounding.
    """
    if omega is None:
        omega = params.omega0
    elif not math.isfinite(omega):
        raise DomainError(f"probe frequency {omega} is not finite")
    omega = float(omega)  # in floats: the exact difference of two ints can leave the float range
    k = params.kappa
    ks = params.kappa_s / k
    gm = params.gamma / k
    gg = params.g / k
    d_x = (float(params.omega_x) - omega) / k
    d_c = (float(params.omega_c) - omega) / k
    d_0 = (float(params.omega0) - omega) / k
    if not all(map(math.isfinite, (ks, d_x, d_c, d_0))):
        raise DomainError("kappa_s and the detunings over kappa must be finite")

    t0 = _neg_reciprocal(1j * d_0 + ks / 2.0 + 1.0)
    r0 = -t0 * (1j * d_0 + ks / 2.0)
    emitter = 1j * d_x + gm / 2.0
    coupled = params.g > 0.0
    coupling = gg * gg
    if params.convention is DenominatorConvention.CORRECTED and coupled:
        coupling = coupling / emitter if emitter != 0 else math.inf
    if coupled and coupling == 0:
        coupling = _WEAKEST_COUPLING
    denominator = 1j * d_c + 1.0 + ks / 2.0 + coupling
    if not cmath.isfinite(denominator):
        return ScatterCoefficients(t=0j, r=1.0 + 0j, t0=t0, r0=r0)
    t = _neg_reciprocal(denominator)
    r = -t * (1j * d_c + ks / 2.0 + coupling)
    return ScatterCoefficients(t=t, r=r, t0=t0, r0=r0)


class LossyOperators(NamedTuple):
    """Transmission/reflection weights of the gate under cavity leakage.

    Uncoupled kets scatter with the cold-cavity pair (t0, r0), coupled kets
    with the hot-cavity pair (t, r).  In the ideal limit (t0, r0, t, r) =
    (-1, 0, 0, 1) this reproduces :func:`ideal_interaction` exactly.
    """

    coefficients: ScatterCoefficients

    def apply(self, state: StateVector, spin_index: int) -> StateVector:
        """Scatter every term into its transmitted and reflected branches.

        The result is generally subnormalized; the missing mass is photon
        loss through the leakage channel.
        """
        from .hilbert import BasisKet, combine_terms
        sc = self.coefficients
        pairs = []
        for ket, amp in state.items():
            if ket.photon is None:
                raise ShapeMismatchError("ket carries no photon")
            if not ket.photon.polarization.is_circular:
                raise LinearBasisPhotonError("gate acts on circular polarizations only")
            hot = couples(ket.photon.polarization, ket.photon.direction, ket.spins[spin_index])
            transmit, reflect = (sc.t, sc.r) if hot else (sc.t0, sc.r0)
            pairs.append((ket, transmit * amp))
            pairs.append((BasisKet(ket.photon.reflected(), ket.spins), reflect * amp))
        return combine_terms(pairs)
