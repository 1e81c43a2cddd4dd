"""Exact sparse state vectors for small photon-spin systems.

A state is a map from labeled basis kets (an optional photon tag plus an
ordered tuple of electron spins) to complex amplitudes.  Everything is
value-semantic: operations return new states and never mutate their inputs,
so intermediate states can be shared freely across branching computations.
Global phase is never canonicalized; fidelity is the phase-insensitive
comparator.  Amplitudes below :data:`ecpsim.cavity.DEFAULT_TOLERANCE`, the
package's one amplitude drop, are dropped wherever a state is built.

No production route loads this module: protocol rounds carry
:class:`ecpsim.protocol.WState`.  General states serve the reference route: the
gate, wave-plate and detector functions of :mod:`ecpsim.cavity`, which import
this module when called, and the composed route in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, NamedTuple

from .cavity import DEFAULT_TOLERANCE, Direction, Polarization, SpinLabel
from .errors import ShapeMismatchError, ZeroStateError, _left_sum

_POL_ORDER = {Polarization.R: 0, Polarization.L: 1, Polarization.H: 2, Polarization.V: 3}
_DIR_ORDER = {Direction.PLUS_Z: 0, Direction.MINUS_Z: 1}
_SPIN_ORDER = {SpinLabel.UP: 0, SpinLabel.DOWN: 1}
_SPIN_CHARS = {"u": SpinLabel.UP, "d": SpinLabel.DOWN}


class PhotonLabel(NamedTuple):
    """Polarization plus propagation direction of a single photon."""

    polarization: Polarization
    direction: Direction

    def reflected(self) -> PhotonLabel:
        """Label after mirror reflection: circular polarization and direction both flip."""
        if not self.polarization.is_circular:
            raise ValueError("reflection is defined for circular polarizations only")
        flip = Polarization.L if self.polarization is Polarization.R else Polarization.R
        return PhotonLabel(flip, self.direction.flipped())

    def to_json_obj(self) -> dict:
        return {"polarization": self.polarization.value, "direction": self.direction.value}


class BasisKet(NamedTuple):
    """One basis element: an optional photon label and a tuple of spins."""

    photon: PhotonLabel | None
    spins: tuple[SpinLabel, ...]

    @classmethod
    def from_spins(cls, pattern: str) -> BasisKet:
        """Build a photonless spin ket from a string such as ``"duu"``."""
        try:
            spins = tuple(_SPIN_CHARS[ch] for ch in pattern)
        except KeyError as exc:
            raise ValueError(f"unknown spin character in {pattern!r}") from exc
        return cls(None, spins)

    def with_photon(self, photon: PhotonLabel) -> BasisKet:
        if self.photon is not None:
            raise ShapeMismatchError("ket already carries a photon")
        return BasisKet(photon, self.spins)

    def without_photon(self) -> BasisKet:
        return BasisKet(None, self.spins)

    @property
    def shape(self) -> tuple:
        """Structural signature used to reject mixed-basis superpositions."""
        if self.photon is None:
            return (False, None, len(self.spins))
        return (True, self.photon.polarization.is_circular, len(self.spins))

    def sort_key(self) -> tuple:
        if self.photon is None:
            head = (-1, -1)
        else:
            head = (_POL_ORDER[self.photon.polarization], _DIR_ORDER[self.photon.direction])
        return head + tuple(_SPIN_ORDER[s] for s in self.spins)

    def to_json_obj(self) -> dict:
        return {
            "photon": None if self.photon is None else self.photon.to_json_obj(),
            "spins": [s.value for s in self.spins],
        }

    def __str__(self) -> str:
        spins = "".join("u" if s is SpinLabel.UP else "d" for s in self.spins)
        if self.photon is None:
            return f"|{spins}>"
        arrow = "+" if self.photon.direction is Direction.PLUS_Z else "-"
        return f"|{self.photon.polarization.value}^{arrow};{spins}>"


class StateVector:
    """Sparse complex superposition over :class:`BasisKet` labels.

    Amplitudes with magnitude below :data:`DEFAULT_TOLERANCE` are dropped
    at construction, all stored kets must share one structural shape, and the
    term order is canonical so that serialization and floating-point sums
    are reproducible run to run.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisKet, complex]) -> None:
        clean: dict[BasisKet, complex] = {}
        shape: tuple | None = None
        for ket, raw in terms.items():
            amp = complex(raw)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {ket}")
            if abs(amp) < DEFAULT_TOLERANCE:
                continue
            if shape is None:
                shape = ket.shape
            elif ket.shape != shape:
                raise ShapeMismatchError(f"mixed basis shapes: {shape} vs {ket.shape}")
            clean[ket] = amp
        self._terms = dict(sorted(clean.items(), key=lambda kv: kv[0].sort_key()))

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[BasisKet, complex]]:
        return iter(self._terms.items())

    def amplitude(self, ket: BasisKet) -> complex:
        return self._terms.get(ket, 0j)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def shape(self) -> tuple | None:
        for ket in self._terms:
            return ket.shape
        return None

    def norm(self) -> float:
        # added left to right from 0.0, as the round kernel adds its squares
        return math.sqrt(_left_sum(abs(a) ** 2 for a in self._terms.values()))

    # -- algebra ------------------------------------------------------------

    def normalize(self) -> StateVector:
        """Return the unit-norm version of this state."""
        if not self._terms:
            raise ZeroStateError("all amplitudes below tolerance")
        n = self.norm()
        return StateVector({k: a / n for k, a in self._terms.items()})

    def inner_product(self, other: StateVector) -> complex:
        """Hermitian inner product, conjugate-linear in ``self``."""
        if self._terms and other._terms and self.shape != other.shape:
            raise ShapeMismatchError("inner product between different basis shapes")
        return sum(
            (a.conjugate() * other._terms[k] for k, a in self._terms.items() if k in other._terms),
            0j,
        )

    def fidelity(self, other: StateVector) -> float:
        """|<self|other>|^2; both states are expected to be normalized."""
        return abs(self.inner_product(other)) ** 2

    def tensor_with_photon(self, photon: StateVector) -> StateVector:
        """Tensor a photonless spin state with a spinless photon state."""
        for ket in self._terms:
            if ket.photon is not None:
                raise ShapeMismatchError("state already carries a photon")
        product: dict[BasisKet, complex] = {}
        for pket, pamp in photon._terms.items():
            if pket.photon is None or pket.spins:
                raise ShapeMismatchError("photon factor must be a pure photon state")
            for sket, samp in self._terms.items():
                product[BasisKet(pket.photon, sket.spins)] = pamp * samp
        return StateVector(product)

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Stable-ordered list of ``{photon, spins, re, im}`` records."""
        return [
            {**ket.to_json_obj(), "re": amp.real, "im": amp.imag}
            for ket, amp in self._terms.items()
        ]

    def __repr__(self) -> str:
        body = " + ".join(f"({a:.4g})*{k}" for k, a in list(self._terms.items())[:6])
        more = "" if len(self._terms) <= 6 else f" ... [{len(self._terms)} terms]"
        return f"StateVector({body}{more})"


def combine_terms(pairs: Iterable[tuple[BasisKet, complex]]) -> StateVector:
    """Accumulate (ket, amplitude) contributions into a state, merging duplicates."""
    terms: dict[BasisKet, complex] = {}
    for ket, amp in pairs:
        terms[ket] = terms.get(ket, 0j) + amp
    return StateVector(terms)
