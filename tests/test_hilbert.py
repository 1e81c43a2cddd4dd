import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecpsim import (
    BasisKet,
    Direction,
    PhotonLabel,
    Polarization,
    ShapeMismatchError,
    SpinLabel,
    StateVector,
    ZeroStateError,
)
from ecpsim.hilbert import combine_terms

R_MINUS = PhotonLabel(Polarization.R, Direction.MINUS_Z)
L_MINUS = PhotonLabel(Polarization.L, Direction.MINUS_Z)
H_PLUS = PhotonLabel(Polarization.H, Direction.PLUS_Z)

DUU = BasisKet.from_spins("duu")
UDU = BasisKet.from_spins("udu")
UUD = BasisKet.from_spins("uud")


# -- labels ---------------------------------------------------------------


@pytest.mark.parametrize(
    "pol, circular",
    [(Polarization.R, True), (Polarization.L, True), (Polarization.H, False), (Polarization.V, False)],
)
def test_polarization_basis_split(pol, circular):
    assert pol.is_circular is circular


def test_direction_flip_involution():
    assert Direction.PLUS_Z.flipped() is Direction.MINUS_Z
    assert Direction.MINUS_Z.flipped() is Direction.PLUS_Z


def test_photon_reflection_flips_both():
    assert R_MINUS.reflected() == PhotonLabel(Polarization.L, Direction.PLUS_Z)
    assert R_MINUS.reflected().reflected() == R_MINUS


def test_photon_reflection_rejects_linear():
    with pytest.raises(ValueError):
        H_PLUS.reflected()


# -- kets -----------------------------------------------------------------


def test_from_spins_parses_pattern():
    assert DUU.spins == (SpinLabel.DOWN, SpinLabel.UP, SpinLabel.UP)
    assert DUU.photon is None
    with pytest.raises(ValueError):
        BasisKet.from_spins("dux")


def test_with_photon_round_trip():
    ket = DUU.with_photon(R_MINUS)
    assert ket.photon == R_MINUS
    assert ket.without_photon() == DUU
    with pytest.raises(ShapeMismatchError):
        ket.with_photon(L_MINUS)


def test_shape_distinguishes_photon_and_basis():
    assert DUU.shape != DUU.with_photon(R_MINUS).shape
    assert DUU.with_photon(R_MINUS).shape != DUU.with_photon(H_PLUS).shape
    assert DUU.with_photon(R_MINUS).shape == UDU.with_photon(L_MINUS).shape


def test_str_forms():
    assert str(DUU) == "|duu>"
    assert str(DUU.with_photon(R_MINUS)) == "|R^-;duu>"


# -- state vectors --------------------------------------------------------


def test_constructor_prunes_below_tolerance():
    s = StateVector({DUU: 1.0, UDU: 1e-15})
    assert len(s) == 1
    assert s.amplitude(UDU) == 0


def test_constructor_rejects_non_finite():
    with pytest.raises(ValueError):
        StateVector({DUU: float("nan")})
    with pytest.raises(ValueError):
        StateVector({DUU: complex(1, float("inf"))})


def test_constructor_rejects_mixed_shapes():
    with pytest.raises(ShapeMismatchError):
        StateVector({DUU: 0.5, DUU.with_photon(R_MINUS): 0.5})
    with pytest.raises(ShapeMismatchError):
        StateVector({DUU.with_photon(R_MINUS): 0.5, DUU.with_photon(H_PLUS): 0.5})


def test_term_order_is_canonical():
    a = StateVector({UUD: 0.2, DUU: 0.5, UDU: 0.3})
    b = StateVector({DUU: 0.5, UDU: 0.3, UUD: 0.2})
    assert [k for k, _ in a.items()] == [k for k, _ in b.items()]


def test_norm_and_normalize():
    s = StateVector({DUU: 3.0, UDU: 4.0})
    assert s.norm() == pytest.approx(5.0)
    n = s.normalize()
    assert n.norm() == pytest.approx(1.0)
    assert n.amplitude(DUU) == pytest.approx(0.6)


def test_normalize_empty_raises():
    with pytest.raises(ZeroStateError):
        StateVector({}).normalize()


def test_inner_product_conjugate_linearity():
    a = StateVector({DUU: 1j})
    b = StateVector({DUU: 1.0})
    # conjugate-linear in the first argument
    assert a.inner_product(b) == pytest.approx(-1j)
    assert b.inner_product(a) == pytest.approx(1j)


def test_fidelity_ignores_global_phase(w_pattern):
    w = w_pattern(1, 1, 1)
    for phase in (-1, 1j):
        rotated = StateVector({k: a * phase for k, a in w.items()})
        assert w.fidelity(rotated) == pytest.approx(1.0)


def test_fidelity_frozen_cross_term(w_pattern):
    # (1,1,1) vs (1,1,-1): |1+1-1|^2/9
    assert w_pattern(1, 1, 1).fidelity(w_pattern(1, 1, -1)) == pytest.approx(1.0 / 9.0)


def test_tensor_with_photon(w_pattern):
    w = w_pattern(1, 1, 1)
    photon = StateVector({BasisKet(R_MINUS, ()): 0.6, BasisKet(L_MINUS, ()): 0.8})
    joint = w.tensor_with_photon(photon)
    assert len(joint) == 6
    assert joint.norm() == pytest.approx(1.0)
    assert joint.amplitude(DUU.with_photon(R_MINUS)) == pytest.approx(0.6 / math.sqrt(3))


def test_combine_terms_accumulates():
    s = combine_terms([(DUU, 0.5), (DUU, 0.5), (UDU, 0.3), (UDU, -0.3)])
    assert s.amplitude(DUU) == pytest.approx(1.0)
    assert len(s) == 1  # cancelled term pruned


def test_to_json_obj_round_trip_fields():
    s = StateVector({DUU.with_photon(R_MINUS): 1j})
    (obj,) = s.to_json_obj()
    assert obj["photon"] == {"polarization": "R", "direction": "minus_z"}
    assert obj["spins"] == ["down", "up", "up"]
    assert obj["re"] == 0.0 and obj["im"] == 1.0


# -- property checks ------------------------------------------------------

amplitudes = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=10, allow_nan=False, allow_infinity=False
)


@given(st.lists(amplitudes, min_size=1, max_size=3))
def test_normalize_gives_unit_norm(amps):
    kets = [DUU, UDU, UUD]
    s = StateVector({k: a for k, a in zip(kets, amps)})
    if not s:
        return
    assert s.normalize().norm() == pytest.approx(1.0, abs=1e-12)


@given(st.lists(amplitudes, min_size=3, max_size=3), st.lists(amplitudes, min_size=3, max_size=3))
def test_fidelity_symmetric_and_bounded(a, b):
    kets = [DUU, UDU, UUD]
    sa = StateVector({k: x for k, x in zip(kets, a)})
    sb = StateVector({k: x for k, x in zip(kets, b)})
    if not sa or not sb:
        return
    sa, sb = sa.normalize(), sb.normalize()
    assert sa.fidelity(sb) == pytest.approx(sb.fidelity(sa), abs=1e-12)
    assert sa.fidelity(sb) <= 1.0 + 1e-12
