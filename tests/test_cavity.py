import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecpsim import (
    BasisKet,
    CavityParams,
    CircularBasisPhotonError,
    DenominatorConvention,
    DetectorLabel,
    Direction,
    DomainError,
    LinearBasisPhotonError,
    LossyOperators,
    PhotonLabel,
    Polarization,
    ScatterCoefficients,
    ShapeMismatchError,
    SpinLabel,
    Station,
    StateVector,
    scatter_coefficients,
)
from ecpsim.cavity import apply_ebs_gate, couples, detect, hwp45, ideal_interaction

R, L, H, V = Polarization.R, Polarization.L, Polarization.H, Polarization.V
UP_Z, DOWN_Z = Direction.PLUS_Z, Direction.MINUS_Z
u, d = SpinLabel.UP, SpinLabel.DOWN


def ket(pol, direction, spin):
    return BasisKet(PhotonLabel(pol, direction), (spin,))


# -- photon-spin interaction table ----------------------------------------

# Full frozen rule table: spin-matched kets reflect with polarization and
# direction flipped, mismatched kets transmit with a minus sign.
RULES = [
    (ket(R, UP_Z, u), ket(L, DOWN_Z, u), +1),
    (ket(R, DOWN_Z, u), ket(R, DOWN_Z, u), -1),
    (ket(R, UP_Z, d), ket(R, UP_Z, d), -1),
    (ket(R, DOWN_Z, d), ket(L, UP_Z, d), +1),
    (ket(L, UP_Z, u), ket(L, UP_Z, u), -1),
    (ket(L, DOWN_Z, u), ket(R, UP_Z, u), +1),
    (ket(L, UP_Z, d), ket(R, DOWN_Z, d), +1),
    (ket(L, DOWN_Z, d), ket(L, DOWN_Z, d), -1),
]


@pytest.mark.parametrize("before, after, sign", RULES)
def test_interaction_rule_table(before, after, sign):
    assert ideal_interaction(before, 0) == (after, sign)


@pytest.mark.parametrize("before, after, sign", RULES)
def test_interaction_is_involution_up_to_sign(before, after, sign):
    again, sign2 = ideal_interaction(after, 0)
    assert again == before
    assert sign * sign2 == 1  # double pass restores the ket exactly


@pytest.mark.parametrize("before, after, sign", RULES)
def test_couples_matches_rule_sign(before, after, sign):
    coupled = couples(before.photon.polarization, before.photon.direction, before.spins[0])
    assert coupled is (sign > 0)
    # coupled kets change photon label, uncoupled keep it
    assert (after.photon != before.photon) is coupled


def test_interaction_rejects_bad_input():
    with pytest.raises(ShapeMismatchError):
        ideal_interaction(BasisKet.from_spins("u"), 0)
    with pytest.raises(LinearBasisPhotonError):
        ideal_interaction(ket(H, UP_Z, u), 0)


def test_gate_acts_on_selected_spin():
    three = BasisKet(PhotonLabel(R, DOWN_Z), (u, d, u))
    moved, sign = ideal_interaction(three, 1)
    assert sign == +1  # R- photon couples to the down spin at slot 1
    assert moved.spins == (u, d, u)
    assert moved.photon == PhotonLabel(L, UP_Z)


def test_apply_ebs_gate_preserves_norm(w_pattern):
    w = w_pattern(0.2, 0.5, 0.7)
    photon = StateVector(
        {BasisKet(PhotonLabel(R, DOWN_Z), ()): 0.6, BasisKet(PhotonLabel(L, DOWN_Z), ()): 0.8j}
    )
    joint = w.tensor_with_photon(photon)
    out = apply_ebs_gate(joint, 0)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert out.fidelity(joint) < 1.0  # it does act


# -- half-wave plate --------------------------------------------------------


def test_hwp45_circular_to_linear():
    s = StateVector({ket(R, DOWN_Z, u): 1.0})
    out = hwp45(s)
    assert out.amplitude(ket(H, DOWN_Z, u)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude(ket(V, DOWN_Z, u)) == pytest.approx(1 / math.sqrt(2))
    s = StateVector({ket(L, DOWN_Z, u): 1.0})
    out = hwp45(s)
    assert out.amplitude(ket(H, DOWN_Z, u)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude(ket(V, DOWN_Z, u)) == pytest.approx(-1 / math.sqrt(2))


def test_hwp45_rejects_linear_input():
    with pytest.raises(LinearBasisPhotonError):
        hwp45(StateVector({ket(H, UP_Z, u): 1.0}))


@given(
    st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=5, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    ),
    st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=5, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    ),
)
def test_hwp45_preserves_inner_products(a, b):
    kets = [ket(R, UP_Z, u), ket(R, DOWN_Z, d), ket(L, UP_Z, d), ket(L, DOWN_Z, u)]
    sa = StateVector({k: x for k, x in zip(kets, a)})
    sb = StateVector({k: x for k, x in zip(kets, b)})
    if not sa or not sb:
        return
    before = sa.inner_product(sb)
    after = hwp45(sa).inner_product(hwp45(sb))
    assert cmath.isclose(before, after, abs_tol=1e-12)


# -- detection --------------------------------------------------------------


def equal_alpha_before_detection(w_pattern):
    w = w_pattern(1, 1, 1)
    photon = StateVector(
        {
            BasisKet(PhotonLabel(R, DOWN_Z), ()): 1 / math.sqrt(2),
            BasisKet(PhotonLabel(L, DOWN_Z), ()): 1 / math.sqrt(2),
        }
    )
    return hwp45(apply_ebs_gate(w.tensor_with_photon(photon), 0))


def test_detect_equal_alpha_probabilities(w_pattern):
    events = detect(equal_alpha_before_detection(w_pattern), Station.ALICE)
    assert [e.detector for e in events] == [
        DetectorLabel.D1,
        DetectorLabel.D2,
        DetectorLabel.D3,
        DetectorLabel.D4,
    ]
    for e in events:
        assert e.probability == pytest.approx(0.25, abs=1e-12)
        assert e.spins.norm() == pytest.approx(1.0, abs=1e-12)
        assert e.spins.shape == (False, None, 3)  # photon measured away


def test_detect_equal_alpha_collapsed_patterns(w_pattern):
    # sign patterns over (duu, udu, uud) before any phase correction
    expected = {
        DetectorLabel.D1: (1, 1, 1),
        DetectorLabel.D2: (-1, 1, 1),
        DetectorLabel.D3: (-1, -1, -1),
        DetectorLabel.D4: (1, -1, -1),
    }
    events = detect(equal_alpha_before_detection(w_pattern), Station.ALICE)
    for e in events:
        pattern = expected[e.detector]
        ref = w_pattern(*pattern)
        assert abs(e.spins.inner_product(ref)) == pytest.approx(1.0, abs=1e-12)
        # and the signs are literal, not just up to phase
        amp = e.spins.amplitude(BasisKet.from_spins("duu"))
        assert amp.real == pytest.approx(pattern[0] / math.sqrt(3), abs=1e-12)


def test_detect_charlie_labels(w_pattern):
    events = detect(equal_alpha_before_detection(w_pattern), Station.CHARLIE)
    assert [e.detector for e in events] == [
        DetectorLabel.D5,
        DetectorLabel.D6,
        DetectorLabel.D7,
        DetectorLabel.D8,
    ]
    assert sum(e.probability for e in events) == pytest.approx(1.0, abs=1e-12)


def test_detect_rejects_circular_basis(w_pattern):
    w = w_pattern(1, 1, 1)
    photon = StateVector({BasisKet(PhotonLabel(R, DOWN_Z), ()): 1.0})
    with pytest.raises(CircularBasisPhotonError):
        detect(w.tensor_with_photon(photon), Station.ALICE)


# -- scattering coefficients -------------------------------------------------


def params(ks=0.0, g=0.0, gamma=0.0, convention=DenominatorConvention.VERBATIM):
    return CavityParams(kappa=1.0, kappa_s=ks, g=g, gamma=gamma, convention=convention)


def test_scatter_frozen_values_low_leakage():
    sc = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.1))
    assert sc.t0 == pytest.approx(-1 / 1.05, abs=1e-15)
    assert sc.t == pytest.approx(-1 / 1.3, abs=1e-15)
    assert sc.transmitted_signal_fraction == pytest.approx(0.7779411802037215, abs=1e-15)
    assert sc.reflected_signal_fraction == pytest.approx(0.9793666392196709, abs=1e-14)


def test_scatter_frozen_values_high_leakage():
    sc = scatter_coefficients(params(ks=0.5, g=0.5, gamma=0.1))
    assert sc.t0 == pytest.approx(-1 / 1.25, abs=1e-15)
    assert sc.t == pytest.approx(-1 / 1.5, abs=1e-15)
    assert sc.transmitted_signal_fraction == pytest.approx(0.768221279597376, abs=1e-15)
    assert sc.reflected_signal_fraction == pytest.approx(0.8574929257125442, abs=1e-14)


def test_scatter_lossless_limit():
    sc = scatter_coefficients(params(ks=0.0, g=0.0, gamma=0.1))
    assert sc.t0 == pytest.approx(-1.0)
    assert sc.r0 == pytest.approx(0.0)
    assert sc.t == pytest.approx(-1.0)
    assert sc.r == pytest.approx(0.0)


def test_gamma_cancels_at_resonance_in_default_form():
    # at resonance the emitter factor divides out: t = -1/(1 + ks/2 + g^2)
    for gamma in (0.01, 0.1, 1.7):
        sc = scatter_coefficients(params(ks=0.3, g=0.8, gamma=gamma))
        assert sc.t == pytest.approx(-1.0 / (1 + 0.15 + 0.64), abs=1e-14)


def test_conventions_differ():
    p = params(ks=0.1, g=0.5, gamma=0.1)
    t_default = scatter_coefficients(p._replace(convention=DenominatorConvention.VERBATIM)).t
    t_corrected = scatter_coefficients(p._replace(convention=DenominatorConvention.CORRECTED)).t
    assert t_corrected == pytest.approx(-0.05 / 0.3025, abs=1e-15)
    assert abs(t_default - t_corrected) > 0.1


def test_scatter_finite_limits_without_dipole_decay():
    # gamma = 0 at resonance zeroes the emitter bracket, which the cancelled
    # forms divide out: the amplitudes take their limits instead of failing.
    corrected = DenominatorConvention.CORRECTED
    sc = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.0))
    assert sc.t == pytest.approx(-1 / (1 + 0.05 + 0.25), abs=1e-15)
    assert scatter_coefficients(params(convention=corrected)).t == -1.0
    sc = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.0, convention=corrected))
    assert sc.t == 0.0 and sc.r == 1.0
    # a subnormal emitter detuning makes g^2/e overflow; the same limit holds
    sc = scatter_coefficients(params(g=1.0, convention=corrected), omega=5e-324)
    assert sc.t == 0.0 and sc.r == 1.0


@pytest.mark.parametrize("convention", list(DenominatorConvention))
def test_scatter_limit_where_the_hot_transmission_overflows(convention):
    # g^2 overflows: r would read NaN
    sc = scatter_coefficients(params(g=1e200, convention=convention))
    assert sc.t == 0.0 and sc.r == 1.0
    # Python's -1/D overflows inside and reads 0 with D finite (r would read 0
    # in the VERBATIM form), and |g^2/e| overflows with finite parts (abs() of
    # it would raise)
    for p, omega in ((params(g=1.2e154), 1.3e308), (params(g=1.3e154, gamma=1.0), -0.5)):
        sc = scatter_coefficients(p._replace(convention=convention), omega)
        assert cmath.isfinite(sc.r) and abs(sc.r) == pytest.approx(1.0)
    # Python's complex division overflows inside both quotients, which are
    # still taken; at g = 0 hot equals cold
    sc = scatter_coefficients(params(ks=1.7e308, convention=convention), -1.7e308)
    assert sc.t == sc.t0 != 0 and sc.r == sc.r0


def test_transmitted_fraction_keeps_two_tiny_transmissions():
    # the pinned point above: neither transmission rounds to 0, so their ratio is kept
    sc = scatter_coefficients(params(ks=1.7e308), -1.7e308)
    assert sc.transmitted_signal_fraction == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sc.reflected_signal_fraction == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("convention", list(DenominatorConvention))
def test_scatter_weak_coupling_is_not_zero_coupling(convention):
    # g/kappa itself rounds to 0 here; g > 0 still reflects
    sc = scatter_coefficients(CavityParams(kappa=1e300, g=1e-100, convention=convention))
    assert sc.r != 0 and sc.reflected_signal_fraction == 1.0
    # no coupling keeps r = r0 = 0, and the fraction's 0.0
    sc = scatter_coefficients(params(convention=convention))
    assert sc.r == sc.r0 == 0 and sc.reflected_signal_fraction == 0.0


# g^2 (or g^2/e) rounds to 0 below g ~ 2.2e-162; the least positive float stands in
@given(
    st.floats(min_value=5e-324, max_value=1e300),
    st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e300)),
    st.sampled_from(list(DenominatorConvention)),
)
def test_any_coupling_reflects_fully_without_leakage_at_resonance(g, gamma, convention):
    sc = scatter_coefficients(params(g=g, gamma=gamma, convention=convention))
    assert sc.reflected_signal_fraction == 1.0


@pytest.mark.parametrize("field", ["kappa_s", "omega0", "omega_c", "omega_x"])
def test_scatter_rejects_rates_that_overflow_over_kappa(field):
    with pytest.raises(DomainError, match="over kappa must be finite"):
        scatter_coefficients(CavityParams(kappa=1e-300, **{field: 1e10}), omega=0.0)


@given(
    st.floats(min_value=0, max_value=1e300),
    st.floats(min_value=0, max_value=1e300),
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)),
    st.floats(min_value=-1e300, max_value=1e300),
)
def test_scatter_amplitudes_finite_and_bounded(ks, g, gamma, omega):
    p = params(ks=ks, g=g, gamma=gamma)
    coeffs = [scatter_coefficients(p._replace(convention=convention), omega)
              for convention in DenominatorConvention]
    for sc in coeffs:
        for value in (sc.t, sc.r, sc.t0, sc.r0):
            assert cmath.isfinite(value)
        assert abs(sc.t) <= 1.0 and abs(sc.t0) <= 1.0
    if g == 0.0:
        assert coeffs[0] == coeffs[1]


def test_detuned_coefficients_are_complex():
    sc = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.1), omega=0.3)
    assert sc.t.imag != 0.0
    assert sc.r - sc.t == pytest.approx(1.0)
    assert sc.r0 - sc.t0 == pytest.approx(1.0)


@given(
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=1e-3, max_value=5),
    st.floats(min_value=-3, max_value=3),
)
def test_reflection_transmission_sum_rule(ks, g, gamma, omega):
    sc = scatter_coefficients(params(ks=ks, g=g, gamma=gamma), omega=omega)
    assert abs(sc.r - sc.t - 1.0) <= 1e-15
    assert abs(sc.r0 - sc.t0 - 1.0) <= 1e-15


def test_reflection_exact_at_weak_coupling_and_leakage():
    # t is close to -1 here, so r = 1 + t would lose about 11 digits.
    ks, g, gamma = 1e-6, 1e-4, 0.1
    r0 = (Fraction(ks) / 2) / (1 + Fraction(ks) / 2)
    for convention, coupling in (
        (DenominatorConvention.VERBATIM, Fraction(g) ** 2),
        (DenominatorConvention.CORRECTED, Fraction(g) ** 2 / (Fraction(gamma) / 2)),
    ):
        sc = scatter_coefficients(params(ks=ks, g=g, gamma=gamma, convention=convention))
        r = (Fraction(ks) / 2 + coupling) / (1 + Fraction(ks) / 2 + coupling)
        assert sc.r.imag == 0.0 and sc.r0.imag == 0.0
        assert abs(Fraction(sc.r.real) - r) / r <= Fraction(1, 10**15)
        assert abs(Fraction(sc.r0.real) - r0) / r0 <= Fraction(1, 10**15)


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(kappa=0.0)
    with pytest.raises(ValueError):
        CavityParams(kappa=1.0, kappa_s=-0.1)
    for bad in ({"kappa": math.inf}, {"kappa_s": math.nan}, {"g": math.inf}, {"omega_x": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            CavityParams(**bad)
    # a string would fail CORRECTED's identity test and run the verbatim form
    for build in (lambda: CavityParams(convention="corrected"), lambda: params()._replace(convention="corrected")):
        with pytest.raises(ValueError, match="^convention must be a DenominatorConvention, not str$"):
            build()
    assert CavityParams._fields[-1] == "convention"
    assert CavityParams().convention is DenominatorConvention.VERBATIM


def test_scatter_json_fields():
    obj = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.1)).to_json_obj()
    assert set(obj) == {"t", "r", "t0", "r0"}
    assert obj["t"]["re"] == pytest.approx(-1 / 1.3)
    assert obj["t"]["im"] == 0.0


# -- lossy gate operators -----------------------------------------------------

IDEAL_LIMIT = ScatterCoefficients(t=0.0, r=1.0, t0=-1.0, r0=0.0)


@pytest.mark.parametrize("before, after, sign", RULES)
def test_lossy_operators_reduce_to_ideal_limit(before, after, sign):
    ops = LossyOperators(IDEAL_LIMIT)
    out = ops.apply(StateVector({before: 1.0}), 0)
    assert len(out) == 1
    assert out.amplitude(after) == pytest.approx(sign * 1.0, abs=1e-12)


def test_lossy_apply_splits_coupled_ket():
    sc = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.1))
    ops = LossyOperators(sc)
    coupled_ket = ket(R, DOWN_Z, d)  # reflects in the ideal gate
    out = ops.apply(StateVector({coupled_ket: 1.0}), 0)
    assert out.amplitude(coupled_ket) == pytest.approx(sc.t)
    assert out.amplitude(ket(L, UP_Z, d)) == pytest.approx(sc.r)
    assert out.norm() ** 2 == pytest.approx(abs(sc.t) ** 2 + abs(sc.r) ** 2, abs=1e-12)


def test_lossy_apply_splits_uncoupled_ket():
    sc = scatter_coefficients(params(ks=0.1, g=0.5, gamma=0.1))
    ops = LossyOperators(sc)
    uncoupled_ket = ket(R, DOWN_Z, u)
    out = ops.apply(StateVector({uncoupled_ket: 1.0}), 0)
    assert out.amplitude(uncoupled_ket) == pytest.approx(sc.t0)
    assert out.amplitude(ket(L, UP_Z, u)) == pytest.approx(sc.r0)
