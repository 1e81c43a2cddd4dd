"""The one-pass station round against the composed reference route.

``reference.reference_round`` composes ``tensor_with_photon``,
``apply_ebs_gate``, ``hwp45``, ``detect`` and ``phase_correction`` step by
step, each building its own intermediate state with the ``DEFAULT_TOLERANCE``
drop.  ``alice_round`` and ``charlie_round`` must give the same outcomes bit
for bit, including the signs of zero components that the JSON trace would
show.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import W_KETS, reference_round, to_state_vector, to_w_state

from ecpsim import (
    BasisKet,
    CavityParams,
    DenominatorConvention,
    Direction,
    OutcomeClass,
    PhotonLabel,
    Polarization,
    ShapeMismatchError,
    StateVector,
    Station,
    WCoefficients,
    WState,
    alice_round,
    charlie_round,
    prepare_w_state,
    scatter_coefficients,
)
from ecpsim.cavity import photon_readout

CAVITY = CavityParams(kappa_s=0.3, g=0.8, gamma=0.1)
MODES = {
    "ideal": None,
    "lossy-verbatim": scatter_coefficients(CAVITY._replace(convention=DenominatorConvention.VERBATIM)),
    "lossy-corrected": scatter_coefficients(CAVITY._replace(convention=DenominatorConvention.CORRECTED)),
}

interior = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
).map(lambda t: WCoefficients.normalized(*t))


def w_state(duu, udu, uud):
    spins = ("duu", "udu", "uud")
    return StateVector({BasisKet.from_spins(k): a for k, a in zip(spins, (duu, udu, uud))})


ROUND = {Station.ALICE: alice_round, Station.CHARLIE: charlie_round}


def checked_round(state, c, scatter, station):
    """Run both routes on the ``StateVector`` ``state``, assert they agree
    field for field, and return the reference outcomes."""
    new = ROUND[station](to_w_state(state), c, scatter)
    ref = reference_round(state, c, scatter, station)
    assert [o.detector for o in new] == [o.detector for o in ref]
    for a, b in zip(new, ref):
        assert a.probability == b.probability
        assert a.classification == b.classification
        assert a.post_coefficients == b.post_coefficients
        assert a.post_state.to_json_obj() == b.post_state.to_json_obj()
        # == treats -0.0 and 0.0 alike; the serialized trace does not.
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
    return ref


signed_zero = st.sampled_from([0.0, -0.0])
component = st.floats(min_value=-10.0, max_value=10.0) | signed_zero
# A kept term, or a dropped one: zero, each part of either sign.
amplitude = st.builds(complex, signed_zero, signed_zero) | st.builds(
    complex, component, component
).filter(lambda a: abs(a) >= 1e-12)


@given(st.tuples(amplitude, amplitude, amplitude))
def test_w_state_json_matches_state_vector(amplitudes):
    general = StateVector({ket: a for ket, a in zip(W_KETS, amplitudes) if a})
    # json.dumps tells -0.0 from 0.0, which == does not.
    assert json.dumps(WState(*amplitudes).to_json_obj()) == json.dumps(general.to_json_obj())


def test_each_spin_ket_reaches_each_detector_once():
    for station in Station:
        detectors, routes = photon_readout(station)
        assert len(detectors) == 4
        for entries in routes.values():
            positions = sorted(pos for _, pos, _ in entries)
            assert positions == [0, 1, 2, 3]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("station", list(Station))
@given(c=interior)
@settings(max_examples=60, deadline=None)
def test_round_matches_composed_reference(mode, station, c):
    state = w_state(*c)
    assert json.dumps(prepare_w_state(c).to_json_obj()) == json.dumps(state.to_json_obj())
    checked_round(state, c, MODES[mode], station)


# Round inputs as the tree feeds them: real amplitudes, some negated by an
# even detector's phase correction, with imaginary part 0.0 or -0.0, slots the
# drop removed (zero, each part 0.0 or -0.0), and magnitudes at the 1e-12
# drop, which the wave plate's 1/sqrt(2) takes below it; coefficients that may
# put a photon amplitude there.
near_drop = st.floats(min_value=1e-12, max_value=1e-10) | st.sampled_from(
    [1e-12, math.nextafter(1e-12, 1.0), 1.6e-12]
)
magnitude = st.floats(min_value=1e-3, max_value=1.0) | near_drop
tree_amplitude = st.builds(complex, signed_zero, signed_zero) | st.builds(
    lambda m, negated, imag: complex(-m if negated else m, imag),
    magnitude,
    st.booleans(),
    signed_zero,
)
tree_states = st.tuples(tree_amplitude, tree_amplitude, tree_amplitude).filter(any)
tree_coefficients = interior | st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=1e-14, max_value=1e-10),
).flatmap(st.permutations).map(lambda t: WCoefficients.normalized(*t))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("station", list(Station))
@given(amplitudes=tree_states, c=tree_coefficients)
@settings(max_examples=60, deadline=None)
def test_round_matches_composed_reference_on_tree_states(mode, station, amplitudes, c):
    state = to_state_vector(WState(*amplitudes))
    # The general state keeps every kept term and the sign of its zero parts.
    assert json.dumps(to_w_state(state).to_json_obj()) == json.dumps(WState(*amplitudes).to_json_obj())
    checked_round(state, c, MODES[mode], station)



# Truly complex round inputs: each part nonzero or a zero of either sign, so
# the even detector's amplitude, derived from the odd one's, meets zero parts
# of both signs in both the real and the imaginary part.
complex_part = st.floats(min_value=-1.0, max_value=1.0).filter(bool) | near_drop | signed_zero
complex_amplitude = st.builds(complex, signed_zero, signed_zero) | st.builds(
    complex, complex_part, complex_part
).filter(lambda a: abs(a) >= 1e-12)
complex_states = st.tuples(complex_amplitude, complex_amplitude, complex_amplitude).filter(any)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("station", list(Station))
@given(amplitudes=complex_states, c=tree_coefficients)
@settings(max_examples=60, deadline=None)
def test_round_matches_composed_reference_on_complex_states(mode, station, amplitudes, c):
    checked_round(to_state_vector(WState(*amplitudes)), c, MODES[mode], station)

def retry_chain(c, rounds, scatter, station, state=None):
    """Follow the retry branch for ``rounds`` rounds, checking every round."""
    state = w_state(*c) if state is None else state
    seen = []
    for _ in range(rounds):
        outcomes = checked_round(state, c, scatter, station)
        seen.append(outcomes)
        retry = next(
            o
            for o in outcomes
            if o.classification in (OutcomeClass.ALICE_RETRY, OutcomeClass.CHARLIE_RETRY)
        )
        state, c = retry.post_state, retry.post_coefficients
    return seen


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alpha, rounds", [((0.9, 0.3, 0.3), 40), ((0.8, 0.36, 0.48), 7)])
def test_deep_retry_chains_drop_the_same_terms(mode, alpha, rounds):
    c = WCoefficients.normalized(*alpha)
    scatter = MODES[mode]
    alice = retry_chain(c, rounds, scatter, Station.ALICE)
    seed = next(o for o in alice[0] if o.classification is OutcomeClass.ALICE_SUCCESS)
    charlie = retry_chain(
        seed.post_coefficients, rounds, scatter, Station.CHARLIE, seed.post_state
    )
    outcomes = [o for stage in alice + charlie for o in stage]
    # The chains reach the tolerance: some detector loses terms or vanishes.
    assert any(len(o.post_state) < 3 for o in outcomes) or any(
        len(stage) < 4 for stage in alice + charlie
    )


def test_photon_drop():
    # a1 / |(a1, a2)| is below 1e-12, so the photon state loses its R
    # component; the large spin amplitude would otherwise lift it above.
    c = WCoefficients.normalized(1e-13, 0.6, 0.8)
    outcomes = checked_round(w_state(1e3, 1.0, 1.0), c, MODES["ideal"], Station.ALICE)
    assert all(len(o.post_state) < 3 for o in outcomes)


def test_wave_plate_drop():
    # (1/sqrt(2)) * 1.6e-12 survives the tensor product; a further factor of
    # 1/sqrt(2) from the wave plate takes it below tolerance.
    c = WCoefficients.symmetric()
    for station in Station:
        outcomes = checked_round(w_state(1.0, 1.6e-12, 1.0), c, MODES["ideal"], station)
        assert all(len(o.post_state) < 3 for o in outcomes)


def test_normalization_drop():
    # Terms that survive the wave plate but fall below tolerance once the
    # detector's collapsed state is normalized.
    c = WCoefficients.symmetric()
    for station in Station:
        outcomes = checked_round(w_state(1e6, 1e-7, 1.0), c, MODES["ideal"], station)
        assert any(len(o.post_state) < 3 for o in outcomes)


@pytest.mark.parametrize("station", list(Station))
def test_bad_inputs_raise_what_the_reference_raises(station):
    photon = PhotonLabel(Polarization.R, Direction.MINUS_Z)
    with_photon = BasisKet.from_spins("duu").with_photon(photon)
    # Non-finite coefficients cannot reach a round: WCoefficients rejects them.
    # A WState cannot carry a photon, so only the reference route takes this input.
    state, c = StateVector({with_photon: 1.0}), WCoefficients.symmetric()
    with pytest.raises(ShapeMismatchError):
        reference_round(state, c, MODES["ideal"], station)
    with pytest.raises(ShapeMismatchError):
        to_w_state(state)
