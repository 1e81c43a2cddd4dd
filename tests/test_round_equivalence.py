"""The one-pass station round against the public gate, wave-plate and detector functions.

``reference_round`` composes ``tensor_with_photon``, ``apply_ebs_gate``,
``hwp45``, ``detect`` and ``phase_correction`` step by step, each building its
own intermediate state with its own tolerance drop.  ``alice_round`` and
``charlie_round`` must give the same outcomes bit for bit, including the
signs of zero components that the JSON trace would show.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpsim import (
    BasisKet,
    CavityParams,
    DenominatorConvention,
    DetectorLabel,
    Direction,
    GateMode,
    OutcomeClass,
    PhotonLabel,
    Polarization,
    RoundOutcome,
    ShapeMismatchError,
    StateVector,
    Station,
    WCoefficients,
    alice_photon,
    alice_round,
    apply_ebs_gate,
    charlie_photon,
    charlie_round,
    coefficient_update_alice,
    coefficient_update_charlie,
    detect,
    hwp45,
    phase_correction,
    prepare_w_state,
    scatter_coefficients,
)
from ecpsim.cavity import photon_readout

CAVITY = CavityParams(kappa_s=0.3, g=0.8, gamma=0.1)
MODES = {
    "ideal": GateMode.ideal(),
    "lossy-verbatim": GateMode.lossy(CAVITY, DenominatorConvention.VERBATIM),
    "lossy-corrected": GateMode.lossy(CAVITY, DenominatorConvention.CORRECTED),
}

interior = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
).map(lambda t: WCoefficients.normalized(*t))


def reference_round(state, c, gate_mode, station):
    if station is Station.ALICE:
        photon, spin_index = alice_photon(c), 0
        success_detectors = (DetectorLabel.D3, DetectorLabel.D4)
        success_class, retry_class = OutcomeClass.ALICE_SUCCESS, OutcomeClass.ALICE_RETRY

        def success_coefficients():
            return WCoefficients.normalized(c.a2, c.a2, c.a3)

        retry_coefficients = coefficient_update_alice
    else:
        photon, spin_index = charlie_photon(c), 2
        success_detectors = (DetectorLabel.D5, DetectorLabel.D6)
        success_class, retry_class = OutcomeClass.CHARLIE_SUCCESS, OutcomeClass.CHARLIE_RETRY
        success_coefficients = WCoefficients.symmetric
        retry_coefficients = coefficient_update_charlie

    joint = state.tensor_with_photon(photon)
    events = detect(hwp45(apply_ebs_gate(joint, spin_index)), station)
    outcomes = []
    for event in events:
        success = event.detector in success_detectors
        even = int(event.detector.value[1]) % 2 == 0
        outcomes.append(
            RoundOutcome(
                detector=event.detector,
                probability=event.probability,
                post_state=phase_correction(event.spins, event.detector) if even else event.spins,
                post_coefficients=success_coefficients() if success else retry_coefficients(c),
                classification=success_class if success else retry_class,
            )
        )
    if gate_mode.is_lossy:
        sc = scatter_coefficients(gate_mode.cavity, convention=gate_mode.convention)
        factor = (
            sc.transmitted_signal_fraction
            if station is Station.ALICE
            else sc.reflected_signal_fraction
        )
        p_succ = sum(o.probability for o in outcomes if o.classification is success_class)
        p_retry = sum(o.probability for o in outcomes if o.classification is retry_class)
        retry_scale = (1.0 - factor * p_succ) / p_retry if p_retry > 0.0 else 0.0
        outcomes = [
            dataclasses.replace(
                o,
                probability=o.probability
                * (factor if o.classification is success_class else retry_scale),
            )
            for o in outcomes
        ]
    return outcomes


ROUND = {Station.ALICE: alice_round, Station.CHARLIE: charlie_round}


def checked_round(state, c, gate_mode, station):
    """Run both routes, assert they agree field for field, return the outcomes."""
    new = ROUND[station](state, c, gate_mode)
    ref = reference_round(state, c, gate_mode, station)
    assert [o.detector for o in new] == [o.detector for o in ref]
    for a, b in zip(new, ref):
        assert a.probability == b.probability
        assert a.classification == b.classification
        assert a.post_coefficients == b.post_coefficients
        assert a.post_state.to_json_obj() == b.post_state.to_json_obj()
        assert a.post_state.tolerance == b.post_state.tolerance
        # == treats -0.0 and 0.0 alike; the serialized trace does not.
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
    return new


def test_each_spin_ket_reaches_each_detector_once():
    for station in Station:
        detectors, routes = photon_readout(station)
        assert len(detectors) == 4
        for entries in routes.values():
            positions = sorted(pos for _, lands in entries for pos, _ in lands)
            assert positions == [0, 1, 2, 3]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("station", list(Station))
@given(c=interior)
@settings(max_examples=60, deadline=None)
def test_round_matches_composed_reference(mode, station, c):
    checked_round(prepare_w_state(c), c, MODES[mode], station)


def retry_chain(c, rounds, gate_mode, station, state=None):
    """Follow the retry branch for ``rounds`` rounds, checking every round."""
    state = prepare_w_state(c) if state is None else state
    seen = []
    for _ in range(rounds):
        outcomes = checked_round(state, c, gate_mode, station)
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
    gate_mode = MODES[mode]
    alice = retry_chain(c, rounds, gate_mode, Station.ALICE)
    seed = next(o for o in alice[0] if o.classification is OutcomeClass.ALICE_SUCCESS)
    charlie = retry_chain(
        seed.post_coefficients, rounds, gate_mode, Station.CHARLIE, seed.post_state
    )
    outcomes = [o for stage in alice + charlie for o in stage]
    # The chains reach the tolerance: some detector loses terms or vanishes.
    assert any(len(o.post_state) < 3 for o in outcomes) or any(
        len(stage) < 4 for stage in alice + charlie
    )


def w_state(duu, udu, uud):
    spins = ("duu", "udu", "uud")
    return StateVector({BasisKet.from_spins(k): a for k, a in zip(spins, (duu, udu, uud))})


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
    state, c = StateVector({with_photon: 1.0}), WCoefficients.symmetric()
    with pytest.raises(ShapeMismatchError):
        reference_round(state, c, MODES["ideal"], station)
    with pytest.raises(ShapeMismatchError):
        ROUND[station](state, c)
