import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpsim import (
    BasisKet,
    CavityParams,
    ConfigError,
    DegenerateCoefficientsError,
    DetectorLabel,
    Direction,
    GateMode,
    InvalidCoefficientsError,
    OutcomeClass,
    PhotonLabel,
    Polarization,
    ProtocolConfig,
    UnknownDetectorError,
    WCoefficients,
    alice_photon,
    alice_round,
    charlie_photon,
    charlie_round,
    coefficient_update_alice,
    coefficient_update_charlie,
    phase_correction,
    prepare_w_state,
    run_protocol,
    scatter_coefficients,
)

EQUAL = WCoefficients.symmetric()
SKEWED = WCoefficients(0.8, 0.36, 0.48)  # 0.64 + 0.1296 + 0.2304 = 1

# strictly interior coefficient triples for property tests
interior = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
).map(lambda t: WCoefficients.normalized(*t))


# -- coefficients -----------------------------------------------------------


def test_coefficients_validation():
    with pytest.raises(InvalidCoefficientsError):
        WCoefficients(0.8, 0.36, 0.49)  # not unit norm
    with pytest.raises(InvalidCoefficientsError):
        WCoefficients(-0.8, 0.36, 0.48)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidCoefficientsError):
            WCoefficients(0.6, bad, 0.8)
        with pytest.raises(InvalidCoefficientsError):
            WCoefficients.normalized(bad, 1.0, 1.0)
    assert WCoefficients(1.0, 0.0, 0.0).as_tuple() == (1.0, 0.0, 0.0)


def test_normalized_rescales():
    c = WCoefficients.normalized(0.5774, 0.5774, 0.5774)
    assert c.a1 == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert c.a1 == c.a2 == c.a3
    with pytest.raises(InvalidCoefficientsError):
        WCoefficients.normalized(0.0, 0.0, 0.0)


def test_symmetric_is_unit_norm():
    a1, a2, a3 = EQUAL.as_tuple()
    assert a1 == a2 == a3
    assert a1 * a1 + a2 * a2 + a3 * a3 == pytest.approx(1.0, abs=1e-12)


# -- preparation ------------------------------------------------------------


def test_prepare_w_state_amplitudes():
    s = prepare_w_state(SKEWED)
    assert s.amplitude(BasisKet.from_spins("duu")) == pytest.approx(0.8)
    assert s.amplitude(BasisKet.from_spins("udu")) == pytest.approx(0.36)
    assert s.amplitude(BasisKet.from_spins("uud")) == pytest.approx(0.48)
    assert s.norm() == pytest.approx(1.0)


def test_prepare_w_state_rejects_degenerate():
    with pytest.raises(InvalidCoefficientsError):
        prepare_w_state(WCoefficients(1.0, 0.0, 0.0))


def test_alice_photon_amplitudes():
    p = alice_photon(SKEWED)
    r_ket = BasisKet(PhotonLabel(Polarization.R, Direction.MINUS_Z), ())
    l_ket = BasisKet(PhotonLabel(Polarization.L, Direction.MINUS_Z), ())
    assert p.amplitude(r_ket) == pytest.approx(0.8 / math.sqrt(0.7696), abs=1e-12)
    assert p.amplitude(l_ket) == pytest.approx(0.36 / math.sqrt(0.7696), abs=1e-12)


def test_charlie_photon_amplitudes():
    p = charlie_photon(WCoefficients.normalized(0.1, 0.36, 0.48))
    assert p.amplitude(BasisKet(PhotonLabel(Polarization.R, Direction.MINUS_Z), ())) == pytest.approx(0.6)
    assert p.amplitude(BasisKet(PhotonLabel(Polarization.L, Direction.MINUS_Z), ())) == pytest.approx(0.8)


def test_photon_degenerate_coefficients():
    with pytest.raises(DegenerateCoefficientsError):
        alice_photon(WCoefficients(0.0, 0.0, 1.0))
    with pytest.raises(DegenerateCoefficientsError):
        charlie_photon(WCoefficients(1.0, 0.0, 0.0))


# -- coefficient maps ---------------------------------------------------------


def test_update_alice_frozen():
    c = coefficient_update_alice(SKEWED)
    n = math.sqrt(0.64**2 + 0.1296**2 + 0.1728**2)
    assert c.a1 == pytest.approx(0.64 / n, abs=1e-12)
    assert c.a2 == pytest.approx(0.1296 / n, abs=1e-12)
    assert c.a3 == pytest.approx(0.1728 / n, abs=1e-12)


def test_update_charlie_frozen():
    c = coefficient_update_charlie(SKEWED)
    n = math.sqrt(0.1296**2 + 0.1296**2 + 0.2304**2)
    assert c.as_tuple() == pytest.approx((0.1296 / n, 0.1296 / n, 0.2304 / n), abs=1e-12)


@pytest.mark.parametrize("update", [coefficient_update_alice, coefficient_update_charlie])
def test_updates_fix_symmetric_point(update):
    c = update(EQUAL)
    assert c.as_tuple() == pytest.approx(EQUAL.as_tuple(), abs=1e-12)


@given(interior)
def test_updates_return_valid_coefficients(c):
    for update in (coefficient_update_alice, coefficient_update_charlie):
        out = update(c)
        a1, a2, a3 = out.as_tuple()
        assert a1 * a1 + a2 * a2 + a3 * a3 == pytest.approx(1.0, abs=1e-12)


# -- phase correction ----------------------------------------------------------


def test_phase_correction_flips_first_spin_sign(w_pattern):
    fixed = phase_correction(w_pattern(-1, 1, 1), DetectorLabel.D2)
    assert fixed.fidelity(w_pattern(1, 1, 1)) == pytest.approx(1.0, abs=1e-12)
    assert fixed.amplitude(BasisKet.from_spins("duu")).real > 0


def test_phase_correction_flips_third_spin_sign(w_pattern):
    fixed = phase_correction(w_pattern(1, 1, -1), DetectorLabel.D6)
    assert fixed.fidelity(w_pattern(1, 1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_phase_correction_on_canonical_input_is_detectable(w_pattern):
    # forcing a correction on an already-canonical state breaks it
    broken = phase_correction(w_pattern(1, 1, 1), DetectorLabel.D4)
    assert broken.fidelity(w_pattern(1, 1, 1)) == pytest.approx(1.0 / 9.0, abs=1e-12)


@pytest.mark.parametrize("det", [DetectorLabel.D1, DetectorLabel.D3, DetectorLabel.D5, DetectorLabel.D7])
def test_phase_correction_rejects_uncorrected_detectors(det, w_pattern):
    with pytest.raises(UnknownDetectorError):
        phase_correction(w_pattern(1, 1, 1), det)


# -- single rounds ---------------------------------------------------------------


def test_alice_round_equal_alpha():
    outcomes = alice_round(prepare_w_state(EQUAL), EQUAL)
    assert [o.detector for o in outcomes] == [
        DetectorLabel.D1,
        DetectorLabel.D2,
        DetectorLabel.D3,
        DetectorLabel.D4,
    ]
    for o in outcomes:
        assert o.probability == pytest.approx(0.25, abs=1e-12)
    classes = {o.detector: o.classification for o in outcomes}
    assert classes[DetectorLabel.D3] is OutcomeClass.ALICE_SUCCESS
    assert classes[DetectorLabel.D4] is OutcomeClass.ALICE_SUCCESS
    assert classes[DetectorLabel.D1] is OutcomeClass.ALICE_RETRY
    assert classes[DetectorLabel.D2] is OutcomeClass.ALICE_RETRY


def test_alice_round_skewed_success_probability():
    # success mass = a1^2 (a3^2 + 2 a2^2) / (a1^2 + a2^2)
    outcomes = alice_round(prepare_w_state(SKEWED), SKEWED)
    success = sum(o.probability for o in outcomes if o.classification is OutcomeClass.ALICE_SUCCESS)
    assert success == pytest.approx(0.64 * (0.2304 + 2 * 0.1296) / 0.7696, abs=1e-12)
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)


def test_alice_round_post_states_are_canonical(w_pattern):
    outcomes = alice_round(prepare_w_state(SKEWED), SKEWED)
    for o in outcomes:
        # after correction every branch matches its coefficient triple with
        # all-positive amplitudes
        ref = prepare_w_state(o.post_coefficients)
        assert o.post_state.fidelity(ref) == pytest.approx(1.0, abs=1e-12)


def test_alice_success_drops_first_coefficient():
    outcomes = alice_round(prepare_w_state(SKEWED), SKEWED)
    d3 = next(o for o in outcomes if o.detector is DetectorLabel.D3)
    a1, a2, a3 = d3.post_coefficients.as_tuple()
    assert a1 == a2  # two distinct values only
    n = math.sqrt(2 * 0.36**2 + 0.48**2)
    assert (a1, a2, a3) == pytest.approx((0.36 / n, 0.36 / n, 0.48 / n), abs=1e-12)


def test_charlie_round_equal_alpha(w_pattern):
    outcomes = charlie_round(prepare_w_state(EQUAL), EQUAL)
    success = [o for o in outcomes if o.classification is OutcomeClass.CHARLIE_SUCCESS]
    assert {o.detector for o in success} == {DetectorLabel.D5, DetectorLabel.D6}
    assert sum(o.probability for o in success) == pytest.approx(0.5, abs=1e-12)
    for o in success:
        assert o.post_state.fidelity(w_pattern(1, 1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_charlie_round_frozen_success_probability():
    # (a2, a3) = (0.6, 0.8) pattern: 3 * 0.36 * 0.64 / ((0.64+0.36)(0.64+2*0.36))
    c = WCoefficients.normalized(0.6, 0.6, 0.8)
    outcomes = charlie_round(prepare_w_state(c), c)
    success = sum(o.probability for o in outcomes if o.classification is OutcomeClass.CHARLIE_SUCCESS)
    assert success == pytest.approx(3 * 0.36 * 0.64 / ((0.64 + 0.36) * (0.64 + 2 * 0.36)), abs=1e-12)


def test_charlie_retry_coefficients():
    outcomes = charlie_round(prepare_w_state(SKEWED), SKEWED)
    d7 = next(o for o in outcomes if o.detector is DetectorLabel.D7)
    n = math.sqrt(2 * 0.1296**2 + 0.2304**2)
    assert d7.post_coefficients.as_tuple() == pytest.approx(
        (0.1296 / n, 0.1296 / n, 0.2304 / n), abs=1e-12
    )


@given(interior)
@settings(max_examples=25, deadline=None)
def test_round_probabilities_complete(c):
    state = prepare_w_state(c)
    for rnd in (alice_round, charlie_round):
        outcomes = rnd(state, c)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)
        for o in outcomes:
            assert 0.0 <= o.probability <= 1.0
            assert o.post_state.norm() == pytest.approx(1.0, abs=1e-12)


# -- lossy rounds -----------------------------------------------------------------


def lossy_mode(ks):
    return GateMode.lossy(CavityParams(kappa=1.0, kappa_s=ks, g=0.5, gamma=0.1))


def test_lossy_round_scales_success_mass():
    mode = lossy_mode(0.1)
    sc = scatter_coefficients(mode.cavity)
    ideal = alice_round(prepare_w_state(EQUAL), EQUAL)
    lossy = alice_round(prepare_w_state(EQUAL), EQUAL, mode)
    ideal_success = sum(o.probability for o in ideal if o.classification is OutcomeClass.ALICE_SUCCESS)
    lossy_success = sum(o.probability for o in lossy if o.classification is OutcomeClass.ALICE_SUCCESS)
    assert lossy_success == pytest.approx(ideal_success * sc.transmitted_signal_fraction, abs=1e-12)
    # each round still exhausts its probability
    assert sum(o.probability for o in lossy) == pytest.approx(1.0, abs=1e-12)


def test_lossy_charlie_uses_reflected_fraction():
    mode = lossy_mode(0.5)
    sc = scatter_coefficients(mode.cavity)
    lossy = charlie_round(prepare_w_state(EQUAL), EQUAL, mode)
    success = sum(o.probability for o in lossy if o.classification is OutcomeClass.CHARLIE_SUCCESS)
    assert success == pytest.approx(0.5 * sc.reflected_signal_fraction, abs=1e-12)


def test_lossy_round_keeps_ideal_post_states(w_pattern):
    lossy = charlie_round(prepare_w_state(EQUAL), EQUAL, lossy_mode(0.5))
    for o in lossy:
        if o.classification is OutcomeClass.CHARLIE_SUCCESS:
            assert o.post_state.fidelity(w_pattern(1, 1, 1)) == pytest.approx(1.0, abs=1e-12)


# -- full protocol ------------------------------------------------------------------


def test_run_protocol_tree_equal_alpha():
    trace = run_protocol(EQUAL, ProtocolConfig())
    assert trace.total_success_probability == pytest.approx(0.25, abs=1e-12)
    assert sum(b.probability for b in trace.branches) == pytest.approx(1.0, abs=1e-10)


def test_run_protocol_tree_branches_merge_retries():
    trace = run_protocol(EQUAL, ProtocolConfig(max_rounds_alice=2, max_rounds_charlie=1))
    paths = {b.path for b in trace.branches}
    assert ("D1|D2",) not in paths  # retry at round 1 continues into round 2
    assert ("D1|D2", "D1|D2") in paths
    assert ("D1|D2", "D3", "D5") in paths


def test_run_protocol_deep_tree_matches_series_totals():
    from ecpsim import p1_total, p2_total

    c = WCoefficients.normalized(0.5, 0.6, 0.75)
    trace = run_protocol(c, ProtocolConfig(max_rounds_alice=20, max_rounds_charlie=20))
    expected = p1_total(c, k_max=20, tol=0.0) * p2_total(c, k_max=20, tol=0.0)
    assert trace.total_success_probability == pytest.approx(expected, abs=1e-8)


def test_run_protocol_mc_reproducible():
    cfg = ProtocolConfig(mode="mc", n_shots=50_000, rng_seed=7)
    t1 = run_protocol(EQUAL, cfg)
    t2 = run_protocol(EQUAL, cfg)
    assert json.dumps(t1.to_json_obj()) == json.dumps(t2.to_json_obj())
    assert t1.counts["charlie_success"] + t1.counts["charlie_retry"] + t1.counts[
        "alice_retry"
    ] == 50_000
    assert sum(t1.counts.values()) == 50_000
    assert set(t1.counts) == {"alice_success", "alice_retry", "charlie_success", "charlie_retry"}
    assert t1.counts["alice_success"] == 0  # success always continues to the second station


def test_run_protocol_mc_seed_changes_counts():
    base = ProtocolConfig(mode="mc", n_shots=50_000, rng_seed=7)
    other = ProtocolConfig(mode="mc", n_shots=50_000, rng_seed=8)
    assert run_protocol(EQUAL, base).counts != run_protocol(EQUAL, other).counts


def test_run_protocol_mc_matches_tree():
    cfg = ProtocolConfig(mode="mc", n_shots=200_000, rng_seed=3, max_rounds_alice=2, max_rounds_charlie=2)
    tree = run_protocol(SKEWED, ProtocolConfig(max_rounds_alice=2, max_rounds_charlie=2))
    mc = run_protocol(SKEWED, cfg)
    assert mc.total_success_probability == pytest.approx(
        tree.total_success_probability, abs=0.005
    )
    assert sum(b.count for b in mc.branches) == cfg.n_shots
    assert sum(b.probability for b in mc.branches) == pytest.approx(1.0, abs=1e-12)


def test_run_protocol_mc_chunking_invariant():
    # totals must not depend on internal chunk boundaries
    cfg_small = ProtocolConfig(mode="mc", n_shots=70_000, rng_seed=11)
    import ecpsim.protocol as proto

    t1 = run_protocol(EQUAL, cfg_small)
    old = proto._CHUNK
    try:
        proto._CHUNK = 1 << 12
        t2 = run_protocol(EQUAL, cfg_small)
    finally:
        proto._CHUNK = old
    assert t1.counts == t2.counts


def test_run_protocol_validates_config():
    with pytest.raises(ConfigError):
        run_protocol(EQUAL, ProtocolConfig(max_rounds_alice=0))
    with pytest.raises(ConfigError):
        run_protocol(EQUAL, ProtocolConfig(mode="mc", n_shots=0))
    with pytest.raises(ConfigError):
        run_protocol(EQUAL, ProtocolConfig(mode="sideways"))


def test_trace_json_shape():
    obj = run_protocol(EQUAL, ProtocolConfig()).to_json_obj()
    assert set(obj) == {"config", "coefficients", "rounds", "branches", "total_success_probability"}
    assert obj["branches"][0].keys() == {"path", "probability", "classification"}


def test_trace_json_monte_carlo_block():
    obj = run_protocol(EQUAL, ProtocolConfig(mode="mc", n_shots=1000)).to_json_obj()
    assert obj["monte_carlo"]["shots"] == 1000
    assert "philox" in obj["monte_carlo"]["rng"]
