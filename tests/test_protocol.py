import copy
import dataclasses
import hashlib
import importlib
import json
import math
import pkgutil
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    UnknownDetectorError,
    alice_photon,
    charlie_photon,
    phase_correction,
    to_state_vector,
)

from ecpsim import (
    BasisKet,
    CavityParams,
    ConfigError,
    DegenerateCoefficientsError,
    DenominatorConvention,
    DetectorLabel,
    Direction,
    DomainError,
    InvalidCoefficientsError,
    LossyOperators,
    OutcomeClass,
    PhotonLabel,
    Polarization,
    ProtocolConfig,
    SpinLabel,
    Station,
    StateVector,
    SweepSpec,
    WCoefficients,
    WState,
    alice_round,
    charlie_round,
    coefficient_update_alice,
    coefficient_update_charlie,
    compare_all,
    enumerate_tree,
    p1_round,
    p1_total,
    p2_round,
    p2_simplified,
    p2_total,
    practical_p1,
    practical_p2,
    practical_total,
    prepare_w_state,
    pt_one_round,
    run_protocol,
    scatter_coefficients,
    simplex_grid,
    sweep,
)
import ecpsim
from ecpsim import protocol
from ecpsim.cavity import detect, hwp45, photon_readout

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
    # ints a float holds whose squares it does not, beside a float and beside ints
    for others in ((0.0, 0.0), (0, 0)):
        with pytest.raises(InvalidCoefficientsError, match=r"not normalized: \|a\|\^2 = inf$"):
            WCoefficients(10**200, *others)
    assert WCoefficients(1.0, 0.0, 0.0) == (1.0, 0.0, 0.0) == WCoefficients(1, 0, 0)


def test_normalized_rescales():
    c = WCoefficients.normalized(0.5774, 0.5774, 0.5774)
    assert c.a1 == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert c.a1 == c.a2 == c.a3
    with pytest.raises(InvalidCoefficientsError):
        WCoefficients.normalized(0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "scale", [1e200, 1.7e308, 1e154, 1e-155, 1e-160, 1e-200, 5e-324, pytest.param(10**200, id="int-1e200")]
)
def test_normalized_at_any_scale(scale):
    # the sum of squares overflows, or underflows to a subnormal or to 0; an int is taken as a float
    assert WCoefficients.normalized(scale, scale, scale) == WCoefficients.normalized(1.0, 1.0, 1.0)
    c = WCoefficients.normalized(scale, 0.0, scale)
    assert c == WCoefficients.normalized(1.0, 0.0, 1.0)


@given(st.tuples(*[st.just(0.0) | st.floats(min_value=1e-150, max_value=1e150)] * 3))
# built-in sum() adds with compensation from Python 3.12, and gives this sum of squares one ulp lower
@example((1.2353286062997109e148, 1.0780662253327386e149, 1.2353286062997109e148))
def test_normalized_keeps_the_plain_norm_in_the_normal_range(triple):
    a1, a2, a3 = triple
    sum_sq = a1 * a1 + a2 * a2 + a3 * a3  # left to right, as the package adds
    assume(sys.float_info.min <= sum_sq < math.inf)
    n = math.sqrt(sum_sq)
    assert WCoefficients.normalized(*triple) == tuple(a / n for a in triple)


def test_symmetric_is_unit_norm():
    a1, a2, a3 = EQUAL
    assert a1 == a2 == a3
    assert a1 * a1 + a2 * a2 + a3 * a3 == pytest.approx(1.0, abs=1e-12)


# -- preparation ------------------------------------------------------------


def test_prepare_w_state_amplitudes():
    w = prepare_w_state(SKEWED)
    # complex, as StateVector stores them: Python 3.14 multiplies a float and
    # a complex to different signed zeros than two complex numbers.
    assert [type(a) for a in w] == [complex] * 3
    s = to_state_vector(w)
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: alice_round(WState(1 + 0j, 0j, 0j), WCoefficients(0.0, 0.0, 1.0)),
         "photon amplitudes are both zero"),
        (lambda: charlie_round(WState(0j, 0j, 1 + 0j), WCoefficients(1.0, 0.0, 0.0)),
         "photon amplitudes are both zero"),
        (lambda: coefficient_update_alice(WCoefficients(0.0, 0.0, 1.0)),
         "retry map undefined for this triple"),
        (lambda: coefficient_update_charlie(WCoefficients(1.0, 0.0, 0.0)),
         "retry map undefined for this triple"),
    ],
    ids=["alice_round", "charlie_round", "update_alice", "update_charlie"],
)
def test_rounds_and_retry_maps_reject_an_empty_photon_pair(call, message):
    with pytest.raises(DegenerateCoefficientsError, match=message):
        call()


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
    assert c == pytest.approx((0.1296 / n, 0.1296 / n, 0.2304 / n), abs=1e-12)


@pytest.mark.parametrize("update", [coefficient_update_alice, coefficient_update_charlie])
def test_updates_fix_symmetric_point(update):
    c = update(EQUAL)
    assert c == pytest.approx(EQUAL, abs=1e-12)


@pytest.mark.parametrize(
    "update, c, expected",
    [
        (coefficient_update_alice, (1e-170, 1e-170, 1.0), (1e-170, 1e-170, 1.0)),
        (coefficient_update_charlie, (1.0, 1e-170, 1e-170), EQUAL),
    ],
    ids=["alice", "charlie"],
)
def test_updates_keep_ratios_where_squares_underflow(update, c, expected):
    assert update(WCoefficients(*c)) == pytest.approx(expected, rel=1e-15, abs=0.0)


@given(
    st.tuples(*[st.just(0.0) | st.floats(min_value=1e-300, max_value=1.0)] * 3)
    .filter(any)
    .map(lambda t: WCoefficients.normalized(*t))
)
def test_updates_keep_the_plain_formula_where_squares_are_normal(c):
    a1, a2, a3 = c
    if max(a1, a2) ** 2 >= sys.float_info.min:
        plain = WCoefficients.normalized(a1 * a1, a2 * a2, a2 * a3)
        assert coefficient_update_alice(c) == plain
    if max(a2, a3) ** 2 >= sys.float_info.min:
        plain = WCoefficients.normalized(a2 * a2, a2 * a2, a3 * a3)
        assert coefficient_update_charlie(c) == plain


@given(interior)
def test_updates_return_valid_coefficients(c):
    for update in (coefficient_update_alice, coefficient_update_charlie):
        out = update(c)
        a1, a2, a3 = out
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
        ref = to_state_vector(prepare_w_state(o.post_coefficients))
        assert to_state_vector(o.post_state).fidelity(ref) == pytest.approx(1.0, abs=1e-12)


def test_alice_success_drops_first_coefficient():
    outcomes = alice_round(prepare_w_state(SKEWED), SKEWED)
    d3 = next(o for o in outcomes if o.detector is DetectorLabel.D3)
    a1, a2, a3 = d3.post_coefficients
    assert a1 == a2  # two distinct values only
    n = math.sqrt(2 * 0.36**2 + 0.48**2)
    assert (a1, a2, a3) == pytest.approx((0.36 / n, 0.36 / n, 0.48 / n), abs=1e-12)


def test_charlie_round_equal_alpha(w_pattern):
    outcomes = charlie_round(prepare_w_state(EQUAL), EQUAL)
    success = [o for o in outcomes if o.classification is OutcomeClass.CHARLIE_SUCCESS]
    assert {o.detector for o in success} == {DetectorLabel.D5, DetectorLabel.D6}
    assert sum(o.probability for o in success) == pytest.approx(0.5, abs=1e-12)
    for o in success:
        fidelity = to_state_vector(o.post_state).fidelity(w_pattern(1, 1, 1))
        assert fidelity == pytest.approx(1.0, abs=1e-12)


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
    assert d7.post_coefficients == pytest.approx(
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
            assert to_state_vector(o.post_state).norm() == pytest.approx(1.0, abs=1e-12)


# -- detector pairs ----------------------------------------------------------------


# The heralds of success: the first station's transmitted port (D3/D4) and the
# second station's reflected port (D5/D6).
STATION_PLANS = (
    (Station.ALICE, protocol._ALICE_PLAN, 0, (DetectorLabel.D3, DetectorLabel.D4)),
    (Station.CHARLIE, protocol._CHARLIE_PLAN, 2, (DetectorLabel.D5, DetectorLabel.D6)),
)


def test_station_plans_pair_each_detector_with_the_next():
    # _station_plan pairs each detector with the next and gives the pair the first
    # one's class and routes; this pins what makes that pairing hold, for both plans
    for station, plan, gated_spin, success in STATION_PLANS:
        readout = photon_readout(station)
        fields = plan._asdict()
        del fields["pairs"]
        assert protocol._station_plan(readout, gated_spin, success, **fields) == plan
        # each detector's (slot, polarization index, weight, flip) landings, from the
        # routes of each slot's gated spin; an even detector's correction flips DOWN
        detectors, routes = readout
        landings = {d: [] for d in detectors}
        down = [ket[gated_spin] == "d" for ket in WState._fields]
        for slot, is_down in enumerate(down):
            spin = SpinLabel.DOWN if is_down else SpinLabel.UP
            for pol, position, weight in routes[spin]:
                detector = detectors[position]
                even = int(detector.value[1:]) % 2 == 0
                landings[detector].append((slot, pol, weight, even and spin is SpinLabel.DOWN))
        # the detectors pair up in label order
        assert len(detectors) % 2 == 0
        pairs = [(first, second) for first, second, _, _ in plan.pairs]
        assert pairs == list(zip(detectors[::2], detectors[1::2]))
        for first, second, pair_success, pair_landings in plan.pairs:
            # both detectors of a pair herald one outcome class, each slot reaches
            # each once, and the odd one (D1, D3, D5, D7) never flips
            assert (first in success) is (second in success) is pair_success
            assert int(first.value[1:]) % 2 == 1
            assert len(landings[first]) == 3
            assert not any(f for _, _, _, f in landings[first])
            # the even one's landings are the odd one's along the same (slot,
            # polarization) routes, the weight negated exactly where its
            # correction flips (gated spin DOWN)
            assert landings[second] == [(s, p, -w if down[s] else w, down[s]) for s, p, w, _ in landings[first]]
            # the plan stores the odd detector's landings and the paired flip
            assert pair_landings == tuple(
                (s, p, w, f2) for (s, p, w, _), (_, _, _, f2) in zip(landings[first], landings[second])
            )


# -- lossy rounds -----------------------------------------------------------------


def lossy_scatter(ks):
    return scatter_coefficients(CavityParams(kappa=1.0, kappa_s=ks, g=0.5, gamma=0.1))


def test_lossy_round_scales_success_mass():
    sc = lossy_scatter(0.1)
    ideal = alice_round(prepare_w_state(EQUAL), EQUAL)
    lossy = alice_round(prepare_w_state(EQUAL), EQUAL, sc)
    ideal_success = sum(o.probability for o in ideal if o.classification is OutcomeClass.ALICE_SUCCESS)
    lossy_success = sum(o.probability for o in lossy if o.classification is OutcomeClass.ALICE_SUCCESS)
    assert lossy_success == pytest.approx(ideal_success * sc.transmitted_signal_fraction, abs=1e-12)
    # each round still exhausts its probability
    assert sum(o.probability for o in lossy) == pytest.approx(1.0, abs=1e-12)


def test_lossy_charlie_uses_reflected_fraction():
    sc = lossy_scatter(0.5)
    lossy = charlie_round(prepare_w_state(EQUAL), EQUAL, sc)
    success = sum(o.probability for o in lossy if o.classification is OutcomeClass.CHARLIE_SUCCESS)
    assert success == pytest.approx(0.5 * sc.reflected_signal_fraction, abs=1e-12)


def test_lossy_round_keeps_ideal_post_states(w_pattern):
    lossy = charlie_round(prepare_w_state(EQUAL), EQUAL, lossy_scatter(0.5))
    for o in lossy:
        if o.classification is OutcomeClass.CHARLIE_SUCCESS:
            fidelity = to_state_vector(o.post_state).fidelity(w_pattern(1, 1, 1))
        assert fidelity == pytest.approx(1.0, abs=1e-12)


# -- full protocol ------------------------------------------------------------------


def test_engine_builds_no_state_vector(monkeypatch):
    # Rounds stay in the W sector; general states belong to the test reference.
    builds = 0
    init = StateVector.__init__

    def counting_init(self, terms):
        nonlocal builds
        builds += 1
        init(self, terms)

    monkeypatch.setattr(StateVector, "__init__", counting_init)
    compare_all(simplex_grid(2), (4, 4))
    run_protocol(SKEWED, ProtocolConfig(max_rounds_alice=4, max_rounds_charlie=4))
    run_protocol(
        SKEWED,
        ProtocolConfig(max_rounds_alice=4, max_rounds_charlie=4, mode="mc", n_shots=1000),
    )
    assert builds == 0


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
    expected = p1_total(c, k_max=20) * p2_total(c, k_max=20)
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
    import ecpsim.sampling as sampling

    t1 = run_protocol(EQUAL, cfg_small)
    old = sampling._CHUNK
    try:
        sampling._CHUNK = 1 << 12
        t2 = run_protocol(EQUAL, cfg_small)
    finally:
        sampling._CHUNK = old
    assert t1.counts == t2.counts
    assert t1.branches == t2.branches


# SHA-256 of ``json.dumps(trace.to_json_obj(), indent=2)`` for SKEWED Monte
# Carlo runs, pinned from the row-sorting path counter that packed keys
# replaced.  Branch order and every count enter the digest, and ``to_json_text``
# must write the hashed text.
@pytest.mark.parametrize(
    "rounds, shots, seed, digest",
    [
        # ragged: Alice's seventh round has two outcomes, not four
        ((7, 7), 1_000, 3, "b012d16aa24796eb6f293b03309f3a7d4bf14c5047d41255e247af5c199c5c44"),
        # crosses one chunk boundary
        ((8, 7), 70_000, 5, "f83377a0a189ea41ce84ea805542b1cd5ce13a46e4f4a726dc88b51ce4340db4"),
        # three chunks, the last holding a single shot
        ((3, 2), 131_073, 2, "b075ce73cddd8ddfc4d25843299ff8809cc6ff2b85749ef944fa6b1964b97c62"),
        # 23 and 20 stages: keys span several 11-stage blocks
        ((20, 3), 20_000, 11, "e221a3c19c1086e8772d3e41a65c9aa2b3a87fcf0a76726ea86e7585d484c558"),
        ((10, 10), 20_000, 13, "5d1f869cfed0a6c8895e319b155d770a1cf5343b40cbdb25f0e55eb676dc4127"),
    ],
)
def test_run_protocol_mc_golden_traces(rounds, shots, seed, digest):
    cfg = ProtocolConfig(
        max_rounds_alice=rounds[0],
        max_rounds_charlie=rounds[1],
        mode="mc",
        n_shots=shots,
        rng_seed=seed,
    )
    trace = run_protocol(SKEWED, cfg)
    text = json.dumps(trace.to_json_obj(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert trace.to_json_text() == text


# SHA-256 of ``json.dumps(trace.to_json_obj(), indent=2)`` for ideal tree
# runs, whose text ``to_json_text`` must write.  At (7, 7) the last
# first-station stage is ragged; at (40, 1) the deep retry rounds shed terms at
# the amplitude drop: (0.9, 0.3, 0.3) at the photon and normalization drops,
# (0.01, 0.3, 0.3) also at the wave-plate drop.
@pytest.mark.parametrize(
    "coefficients, rounds, digest",
    [
        (SKEWED, (4, 4), "32e764775f5e424be718b3b616f22574dbe366bb4e706d733388e799f9709e67"),
        (SKEWED, (7, 7), "3d32006d9ba38d81bb048f5f139bf22f58649ce8c1e9da7256165797c7b79ac3"),
        (
            WCoefficients.normalized(0.9, 0.3, 0.3),
            (40, 1),
            "631090df6ab0cd73ed20b9beb8e2adde2446d9f9e13e2ef4c5c0b807e08f2aad",
        ),
        (
            WCoefficients.normalized(0.01, 0.3, 0.3),
            (40, 1),
            "ce77ff4d9c76740c2a1d74b02e1ca0f3afbd978886f756f55fecbc8dc3b04179",
        ),
    ],
)
def test_run_protocol_tree_golden_traces(coefficients, rounds, digest):
    cfg = ProtocolConfig(max_rounds_alice=rounds[0], max_rounds_charlie=rounds[1])
    trace = run_protocol(coefficients, cfg)
    text = json.dumps(trace.to_json_obj(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert trace.to_json_text() == text


def test_run_protocol_validates_config():
    with pytest.raises(ConfigError):
        run_protocol(EQUAL, ProtocolConfig(max_rounds_alice=0))
    with pytest.raises(ConfigError, match="at most 64"):
        run_protocol(EQUAL, ProtocolConfig(max_rounds_alice=65))
    with pytest.raises(ConfigError, match="at most 64"):
        run_protocol(EQUAL, ProtocolConfig(max_rounds_charlie=65))
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


# -- value types ---------------------------------------------------------------


def _value_samples():
    """``(value, field, replacement)`` for each value type a CLI route builds,
    then for the four of the reference route's gate, wave plate and detectors."""
    cavity = CavityParams(kappa_s=0.1, g=0.5, gamma=0.1)
    state = prepare_w_state(SKEWED)
    trace = run_protocol(SKEWED, ProtocolConfig(2, 2))
    photon = PhotonLabel(Polarization.R, Direction.MINUS_Z)
    ket = BasisKet.from_spins("udu").with_photon(photon)
    event = detect(hwp45(StateVector({ket: 1.0})), Station.ALICE)[0]
    return [
        (SKEWED, "a1", math.nextafter(SKEWED.a1, 0.0)),  # still within the norm tolerance
        (state, "uud", 0j),
        (alice_round(state, SKEWED)[0], "probability", 0.5),
        (ProtocolConfig(2, 2, cavity=cavity), "rng_seed", 7),
        (trace.branches[0], "count", 3),
        # A run's trace holds lists; one that holds tuples hashes.
        (trace._replace(rounds=tuple(trace.rounds), branches=tuple(trace.branches)),
         "total_success_probability", 0.5),
        (protocol._ALICE_PLAN, "success_class", OutcomeClass.CHARLIE_SUCCESS),
        (cavity, "g", 1.0),
        (scatter_coefficients(cavity), "t", 0j),
        (SweepSpec(n_points=3, cavity=cavity), "n_points", 4),
        (photon, "direction", Direction.PLUS_Z),
        (ket, "photon", photon.reflected()),
        (event, "probability", 0.25),
        (LossyOperators(scatter_coefficients(cavity)), "coefficients", scatter_coefficients(CavityParams())),
    ]


VALUE_SAMPLES = _value_samples()


@pytest.mark.parametrize(
    "value, field, replacement", VALUE_SAMPLES, ids=[type(v).__name__ for v, _, _ in VALUE_SAMPLES]
)
def test_value_types_are_immutable_hashable_values(value, field, replacement):
    # Nodes of an enumerate_tree tree share these values, and verify's round tables compare them.
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict
    twin = type(value)(*value)  # built again, through any checks
    assert twin is not value and twin == value and hash(twin) == hash(value)
    old = getattr(value, field)
    changed = value._replace(**{field: replacement})
    assert changed is not value and type(changed) is type(value)
    assert getattr(changed, field) == replacement and getattr(value, field) is old


# A value the constructor refuses, for each validated type: _replace, _make and,
# from Python 3.13, copy.replace build through the constructor and raise as it does.
REFUSED_FIELDS = [
    (SKEWED, "a1", 0.0),
    (ProtocolConfig(), "max_rounds_alice", 0),
    (ProtocolConfig(), "mode", "mc"),
    (ProtocolConfig(), "n_shots", -1),
    (CavityParams(g=0.5, gamma=0.1), "g", math.nan),
    (SweepSpec(), "alpha2", 1.0),
]


@pytest.mark.parametrize(
    "value, field, refused", REFUSED_FIELDS,
    ids=[f"{type(v).__name__}-{f}" for v, f, _ in REFUSED_FIELDS],
)
def test_every_construction_path_refuses_what_the_constructor_refuses(value, field, refused):
    fields = {**value._asdict(), field: refused}
    with pytest.raises(Exception) as expected:
        type(value)(**fields)
    builds = [lambda: value._replace(**{field: refused}), lambda: type(value)._make(fields.values())]
    if hasattr(copy, "replace"):
        builds.append(lambda: copy.replace(value, **{field: refused}))
    for build in builds:
        with pytest.raises(Exception) as caught:
            build()
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)


# Each count field of a validated type, with the type that must hold it and the
# error a value of another type raises: a bool or a float would pass the range
# checks, and a str or None would fail them with a bare TypeError.
COUNT_FIELDS = [
    *((ProtocolConfig(mode="mc", n_shots=10), name, ConfigError)
      for name in ("max_rounds_alice", "max_rounds_charlie", "rng_seed", "n_shots")),
    (SweepSpec(), "n_points", DomainError),
]


@pytest.mark.parametrize("wrong", [True, 2.0, "2", None], ids=repr)
@pytest.mark.parametrize(
    "value, field, error", COUNT_FIELDS, ids=[f"{type(v).__name__}-{f}" for v, f, _ in COUNT_FIELDS]
)
def test_counts_must_be_ints_on_every_construction_path(value, field, error, wrong):
    fields = {**value._asdict(), field: wrong}
    builds = [
        lambda: type(value)(**fields),
        lambda: type(value)._make(fields.values()),
        lambda: value._replace(**{field: wrong}),
    ]
    for build in builds:
        with pytest.raises(error, match=f"^{field} must be an int, not {type(wrong).__name__}$"):
            build()


# Wrong-typed values for each kind of field: what a real number (a float, or an
# int a float can hold) is not, what an int count is not, and so on.  Each also
# draws ints past int.__str__'s 4300-digit limit, which a message that shows the
# value must format without raising ValueError: as a real number they are out
# of the float range, and every count refuses a negative one by its range.
_UNTYPED = st.booleans() | st.none() | st.complex_numbers()
_NUMBERS = st.floats() | st.integers()
_PAST_STR_LIMIT = st.integers(min_value=10**4300) | st.integers(max_value=-(10**4300))
_NOT_REAL = (_UNTYPED | st.text(max_size=3) | st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
             | _PAST_STR_LIMIT)
_NOT_INT = _UNTYPED | st.text(max_size=3) | st.floats() | st.integers(max_value=-(10**4300))
# a round limit past the closed forms' range: an int the totals refuse
_ABOVE_ROUNDS = st.integers(min_value=protocol.MAX_ROUNDS + 1) | st.integers(min_value=10**4300)
_NOT_CAVITY = (st.booleans() | st.text(max_size=3) | st.complex_numbers() | _NUMBERS
               | st.sampled_from([DenominatorConvention.CORRECTED, SKEWED, (0.1, 0.5, 0.1)]))
_NOT_CONVENTION = _UNTYPED | _NUMBERS | st.sampled_from(["verbatim", "corrected"])
# alpha1_range is a (lo, hi) tuple of floats
_NOT_RANGE = (_NOT_REAL | st.lists(st.floats(0.1, 0.5), min_size=2, max_size=2)
              | st.tuples(st.floats(0.1, 0.5)) | st.tuples(st.floats(0.1, 0.5), _NOT_REAL | st.integers()))


def _typed_fields():
    """``(value, field, wrong-typed values, the type's error)`` for every field of
    the four validated types."""
    cavity = CavityParams(kappa_s=0.1, g=0.5, gamma=0.1)
    config = ProtocolConfig(2, 2, cavity=cavity, mode="mc", n_shots=10)
    spec = SweepSpec(n_points=3, cavity=cavity)
    return [
        *((SKEWED, name, _NOT_REAL, InvalidCoefficientsError) for name in SKEWED._fields),
        *((cavity, name, _NOT_REAL, ValueError) for name in cavity._fields[:-1]),
        (cavity, "convention", _NOT_CONVENTION, ValueError),
        *((config, name, _NOT_INT, ConfigError)
          for name in ("max_rounds_alice", "max_rounds_charlie", "rng_seed", "n_shots")),
        (config, "cavity", _NOT_CAVITY, ConfigError),
        (config, "mode", _UNTYPED | _NUMBERS, ConfigError),
        (spec, "alpha2", _NOT_REAL, DomainError),
        (spec, "alpha1_range", _NOT_RANGE, DomainError),
        (spec, "n_points", _NOT_INT, DomainError),
        (spec, "cavity", _NOT_CAVITY, DomainError),
    ]


TYPED_FIELDS = _typed_fields()


def _typed_field(kind, field):
    return next(case for case in TYPED_FIELDS if type(case[0]) is kind and case[1] == field)


@given(st.sampled_from(TYPED_FIELDS).flatmap(lambda case: st.tuples(st.just(case), case[2])))
@example((_typed_field(ProtocolConfig, "cavity"), 1.0))
# each a case that once raised a bare ValueError from formatting the int
@example((_typed_field(ProtocolConfig, "rng_seed"), 10**5000))
@example((_typed_field(SweepSpec, "alpha1_range"), (0.1, 10**5000)))
@example((_typed_field(SweepSpec, "alpha2"), 10**5000))
@settings(max_examples=400, deadline=None)
def test_every_construction_path_refuses_wrong_types_with_the_named_error(drawn):
    (value, field, _, error), wrong = drawn
    fields = {**value._asdict(), field: wrong}
    builds = [
        lambda: type(value)(**fields),
        lambda: type(value)._make(fields.values()),
        lambda: value._replace(**{field: wrong}),
    ]
    if hasattr(copy, "replace"):
        builds.append(lambda: copy.replace(value, **{field: wrong}))
    if type(value) is WCoefficients:
        builds.append(lambda: WCoefficients.normalized(**fields))
    messages = set()
    for build in builds:
        with pytest.raises(Exception) as caught:
            build()
        assert type(caught.value) is error, (field, wrong, caught.value)
        messages.add(str(caught.value))
    assert len(messages) == 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SweepSpec(alpha1_range="ab"), DomainError,
         "alpha1_range must be a (lo, hi) tuple of floats, not 'ab'"),
        (lambda: SweepSpec(alpha1_range=(0.1, 10**5000)), DomainError,
         "alpha1_range must be a (lo, hi) tuple of floats, not <tuple too long to show>"),
        (lambda: SweepSpec(alpha2=2), DomainError, "alpha2 2 outside (0, 1)"),
        (lambda: SweepSpec(alpha2=10**5000), DomainError, "alpha2 <int of 16610 bits> outside (0, 1)"),
        (lambda: ProtocolConfig(rng_seed=-1), ConfigError, "seed -1 outside [0, 2**128)"),
        (lambda: ProtocolConfig(rng_seed=10**5000, mode="mc", n_shots=1), ConfigError,
         "seed <int of 16610 bits> outside [0, 2**128)"),
        (lambda: p1_round(0, SKEWED), DomainError, "round index 0 outside 1..64"),
        (lambda: p1_round(-(10**5000), SKEWED), DomainError, "round index -<int of 16610 bits> outside 1..64"),
        (lambda: p2_total(SKEWED, 65), DomainError, "k_max 65 outside 1..64"),
        (lambda: p2_total(SKEWED, 10**5000), DomainError, "k_max <int of 16610 bits> outside 1..64"),
        # each count is checked once, on entry, after the types and before any arithmetic
        (lambda: p1_total((1.0, 1.0, 1.0), 0), InvalidCoefficientsError, "c must be a WCoefficients, not tuple"),
        (lambda: compare_all([], (0, -5)), DomainError, "k_alice must be at least 1"),
        (lambda: compare_all([], (1, 9)), DomainError, "tree depths must be at most 8 rounds per station"),
        (lambda: SweepSpec(n_points=0, alpha1_range=(0.9, 0.99)), DomainError, "n_points must be at least 1"),
        (lambda: SweepSpec(n_points=10**400, alpha1_range=(0.9, 0.99)), DomainError,
         "n_points must be at most 100000"),
    ],
)
def test_range_messages_show_the_value_by_repr_and_huge_ints_by_their_bit_length(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


# What a WCoefficients argument is not: plain triples (normalized or not), other
# values, and another validated type.
_NOT_COEFFS = (st.tuples(*[st.floats(0.0, 1.0)] * 3) | st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
               | st.floats() | st.none() | st.sampled_from([CavityParams(), (1.0, 1.0, 1.0), list(SKEWED)]))


def _not_a(value):
    """What an argument that takes ``value``'s type is not: what a cavity is not,
    ``None``, the other value types, and ``value`` as a plain tuple."""
    others = [CavityParams(), SweepSpec(), ProtocolConfig(), scatter_coefficients(CavityParams())]
    return (_NOT_CAVITY | st.none()
            | st.sampled_from([v for v in others if type(v) is not type(value)] + [tuple(value)]))


def _public_arguments():
    """``label: (call on one wrong value, wrong values, the named error)`` for each
    checked argument of each public function."""
    lossy = scatter_coefficients(CavityParams(kappa_s=0.1, g=0.5, gamma=0.1))
    state = prepare_w_state(SKEWED)
    not_scatter = _not_a(lossy).filter(lambda v: v is not None)  # None is the ideal gate
    not_depths = (_NOT_INT | st.tuples(_NOT_INT, st.just(1)) | st.tuples(st.just(1), _NOT_INT)
                  | st.sampled_from([[1, 1], (1,), (1, 1, 1)]))
    cases = {
        "simplex_grid.n": (simplex_grid, _NOT_INT, DomainError),
        "compare_all.grid": (lambda v: compare_all([v], (1, 1)), _NOT_COEFFS, InvalidCoefficientsError),
        "compare_all.depths": (lambda v: compare_all([SKEWED], v), not_depths, DomainError),
        "compare_all.tolerance": (lambda v: compare_all([SKEWED], (1, 1), v), _NOT_REAL, DomainError),
        "compare_all.cavity": (lambda v: compare_all([SKEWED], (1, 1), cavity=v), _NOT_CAVITY, DomainError),
        "enumerate_tree.c": (lambda v: enumerate_tree(v, 1, 1), _NOT_COEFFS, InvalidCoefficientsError),
        "enumerate_tree.k_alice": (lambda v: enumerate_tree(SKEWED, v, 1), _NOT_INT, DomainError),
        "enumerate_tree.k_charlie": (lambda v: enumerate_tree(SKEWED, 1, v), _NOT_INT, DomainError),
        "prepare_w_state.coefficients": (prepare_w_state, _NOT_COEFFS, InvalidCoefficientsError),
        "run_protocol.coefficients": (lambda v: run_protocol(v, ProtocolConfig()), _NOT_COEFFS,
                                      InvalidCoefficientsError),
        "run_protocol.config": (lambda v: run_protocol(SKEWED, v), _not_a(ProtocolConfig()), ConfigError),
        "alice_round.scatter": (lambda v: alice_round(state, SKEWED, v), not_scatter, DomainError),
        "charlie_round.scatter": (lambda v: charlie_round(state, SKEWED, v), not_scatter, DomainError),
        "scatter_coefficients.params": (scatter_coefficients, _not_a(CavityParams()), DomainError),
        "scatter_coefficients.omega": (lambda v: scatter_coefficients(CavityParams(), v),
                                       _NOT_REAL.filter(lambda v: v is not None), DomainError),
        "pt_one_round.c": (pt_one_round, _NOT_COEFFS, InvalidCoefficientsError),
        "p2_simplified.alpha1": (p2_simplified, _NOT_REAL, DomainError),
        "sweep.spec": (sweep, _not_a(SweepSpec()), DomainError),
    }
    for name, fn in (("p1_round", p1_round), ("p2_round", p2_round)):
        cases[f"{name}.k"] = (lambda v, fn=fn: fn(v, SKEWED), _NOT_INT, DomainError)
        cases[f"{name}.c"] = (lambda v, fn=fn: fn(1, v), _NOT_COEFFS, InvalidCoefficientsError)
    for name, fn in (("p1_total", p1_total), ("p2_total", p2_total)):
        cases[f"{name}.c"] = (fn, _NOT_COEFFS, InvalidCoefficientsError)
        cases[f"{name}.k_max"] = (lambda v, fn=fn: fn(SKEWED, v), _NOT_INT | _ABOVE_ROUNDS, DomainError)
    for name, fn in (("practical_p1", practical_p1), ("practical_p2", practical_p2),
                     ("practical_total", practical_total)):
        cases[f"{name}.c"] = (lambda v, fn=fn: fn(v, lossy), _NOT_COEFFS, InvalidCoefficientsError)
        cases[f"{name}.coefficients"] = (lambda v, fn=fn: fn(SKEWED, v), _not_a(lossy), DomainError)
    return cases


PUBLIC_ARGUMENTS = _public_arguments()


@given(st.sampled_from(sorted(PUBLIC_ARGUMENTS)).flatmap(
    lambda label: st.tuples(st.just(label), PUBLIC_ARGUMENTS[label][1])))
# each a case that once returned a value, or raised a bare TypeError or OverflowError
@example(("p1_round.c", (1.0, 1.0, 1.0)))
@example(("p1_total.c", (1.0, 1.0, 1.0)))
@example(("p1_round.k", True))
@example(("compare_all.tolerance", True))
@example(("compare_all.depths", (1.0, 1)))
@example(("scatter_coefficients.omega", True))
@example(("scatter_coefficients.omega", "1"))
@example(("scatter_coefficients.omega", 10**400))
@example(("simplex_grid.n", True))
@example(("simplex_grid.n", 2.0))
@example(("p1_total.k_max", 2.0))
# each a limit past MAX_ROUNDS that once returned the 64-round sum
@example(("p1_total.k_max", protocol.MAX_ROUNDS + 1))
@example(("p2_total.k_max", 10**6))
# each a case that once raised a bare ValueError from formatting the int
@example(("p1_round.k", 10**5000))
@example(("p2_round.k", -(10**5000)))
@settings(max_examples=600, deadline=None)
def test_every_public_function_refuses_wrong_types_with_the_named_error(drawn):
    label, wrong = drawn
    call, _, error = PUBLIC_ARGUMENTS[label]
    with pytest.raises(Exception) as caught:
        call(wrong)
    assert type(caught.value) is error, (label, wrong, caught.value)


def test_numpy_floats_are_real_numbers_and_numpy_integers_are_not_counts():
    import numpy as np

    assert scatter_coefficients(CavityParams(), np.float64(0.5)) == scatter_coefficients(CavityParams(), 0.5)
    with pytest.raises(DomainError, match="^round index must be an int, not int64$"):
        p1_round(np.int64(2), SKEWED)


def test_a_corrected_cavity_runs_the_corrected_form():
    verbatim = CavityParams(kappa_s=0.1, g=0.5, gamma=0.1)
    corrected = verbatim._replace(convention=DenominatorConvention.CORRECTED)
    runs = [run_protocol(SKEWED, ProtocolConfig(4, 4, cavity=cavity)) for cavity in (verbatim, corrected)]
    assert runs[1].total_success_probability == 0.38335440027397466
    assert runs[0].total_success_probability != runs[1].total_success_probability
    obj = json.loads(runs[1].to_json_text())["config"]
    assert obj["cavity"] == {name: getattr(corrected, name) for name in CavityParams._fields[:-1]}
    assert obj["convention"] == "corrected"


def test_only_two_oracle_classes_are_dataclasses():
    # BranchNode stays one because the cyclic GC makes a named-tuple tree from
    # enumerate_tree about twice as slow to build; ComparisonReport because
    # bench/test_bench.py passes it to dataclasses.replace.
    found = set()
    for info in pkgutil.iter_modules(ecpsim.__path__):
        module = importlib.import_module(f"ecpsim.{info.name}")
        found |= {
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
        }
    assert found == {"oracle.BranchNode", "oracle.ComparisonReport"}
