import math

import pytest

from ecpsim import (
    CavityParams,
    DetectorLabel,
    DomainError,
    OutcomeClass,
    ProtocolConfig,
    WCoefficients,
    alice_round,
    charlie_round,
    compare_all,
    enumerate_tree,
    p1_round,
    p2_round,
    prepare_w_state,
    run_protocol,
    simplex_grid,
)

EQUAL = WCoefficients.symmetric()
SKEWED = WCoefficients(0.8, 0.36, 0.48)


# -- exhaustive tree -----------------------------------------------------------


def test_tree_shape_one_round_each():
    root = enumerate_tree(EQUAL, 1, 1)
    assert sum(1 for _ in root.walk()) == 13  # root + 4 + 2 * 4
    leaves = list(root.leaves())
    assert len(leaves) == 10
    assert all(leaf.classification is not None for leaf in leaves)


def test_tree_leaf_mass_is_unity():
    for c in (EQUAL, SKEWED):
        for depths in ((1, 1), (2, 3), (4, 2)):
            root = enumerate_tree(c, *depths)
            mass = sum(leaf.amplitude_weight for leaf in root.leaves())
            assert mass == pytest.approx(1.0, abs=1e-12)


def test_tree_success_paths_end_in_success_detectors():
    root = enumerate_tree(SKEWED, 2, 2)
    for leaf in root.leaves():
        last = leaf.path[-1]
        if leaf.classification is OutcomeClass.CHARLIE_SUCCESS:
            assert last in (DetectorLabel.D5, DetectorLabel.D6)
        elif leaf.classification is OutcomeClass.CHARLIE_RETRY:
            assert last in (DetectorLabel.D7, DetectorLabel.D8)
        else:
            assert last in (DetectorLabel.D1, DetectorLabel.D2)
            assert leaf.classification is OutcomeClass.ALICE_RETRY


def test_tree_equal_alpha_success_weights():
    root = enumerate_tree(EQUAL, 1, 1)
    success = {
        leaf.path: leaf.amplitude_weight
        for leaf in root.leaves()
        if leaf.classification is OutcomeClass.CHARLIE_SUCCESS
    }
    assert len(success) == 4  # D3/D4 crossed with D5/D6
    for weight in success.values():
        assert weight == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_tree_without_charlie_stage():
    root = enumerate_tree(SKEWED, 2, 0)
    classes = {leaf.classification for leaf in root.leaves()}
    assert classes == {OutcomeClass.ALICE_SUCCESS, OutcomeClass.ALICE_RETRY}
    success = sum(
        leaf.amplitude_weight
        for leaf in root.leaves()
        if leaf.classification is OutcomeClass.ALICE_SUCCESS
    )
    assert success == pytest.approx(p1_round(1, SKEWED) + p1_round(2, SKEWED), abs=1e-12)


def test_tree_depth_validation():
    with pytest.raises(DomainError):
        enumerate_tree(EQUAL, 0, 1)
    with pytest.raises(DomainError):
        enumerate_tree(EQUAL, 1, -1)


def test_tree_total_matches_merged_protocol():
    # the exhaustive tree and the merged-branch runner are two independent
    # walks of the same physics
    config = ProtocolConfig(max_rounds_alice=3, max_rounds_charlie=2)
    trace = run_protocol(SKEWED, config)
    root = enumerate_tree(SKEWED, 3, 2)
    tree_total = sum(
        leaf.amplitude_weight
        for leaf in root.leaves()
        if leaf.classification is OutcomeClass.CHARLIE_SUCCESS
    )
    assert tree_total == pytest.approx(trace.total_success_probability, abs=1e-12)


_RETRY = (OutcomeClass.ALICE_RETRY, OutcomeClass.CHARLIE_RETRY)


def merged_tree_leaves(root):
    """Exhaustive-tree leaves grouped by merged retry token.

    Returns {merged path: (summed weight, class)} and {concrete path: merged
    path}.  A node's retry children share one token, the '|'-joined labels of
    every retry child it has.
    """
    groups, merged_of = {}, {}

    def visit(node, merged):
        if not node.children:
            weight, cls = groups.get(merged, (0.0, node.classification))
            assert cls is node.classification
            groups[merged] = (weight + node.amplitude_weight, cls)
            merged_of[tuple(d.value for d in node.path)] = merged
            return
        retry = "|".join(ch.path[-1].value for ch in node.children if ch.classification in _RETRY)
        for child in node.children:
            token = retry if child.classification in _RETRY else child.path[-1].value
            visit(child, merged + (token,))

    visit(root, ())
    return groups, merged_of


@pytest.mark.parametrize("depths", [(3, 2), (7, 7)])  # (7, 7): the last first-station stage is ragged
def test_tree_leaves_match_merged_branches(depths):
    groups, merged_of = merged_tree_leaves(enumerate_tree(SKEWED, *depths))
    config = ProtocolConfig(max_rounds_alice=depths[0], max_rounds_charlie=depths[1])
    branches = run_protocol(SKEWED, config).branches
    assert sorted(b.path for b in branches) == sorted(groups)
    for b in branches:
        weight, cls = groups[b.path]
        assert b.probability == pytest.approx(weight, abs=1e-12)
        assert b.classification is cls

    mc_config = ProtocolConfig(
        max_rounds_alice=depths[0], max_rounds_charlie=depths[1], mode="mc", n_shots=20_000, rng_seed=9
    )
    for b in run_protocol(SKEWED, mc_config).branches:
        assert b.classification is groups[merged_of[b.path]][1]


# -- simplex grid ------------------------------------------------------------------


def test_simplex_grid_degenerate_size():
    (only,) = simplex_grid(1)
    assert only.as_tuple() == pytest.approx(EQUAL.as_tuple())


def test_simplex_grid_interior_points():
    grid = simplex_grid(10)
    assert len(grid) == 100
    for c in grid:
        a1, a2, a3 = c.as_tuple()
        assert min(a1, a2, a3) > 0.01
        assert a1 * a1 + a2 * a2 + a3 * a3 == pytest.approx(1.0, abs=1e-12)


def test_simplex_grid_validation():
    with pytest.raises(DomainError):
        simplex_grid(0)


# -- closed form vs amplitudes -------------------------------------------------------


def test_compare_all_small_grid_passes():
    reports = compare_all([SKEWED], depths=(3, 3), tolerance=1e-10)
    assert len(reports) == 7  # three rounds per station plus the joint value
    assert all(r.passed for r in reports)
    quantities = {r.quantity for r in reports}
    assert "p1_round[k=1]" in quantities
    assert "pt_one_round" in quantities


def test_compare_all_with_cavity_adds_lossy_rows():
    cav = CavityParams(kappa=1.0, kappa_s=0.5, g=0.5, gamma=0.1)
    reports = compare_all([EQUAL], depths=(1, 1), tolerance=1e-10, cavity=cav)
    quantities = [r.quantity for r in reports]
    assert quantities.count("p1_practical") == 1
    assert quantities.count("p2_practical") == 1
    assert quantities.count("p_practical") == 1
    assert all(r.passed for r in reports)


def test_compare_all_catches_wrong_formula(monkeypatch):
    monkeypatch.setattr("ecpsim.analytics.p1_round", lambda k, c: 0.123)
    reports = compare_all([EQUAL], depths=(2, 1), tolerance=1e-10)
    failed = [r for r in reports if not r.passed]
    assert failed
    assert all(r.quantity.startswith("p1_round") for r in failed)


def test_comparison_report_fields():
    (report,) = compare_all([EQUAL], depths=(1, 1), tolerance=1e-10)[2:3]
    obj = report.to_json_obj()
    assert set(obj) == {"quantity", "point", "analytic", "simulated", "abs_error", "tolerance", "pass"}
    assert obj["pass"] is True
    assert obj["abs_error"] == pytest.approx(abs(obj["analytic"] - obj["simulated"]))


# -- dense grid round-probability equality ---------------------------------------------


def simulated_station_rounds(c: WCoefficients, k_max: int) -> tuple[list[float], list[float]]:
    """Per-round success masses from chained amplitude rounds, no closed forms."""
    alice, charlie = [], []
    state, cur, reach = prepare_w_state(c), c, 1.0
    seed = None
    for _ in range(k_max):
        outcomes = alice_round(state, cur)
        succ = sum(o.probability for o in outcomes if o.classification is OutcomeClass.ALICE_SUCCESS)
        alice.append(reach * succ)
        if seed is None:
            seed = next(o for o in outcomes if o.detector is DetectorLabel.D3)
        retry = next(o for o in outcomes if o.detector is DetectorLabel.D1)
        reach *= 1.0 - succ
        state, cur = retry.post_state, retry.post_coefficients
    state, cur, reach = seed.post_state, seed.post_coefficients, 1.0
    for _ in range(k_max):
        outcomes = charlie_round(state, cur)
        succ = sum(o.probability for o in outcomes if o.classification is OutcomeClass.CHARLIE_SUCCESS)
        charlie.append(reach * succ)
        retry = next(o for o in outcomes if o.detector is DetectorLabel.D7)
        reach *= 1.0 - succ
        state, cur = retry.post_state, retry.post_coefficients
    return alice, charlie


def test_round_formulas_on_dense_grid():
    for i in range(20):
        u = (i + 1) / 21
        for j in range(20):
            v = (j + 1) / 21
            c = WCoefficients.normalized(
                math.sqrt(u), math.sqrt((1 - u) * v), math.sqrt((1 - u) * (1 - v))
            )
            sim_p1, sim_p2 = simulated_station_rounds(c, 4)
            for k in range(1, 5):
                assert abs(sim_p1[k - 1] - p1_round(k, c)) <= 1e-10
                assert abs(sim_p2[k - 1] - p2_round(k, c)) <= 1e-10
