import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import preorder, reference_masses, reference_tree

from ecpsim import (
    CavityParams,
    DenominatorConvention,
    DetectorLabel,
    DomainError,
    EcpError,
    InvalidCoefficientsError,
    OutcomeClass,
    ProtocolConfig,
    WCoefficients,
    WState,
    alice_round,
    charlie_round,
    compare_all,
    enumerate_tree,
    oracle,
    p1_round,
    p2_round,
    prepare_w_state,
    protocol,
    run_protocol,
    scatter_coefficients,
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
    # The tree doubles with every round; (8, 8) already has 521 221 nodes.
    for depths in ((9, 1), (1, 9)):
        with pytest.raises(DomainError, match="at most 8"):
            enumerate_tree(EQUAL, *depths)
    assert enumerate_tree(EQUAL, 8, 1).children


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


# -- one evaluation per distinct round input ---------------------------------------


def node_record(node):
    """A node's fields, floats by their bits (``float.hex`` tells -0.0 from 0.0)."""
    return (
        node.path,
        node.amplitude_weight.hex(),
        tuple(a.hex() for a in node.coefficients),
        node.depth,
        node.classification,
        tuple(None if a is None else (a.real.hex(), a.imag.hex()) for a in node.state.amplitudes),
    )


unit = st.floats(min_value=0.01, max_value=1.0)
near_drop = st.floats(min_value=1e-14, max_value=1e-10) | st.sampled_from(
    [1e-12, math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0)]
)
triples = (
    st.tuples(unit, unit, unit | near_drop)
    .flatmap(st.permutations)
    .map(lambda t: WCoefficients.normalized(*t))
)

# Fixed deep trees for the two tests below, which draw depths up to 4: each
# station at MAX_TREE_ROUNDS, and (5, 5).  At NEAR_DROP the amplitude drop
# removes whole detectors from many rounds.  The mass walk also gets two
# (6, 6) trees, the deepest at both stations within about a second: at EQUAL
# every pair's two rows share a child table and a mass in every table, so
# the walk replays half of all rows.
NEAR_DROP = WCoefficients.normalized(1.0, 0.5, 1e-11)
_DEEP = oracle.MAX_TREE_ROUNDS
DEEP_TREES = [(SKEWED, _DEEP, 1), (SKEWED, 1, _DEEP), (NEAR_DROP, 1, _DEEP), (NEAR_DROP, 5, 5)]
MASS_TREES = DEEP_TREES + [(EQUAL, 6, 6), (NEAR_DROP, 6, 6)]


def with_examples(cases):
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return add


@settings(max_examples=40, deadline=None)
@given(triples, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
@with_examples(DEEP_TREES)
def test_tree_matches_plain_recursion_node_for_node(c, k_alice, k_charlie):
    try:
        expected = [node_record(n) for n in preorder(reference_tree(c, k_alice, k_charlie))]
    except EcpError as exc:
        with pytest.raises(type(exc)):
            enumerate_tree(c, k_alice, k_charlie)
        return
    got = [node_record(n) for n in enumerate_tree(c, k_alice, k_charlie).walk()]
    assert got == expected


def masses_by_bits(masses):
    alice_at, charlie_at, joint = masses
    return (
        {k: v.hex() for k, v in alice_at.items()},
        {k: v.hex() for k, v in charlie_at.items()},
        joint.hex(),
    )


@settings(max_examples=40, deadline=None)
@given(triples, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
@with_examples(MASS_TREES)
def test_tree_masses_match_reference_tree_bit_for_bit(c, k_alice, k_charlie):
    try:
        expected = reference_masses(reference_tree(c, k_alice, k_charlie), k_alice, k_charlie)
    except EcpError as exc:
        with pytest.raises(type(exc)):
            oracle._tree_masses(c, k_alice, k_charlie)
        return
    got = oracle._tree_masses(c, k_alice, k_charlie)
    assert masses_by_bits(got) == masses_by_bits(expected)


# -- the mass walk's replay rule ---------------------------------------------------
# Hand-made round tables at depths (2, 2): rows are ``(probability, success,
# child table, outcome)``, and the walk reads no outcome.


def rows(*specs):
    return [(probability, success, child, None) for probability, success, child in specs]


def plain_records(table, k_alice, station=0, k=1, weight=1.0):
    """``(slot, mass)`` of each success under ``table`` in pre-order, every row
    walked: station 1's round k sums into slot k - 1, station 2's into slot
    k_alice + k - 1."""
    records = []
    for probability, success, child, _ in table:
        w = weight * probability
        if success:
            records.append((k - 1 if station == 0 else k_alice + k - 1, w))
            if child is not None:
                records += plain_records(child, k_alice, station + 1, 1, w)
        elif child is not None:
            records += plain_records(child, k_alice, station, k + 1, w)
    return records


CHARLIE_LAST = rows((0.375, True, None), (0.375, True, None), (0.125, False, None), (0.125, False, None))
CHARLIE_FIRST = rows((0.25, True, None), (0.25, True, None), (0.25, False, CHARLIE_LAST),
                     (0.25, False, CHARLIE_LAST))
OTHER_CHARLIE_FIRST = rows((0.5, True, None), (0.5, False, CHARLIE_LAST))
# Read as a second-station table after a success row and as the first
# station's round 2 after a retry row: its rows end their branches either way.
EITHER = rows((0.5, True, None), (0.5, False, None))
REPLAY_ROOTS = {
    # adjacent rows with equal class and mass but different child tables
    "other child": rows((0.25, True, CHARLIE_FIRST), (0.25, True, OTHER_CHARLIE_FIRST)),
    # adjacent rows with one child table and one mass but different classes
    "other class": rows((0.25, True, EITHER), (0.25, False, EITHER)),
    # adjacent rows with one child table and one class but different masses
    "other mass": rows((0.375, True, CHARLIE_FIRST), (0.125, True, CHARLIE_FIRST)),
    # a pair: one child table, one class, one mass
    "pair": rows((0.25, True, CHARLIE_FIRST), (0.25, True, CHARLIE_FIRST),
                 (0.25, False, EITHER), (0.25, False, EITHER)),
}
# Tables walked under each root above: a replayed row's subtree is not walked
# again, so "pair" walks 4 tables where walking every row would take 9.
REPLAY_WALKS = {"other child": 5, "other class": 3, "other mass": 5, "pair": 4}


@pytest.mark.parametrize("name", REPLAY_ROOTS)
def test_mass_walk_replays_only_a_pair(monkeypatch, name):
    root = REPLAY_ROOTS[name]
    walks = []
    walk = oracle._success_masses

    def counted(*args):
        walks.append(args[0])
        return walk(*args)

    monkeypatch.setattr(oracle, "_success_masses", counted)
    records = []
    oracle._success_masses(root, 1.0, 0, (2, ()), records)
    assert records == plain_records(root, 2)
    assert len(walks) == REPLAY_WALKS[name]

    # _tree_masses adds those records from 0.0 in pre-order
    monkeypatch.setattr(oracle, "_root_table", lambda c, k_alice, k_charlie: root)
    alice_at, charlie_at, _ = oracle._tree_masses(EQUAL, 2, 2)
    at = [0.0] * 4
    for slot, mass in plain_records(root, 2):
        at[slot] += mass
    assert alice_at == {1: at[0], 2: at[1]}
    assert charlie_at == {1: at[2] / (at[0] + at[1]), 2: at[3] / (at[0] + at[1])}


def test_compare_all_builds_no_tree(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("compare_all built a BranchNode")

    monkeypatch.setattr(oracle, "BranchNode", no_nodes)
    reports = compare_all([SKEWED, EQUAL], depths=(4, 4))
    assert len(reports) == 18
    assert all(r.passed for r in reports)
    with pytest.raises(AssertionError, match="built a BranchNode"):
        enumerate_tree(SKEWED, 1, 1)


def value_input(station, state, coefficients):
    """A round input by value, as the oracle's memo keys it: complex ``==``
    and ``hash`` take -0.0 for 0.0."""
    return (station, state.amplitudes, coefficients)


_ALICE_CLASSES = (OutcomeClass.ALICE_SUCCESS, OutcomeClass.ALICE_RETRY)
ROUND_OF = {"alice": alice_round, "charlie": charlie_round}


def round_inputs(root):
    """``(station, state, coefficients)`` of every internal node under ``root``."""
    for node in preorder(root):
        if node.children:
            station = "alice" if node.children[0].classification in _ALICE_CLASSES else "charlie"
            yield station, node.state, node.coefficients


def tree_inputs(root):
    """The round input of every internal node under ``root``, by value."""
    return [value_input(*args) for args in round_inputs(root)]


def spy_rounds(monkeypatch, perturb=lambda outcomes: outcomes):
    """Route the oracle's rounds, which it looks up in ``protocol``, through a
    spy that records each input and returns ``perturb`` of the round's outcomes."""
    seen = []
    for station in ("alice", "charlie"):
        original = getattr(protocol, f"{station}_round")

        def spy(state, coefficients, original=original, station=station):
            seen.append(value_input(station, state, coefficients))
            return perturb(original(state, coefficients))

        monkeypatch.setattr(protocol, f"{station}_round", spy)
    return seen


# Distinct round inputs per (4, 4) tree: each retry pair (D1/D2, D7/D8) and
# success pair (D3/D4) leaves states that differ only in the sign of a zero, so
# the value memo runs about half the rounds a memo on exact bits would (39 and
# 17).  Each table runs its own round, so a tree runs one round per table
# (TREE_TABLES): 20 at SKEWED, and 13 at EQUAL, where a1 = a2 is a fixed point
# of the retry map and some round inputs come back with other rounds left.
TREE_ROUNDS = [(SKEWED, 20), (EQUAL, 8)]


@pytest.mark.parametrize("c, rounds", TREE_ROUNDS, ids=["skewed", "equal"])
def test_tree_runs_one_round_per_table(monkeypatch, c, rounds):
    inputs = tree_inputs(reference_tree(c, 4, 4))
    assert len(inputs) == 465
    tables = len(distinct_tables(c, 4, 4))
    seen = spy_rounds(monkeypatch)
    enumerate_tree(c, 4, 4)
    assert len(seen) == tables
    assert len(set(seen)) == rounds
    assert set(seen) == set(inputs)
    assert len(seen) < 465 // 10


@pytest.mark.parametrize("c, rounds", TREE_ROUNDS, ids=["skewed", "equal"])
def test_compare_all_runs_one_round_per_table(monkeypatch, c, rounds):
    inputs = tree_inputs(reference_tree(c, 4, 4))
    tables = len(distinct_tables(c, 4, 4))
    seen = spy_rounds(monkeypatch)
    compare_all([c], (4, 4))
    assert len(seen) == tables
    assert len(set(seen)) == rounds
    assert set(seen) == set(inputs)
    assert len(seen) < 465 // 10


def test_compare_all_round_count_on_the_verify_grid(monkeypatch):
    # Keyed on exact bits, zero signs included, the memo would run 3 628.
    seen = spy_rounds(monkeypatch)
    compare_all(simplex_grid(10), (4, 4))
    assert len(seen) == 1864


def distinct_tables(c, k_alice, k_charlie):
    """``(table, station, rounds left)`` of each distinct table object of the
    tree: the table and the round its rows come from."""
    limits = [k for k in (k_alice, k_charlie) if k > 0]
    stack = [(oracle._root_table(c, k_alice, k_charlie), 0, k_alice)]
    found = {}
    while stack:
        table, station, left = stack.pop()
        if id(table) not in found:
            found[id(table)] = (table, station, left)
            for _, success, child, _ in table:
                if child is not None:
                    next_round = (station + 1, limits[station + 1]) if success else (station, left - 1)
                    stack.append((child, *next_round))
    return list(found.values())


# Distinct tables per tree at (4, 4) and (8, 8).  A table per outcome object,
# rather than per round input and rounds left, would give 39/93 and 27/51.
TREE_TABLES = [(SKEWED, 20, 43), (EQUAL, 13, 25)]


@pytest.mark.parametrize("c, at4, at8", TREE_TABLES, ids=["skewed", "equal"])
def test_tree_builds_one_table_per_round_input_and_rounds_left(c, at4, at8):
    assert len(distinct_tables(c, 4, 4)) == at4
    assert len(distinct_tables(c, 8, 8)) == at8


@pytest.mark.parametrize("c", [SKEWED, EQUAL], ids=["skewed", "equal"])
@pytest.mark.parametrize("depths", [(4, 4), (8, 8), (3, 0)])
def test_rows_with_equal_outcomes_share_one_child_table(c, depths):
    # Each D1/D2, D3/D4 and D7/D8 pair leaves outcomes equal by value.
    children = {}
    for table, station, left in distinct_tables(c, *depths):
        for _, success, child, outcome in table:
            key = (station, left, success, outcome.post_state.amplitudes, outcome.post_coefficients)
            children.setdefault(key, set()).add(id(child))
    assert all(len(ids) == 1 for ids in children.values())
    assert len(children) < sum(len(table) for table, _, _ in distinct_tables(c, *depths))


def test_table_count_on_the_verify_grid():
    assert sum(len(distinct_tables(c, 4, 4)) for c in simplex_grid(10)) == 1864


def one_ulp_up(amp):
    return complex(math.nextafter(amp.real, math.inf), amp.imag)


def flip_zero_imag(amp):
    assert amp.imag == 0.0
    return complex(amp.real, -amp.imag)


def perturb_d2(change):
    """A ``perturb`` for :func:`spy_rounds` that applies ``change`` to the first
    amplitude of every D2 post-state."""

    def perturb(outcomes):
        out = []
        for o in outcomes:
            if o.detector is DetectorLabel.D2:
                first, *rest = o.post_state.amplitudes
                o = o._replace(post_state=WState((change(first), *rest)))
            out.append(o)
        return out

    return perturb


@pytest.mark.parametrize("change", [one_ulp_up, flip_zero_imag])
def test_tree_evaluates_a_perturbed_retry_state_apart(monkeypatch, change):
    seen = spy_rounds(monkeypatch, perturb_d2(change))
    root = enumerate_tree(SKEWED, 4, 4)
    inputs = tree_inputs(root)
    assert len(inputs) == 465
    assert len(seen) == len(set(seen))
    assert set(seen) == set(inputs)
    plain = set(tree_inputs(reference_tree(SKEWED, 4, 4)))
    d1, d2 = root.children[:2]
    assert (d1.path, d2.path) == ((DetectorLabel.D1,), (DetectorLabel.D2,))
    if change is one_ulp_up:
        # the perturbed states are inputs of their own, absent from the plain tree
        assert set(seen) - plain
        assert d2.children[0].state is not d1.children[0].state
    else:
        # a flipped zero changes no value: D2's state shares D1's round
        assert set(seen) == plain
        assert len(seen) == dict(TREE_ROUNDS)[SKEWED]
        assert d2.state.amplitudes[0].imag.hex() != d1.state.amplitudes[0].imag.hex()
        assert all(a.state is b.state for a, b in zip(d1.children, d2.children))


# -- zero signs: why the memo may key rounds by value ------------------------------


def outcome_bits(outcomes):
    """Every field of a round's outcomes, floats by their bits."""
    return [
        (
            o.detector,
            o.classification,
            o.probability.hex(),
            tuple(None if a is None else (a.real.hex(), a.imag.hex()) for a in o.post_state.amplitudes),
            tuple(x.hex() for x in o.post_coefficients),
        )
        for o in outcomes
    ]


def zero_sign_flips(state):
    """``state`` with each nonempty set of its zero amplitude components negated."""
    zeros = [
        (slot, part)
        for slot, amp in enumerate(state.amplitudes)
        if amp is not None
        for part, x in enumerate((amp.real, amp.imag))
        if x == 0.0
    ]
    for mask in range(1, 1 << len(zeros)):
        parts = [None if amp is None else [amp.real, amp.imag] for amp in state.amplitudes]
        for bit, (slot, part) in enumerate(zeros):
            if mask >> bit & 1:
                parts[slot][part] = -parts[slot][part]
        yield WState(tuple(None if p is None else complex(*p) for p in parts))


def assert_zero_signs_change_nothing(round_fn, state, c, scatter=None):
    try:
        expected = outcome_bits(round_fn(state, c, scatter))
    except EcpError as exc:
        for flipped in zero_sign_flips(state):
            with pytest.raises(type(exc)):
                round_fn(flipped, c, scatter)
        return
    for flipped in zero_sign_flips(state):
        assert outcome_bits(round_fn(flipped, c, scatter)) == expected


@pytest.mark.parametrize("c", [SKEWED, EQUAL], ids=["skewed", "equal"])
def test_round_outcomes_ignore_zero_signs_on_tree_inputs(c):
    flips = 0
    for station, state, coefficients in round_inputs(reference_tree(c, 4, 4)):
        assert_zero_signs_change_nothing(ROUND_OF[station], state, coefficients)
        flips += sum(1 for _ in zero_sign_flips(state))
    assert flips > 465


zero = st.sampled_from([0.0, -0.0])
signed_magnitude = st.builds(
    lambda m, negated: -m if negated else m, st.floats(min_value=1e-12, max_value=1.0), st.booleans()
)
# A slot is dropped, or complex with a zero part of either sign.
zero_part_amplitude = st.none() | st.builds(
    lambda z, x, zero_imag: complex(x, z) if zero_imag else complex(z, x),
    zero,
    zero | signed_magnitude,
    st.booleans(),
)
# ``st.builds`` draws every field of a named tuple, defaults included, so the
# detunings are pinned at their resonant default.
cavities = st.builds(
    CavityParams,
    kappa=st.floats(min_value=0.1, max_value=10.0),
    kappa_s=st.floats(min_value=0.0, max_value=10.0),
    gamma=st.floats(min_value=0.0, max_value=10.0),
    g=st.floats(min_value=0.0, max_value=10.0),
    omega0=st.just(0.0),
    omega_c=st.just(0.0),
    omega_x=st.just(0.0),
)
scatters = st.none() | st.builds(
    lambda cavity, convention: scatter_coefficients(cavity._replace(convention=convention)),
    cavities, st.sampled_from(list(DenominatorConvention)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(zero_part_amplitude, zero_part_amplitude, zero_part_amplitude),
    triples,
    st.sampled_from(sorted(ROUND_OF)),
    scatters,
)
def test_round_outcomes_ignore_zero_signs(amplitudes, c, station, scatter):
    assert_zero_signs_change_nothing(ROUND_OF[station], WState(amplitudes), c, scatter)


# -- simplex grid ------------------------------------------------------------------


def test_simplex_grid_degenerate_size():
    (only,) = simplex_grid(1)
    assert only == pytest.approx(EQUAL)


def test_simplex_grid_interior_points():
    grid = simplex_grid(10)
    assert len(grid) == 100
    for c in grid:
        a1, a2, a3 = c
        assert min(a1, a2, a3) > 0.01
        assert a1 * a1 + a2 * a2 + a3 * a3 == pytest.approx(1.0, abs=1e-12)


def test_simplex_grid_validation():
    with pytest.raises(DomainError):
        simplex_grid(0)
    assert len(simplex_grid(100)) == 100 * 100
    with pytest.raises(DomainError, match="at most 100"):
        simplex_grid(101)


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


def test_compare_all_evaluates_the_cavity_once(monkeypatch):
    # Every grid point's lossy rows share one scattering evaluation, made where
    # compare_all starts; the station chains take it and evaluate none.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scatter_coefficients(*args, **kwargs)

    for module in (oracle, protocol):
        monkeypatch.setattr(module, "scatter_coefficients", counted)
    reports = compare_all(simplex_grid(3), (2, 2), cavity=CavityParams(kappa_s=0.1, g=0.5, gamma=0.1))
    assert len(calls) == 1
    assert [r.quantity for r in reports].count("p_practical") == 9


def test_compare_all_with_cavity_rejects_vanishing_first_success():
    # a1 = 1e-12 leaves every first-station success amplitude below the drop,
    # so the lossy block has no success node to seed the second station from.
    cav = CavityParams(kappa=1.0, kappa_s=0.1, g=0.5, gamma=0.1)
    tiny = WCoefficients.normalized(1e-12, 1.0, 1.0)
    with pytest.raises(InvalidCoefficientsError, match="1e-12 amplitude drop"):
        compare_all([tiny], depths=(1, 1), cavity=cav)


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
