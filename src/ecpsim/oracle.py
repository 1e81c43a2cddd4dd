"""Cross-validation of closed-form probabilities against raw amplitudes.

The enumeration here walks every detector branch of the protocol and keeps
only quantities derived from amplitudes (path probabilities and collapsed
states).  The closed forms from :mod:`ecpsim.analytics` enter solely in
:func:`compare_all`, where the two routes are put side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from . import analytics
from .cavity import CavityParams, DetectorLabel, scatter_coefficients
from .errors import DomainError, _is_count, _is_real, _left_sum
from .protocol import (
    OutcomeClass,
    RoundOutcome,
    WCoefficients,
    WState,
    _stage_chains,
    _stations,
    prepare_w_state,
)

# Deepest tree per station: the tree doubles with every round, and (8, 8)
# already has about half a million nodes.
MAX_TREE_ROUNDS = 8

# Largest simplex grid side: verify holds every report until it prints, about
# 1.1 KB per comparison, so n = 100 at depth (1, 1) needs some 30 MiB.
MAX_GRID = 100


@dataclass
class BranchNode:
    """One node of the exhaustive protocol tree.

    ``amplitude_weight`` is the unconditional probability of reaching this
    node; children of an internal node carry its weight times their round
    probability, so sibling weights sum to the parent weight.

    ``classification`` is the class of the round outcome that produced the
    node (``None`` at the root).  A leaf's class is therefore the class of
    the whole path: CHARLIE_SUCCESS or CHARLIE_RETRY after the second
    station, ALICE_RETRY when the first station ran out of rounds, and
    ALICE_SUCCESS only in a tree with no second-station rounds.
    """

    path: tuple[DetectorLabel, ...]
    amplitude_weight: float
    state: WState
    coefficients: WCoefficients
    depth: int
    classification: OutcomeClass | None = None
    children: list[BranchNode] = field(default_factory=list)

    def walk(self) -> Iterator[BranchNode]:
        """Every node of the subtree in pre-order, this node first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[BranchNode]:
        for node in self.walk():
            if not node.children:
                yield node


# A round table: one ``(probability, is success, child table, outcome)`` row
# per outcome of one round, in detector order.  The child table is that of the
# round the outcome's branch runs next, or None where the branch ends.
_Table = list[tuple[float, bool, "_Table | None", RoundOutcome]]


def _check_depths(k_alice: int, k_charlie: int) -> None:
    """Refuse depths that are not ints in 1..MAX_TREE_ROUNDS, k_charlie from 0 (:class:`DomainError`)."""
    if not (_is_count(k_alice) and _is_count(k_charlie)):
        raise DomainError(f"tree depths must be ints, not {type(k_alice).__name__} and {type(k_charlie).__name__}")
    if k_alice < 1:
        raise DomainError("k_alice must be at least 1")
    if k_charlie < 0:
        raise DomainError("k_charlie must be nonnegative")
    if max(k_alice, k_charlie) > MAX_TREE_ROUNDS:
        raise DomainError(f"tree depths must be at most {MAX_TREE_ROUNDS} rounds per station")


def _root_table(c: WCoefficients, k_alice: int, k_charlie: int) -> tuple[_Table, list[tuple[int, float]]]:
    """The round tables of the tree to the given depths, from its root's, and a
    ``(slot, mass)`` record per success node in pre-order.  The depths are
    checked by the public callers on entry (:func:`_check_depths`).

    Stations and success classes are a run's (``protocol._stations``).  A
    node's mass is its parent's times its row's probability; station 1's round
    k sums into slot k - 1 and station 2's into slot k_alice + k - 1.  A row
    takes the previous row's child table and repeats its records when its
    class, post-state, post-coefficients and probability equal that row's by
    value, as the two rows of a detector pair do: its own subtree would give
    the same tables and the same records in the same order.  Every other row
    builds its own child table, runs its round and records its own subtree.
    Tables are built depth first in detector order, so rounds run, and raise,
    in the pre-order of their table's first node.
    """
    stations = _stations(k_alice, k_charlie)
    records: list[tuple[int, float]] = []

    def table(station: int, left: int, state: WState, coefficients: WCoefficients, mass: float) -> _Table:
        """The table of one round with ``left`` rounds to go at ``station``,
        under a node of ``mass``."""
        round_fn, plan, limit = stations[station]
        slot = station * k_alice + limit - left  # the second station's slots follow k_alice of the first's
        retry = (station, left - 1) if left > 1 else None
        success = (station + 1, stations[station + 1][2]) if station + 1 < len(stations) else None
        rows = []
        prev = None
        for outcome in round_fn(state, coefficients):
            is_success = outcome.classification is plan.success_class
            start = len(records)
            # Sharing is exact: floats equal by value differ at most in the sign
            # of a zero, and a round's outcomes do not depend on the sign of a
            # zero amplitude component, a dropped term's included: each landing
            # takes ``0j + weight * (p * amp)``, whose ``0j +`` makes it +0.0.
            # Coefficients are never -0.0: the root's are positive and every
            # update multiplies or divides nonnegative values.
            inputs = (outcome.classification, outcome.post_state, outcome.post_coefficients, outcome.probability)
            if inputs == prev:
                records.extend(records[begin:start])
            else:
                child_mass = mass * outcome.probability
                if is_success:
                    records.append((slot, child_mass))
                next_round = success if is_success else retry
                child = (None if next_round is None
                         else table(*next_round, outcome.post_state, outcome.post_coefficients, child_mass))
            rows.append((outcome.probability, is_success, child, outcome))
            prev, begin = inputs, start
        return rows

    return table(0, k_alice, prepare_w_state(c), c, 1.0), records


def _grow(node: BranchNode, table: _Table) -> None:
    """Give ``node`` a child per row of ``table``, and grow each child from its
    row's child table."""
    for probability, _, child_table, outcome in table:
        child = BranchNode(node.path + (outcome.detector,), node.amplitude_weight * probability,
                           outcome.post_state, outcome.post_coefficients, node.depth + 1,
                           outcome.classification)
        node.children.append(child)
        if child_table is not None:
            _grow(child, child_table)


def enumerate_tree(c: WCoefficients, k_alice: int, k_charlie: int) -> BranchNode:
    """Exhaustively enumerate the protocol tree to the given depths.

    Every detector gets its own child (no merging); each depth must be at
    most :data:`MAX_TREE_ROUNDS`, checked on entry (:class:`DomainError`
    otherwise), and ``k_charlie`` may be 0 for a first-station-only tree, whose
    successes end as ALICE_SUCCESS leaves.  Rounds run on the ideal gate.  The
    nodes grow from :func:`_root_table`'s round tables, whose success records
    they do not read, so the subtrees under a detector pair's two nodes share
    immutable ``WState`` and ``WCoefficients`` objects.
    """
    _check_depths(k_alice, k_charlie)
    table, _ = _root_table(c, k_alice, k_charlie)
    root = BranchNode(path=(), amplitude_weight=1.0, state=prepare_w_state(c), coefficients=c, depth=0)
    _grow(root, table)
    return root


@dataclass(frozen=True)
class ComparisonReport:
    """One closed-form value next to its amplitude-derived counterpart."""

    quantity: str
    point: tuple[float, float, float]
    analytic: float
    simulated: float
    tolerance: float

    @property
    def abs_error(self) -> float:
        return abs(self.analytic - self.simulated)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance

    def to_json_obj(self) -> dict:
        return {
            "quantity": self.quantity,
            "point": list(self.point),
            "analytic": self.analytic,
            "simulated": self.simulated,
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def simplex_grid(n: int) -> list[WCoefficients]:
    """n x n grid of strictly interior coefficient triples.

    The grid is the image of a uniform (u, v) lattice under
    ``(a1^2, a2^2, a3^2) = (u, (1-u) v, (1-u)(1-v))``; n = 1 gives the
    symmetric triple by rule, not the lattice's point (1/2, 1/4, 1/4).
    """
    if not _is_count(n):
        raise DomainError(f"grid size must be an int, not {type(n).__name__}")
    if n < 1:
        raise DomainError("grid size must be at least 1")
    if n > MAX_GRID:
        raise DomainError(f"grid size must be at most {MAX_GRID}")
    if n == 1:
        return [WCoefficients.symmetric()]
    points = []
    for i in range(n):
        u = (i + 1) / (n + 1)
        for j in range(n):
            v = (j + 1) / (n + 1)
            points.append(
                WCoefficients.normalized(
                    (u) ** 0.5, ((1 - u) * v) ** 0.5, ((1 - u) * (1 - v)) ** 0.5
                )
            )
    return points


def _tree_masses(
    c: WCoefficients, k_alice: int, k_charlie: int
) -> tuple[dict[int, float], dict[int, float], float]:
    """Amplitude-route success masses: per-round station-1 mass, per-round
    station-2 mass (conditional on station-1 success), and the depth-(1,1)
    joint mass.  Each mass adds its slot's records (:func:`_root_table`) from
    0.0 in pre-order, so it adds the node weights of ``enumerate_tree``'s tree
    in its pre-order."""
    root, records = _root_table(c, k_alice, k_charlie)
    at = [0.0] * (k_alice + k_charlie)  # station-1 rounds, then station-2 rounds
    for slot, mass in records:
        at[slot] += mass
    alice_at = dict(zip(range(1, k_alice + 1), at))
    charlie_at = dict(zip(range(1, k_charlie + 1), at[k_alice:]))
    first_round_joint = _left_sum(  # a depth-1 node's weight is 1.0 * probability, its probability
        probability * p
        for probability, success, child, _ in root if success and child is not None
        for p, joint_success, _, _ in child if joint_success
    )
    alice_total = _left_sum(alice_at.values())
    if alice_total > 0.0:
        charlie_at = {k: v / alice_total for k, v in charlie_at.items()}
    return alice_at, charlie_at, first_round_joint


_ROUND_COMPARISONS = 4


def compare_all(
    grid: list[WCoefficients],
    depths: tuple[int, int] = (4, 4),
    tolerance: float = 1e-10,
    cavity: CavityParams | None = None,
) -> list[ComparisonReport]:
    """Compare closed forms against exhaustive enumeration over a grid.

    Covers the per-round success probabilities of both stations (up to four
    rounds), the one-round joint probability, and, when a cavity is given, the
    three lossy one-round quantities of the as-published model in its
    denominator convention, taken from the first round of each station chain
    that a run with that cavity computes (``protocol._stage_chains``).  The
    cavity is evaluated once per call, not per grid point.  Both sides of a
    lossy row scale by the same signal fraction, so those rows do not check the
    loss model itself.  A comparison passes when its absolute error is at most
    ``tolerance``, which must be finite and nonnegative.  The depths are
    checked on entry, for an empty grid too (:class:`DomainError` for either).
    """
    if not (isinstance(depths, tuple) and len(depths) == 2 and all(map(_is_count, depths))):
        raise DomainError("depths must be a tuple of two ints")
    if not _is_real(tolerance):
        raise DomainError(f"tolerance must be a real number within the float range, not {type(tolerance).__name__}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise DomainError(f"tolerance {tolerance} must be finite and nonnegative")
    k_alice, k_charlie = depths
    _check_depths(k_alice, k_charlie)
    reports: list[ComparisonReport] = []

    def report(*row) -> None:  # quantity, point, analytic, simulated
        reports.append(ComparisonReport(*row, tolerance))

    sc = None if cavity is None else scatter_coefficients(cavity)
    for c in grid:
        alice_at, charlie_at, joint = _tree_masses(c, k_alice, k_charlie)  # refuses a c of another type
        point = tuple(c)
        for k in range(1, min(_ROUND_COMPARISONS, k_alice) + 1):
            report(f"p1_round[k={k}]", point, analytics.p1_round(k, c), alice_at[k])
        for k in range(1, min(_ROUND_COMPARISONS, k_charlie) + 1):
            report(f"p2_round[k={k}]", point, analytics.p2_round(k, c), charlie_at[k])
        if k_charlie >= 1:
            report("pt_one_round", point, analytics.pt_one_round(c), joint)

        if sc is not None:
            # each station's first-round success mass
            sim_p1, sim_p2 = (
                _left_sum(o.probability for o in stages[0] if o.classification is plan.success_class)
                for plan, stages in _stage_chains(c, 1, 1, sc)
            )
            report("p1_practical", point, analytics.practical_p1(c, sc), sim_p1)
            report("p2_practical", point, analytics.practical_p2(c, sc), sim_p2)
            report("p_practical", point, analytics.practical_total(c, sc), sim_p1 * sim_p2)
    return reports
