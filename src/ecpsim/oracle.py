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
from .cavity import CavityParams, DenominatorConvention, DetectorLabel, scatter_coefficients
from .errors import DomainError
from .protocol import (
    GateMode,
    OutcomeClass,
    WCoefficients,
    WState,
    alice_round,
    charlie_round,
    first_success,
    prepare_w_state,
)


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
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator[BranchNode]:
        for node in self.walk():
            if not node.children:
                yield node


def enumerate_tree(c: WCoefficients, k_alice: int, k_charlie: int) -> BranchNode:
    """Exhaustively enumerate the protocol tree to the given depths.

    Every detector gets its own child (no merging), so the tree grows
    exponentially; depths beyond about 6 rounds per station get slow.
    ``k_charlie`` may be 0 for a first-station-only tree, in which case the
    success branches terminate as ALICE_SUCCESS leaves.
    """
    if k_alice < 1:
        raise DomainError("k_alice must be at least 1")
    if k_charlie < 0:
        raise DomainError("k_charlie must be nonnegative")
    root = BranchNode(
        path=(),
        amplitude_weight=1.0,
        state=prepare_w_state(c),
        coefficients=c,
        depth=0,
    )

    # (round function, round limit, success class) per station; built per
    # call, so the round functions are looked up at run time.
    stations = [(alice_round, k_alice, OutcomeClass.ALICE_SUCCESS)]
    if k_charlie > 0:
        stations.append((charlie_round, k_charlie, OutcomeClass.CHARLIE_SUCCESS))

    def expand(node: BranchNode, station: int, rounds_left: int) -> None:
        round_fn, _, success_class = stations[station]
        for outcome in round_fn(node.state, node.coefficients):
            child = BranchNode(
                path=node.path + (outcome.detector,),
                amplitude_weight=node.amplitude_weight * outcome.probability,
                state=outcome.post_state,
                coefficients=outcome.post_coefficients,
                depth=node.depth + 1,
                classification=outcome.classification,
            )
            node.children.append(child)
            if outcome.classification is not success_class:
                if rounds_left > 1:
                    expand(child, station, rounds_left - 1)
            elif station + 1 < len(stations):
                expand(child, station + 1, stations[station + 1][1])

    expand(root, 0, k_alice)
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
    ``(a1^2, a2^2, a3^2) = (u, (1-u) v, (1-u)(1-v))``; for n = 1 it
    degenerates to the symmetric triple.
    """
    if n < 1:
        raise DomainError("grid size must be at least 1")
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
    root: BranchNode, k_alice: int, k_charlie: int
) -> tuple[dict[int, float], dict[int, float], float]:
    """Amplitude-route success masses: per-round station-1 mass, per-round
    station-2 mass (conditional on station-1 success), and the depth-(1,1)
    joint mass."""
    alice_at: dict[int, float] = {k: 0.0 for k in range(1, k_alice + 1)}
    charlie_at: dict[int, float] = {k: 0.0 for k in range(1, k_charlie + 1)}
    first_round_joint = 0.0
    # Pre-order visits every second-station node right after the first-station
    # success it descends from, so that success's depth counts its station-1 rounds.
    alice_rounds = 0
    for node in root.walk():
        if node.classification is OutcomeClass.ALICE_SUCCESS:
            alice_at[node.depth] += node.amplitude_weight
            alice_rounds = node.depth
        elif node.classification is OutcomeClass.CHARLIE_SUCCESS:
            charlie_at[node.depth - alice_rounds] += node.amplitude_weight
            if node.depth == 2:
                first_round_joint += node.amplitude_weight
    alice_total = sum(alice_at.values())
    if alice_total > 0.0:
        charlie_at = {k: v / alice_total for k, v in charlie_at.items()}
    return alice_at, charlie_at, first_round_joint


_ROUND_COMPARISONS = 4


def compare_all(
    grid: list[WCoefficients],
    depths: tuple[int, int] = (4, 4),
    tolerance: float = 1e-10,
    cavity: CavityParams | None = None,
    convention: DenominatorConvention = DenominatorConvention.VERBATIM,
) -> list[ComparisonReport]:
    """Compare closed forms against exhaustive enumeration over a grid.

    Covers the per-round success probabilities of both stations (up to four
    rounds), the one-round joint probability, and, when cavity parameters
    are given, the three lossy one-round quantities.  A comparison passes when
    its absolute error is at most ``tolerance``, which must be finite and
    nonnegative (:class:`DomainError` otherwise).
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise DomainError(f"tolerance {tolerance} must be finite and nonnegative")
    k_alice, k_charlie = depths
    rows: list[tuple[str, tuple[float, float, float], float, float]] = []
    lossy_mode = None
    if cavity is not None:
        sc = scatter_coefficients(cavity, convention=convention)
        lossy_mode = GateMode(cavity, convention)

    for c in grid:
        point = c.as_tuple()
        root = enumerate_tree(c, k_alice, k_charlie)
        alice_at, charlie_at, joint = _tree_masses(root, k_alice, k_charlie)
        for k in range(1, min(_ROUND_COMPARISONS, k_alice) + 1):
            rows.append((f"p1_round[k={k}]", point, analytics.p1_round(k, c), alice_at[k]))
        for k in range(1, min(_ROUND_COMPARISONS, k_charlie) + 1):
            rows.append((f"p2_round[k={k}]", point, analytics.p2_round(k, c), charlie_at[k]))
        if k_charlie >= 1:
            rows.append(("pt_one_round", point, analytics.pt_one_round(c), joint))

        if lossy_mode is not None:
            lossy_alice = alice_round(root.state, c, lossy_mode)
            sim_p1 = sum(
                o.probability
                for o in lossy_alice
                if o.classification is OutcomeClass.ALICE_SUCCESS
            )
            seed = first_success(root.children, OutcomeClass.ALICE_SUCCESS)
            lossy_charlie = charlie_round(seed.state, seed.coefficients, lossy_mode)
            sim_p2 = sum(
                o.probability
                for o in lossy_charlie
                if o.classification is OutcomeClass.CHARLIE_SUCCESS
            )
            rows.append(("p1_practical", point, analytics.practical_p1(c, sc), sim_p1))
            rows.append(("p2_practical", point, analytics.practical_p2(c, sc), sim_p2))
            rows.append(("p_practical", point, analytics.practical_total(c, sc), sim_p1 * sim_p2))
    return [
        ComparisonReport(quantity, point, analytic, simulated, tolerance)
        for quantity, point, analytic, simulated in rows
    ]
