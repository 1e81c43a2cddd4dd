"""The composed reference route of one station round, W-sector converters, and
the exhaustive tree by plain recursion.

``reference_round`` composes ``StateVector.tensor_with_photon``,
``apply_ebs_gate``, ``hwp45``, ``detect`` and ``phase_correction`` step by
step, each building its own general state with the ``DEFAULT_TOLERANCE`` drop.
``alice_round`` and ``charlie_round`` fold the same steps into one pass over a
``WState``; ``test_round_equivalence.py`` checks that the two agree bit for
bit.  ``reference_tree`` builds the tree of ``enumerate_tree`` with a round
at every internal node and nothing reused, and ``reference_masses`` sums the
success masses of ``compare_all`` over its nodes.  ``exact_masses`` gives the same
masses of the ideal tree as exact fractions.  ``philox_words`` is
Philox4x64-10 in plain Python, the raw word stream of ``np.random.Philox``.
``reference_sample_branches`` is the Monte Carlo sampler that
``ecpsim.sampling`` replaced: active index sets, ``np.searchsorted`` on float
uniforms and packed-key path counting with ``np.unique``.
``reference_round_one`` and ``reference_sweep`` are the round-1 closed forms
and the sweep loop that ``ecpsim.analytics`` folded into one kernel over the
whole curve: one call per point, ``max`` and ``min`` for the larger of each
pair, and a ``WCoefficients`` built to check each point.
``reference_p1_round`` and ``reference_p2_round`` are the round-k closed forms
with each round's denominator rebuilt from its first factor.
``lossy_chain_total`` is the as-published lossy chain's total from the closed
round terms, with no amplitude code.  ``limit_rounds`` gives each station's
rounds and total from the limit of the repeated protocol, L_i, q_i and R_K.
No command-line route runs this code, so it lives with the tests.
"""

import math
import sys
from fractions import Fraction
from functools import reduce
from operator import add

from ecpsim import (
    BasisKet,
    BranchNode,
    DegenerateCoefficientsError,
    DetectorLabel,
    Direction,
    EcpError,
    OutcomeClass,
    PhotonLabel,
    Polarization,
    RoundOutcome,
    ShapeMismatchError,
    SpinLabel,
    StateVector,
    Station,
    WCoefficients,
    WState,
    alice_round,
    charlie_round,
    coefficient_update_alice,
    coefficient_update_charlie,
    p1_round,
    p2_round,
    prepare_w_state,
)
from ecpsim.analytics import CurvePoint
from ecpsim.cavity import apply_ebs_gate, detect, hwp45, scatter_coefficients
from ecpsim.protocol import _ALICE_PLAN, _CHARLIE_PLAN, BranchRecord, _code

# The ket of each WState slot.
W_KETS = tuple(BasisKet.from_spins(pattern) for pattern in WState._fields)


def to_state_vector(state: WState) -> StateVector:
    """The general state holding the kept terms of ``state``: a zero amplitude
    is a dropped term, so it has no ket."""
    return StateVector({ket: amp for ket, amp in zip(W_KETS, state) if amp})


def to_w_state(state: StateVector) -> WState:
    """The W-sector view of ``state``; its amplitudes are taken over unchanged,
    and a ket it does not hold is ``0j``."""
    terms = dict(state.items())
    if not terms.keys() <= set(W_KETS):
        raise ShapeMismatchError("state leaves the W sector")
    return WState(*(terms.get(ket, 0j) for ket in W_KETS))


# -- ancilla photons ---------------------------------------------------------------


def _photon(amp_r: float, amp_l: float) -> StateVector:
    n = math.hypot(amp_r, amp_l)
    if n == 0.0:
        raise DegenerateCoefficientsError("photon amplitudes are both zero")
    return StateVector(
        {
            BasisKet(PhotonLabel(Polarization.R, Direction.MINUS_Z), ()): amp_r / n,
            BasisKet(PhotonLabel(Polarization.L, Direction.MINUS_Z), ()): amp_l / n,
        }
    )


def alice_photon(coefficients: WCoefficients) -> StateVector:
    """Ancilla for the first station: amplitudes proportional to (a1, a2)."""
    return _photon(coefficients.a1, coefficients.a2)


def charlie_photon(coefficients: WCoefficients) -> StateVector:
    """Ancilla for the second station: amplitudes proportional to (a2, a3)."""
    return _photon(coefficients.a2, coefficients.a3)


# -- measurement corrections ---------------------------------------------------------


class UnknownDetectorError(EcpError):
    """A phase correction was requested for a detector that needs none."""


# Which spin the correcting party rotates, per even detector.
_CORRECTION_SPIN = {
    DetectorLabel.D2: 0,
    DetectorLabel.D4: 0,
    DetectorLabel.D6: 2,
    DetectorLabel.D8: 2,
}


def phase_correction(state: StateVector, detector: DetectorLabel) -> StateVector:
    """Undo the V-port sign flip by a phase rotation on the gated spin.

    Even detectors herald a state with exactly one sign flipped relative to
    the all-positive form; flipping the phase of the DOWN component of the
    spin that passed the gate restores it (up to global phase).  Odd
    detectors need no correction and are rejected.
    """
    try:
        index = _CORRECTION_SPIN[detector]
    except KeyError:
        raise UnknownDetectorError(f"{detector.value} heralds no correction") from None
    flipped = {
        ket: (-amp if ket.spins[index] is SpinLabel.DOWN else amp) for ket, amp in state.items()
    }
    return StateVector(flipped)


# -- one round ---------------------------------------------------------------------


def reference_round(state, c, scatter, station):
    """One round on the general ``StateVector`` ``state``; post-states are
    ``StateVector`` too.  ``scatter`` is the lossy gate's
    ``ScatterCoefficients``, or ``None`` for the ideal gate."""
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
    if scatter is not None:
        factor = (
            scatter.transmitted_signal_fraction
            if station is Station.ALICE
            else scatter.reflected_signal_fraction
        )
        # Left to right from 0.0, as the package adds; built-in sum() compensates
        # float sums from Python 3.12 on.
        p_succ = reduce(add, (o.probability for o in outcomes if o.classification is success_class), 0.0)
        p_retry = reduce(add, (o.probability for o in outcomes if o.classification is retry_class), 0.0)
        retry_scale = (1.0 - factor * p_succ) / p_retry if p_retry > 0.0 else 0.0
        outcomes = [
            o._replace(
                probability=o.probability
                * (factor if o.classification is success_class else retry_scale),
            )
            for o in outcomes
        ]
    return outcomes


# -- the exhaustive tree ---------------------------------------------------------------


def reference_tree(c: WCoefficients, k_alice: int, k_charlie: int) -> BranchNode:
    """The tree ``enumerate_tree(c, k_alice, k_charlie)`` gives, by plain
    recursion: every internal node runs its own round, and no outcome is
    reused between nodes."""
    stations = [(alice_round, k_alice, OutcomeClass.ALICE_SUCCESS)]
    if k_charlie > 0:
        stations.append((charlie_round, k_charlie, OutcomeClass.CHARLIE_SUCCESS))

    def expand(node, station, rounds_left):
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

    root = BranchNode(
        path=(), amplitude_weight=1.0, state=prepare_w_state(c), coefficients=c, depth=0
    )
    expand(root, 0, k_alice)
    return root


def preorder(node: BranchNode):
    """Every node under ``node`` in pre-order, by recursion."""
    yield node
    for child in node.children:
        yield from preorder(child)


def reference_masses(root: BranchNode, k_alice: int, k_charlie: int):
    """Per-round station-1 masses, per-round station-2 masses conditional on
    station-1 success, and the depth-(1, 1) joint mass, summed over the nodes
    under ``root`` in pre-order."""
    alice_at = {k: 0.0 for k in range(1, k_alice + 1)}
    charlie_at = {k: 0.0 for k in range(1, k_charlie + 1)}
    joint = 0.0
    alice_rounds = 0  # of the first-station success the next nodes descend from
    for node in preorder(root):
        if node.classification is OutcomeClass.ALICE_SUCCESS:
            alice_at[node.depth] += node.amplitude_weight
            alice_rounds = node.depth
        elif node.classification is OutcomeClass.CHARLIE_SUCCESS:
            charlie_at[node.depth - alice_rounds] += node.amplitude_weight
            if node.depth == 2:
                joint += node.amplitude_weight
    alice_total = reduce(add, alice_at.values(), 0.0)
    if alice_total > 0.0:
        charlie_at = {k: v / alice_total for k, v in charlie_at.items()}
    return alice_at, charlie_at, joint


def _exact_chain(plan, photon_pair, retry_map, state, coefficients, rounds):
    """Per-round success masses of one station's ideal chain, its first round's
    success post-state, and the least square met, on squares in and out.

    A pair's detector holds, per landing of ``plan.pairs``, half the photon
    square times the slot square (the wave plate's 1/sqrt(2), squared); the
    pair's mass is twice its detector's, and a retry goes on from the retry
    detector's squares over their sum, with the coefficients' ``retry_map``.
    """
    masses, reach, success_state = [], Fraction(1), None
    smallest = min(state)
    for _ in range(rounds):
        pair = photon_pair(coefficients)
        photon = [p / sum(pair) for p in pair]
        smallest = min(smallest, *photon)
        for _, _, success, landings in plan.pairs:
            squares = [Fraction(0)] * 3
            for slot, pol, _, _ in landings:
                squares[slot] = photon[pol] * state[slot] / 2
            detector = sum(squares)
            post = [s / detector for s in squares]
            smallest = min(smallest, *squares, *post)
            if success:
                masses.append(reach * 2 * detector)
                if success_state is None:
                    success_state = post
            else:
                retry_mass, retry_state = 2 * detector, post
        reach, state, coefficients = reach * retry_mass, retry_state, retry_map(coefficients)
    return masses, success_state, smallest


def _over_sum(*squares):
    total = sum(squares)
    return [s / total for s in squares]


def exact_masses(c: WCoefficients, k_alice: int, k_charlie: int):
    """Per-round station-1 masses and per-round station-2 masses conditional
    on station-1 success, as :class:`Fraction`s, of the ideal tree with no
    amplitude drop, and the least square of a photon amplitude, landing or
    post-state amplitude on the way: where it is below the square of the
    1e-12 drop, the float tree drops what this route keeps.

    Every ideal mass is rational in the squared coefficients: no detector sums
    two landings of one slot, so squares never meet cross terms.  The route
    starts from the squares of the float coefficients, in the ``WState`` slots
    (a3, a2, a1), and applies the maps as stated on squares: the first
    station's retry (a1^2, a2^2, a2 a3) and success (a2, a2, a3), the second
    station's retry (a2^2, a2^2, a3^2), each normalized.  Every first-station
    success leaves the same squares, so the second station's chain runs once,
    from the first round's.  Nothing comes from ``analytics``.
    """
    x1, x2, x3 = (Fraction(a) ** 2 for a in c)
    alice, success_state, smallest = _exact_chain(
        _ALICE_PLAN, lambda x: x[:2], lambda x: _over_sum(x[0] ** 2, x[1] ** 2, x[1] * x[2]),
        [x3, x2, x1], [x1, x2, x3], k_alice)
    charlie, _, charlie_smallest = _exact_chain(
        _CHARLIE_PLAN, lambda x: x[1:], lambda x: _over_sum(x[1] ** 2, x[1] ** 2, x[2] ** 2),
        success_state, _over_sum(x2, x2, x3), k_charlie)
    return dict(enumerate(alice, 1)), dict(enumerate(charlie, 1)), min(smallest, charlie_smallest)


_MASK64 = (1 << 64) - 1


def philox_words(key, start, n):
    """Words ``start`` to ``start + n - 1`` of ``np.random.Philox(key=key)``'s
    raw stream, by Philox4x64-10 (Salmon et al., SC'11) with no numpy.  numpy
    adds one to the 256-bit counter before each block of 4 words, so word i
    comes from the block at counter i // 4 + 1; the 128-bit key is its low and
    high 64-bit words."""
    words = []
    for counter in range(start // 4 + 1, (start + n + 3) // 4 + 1):
        c = [(counter >> shift) & _MASK64 for shift in (0, 64, 128, 192)]
        k0, k1 = key & _MASK64, key >> 64
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
            c = [(p1 >> 64) ^ c[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ c[3] ^ k1, p0 & _MASK64]
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
        words += c
    return words[start % 4 : start % 4 + n]


# Paths are counted on int64 keys holding 4 bits per stage (detector number,
# or 0 where the shot had already stopped), first stage most significant, so
# key order is the lexicographic order of the paths.  Stages are folded in
# blocks: a block's key is the rank of the path prefix before it, shifted past
# the block's 44 bits, with the block's codes in those bits.  A rank is below
# the chunk size, so a key fits in 16 + 44 = 60 bits.
_BLOCK = 11
_BLOCK_BITS = 4 * _BLOCK


def _count_paths(paths):
    """Distinct rows of ``paths`` in lexicographic order, and how often each occurs."""
    import numpy as np

    rank = np.zeros(len(paths), dtype=np.int64)
    for start in range(0, paths.shape[1], _BLOCK):
        key = rank << _BLOCK_BITS
        for j, column in enumerate(paths[:, start : start + _BLOCK].T):
            key |= column.astype(np.int64) << (_BLOCK_BITS - 4 * (j + 1))
        unique, rank = np.unique(key, return_inverse=True)
    # Shots of one rank share their whole row, so any of them can stand for it.
    rows = np.empty((len(unique), paths.shape[1]), dtype=paths.dtype)
    rows[rank] = paths
    return rows.tolist(), np.bincount(rank)


def reference_sample_branches(config, chains):
    """``ecpsim.sampling._sample_branches`` as it was before the comparison
    choice and prefix-node counting: per stage, the still-active shots look
    their uniform up in the cumulative table with ``np.searchsorted``, every
    shot's detector numbers go into an int8 matrix, and each chunk of 2^16
    shots has its distinct rows counted by packed keys.

    It draws its uniforms with ``np.random.Generator(Philox).random`` and
    compares floats on purpose: the sampler compares raw words with integer
    thresholds, so this is the independent side that numpy's own conversion
    of a word to a float checks it against."""
    import numpy as np

    chunk = 1 << 16  # a prefix rank must fit in the key's top 16 bits
    tables = [
        (
            [np.cumsum([o.probability for o in st]) for st in stages],
            [np.array([o.classification is plan.success_class for o in st]) for st in stages],
            [np.array([_code(o.detector) for o in st]) for st in stages],
        )
        for plan, stages in chains
    ]
    n_stages = sum(len(stages) for _, stages in chains)
    code_class = {_code(o.detector): o.classification for _, stages in chains for st in stages for o in st}

    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))
    path_counts = {}

    remaining = config.n_shots
    while remaining > 0:
        n = min(remaining, chunk)
        remaining -= n
        u = rng.random((n, n_stages))
        paths = np.zeros((n, n_stages), dtype=np.int8)
        arrived = np.arange(n)
        col = 0
        for cum, success, codes in tables:
            active = arrived
            passed = []
            for k in range(len(cum)):
                if active.size == 0:
                    break
                choice = np.searchsorted(cum[k], u[active, col + k], side="right")
                np.clip(choice, 0, cum[k].size - 1, out=choice)
                paths[active, col + k] = codes[k][choice]
                won = success[k][choice]
                passed.append(active[won])
                active = active[~won]
            col += len(cum)
            arrived = np.concatenate(passed) if passed else np.empty(0, dtype=int)

        rows, counts = _count_paths(paths)
        for row, count in zip(rows, counts.tolist()):
            key = tuple(row)
            path_counts[key] = path_counts.get(key, 0) + count

    branches = []
    for row, count in sorted(path_counts.items()):
        codes = [code for code in row if code]
        branches.append(
            BranchRecord(
                path=tuple(f"D{code}" for code in codes),
                probability=count / config.n_shots,
                classification=code_class[codes[-1]],
                count=count,
            )
        )
    counts = {cls.value: 0 for cls in OutcomeClass}
    for branch in branches:
        counts[branch.classification.value] += branch.count
    total = counts[chains[-1][0].success_class.value] / config.n_shots
    return branches, counts, total


# -- round-1 closed forms and the sweep ------------------------------------------------

_NORMAL_MIN = sys.float_info.min


def reference_round_one(a1: float, a2: float, a3: float) -> tuple[float, float, float]:
    """``(p1_round(1, c), p2_round(1, c), pt_one_round(c))`` for ``c = (a1, a2, a3)``,
    in one call and bit for bit: the same operations, less the exact factors 1.0.

    Every factor of pt's numerator after 3.0 is a coefficient, at most 1, so the
    running product only shrinks: where it ends at or above the smallest normal
    float, no step underflowed.  Below that, the squares are taken relative to
    the larger coefficient of each pair, so a normal-range total is not lost.
    """
    sq2, sq3 = a2 * a2, a3 * a3
    weight = sq3 + 2.0 * a2 * a2
    m = max(a1, a2)
    if m == 0.0:
        p1 = 0.0
    else:
        s1 = (a1 / m) ** 2
        p1 = s1 * weight / (s1 + (a2 / m) ** 2)
    m = max(a2, a3)
    if m == 0.0:
        p2 = 0.0
    else:
        r = min(a2, a3) / m
        b2, b3 = a2, a3
        if m * m < _NORMAL_MIN:
            b2, b3, m = a2 / m, a3 / m, 1.0
            weight = b3 * b3 + 2.0 * b2 * b2
        numerator, denominator = 3.0 * m * m * r**2, weight * ((b2 / m) ** 2 + (b3 / m) ** 2)
        if numerator < _NORMAL_MIN:  # the round, taken relative to m^2
            p2 = 3.0 * r**2 / (denominator / (m * m))
        else:
            p2 = numerator / denominator
    numerator = 3.0 * a1 * a1 * a2 * a2 * a3 * a3
    if numerator >= _NORMAL_MIN:
        pt = numerator / ((a1 * a1 + sq2) * (sq3 + sq2))
    elif a2 == 0.0:
        pt = 0.0
    else:
        m1, m2 = max(a1, a2), max(a2, a3)
        u1, u2, v2, v3 = a1 / m1, a2 / m1, a2 / m2, a3 / m2
        pt = 3.0 * u1 * u1 * v3 * v3 * a2 * a2 / ((u1 * u1 + u2 * u2) * (v3 * v3 + v2 * v2))
    return p1, p2, pt


def reference_p1_round(k: int, c: WCoefficients) -> float:
    """``p1_round(k, c)`` in the form that ``analytics`` folded into one running
    product: the k factors of the denominator multiplied afresh for each k."""
    a1, a2, a3 = c
    m = max(a1, a2)
    if m == 0.0:
        return 0.0
    r1, r2 = a1 / m, a2 / m
    power = 2**k
    numerator = (r1**power) * (r2 ** (power - 2)) * (a3 * a3 + 2.0 * a2 * a2)
    denominator = 1.0
    for j in range(1, k + 1):
        denominator *= r1 ** (2**j) + r2 ** (2**j)
    return numerator / denominator


def reference_p2_round(k: int, c: WCoefficients) -> float:
    """``p2_round(k, c)`` in the form that ``analytics`` folded into one running
    product: the k factors of the denominator multiplied afresh for each k."""
    a2, a3 = c.a2, c.a3
    m = max(a2, a3)
    if m == 0.0:
        return 0.0
    r = min(a2, a3) / m
    if m * m < _NORMAL_MIN:
        a2, a3, m = a2 / m, a3 / m, 1.0
    power = 2**k
    denominator = a3 * a3 + 2.0 * a2 * a2
    for j in range(1, k + 1):
        denominator *= (a2 / m) ** (2**j) + (a3 / m) ** (2**j)
    numerator = 3.0 * m * m * (r**power)
    if numerator < _NORMAL_MIN:  # the round, taken relative to m^2
        return 3.0 * (r**power) / (denominator / (m * m))
    return numerator / denominator


def reference_sweep(spec):
    """``ecpsim.analytics.sweep`` as one call of :func:`reference_round_one` per
    point, each point checked by building its ``WCoefficients``."""
    lo, hi = spec.alpha1_range
    n, a2 = spec.n_points, spec.alpha2
    if spec.cavity is not None:
        sc = scatter_coefficients(spec.cavity)
        f1, f2 = sc.transmitted_signal_fraction, sc.reflected_signal_fraction
    else:
        f1 = None

    points = []
    for i in range(n):
        x = lo if n == 1 else lo + i * (hi - lo) / (n - 1)
        a3 = math.sqrt(max(0.0, 1.0 - x * x - a2 * a2))
        WCoefficients(x, a2, a3)  # refuses a point that is not a state
        p1, p2, pt = reference_round_one(x, a2, a3)
        if f1 is None:
            points.append(CurvePoint(x, a2, a3, p1, p2, pt, p1, p2, pt))
        else:
            points.append(CurvePoint(x, a2, a3, p1, p2, pt, p1 * f1, p2 * f2, pt * f1 * f2))
    return points


# -- the as-published lossy chain in closed form -----------------------------------


def lossy_chain_total(c, scatter, k_alice, k_charlie):
    """The as-published lossy total within ``(k_alice, k_charlie)`` rounds, from
    ``p1_round``/``p2_round`` and the two ports' signal fractions alone.

    With p(k) a station's ideal round-k term, s_k = p(k)/(1 − Σ_{j<k} p(j)) is
    its ideal success given round k is reached.  A lossy round succeeds with
    f·s_k, f the port's signal fraction, and retries otherwise, so the station
    succeeds within K rounds with Σ_{k≤K} f·s_k·Π_{j<k}(1 − f·s_j); the total
    is the product over the two stations.
    """
    total = 1.0
    for p_round, f, rounds in (
        (p1_round, scatter.transmitted_signal_fraction, k_alice),
        (p2_round, scatter.reflected_signal_fraction, k_charlie),
    ):
        success, reach, done = 0.0, 1.0, 0.0
        for k in range(1, rounds + 1):
            p = p_round(k, c)
            s = p / (1.0 - done)
            success += reach * f * s
            reach *= 1.0 - f * s
            done += p
        total *= success
    return total


# -- the repeated protocol's limit ---------------------------------------------------


def _retry_share(K: int, q: float, d: float) -> float:
    """R_K(q) = (1 − q) q^(2^K − 1)/(1 − q^(2^K)), the share of a station's
    limit L left after K failed rounds, from q and d = 1 − q; R_0 = 1 and
    R_K(1) = 2^−K.  From q = 1/2 up, the powers are exp and expm1 of
    multiples of ln q = log1p(−d), so neither 1 − q nor 1 − q^(2^K) cancels;
    below, q^(2^K) <= 1/4 and the powers are taken as they stand."""
    if K == 0:
        return 1.0
    if d == 0.0:
        return 2.0**-K
    if q < 0.5:
        return d * q ** (2**K - 1) / (1.0 - q ** 2**K)
    lq = math.log1p(-d)
    return d * math.exp((2**K - 1) * lq) / -math.expm1(2**K * lq)


def _station_limit(limit: float, lo: float, hi: float, k_max: int) -> tuple[list[float], float]:
    """Rounds 1..k_max, L (R_{k−1}(q) − R_k(q)), and the success within k_max
    rounds, L (1 − R_{k_max}(q)), of a station with limit L = ``limit`` and
    q = (lo/hi)^2, 0 <= lo <= hi; all zero where the pair is."""
    if hi == 0.0:
        return [0.0] * k_max, 0.0
    t = lo / hi
    d = (hi - lo) / hi * ((hi + lo) / hi)  # 1 − q, with hi − lo exact from q = 1/4 up
    shares = [_retry_share(K, t * t, d) for K in range(k_max + 1)]
    rounds = [limit * (shares[k - 1] - shares[k]) for k in range(1, k_max + 1)]
    return rounds, limit * (1.0 - shares[k_max])


def limit_rounds(c: WCoefficients, k_max: int) -> tuple[tuple[list[float], float], ...]:
    """``(rounds 1..k_max, success within k_max rounds)`` of each station, from
    the repeated protocol's limit rather than the per-round ratios of
    ``analytics``.

    With x, y, z = a1², a2², a3², the first station succeeds over unbounded
    rounds with L1 = (z + 2y) min(1, x/y), and each of its retries squares
    q1 = min(x, y)/max(x, y); the second station's limit is
    L2 = 3 min(y, z)/(z + 2y), and its retries square q2 = min(y, z)/max(y, z).
    After K failed rounds the share R_K(q) = (1 − q) q^(2^K − 1)/(1 − q^(2^K))
    of L is left (R_0 = 1, R_K(1) = 2^−K), so round k's term is
    L (R_{k−1}(q) − R_k(q)) and the success within K rounds is L (1 − R_K(q)).
    Since R_k ≤ R_{k−1}/2, the difference costs at most a factor of 3 in
    relative error.  q and 1 − q come from each pair's ratio, and L2 from
    ratios to its pair's larger coefficient.
    """
    a1, a2, a3 = c
    weight = a3 * a3 + 2.0 * a2 * a2
    l1 = weight if a1 >= a2 else weight * (a1 / a2) ** 2
    hi = max(a2, a3)
    l2 = 3.0 * (min(a2, a3) / hi) ** 2 / ((a3 / hi) ** 2 + 2.0 * (a2 / hi) ** 2) if hi else 0.0
    return (_station_limit(l1, min(a1, a2), max(a1, a2), k_max),
            _station_limit(l2, min(a2, a3), hi, k_max))
