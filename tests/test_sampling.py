"""The Monte Carlo sampler against the searchsorted and packed-key sampler it
replaced, its comparison rule for choosing a stage's outcome, its parts of a
chunk on threads against one part, and its branch counts against the exact
tree's probabilities."""

import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from reference import reference_sample_branches

import ecpsim.sampling as sampling
from ecpsim import InvalidCoefficientsError, ProtocolConfig, WCoefficients, run_protocol
from ecpsim.protocol import _stage_chains

# Tiny coefficients send whole detectors below the 1e-12 drop within a few
# rounds, so their stages are ragged: two outcomes instead of four.
coefficient = st.one_of(st.floats(0.01, 1.0), st.sampled_from([1e-6, 1e-5, 1e-3, 0.1]))


def sample_both(alpha, rounds, shots, seed):
    config = ProtocolConfig(
        max_rounds_alice=rounds[0],
        max_rounds_charlie=rounds[1],
        mode="mc",
        n_shots=shots,
        rng_seed=seed,
    )
    try:
        chains = _stage_chains(WCoefficients.normalized(*alpha), *rounds, None)
    except InvalidCoefficientsError:
        return None
    # Chunks of 4096 shots, so that larger runs span several.
    with mock.patch.object(sampling, "_CHUNK", 1 << 12):
        got = sampling._sample_branches(config, chains)
    return got, reference_sample_branches(config, chains)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.tuples(coefficient, coefficient, coefficient),
    rounds=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    shots=st.integers(1, 13_000),
    seed=st.integers(0, 2**64 - 1),
)
def test_sampler_matches_reference(alpha, rounds, shots, seed):
    both = sample_both(alpha, rounds, shots, seed)
    if both is None:
        reject()
    (branches, counts, total), (ref_branches, ref_counts, ref_total) = both
    assert branches == ref_branches
    assert counts == ref_counts
    assert total == ref_total


@pytest.mark.parametrize(
    "alpha, shots, seed",
    [
        ((0.8, 0.36, 0.48), 1, 0),
        ((0.8, 0.36, 0.48), 5_000, 3),
        ((1.0, 1e-3, 1.0), 600, 7),
        ((0.577, 0.577, 0.577), 9_000, 11),
    ],
)
def test_sampler_matches_reference_at_128_stages(alpha, shots, seed):
    (branches, counts, total), ref = sample_both(alpha, (64, 64), shots, seed)
    assert (branches, counts, total) == ref
    assert sum(b.count for b in branches) == shots


def assert_one_path(row, tables):
    """``row`` is a path a shot can take: in each station's columns, one of the
    stage's detectors per stage it reached, each a retry but the last, then
    zeros; its last detector there is a success, or a retry at the station's
    last stage, which ends the path and leaves later stations' columns zero."""
    col, live = 0, True
    for cum, success, codes in tables:
        block = row[col:col + len(cum)]
        col += len(cum)
        stop = next((k for k, code in enumerate(block) if code == 0), len(block))
        assert not any(block[stop:]), row
        if not live:
            assert stop == 0, row
            continue
        assert stop >= 1, row
        won = [success[k][list(codes[k]).index(code)] for k, code in enumerate(block[:stop])]
        assert not any(won[:-1]), row
        assert won[-1] or stop == len(block), row
        live = won[-1]
    assert col == len(row)


@pytest.mark.parametrize(
    "alpha, rounds, shots, seed",
    [
        # ragged stages in both stations: four outcomes, then two
        ((1e-6, 1e-5, 1.0), (6, 6), 20_000, 4),
        ((0.8, 0.36, 0.48), (64, 64), 20_000, 5),
        ((1.0, 1e-3, 1.0), (64, 64), 5_000, 6),
    ],
)
def test_walk_chunk_gives_each_finished_path_once(alpha, rounds, shots, seed):
    chains = _stage_chains(WCoefficients.normalized(*alpha), *rounds, None)
    tables = [sampling._stage_tables(stages, plan.success_class) for plan, stages in chains]
    u = np.random.Generator(np.random.Philox(key=seed)).random((shots, sum(len(s) for _, s in chains)))
    rows, counts = sampling._walk_chunk(u, tables)
    assert len({tuple(row) for row in rows}) == len(rows) == len(counts)
    assert sum(counts) == shots
    assert min(counts) >= 1
    for row in rows:
        assert_one_path(row, tables)


# -- parts of a chunk -------------------------------------------------------------------


@pytest.mark.parametrize("n_stages", range(1, 14))
def test_rows_drawn_from_any_start_are_a_slice_of_one_draw(n_stages):
    # 4 words per Philox counter step: start * n_stages % 4 takes every value.
    seed = 2**128 - 1
    block = np.random.Generator(np.random.Philox(key=seed)).random((70, n_stages))
    for start in range(65):
        rows = sampling._rows(seed, start, start + 6, n_stages)
        assert rows.tobytes() == block[start:start + 6].tobytes(), start


def chains_of(n_stages, alpha=(0.8, 0.36, 0.48)):
    """Stage chains with ``n_stages`` stages in all: the first station's one
    round alone, or the rounds split between the two stations."""
    coefficients = WCoefficients.normalized(*alpha)
    if n_stages == 1:
        return _stage_chains(coefficients, 1, 1, None)[:1]
    return _stage_chains(coefficients, n_stages // 2, n_stages - n_stages // 2, None)


def sample_in_parts(config, chains, cpus, min_part, chunk):
    """``_sample_branches`` with ``cpus`` usable CPUs, parts of at least
    ``min_part`` rows and chunks of ``chunk`` shots, and the (start, stop) of
    each part it drew, in order."""
    drawn = []
    rows = sampling._rows

    def recording_rows(seed, start, stop, n_stages):
        drawn.append((start, stop))
        return rows(seed, start, stop, n_stages)

    with mock.patch.multiple(sampling, _usable_cpus=lambda: cpus, _MIN_PART=min_part, _CHUNK=chunk,
                             _rows=recording_rows):
        got = sampling._sample_branches(config, chains)
    return got, sorted(drawn)


PART_COUNTS = [1, 2, 3, 5, 7]
# Three chunks of 256 shots, which no part count but 1 divides, and one of 43,
# which splits into two parts of at least 16 rows.
PART_SHOTS, PART_CHUNK, PART_MIN = 811, 256, 16


# Chains of 1 to 13 stages, so start * n_stages % 4 takes every value; ragged
# stages in both stations (four outcomes, then two); and the chain-end triple,
# whose first station's chain ends at round 1.
PART_CHAINS = [pytest.param(n, (0.8, 0.36, 0.48), None, id=f"{n}-stages") for n in range(1, 14)] + [
    pytest.param(12, (1e-6, 1e-5, 1.0), (6, 6), id="ragged"),
    pytest.param(4, (1e-180, 1e-200, 1.0), (3, 3), id="chain-end"),
]


@pytest.mark.parametrize("n_stages, alpha, rounds", PART_CHAINS)
def test_any_part_count_gives_the_one_part_result(n_stages, alpha, rounds):
    if rounds is None:
        chains = chains_of(n_stages, alpha)
    else:
        chains = _stage_chains(WCoefficients.normalized(*alpha), *rounds, None)
    assert sum(len(stages) for _, stages in chains) == n_stages
    config = ProtocolConfig(mode="mc", n_shots=PART_SHOTS, rng_seed=n_stages)
    one = sampling._sample_branches(config, chains)
    assert one == reference_sample_branches(config, chains)
    for cpus in PART_COUNTS:
        got, drawn = sample_in_parts(config, chains, cpus, PART_MIN, PART_CHUNK)
        assert got == one, cpus
        # The parts tile the shots, cpus of them in each full chunk.
        assert [start for start, _ in drawn] == [0, *(stop for _, stop in drawn[:-1])]
        assert drawn[-1][1] == PART_SHOTS
        per_chunk = [sum(start // PART_CHUNK == chunk for start, _ in drawn) for chunk in range(4)]
        assert per_chunk == [cpus, cpus, cpus, min(cpus, 2)]


def test_a_full_chunk_in_two_parts_gives_the_one_part_result():
    # The sampler's own chunk and part sizes: 65 536 rows in two parts, then
    # 4 464 in one, on two CPUs or on more.
    chains = chains_of(12)
    config = ProtocolConfig(mode="mc", n_shots=70_000, rng_seed=5)
    one, drawn = sample_in_parts(config, chains, 1, sampling._MIN_PART, sampling._CHUNK)
    assert drawn == [(0, 65_536), (65_536, 70_000)]
    for cpus in (2, 8, 64):
        two, drawn = sample_in_parts(config, chains, cpus, sampling._MIN_PART, sampling._CHUNK)
        assert drawn == [(0, 32_768), (32_768, 65_536), (65_536, 70_000)]
        assert two == one


def test_more_parts_than_cpus_under_a_short_switch_interval_give_the_one_part_result():
    # Each part writes only its own slot, and the counts are added after every join.
    chains = chains_of(7)
    config = ProtocolConfig(mode="mc", n_shots=5_000, rng_seed=3)
    one = sampling._sample_branches(config, chains)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            got, drawn = sample_in_parts(config, chains, 16, 64, 2048)
            assert got == one and len(drawn) == 16 + 16 + 14
    finally:
        sys.setswitchinterval(interval)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    assert sampling._usable_cpus() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert sampling._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
    assert sampling._usable_cpus() == 1


def test_each_part_runs_on_its_own_thread_and_every_thread_is_joined():
    walkers = []
    walk_chunk = sampling._walk_chunk

    def recording_walk(u, tables):
        walkers.append((u.shape[0], threading.current_thread()))
        return walk_chunk(u, tables)

    config = ProtocolConfig(mode="mc", n_shots=7, rng_seed=1)
    before = threading.active_count()
    with mock.patch.multiple(sampling, _usable_cpus=lambda: 3, _MIN_PART=1, _walk_chunk=recording_walk):
        sampling._sample_branches(config, chains_of(4))
    assert threading.active_count() == before
    # Parts of 2, 2 and 3 rows, each on a thread of its own, one the calling thread.
    assert sorted(rows for rows, _ in walkers) == [2, 2, 3]
    threads = {thread for _, thread in walkers}
    assert len(threads) == 3 and threading.current_thread() in threads


def test_a_parts_exception_reaches_the_caller_unchanged():
    error = RuntimeError("part 2 failed")
    walk_chunk = sampling._walk_chunk

    def failing_walk(u, tables):
        if u.shape[0] == 3:  # part 2 of the parts 0..1, 2..3 and 4..6
            raise error
        return walk_chunk(u, tables)

    config = ProtocolConfig(mode="mc", n_shots=7, rng_seed=1)
    before = threading.active_count()
    with mock.patch.multiple(sampling, _usable_cpus=lambda: 3, _MIN_PART=1, _walk_chunk=failing_walk):
        with pytest.raises(RuntimeError) as caught:
            sampling._sample_branches(config, chains_of(4))
    assert caught.value is error
    assert threading.active_count() == before


def searchsorted_choice(cum, u):
    return np.clip(np.searchsorted(cum, u, side="right"), 0, cum.size - 1)


def test_choice_at_a_threshold_takes_the_next_outcome():
    cum = np.array([0.25, 0.5, 0.75, 1.0])
    u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, np.nextafter(0.75, 0.0), 0.75])
    assert sampling._choose(u, cum).tolist() == [0, 0, 1, 2, 2, 3]
    assert sampling._choose(u, cum).tolist() == searchsorted_choice(cum, u).tolist()


def test_choice_past_a_last_cumulative_short_of_one_takes_the_last_outcome():
    cum = np.cumsum([0.1] * 10)
    assert cum[-1] < 1.0  # rounding leaves the sum short of 1
    u = np.array([cum[-1], np.nextafter(cum[-1], 1.0), np.nextafter(1.0, 0.0)])
    assert sampling._choose(u, cum).tolist() == [9, 9, 9]
    assert searchsorted_choice(cum, u).tolist() == [9, 9, 9]


def test_choice_on_a_ragged_stage():
    cum = np.array([0.3, 1.0])
    u = np.array([0.0, np.nextafter(0.3, 0.0), 0.3, 0.999])
    assert sampling._choose(u, cum).tolist() == [0, 0, 1, 1]
    assert sampling._choose(u, np.array([1.0])).tolist() == [0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(
    probabilities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), max_size=8),
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8),
)
def test_choice_equals_clipped_searchsorted(probabilities, picks, uniforms):
    cum = np.cumsum(probabilities)
    # Uniforms exactly at, and just below, each cumulative threshold.
    at = [cum[i % cum.size] for i in picks]
    u = np.array(uniforms + at + [np.nextafter(x, 0.0) for x in at])
    assert sampling._choose(u, cum).tolist() == searchsorted_choice(cum, u).tolist()


# -- branches against the tree ---------------------------------------------------------

_MERGED = {"D1": "D1|D2", "D2": "D1|D2", "D7": "D7|D8", "D8": "D7|D8"}


def merged_key(path):
    """A path with each retry step, a detector or the tree's merged token, as the
    pair's merged token; the tree has one retry token per stage, so its paths stay
    distinct."""
    return tuple(_MERGED.get(token.split("|")[0], token) for token in path)


def tree_counts(tree_branches, mc_branches):
    """Each tree branch with the shots of the Monte Carlo paths that land on it:
    the same steps, each retry detector one the tree's token merges."""
    tree = {merged_key(b.path): b for b in tree_branches}
    assert len(tree) == len(tree_branches)
    counts = dict.fromkeys(tree, 0)
    for b in mc_branches:
        key = merged_key(b.path)
        assert key in tree, f"Monte Carlo path {b.path} is not in the tree"
        branch = tree[key]
        assert all(d in token.split("|") for d, token in zip(b.path, branch.path)), b.path
        assert b.classification is branch.classification
        counts[key] += b.count
    return [(tree[key], count) for key, count in counts.items()]


MC_RUNS = [
    ((0.8, 0.36, 0.48), (4, 4), 20_000, 1),
    # The first station's retries fall below the drop: its chain ends at round 1.
    ((1e-180, 1e-200, 1.0), (3, 3), 20_000, 2),
    ((0.8, 0.36, 0.48), (64, 64), 5_000, 3),
]


@pytest.mark.parametrize("alpha, rounds, shots, seed", MC_RUNS)
def test_monte_carlo_branches_match_the_tree(alpha, rounds, shots, seed):
    coefficients = WCoefficients.normalized(*alpha)
    tree = run_protocol(coefficients, ProtocolConfig(*rounds))
    mc = run_protocol(coefficients, ProtocolConfig(*rounds, mode="mc", n_shots=shots, rng_seed=seed))
    for branch, count in tree_counts(tree.branches, mc.branches):
        expected = shots * branch.probability
        sigma = math.sqrt(expected * (1.0 - branch.probability))
        assert abs(count - expected) <= 5.0 * sigma + 1.0, (branch.path, count, expected)


def chi_square_tail(x, df):
    """P(X >= x) for X ~ chi-square with ``df`` degrees of freedom, from ``math``
    alone: the regularized upper incomplete gamma Q(df/2, x/2), by its series
    below df/2 + 1 and by its continued fraction (modified Lentz) above."""
    a, x = df / 2.0, x / 2.0
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > 1e-17 * total:
            n += 1.0
            term *= x / n
            total += term
        return max(0.0, 1.0 - front * total)
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    fraction = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = c * d
        fraction *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return front * fraction


def test_chi_square_tail():
    assert chi_square_tail(3.841, 1) == pytest.approx(0.05, abs=1e-4)
    assert chi_square_tail(18.307, 10) == pytest.approx(0.05, abs=1e-4)
    assert chi_square_tail(0.0, 4) == 1.0
    # Both branches against the closed forms at one and two degrees of freedom.
    for x in (0.01, 0.5, 1.9, 2.1, 7.0, 30.0, 120.0):
        assert chi_square_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-12)
        assert chi_square_tail(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12)


def g_test_p(observed_expected):
    """The G-test's p-value for ``(observed, expected)`` counts: G = 2 sum o ln(o/e),
    with the bins whose expected count is under 5 pooled into one, and bins - 1
    degrees of freedom."""
    bins, pooled_o, pooled_e = [], 0, 0.0
    for o, e in observed_expected:
        if e < 5.0:
            pooled_o, pooled_e = pooled_o + o, pooled_e + e
        else:
            bins.append((o, e))
    if pooled_o or pooled_e:
        bins.append((pooled_o, pooled_e))
    g = 2.0 * sum(o * math.log(o / e) for o, e in bins if o)
    return chi_square_tail(g, len(bins) - 1)


# MC_RUNS' inputs and seeds, with the shots to see a 1% move of one stage's mass,
# and stages near the drop that turn ragged: four outcomes, then two.
G_RUNS = [
    ((0.8, 0.36, 0.48), (4, 4), 200_000, 1),
    ((1e-180, 1e-200, 1.0), (3, 3), 200_000, 2),
    ((0.8, 0.36, 0.48), (64, 64), 20_000, 3),
    ((1e-6, 1e-5, 1.0), (6, 6), 200_000, 4),
]


@pytest.mark.parametrize("alpha, rounds, shots, seed", G_RUNS)
def test_monte_carlo_branches_pass_a_g_test_against_the_tree(alpha, rounds, shots, seed):
    coefficients = WCoefficients.normalized(*alpha)
    tree = run_protocol(coefficients, ProtocolConfig(*rounds))
    mc = run_protocol(coefficients, ProtocolConfig(*rounds, mode="mc", n_shots=shots, rng_seed=seed))
    p = g_test_p([(count, shots * branch.probability) for branch, count in tree_counts(tree.branches, mc.branches)])
    assert p > 1e-4


# -- pair splits against the round tables ------------------------------------------


def binomial_two_sided_p(k, n):
    """P(|X - n/2| >= |k - n/2|) for X ~ Binomial(n, 1/2), from ``math`` alone."""
    low = min(k, n - k)
    if 2 * low == n:
        return 1.0
    log_norm = math.lgamma(n + 1) + n * math.log(0.5)
    tail = sum(math.exp(log_norm - math.lgamma(i + 1) - math.lgamma(n - i + 1)) for i in range(low + 1))
    return min(1.0, 2.0 * tail)


def test_binomial_two_sided_p():
    assert binomial_two_sided_p(5, 10) == 1.0
    assert binomial_two_sided_p(0, 4) == pytest.approx(2 / 16)
    assert binomial_two_sided_p(1, 4) == binomial_two_sided_p(3, 4) == pytest.approx(10 / 16)
    assert binomial_two_sided_p(0, 1) == 1.0


def pair_splits(chains, branches):
    """``{(station, round, detector): (shots, shots on it)}`` for the first
    detector of each pair that a Monte Carlo path's step reached, rounds
    counted from 0 at each station."""
    success = [{d.value for d1, d2, won, _ in plan.pairs if won for d in (d1, d2)} for plan, _ in chains]
    splits = {}
    for b in branches:
        station = rnd = 0
        for token in b.path:
            code = int(token[1:])
            first = f"D{code - 1 if code % 2 == 0 else code}"
            n, k = splits.get((station, rnd, first), (0, 0))
            splits[(station, rnd, first)] = (n + b.count, k + b.count * (token == first))
            if token in success[station]:
                station, rnd = station + 1, 0
            else:
                rnd += 1
    return splits


@pytest.mark.parametrize("alpha, rounds, shots, seed", MC_RUNS)
def test_monte_carlo_pair_splits_match_the_round_tables(alpha, rounds, shots, seed):
    # The two detectors of a pair (D1/D2, D3/D4, D5/D6, D7/D8) get equal halves
    # of the pair's mass in every round, so the shots that reach a pair split
    # between its detectors as Binomial(n, 1/2).  A cell's two-sided p-value
    # must stay above 1e-4 at these seeds.
    config = ProtocolConfig(*rounds, mode="mc", n_shots=shots, rng_seed=seed)
    chains = _stage_chains(WCoefficients.normalized(*alpha), *rounds, None)
    splits = pair_splits(chains, run_protocol(WCoefficients.normalized(*alpha), config).branches)
    assert splits
    for (station, rnd, first), (n, k) in splits.items():
        table = {o.detector.value: o.probability for o in chains[station][1][rnd]}
        second = f"D{int(first[1:]) + 1}"
        assert table[first] == table[second]
        assert binomial_two_sided_p(k, n) > 1e-4, (station, rnd, first, k, n)
