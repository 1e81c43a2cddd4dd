"""Monte Carlo sampling of protocol paths, the one part of ``ecpsim`` that
needs numpy; :func:`ecpsim.protocol.run_protocol` imports it in ``mc`` mode
only, so every other command starts without numpy.

The sampler neither searches nor sorts arrays.  A stage's outcome is a sum of
comparisons against its cumulative probabilities (:func:`_choose`).  Each
live shot carries the dense id of its path prefix, and each id has a row of
detector numbers by stage column, 0 past the prefix's last stage.  The
(prefix, outcome) pairs of a stage are ranked with ``np.bincount``, which
also counts the shots on each pair, and each pair some shot took gets its
prefix's row with the outcome's detector number in the stage's column.  A
pair whose path ends there is a finished row; only distinct paths are ever
held as rows.
"""

from __future__ import annotations

import numpy as np

from .protocol import BranchRecord, OutcomeClass, ProtocolConfig, RoundOutcome, _Chain, _code

_CHUNK = 1 << 16


def _stage_tables(
    stages: list[list[RoundOutcome]], success_class: OutcomeClass
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per stage, outcomes ordered by label: cumulative probabilities, success
    flags and detector numbers.  Stages may differ in length, because a
    detector whose amplitudes all fall below tolerance yields no outcome."""
    cum = [np.cumsum([o.probability for o in st]) for st in stages]
    success = [np.array([o.classification is success_class for o in st]) for st in stages]
    codes = [np.array([_code(o.detector) for o in st], dtype=np.int8) for st in stages]
    return cum, success, codes


def _choose(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The outcome index of each uniform in ``u``: how many of the cumulative
    probabilities before the last are at most it.  For a nondecreasing ``cum``
    this is the right-side binary-search position of ``u`` in ``cum``, capped
    at the last index: a uniform equal to a threshold takes the next outcome,
    and one at or past ``cum[-1]``, which rounding can leave below 1, takes
    the last outcome."""
    choice = np.zeros(u.shape, dtype=np.int8)
    for threshold in cum[:-1].tolist():
        choice += (u >= threshold).view(np.int8)
    return choice


def _walk_chunk(u: np.ndarray, tables: list) -> tuple[list[bytes], list[int]]:
    """Walk the shots of one chunk, row i of ``u`` for shot i, through the
    stage tables of every station.  Returns each distinct finished path as the
    bytes of its row of detector numbers by column, 0 where the shot had
    stopped before, and its shot count.

    Boolean masks select with ``compress``, or with ``flatnonzero`` and
    ``take`` where one mask selects from several arrays: either is several
    times faster than indexing with the mask."""
    ended, ended_counts = [], []
    # The shots at a stage, the dense id of each one's path prefix, and the
    # row of each id (one all-zero row for the empty prefix).
    shots = np.arange(u.shape[0])
    prefix = np.zeros(shots.size, dtype=np.intp)
    prefix_rows = np.zeros((1, u.shape[1]), dtype=np.int8)
    col = 0
    for station, (cum, success, codes) in enumerate(tables):
        last_station = station == len(tables) - 1
        passed, passed_prefix, passed_rows = [], [], []
        n_passed = 0
        for k in range(len(cum)):
            if shots.size == 0:
                break
            # A (prefix, outcome) pair's key holds the outcome in its low bits;
            # the pairs some shot took become this stage's rows.
            bits = (cum[k].size - 1).bit_length()
            low = (1 << bits) - 1
            key = (prefix << bits) | _choose(u[shots, col + k], cum[k])
            hits = np.bincount(key, minlength=len(prefix_rows) << bits)
            pairs = np.flatnonzero(hits > 0)
            won = success[k].take(pairs & low)
            # Retry rows first: a shot's dense id below n_lost means it retries.
            pairs = np.concatenate((pairs.compress(~won), pairs.compress(won)))
            n_lost = pairs.size - np.count_nonzero(won)
            rank = np.empty(hits.size, dtype=np.intp)
            rank[pairs] = np.arange(pairs.size)
            rows = prefix_rows.take(pairs >> bits, axis=0)
            rows[:, col + k] = codes[k].take(pairs & low)
            if last_station:
                ended.append(rows[n_lost:])
                ended_counts.append(hits.take(pairs[n_lost:]))
            else:
                passed_rows.append(rows[n_lost:])
            if k == len(cum) - 1:
                ended.append(rows[:n_lost])
                ended_counts.append(hits.take(pairs[:n_lost]))
            shot_rank = rank.take(key)
            shot_won = shot_rank >= n_lost
            if not last_station:
                go = np.flatnonzero(shot_won)
                passed.append(shots.take(go))
                passed_prefix.append(shot_rank.take(go) + (n_passed - n_lost))
                n_passed += pairs.size - n_lost
            stay = np.flatnonzero(~shot_won)
            shots, prefix, prefix_rows = shots.take(stay), shot_rank.take(stay), rows[:n_lost]
        col += len(cum)
        if last_station or not passed:
            break
        shots = np.concatenate(passed)
        prefix = np.concatenate(passed_prefix)
        prefix_rows = np.concatenate(passed_rows)
    rows = np.concatenate(ended)
    rows = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    return rows.tolist(), np.concatenate(ended_counts).tolist()


def _sample_branches(
    config: ProtocolConfig, chains: list[_Chain]
) -> tuple[list[BranchRecord], dict[str, int], float]:
    """Vectorized Monte Carlo walk over the stage chains.

    Each shot owns one row of a counter-based uniform block, so results are
    reproducible for a given (seed, shot index) regardless of chunking: each
    chunk of up to ``_CHUNK`` shots draws its block and is walked by
    :func:`_walk_chunk`.  The shots that succeed at a station are the next
    station's input.  Paths are counted by their rows' bytes, which sort as
    the rows do since every detector number is in 0..8, so branches come out
    in the lexicographic order of their rows of detector numbers by stage.
    Detector labels, and the class of a path (that of its last outcome), are
    read from the outcomes in the chains' stages, not from their plans.
    """
    tables = [_stage_tables(stages, plan.success_class) for plan, stages in chains]
    n_stages = sum(len(stages) for _, stages in chains)
    # Each sampled detector number's label, and the class (with its name) of a
    # path that ends on that label: the class of its last detector's outcome.
    outcomes = [o for _, stages in chains for st in stages for o in st]
    label = {_code(o.detector): o.detector.value for o in outcomes}
    ending = {o.detector.value: (o.classification, o.classification.value) for o in outcomes}

    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))
    path_counts: dict[bytes, int] = {}

    remaining = config.n_shots
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        u = rng.random((n, n_stages))
        rows, counts = _walk_chunk(u, tables)
        for row, count in zip(rows, counts):
            path_counts[row] = path_counts.get(row, 0) + count

    branches = []
    counts = {cls.value: 0 for cls in OutcomeClass}
    for row, count in sorted(path_counts.items()):
        path = tuple([label[code] for code in row if code])
        cls, name = ending[path[-1]]
        branches.append(BranchRecord(path, count / config.n_shots, cls, count))
        counts[name] += count
    total = counts[chains[-1][0].success_class.value] / config.n_shots
    return branches, counts, total
