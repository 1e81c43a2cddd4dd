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

Shot i consumes row i of the seed's Philox block, so any contiguous range of
rows can be drawn and walked on its own.  Each chunk of up to ``_CHUNK`` shots
is split into one part per usable CPU, each at least ``_MIN_PART`` rows, so a
full chunk into at most two: the calling thread walks the first and a
``threading.Thread`` each other, and the
parts' path counts are added up.  numpy drops the GIL in the draw and in most
of the walk's array operations, so the parts run side by side; the sums do not
depend on the order, so the output is the same for any number of parts.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .protocol import BranchRecord, OutcomeClass, ProtocolConfig, RoundOutcome, _Chain, _code

_CHUNK = 1 << 16
# The fewest rows a part of a chunk is walked in, so a full chunk is cut into
# at most two parts.  Two 32 768-row parts on two CPUs were measured faster
# than one part; 16 384-row parts on two threads were slower than one thread,
# and splits into more parts were not measured.
_MIN_PART = 1 << 15


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rows(seed: int, start: int, stop: int, n_stages: int) -> np.ndarray:
    """Rows ``start`` to ``stop - 1`` of the seed's ``(shots, n_stages)`` Philox
    block, from a generator of their own.  Philox gives 4 words per counter step
    and a uniform takes one word, so the generator moves ``start * n_stages // 4``
    steps and then discards the remaining words."""
    bit_generator = np.random.Philox(key=seed)
    words = start * n_stages
    bit_generator.advance(words // 4)
    bit_generator.random_raw(words % 4)
    return np.random.Generator(bit_generator).random((stop - start, n_stages))


def _walk_parts(seed: int, bounds: list[int], n_stages: int, tables: list) -> list[tuple[list[bytes], list[int]]]:
    """:func:`_walk_chunk` on each part's :func:`_rows`, ``bounds[i]`` to
    ``bounds[i + 1] - 1``: the first on the calling thread, each other on a
    thread of its own, all joined before this returns.  A part's exception is
    raised here, on the calling thread, the first part's first."""
    walks: list = [None] * (len(bounds) - 1)

    def walk(i: int) -> None:
        try:
            walks[i] = _walk_chunk(_rows(seed, bounds[i], bounds[i + 1], n_stages), tables)
        except BaseException as exc:  # raised again on the calling thread
            walks[i] = exc

    threads = [threading.Thread(target=walk, args=(i,)) for i in range(1, len(walks))]
    for thread in threads:
        thread.start()
    walk(0)
    for thread in threads:
        thread.join()
    for walked in walks:
        if isinstance(walked, BaseException):
            raise walked
    return walks


def _sample_branches(
    config: ProtocolConfig, chains: list[_Chain]
) -> tuple[list[BranchRecord], dict[str, int], float]:
    """Vectorized Monte Carlo walk over the stage chains.

    Each shot owns one row of a counter-based uniform block, so results are
    reproducible for a given (seed, shot index) regardless of chunking: each
    chunk of up to ``_CHUNK`` shots is split into ``max(1, min(usable CPUs,
    rows // _MIN_PART))`` contiguous parts, and each part draws its rows and is
    walked by :func:`_walk_chunk` on a thread of its own (:func:`_walk_parts`).
    At most one chunk's rows are drawn at a time.  The shots that succeed at a
    station are the next station's input.  Paths are counted by their rows'
    bytes, added over the parts in any order, and the bytes sort as the rows do
    since every detector number is in 0..8, so branches come out in the
    lexicographic order of their rows of detector numbers by stage, whatever
    the number of parts.
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

    cpus = _usable_cpus()
    path_counts: dict[bytes, int] = {}
    for start in range(0, config.n_shots, _CHUNK):
        n = min(config.n_shots - start, _CHUNK)
        n_parts = max(1, min(cpus, n // _MIN_PART))
        bounds = [start + n * i // n_parts for i in range(n_parts + 1)]
        for rows, counts in _walk_parts(config.rng_seed, bounds, n_stages, tables):
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
