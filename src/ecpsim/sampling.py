"""Monte Carlo sampling of protocol paths, the one part of ``ecpsim`` that
needs numpy; :func:`ecpsim.protocol.run_protocol` imports it in ``mc`` mode
only, so every other command starts without numpy.

A stage's outcome is how many of its integer thresholds a raw Philox word
reaches (:func:`_choose`).  Each live shot carries the dense id of its path
prefix, and each id has a row of detector numbers by stage column, 0 past the
prefix's last stage.  The (prefix, outcome) pairs of a stage are ranked with
``np.bincount``, which also counts the shots on each pair, and each pair some
shot took gets its prefix's row with the outcome's detector number in the
stage's column.  A pair whose path ends there is a finished row; a walk holds
only distinct paths as rows.

Shot i consumes row i of the seed's block of Philox words, so any contiguous
rows can be drawn and walked on their own.  A chunk holds at most
``_CHUNK_WORDS`` words, and at most ``_CHUNK`` rows, and is split into one part
per usable CPU, each at least ``_MIN_PART`` rows and at most ``_MAX_PARTS`` of
them: the calling thread walks the first and a ``threading.Thread`` each other.
numpy drops the GIL in the draw and in most of the walk's array operations, so
the parts run side by side.  The parts' finished rows are sorted and merged,
equal rows' counts added up, once after the last chunk and, in a run of many
chunks, whenever the rows held pass twice the distinct rows of the last merge;
sums do not depend on the order, so the output is the same for any number of
parts.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .protocol import BranchRecord, OutcomeClass, ProtocolConfig, RoundOutcome, _Chain, _code

# A chunk's bounds: at most 2^23 words, 65 536 rows of the deepest run's 128
# stages, and at most 2^17 rows, 131 072 at 64 stages or fewer.  The words bound
# the draw and the walk's arrays per stage; the rows bound what stays per shot,
# such as each shot's ids.  Without the rows bound a 1e6-shot run at 4, 4 rounds
# peaked at about three times the memory.
_CHUNK_WORDS = 1 << 23
_CHUNK = 1 << 17
# The fewest rows a part of a chunk is walked in, and the most parts of a
# chunk.  Two 32 768-row parts on two CPUs were measured faster than one part;
# 16 384-row parts on two threads were slower than one thread, and splits into
# more than two parts were not measured.
_MIN_PART = 1 << 15
_MAX_PARTS = 2


def _stage_tables(
    stages: list[list[RoundOutcome]], success_class: OutcomeClass
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per stage, outcomes ordered by label: word thresholds, success flags and
    detector numbers.  A cumulative probability c before the last gives the
    uint64 threshold ⌈c·2⁵³⌉·2¹¹, reached by a word w exactly where its uniform
    (w >> 11)·2⁻⁵³ reaches c; one of 2⁶⁴ or more, which no word reaches, is
    dropped.  Stages differ in length where a detector falls below tolerance."""
    scaled = [np.ceil(np.cumsum([o.probability for o in st])[:-1] * 2.0**53) for st in stages]
    thresholds = [(t[t < 2.0**53] * 2.0**11).astype(np.uint64) for t in scaled]
    success = [np.array([o.classification is success_class for o in st]) for st in stages]
    codes = [np.array([_code(o.detector) for o in st], dtype=np.int8) for st in stages]
    return thresholds, success, codes


def _choose(words: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The outcome index of each word: how many of the stage's thresholds it
    reaches.  This is the right-side binary-search position of the word's
    uniform in the cumulative probabilities, capped at the last index: a
    uniform equal to one takes the next outcome, and one at or past the last,
    which rounding can leave below 1, takes the last outcome.  Both arrays are
    uint64, so the words are compared as integers and never rounded."""
    choice = np.zeros(words.shape, dtype=np.int8)
    for threshold in thresholds:
        choice += (words >= threshold).view(np.int8)
    return choice


def _walk_chunk(words: np.ndarray, tables: list) -> tuple[np.ndarray, np.ndarray]:
    """Walk the shots of one chunk, row i of ``words`` for shot i, through the
    stage tables of every station, each up to its first stage no shot reaches;
    a station's successes are the next one's input.  Returns the chunk's
    distinct finished paths, each as its int8 row of detector numbers by
    column, 0 where the shot had stopped, in no set order, and each one's count.

    Boolean masks select with ``compress``, or with ``flatnonzero`` and
    ``take`` where one mask selects from several arrays: either is several
    times faster than indexing with the mask."""
    ended, ended_counts = [], []
    # The shots at a stage, the dense id of each one's path prefix, and the
    # row of each id (one all-zero row for the empty prefix).
    shots = np.arange(words.shape[0])
    prefix = np.zeros(shots.size, dtype=np.intp)
    prefix_rows = np.zeros((1, words.shape[1]), dtype=np.int8)
    col = 0
    for station, (thresholds, success, codes) in enumerate(tables):
        last_station = station == len(tables) - 1
        passed, passed_prefix, passed_rows = [], [], []
        n_passed = 0
        for k in range(len(codes)):
            if shots.size == 0:
                break
            # A (prefix, outcome) pair's key holds the outcome in its low bits;
            # the pairs some shot took become this stage's rows.
            bits = (codes[k].size - 1).bit_length()
            low = (1 << bits) - 1
            key = (prefix << bits) | _choose(words[shots, col + k], thresholds[k])
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
            if k == len(codes) - 1:
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
        col += len(codes)
        if last_station:
            break
        shots = np.concatenate(passed)
        prefix = np.concatenate(passed_prefix)
        prefix_rows = np.concatenate(passed_rows)
    return np.concatenate(ended), np.concatenate(ended_counts)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rows(seed: int, start: int, stop: int, n_stages: int) -> np.ndarray:
    """Rows ``start`` to ``stop - 1`` of the seed's ``(shots, n_stages)`` block
    of raw Philox words, from a Philox of their own.  Philox gives 4 words per
    counter step, so the counter is advanced ``start * n_stages // 4`` steps to
    the first row's block and the words before the first row's are discarded."""
    bit_generator = np.random.Philox(key=seed)
    words = start * n_stages
    bit_generator.advance(words // 4)
    bit_generator.random_raw(words % 4)
    return bit_generator.random_raw((stop - start) * n_stages).reshape(stop - start, n_stages)


def _walk_parts(seed: int, bounds: list[int], n_stages: int, tables: list) -> list[tuple[np.ndarray, np.ndarray]]:
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


def _merge_paths(walks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the walks' (rows, counts) pairs, in ascending order
    of their bytes, and each one's counts summed over the walks.  The rows are
    sorted by numpy's comparison of their void view (its stable sort was
    measured faster than its default one), and a row that differs from the one
    before it starts a run of equal rows."""
    rows = np.concatenate([rows for rows, _ in walks])
    order = np.argsort(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(), kind="stable")
    rows = rows.take(order, axis=0)
    first = np.flatnonzero(np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1))))
    counts = np.concatenate([counts for _, counts in walks]).take(order)
    return rows.take(first, axis=0), np.add.reduceat(counts, first)


def _sample_branches(
    config: ProtocolConfig, chains: list[_Chain]
) -> tuple[list[BranchRecord], dict[str, int], float]:
    """Vectorized Monte Carlo walk over the stage chains.

    Each shot owns one row of a counter-based block of words, so results are
    reproducible for a given (seed, shot index) regardless of chunking: each
    chunk of up to ``min(_CHUNK, _CHUNK_WORDS // stages)`` shots is split into
    ``max(1, min(usable CPUs, _MAX_PARTS, rows // _MIN_PART))`` contiguous
    parts, and each part draws its rows and is walked by :func:`_walk_chunk` on
    a thread of its own (:func:`_walk_parts`).  At most one chunk's rows are
    drawn at a time.  The parts' paths are merged by :func:`_merge_paths` after
    the last chunk, and before a chunk once the rows held since the last merge
    pass twice its distinct rows, so the rows held stay within about twice the
    distinct paths and one chunk's.  The bytes sort as the rows do since every
    detector number is in 0..8, so branches come out in the lexicographic order
    of their rows of detector numbers by stage, whatever the number of parts,
    and the counts are sums, the same in any order.
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
    chunk = min(_CHUNK, _CHUNK_WORDS // n_stages)
    walks, held, merged = [], 0, 0
    for start in range(0, config.n_shots, chunk):
        if held > 2 * merged:
            walks = [_merge_paths(walks)]
            held = merged = len(walks[0][0])
        n = min(config.n_shots - start, chunk)
        n_parts = max(1, min(cpus, _MAX_PARTS, n // _MIN_PART))
        bounds = [start + n * i // n_parts for i in range(n_parts + 1)]
        parts = _walk_parts(config.rng_seed, bounds, n_stages, tables)
        walks += parts
        held += sum(len(rows) for rows, _ in parts)

    rows, path_counts = _merge_paths(walks)
    paths = rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()
    del walks, parts, rows  # the parts' rows, freed before the branch records are built
    branches = []
    counts = {cls.value: 0 for cls in OutcomeClass}
    for row, count in zip(paths, path_counts.tolist()):
        path = tuple([label[code] for code in row if code])
        cls, name = ending[path[-1]]
        branches.append(BranchRecord(path, count / config.n_shots, cls, count))
        counts[name] += count
    total = counts[chains[-1][0].success_class.value] / config.n_shots
    return branches, counts, total
