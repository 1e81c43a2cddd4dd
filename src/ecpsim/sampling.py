"""Monte Carlo sampling of protocol paths, the one part of ``ecpsim`` that
needs numpy; :func:`ecpsim.protocol.run_protocol` imports it in ``mc`` mode
only, so every other command starts without numpy.

The sampler neither searches nor sorts arrays.  A stage's outcome is a sum of
comparisons against its cumulative probabilities (:func:`_choose`).  A path
is a chain of nodes, one per stage it reached: each node holds its parent,
its detector number and its stage's column.  Each live shot carries the
dense id of its path prefix, and the (prefix, outcome) pairs of a stage are
ranked with ``np.bincount``, which also counts the shots on each node.  Only
the distinct finished paths are rebuilt into rows, by walking up the parents
of all of them at once.
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


class _PathNodes:
    """The path nodes of one chunk, added a stage at a time: per node its
    parent (-1 for a first stage) and detector number, per stage its column,
    and the finished paths with their shot counts."""

    def __init__(self) -> None:
        self.size = 0
        self.parents: list[np.ndarray] = []
        self.codes: list[np.ndarray] = []
        self.columns: list[int] = []
        self.ends: list[np.ndarray] = []
        self.end_counts: list[np.ndarray] = []

    def add(self, parents: np.ndarray, codes: np.ndarray, column: int) -> np.ndarray:
        """Append one stage's nodes; returns their ids.  A chunk has at most
        2^16 shots x 128 stages of nodes, so ids fit in int32."""
        ids = np.arange(self.size, self.size + parents.size, dtype=np.int32)
        self.size += parents.size
        self.parents.append(parents)
        self.codes.append(codes)
        self.columns.append(column)
        return ids

    def finish(self, ids: np.ndarray, counts: np.ndarray) -> None:
        self.ends.append(ids)
        self.end_counts.append(counts)

    def rows(self, n_stages: int) -> tuple[list[list[int]], list[int]]:
        """Each finished path as a row of detector numbers by column, 0 where
        the shot had stopped before, and its shot count."""
        parents = np.concatenate(self.parents)
        codes = np.concatenate(self.codes)
        columns = np.repeat(self.columns, [p.size for p in self.parents])
        node = np.concatenate(self.ends)
        rows = np.zeros((node.size, n_stages), dtype=np.int8)
        cell = np.arange(0, rows.size, n_stages)  # each row's first cell
        # One level up per pass, for every path still below its first stage.
        while node.size:
            rows.flat[cell + columns.take(node)] = codes.take(node)
            node = parents.take(node)
            up = np.flatnonzero(node >= 0)
            cell, node = cell.take(up), node.take(up)
        return rows.tolist(), np.concatenate(self.end_counts).tolist()


def _walk_chunk(u: np.ndarray, tables: list) -> _PathNodes:
    """Walk the shots of one chunk, row i of ``u`` for shot i, through the
    stage tables of every station.

    Boolean masks select with ``compress``, or with ``flatnonzero`` and
    ``take`` where one mask selects from several arrays: either is several
    times faster than indexing with the mask."""
    nodes = _PathNodes()
    # The shots at a stage, the dense id of each one's path prefix, and the
    # node of each id (-1 for the empty prefix).
    shots = np.arange(u.shape[0])
    prefix = np.zeros(shots.size, dtype=np.intp)
    prefix_node = np.array([-1], dtype=np.int32)
    col = 0
    for station, (cum, success, codes) in enumerate(tables):
        last_station = station == len(tables) - 1
        passed, passed_prefix, passed_node = [], [], []
        n_passed = 0
        for k in range(len(cum)):
            if shots.size == 0:
                break
            # A (prefix, outcome) pair's key holds the outcome in its low bits;
            # the pairs some shot took become this stage's nodes.
            bits = (cum[k].size - 1).bit_length()
            low = (1 << bits) - 1
            key = (prefix << bits) | _choose(u[shots, col + k], cum[k])
            hits = np.bincount(key, minlength=prefix_node.size << bits)
            pairs = np.flatnonzero(hits > 0)
            won = success[k].take(pairs & low)
            # Retry nodes first: a shot's dense id below n_lost means it retries.
            pairs = np.concatenate((pairs.compress(~won), pairs.compress(won)))
            n_lost = pairs.size - np.count_nonzero(won)
            rank = np.empty(hits.size, dtype=np.intp)
            rank[pairs] = np.arange(pairs.size)
            ids = nodes.add(prefix_node.take(pairs >> bits), codes[k].take(pairs & low), col + k)
            if last_station:
                nodes.finish(ids[n_lost:], hits.take(pairs[n_lost:]))
            else:
                passed_node.append(ids[n_lost:])
            if k == len(cum) - 1:
                nodes.finish(ids[:n_lost], hits.take(pairs[:n_lost]))
            shot_rank = rank.take(key)
            shot_won = shot_rank >= n_lost
            if not last_station:
                go = np.flatnonzero(shot_won)
                passed.append(shots.take(go))
                passed_prefix.append(shot_rank.take(go) + (n_passed - n_lost))
                n_passed += pairs.size - n_lost
            stay = np.flatnonzero(~shot_won)
            shots, prefix, prefix_node = shots.take(stay), shot_rank.take(stay), ids[:n_lost]
        col += len(cum)
        if last_station or not passed:
            break
        shots = np.concatenate(passed)
        prefix = np.concatenate(passed_prefix)
        prefix_node = np.concatenate(passed_node)
    return nodes


def _sample_branches(
    config: ProtocolConfig, chains: list[_Chain]
) -> tuple[list[BranchRecord], dict[str, int], float]:
    """Vectorized Monte Carlo walk over the stage chains.

    Each shot owns one row of a counter-based uniform block, so results are
    reproducible for a given (seed, shot index) regardless of chunking: each
    chunk of up to ``_CHUNK`` shots draws its block and is walked by
    :func:`_walk_chunk`.  The shots that succeed at a station are the next
    station's input.  Branches come out in the lexicographic order of their
    rows of detector numbers by stage.
    """
    tables = [_stage_tables(stages, plan.success_class) for plan, stages in chains]
    n_stages = sum(len(stages) for _, stages in chains)
    # Each detector number's label, and the class (with its name) of a path
    # that ends on that label: the class of its last detector's outcome.
    label: dict[int, str] = {}
    ending: dict[str, tuple[OutcomeClass, str]] = {}
    for plan, _ in chains:
        for d, success in zip(plan.detectors, plan.success):
            cls = plan.success_class if success else plan.retry_class
            label[_code(d)] = d.value
            ending[d.value] = (cls, cls.value)

    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))
    path_counts: dict[tuple[int, ...], int] = {}

    remaining = config.n_shots
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        u = rng.random((n, n_stages))
        rows, counts = _walk_chunk(u, tables).rows(n_stages)
        for row, count in zip(rows, counts):
            key = tuple(row)
            path_counts[key] = path_counts.get(key, 0) + count

    branches = []
    counts = {cls.value: 0 for cls in OutcomeClass}
    for row, count in sorted(path_counts.items()):
        path = tuple([label[code] for code in row if code])
        cls, name = ending[path[-1]]
        branches.append(BranchRecord(path, count / config.n_shots, cls, count))
        counts[name] += count
    total = counts[chains[-1][0].success_class.value] / config.n_shots
    return branches, counts, total
