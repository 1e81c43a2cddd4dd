"""Monte Carlo sampling of protocol paths, the one part of ``ecpsim`` that
needs numpy; :func:`ecpsim.protocol.run_protocol` imports it in ``mc`` mode
only, so every other command starts without numpy."""

from __future__ import annotations

import numpy as np

from .protocol import BranchRecord, OutcomeClass, ProtocolConfig, RoundOutcome, _Chain, _code

_CHUNK = 1 << 16

# Paths are counted on int64 keys holding 4 bits per stage (detector number,
# or 0 where the shot had already stopped), first stage most significant, so
# key order is the lexicographic order of the paths.  Stages are folded in
# blocks: a block's key is the rank of the path prefix before it, shifted past
# the block's 44 bits, with the block's codes in those bits.  A rank is below
# the chunk size, so a key fits in 16 + 44 = 60 bits.
_BLOCK = 11
_BLOCK_BITS = 4 * _BLOCK
assert _CHUNK <= 1 << 16


def _stage_tables(
    stages: list[list[RoundOutcome]], success_class: OutcomeClass
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per stage, outcomes ordered by label: cumulative probabilities, success
    flags and detector numbers.  Stages may differ in length, because a
    detector whose amplitudes all fall below tolerance yields no outcome."""
    cum = [np.cumsum([o.probability for o in st]) for st in stages]
    success = [np.array([o.classification is success_class for o in st]) for st in stages]
    codes = [np.array([_code(o.detector) for o in st]) for st in stages]
    return cum, success, codes


def _count_paths(paths: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Distinct rows of ``paths`` in lexicographic order, and how often each occurs."""
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


def _sample_branches(
    config: ProtocolConfig, chains: list[_Chain]
) -> tuple[list[BranchRecord], dict[str, int], float]:
    """Vectorized Monte Carlo walk over the stage chains.

    Each shot owns one row of a counter-based uniform block, so results are
    reproducible for a given (seed, shot index) regardless of chunking.  The
    shots that succeed at a station are the next station's input.
    """
    tables = [_stage_tables(stages, plan.success_class) for plan, stages in chains]
    n_stages = sum(len(stages) for _, stages in chains)
    # A path's class is that of its last detector's outcome.
    code_class = {
        _code(d): plan.success_class if success else plan.retry_class
        for plan, _ in chains
        for d, success in zip(plan.detectors, plan.success)
    }

    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))
    path_counts: dict[tuple[int, ...], int] = {}

    remaining = config.n_shots
    while remaining > 0:
        n = min(remaining, _CHUNK)
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
