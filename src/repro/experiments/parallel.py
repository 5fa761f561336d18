"""Process-parallel execution of sweep cells.

Every cell of a sweep (a figure's scheme x sweep point, an ablation's
loss rate x variant) is an independent, deterministic simulation —
embarrassingly parallel.  :func:`map_cells` runs the cells inline for
one worker and over a process pool otherwise; results are identical at
any worker count because all randomness derives from named,
seed-addressed streams (`repro.des.rng`), never from process state.

``workers="auto"`` (the default of the CLI and the benches) sizes the
pool from ``os.cpu_count()``; on a single-core box it degrades to the
inline path, so callers never pay pool start-up for nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, Union

Workers = Union[int, str]


def resolve_workers(workers: Workers) -> int:
    """Turn a worker count or ``"auto"`` into a concrete pool size.

    ``"auto"`` uses every core the box reports (sweep cells are
    CPU-bound, near-equal-cost simulations — there is nothing to gain
    from oversubscription).
    """
    if workers == "auto":
        return os.cpu_count() or 1
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an int or 'auto', got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def sweep_chunksize(n_cells: int, workers: int) -> int:
    """Pool chunksize tuned for the many-small-cells sweep shape.

    Cells are numerous and individually short, so per-task IPC matters;
    but cost still varies by scheme/sweep point, so chunks must stay
    small enough to balance.  Four waves per worker is the usual
    compromise.
    """
    return max(1, n_cells // (workers * 4))


def map_cells(run_cell: Callable, cells: Sequence, workers: Workers = 1) -> list:
    """``run_cell`` applied to every cell, in order, on *workers* processes.

    *run_cell* must be a module-level function so it pickles.
    """
    n_workers = resolve_workers(workers)
    if n_workers == 1:
        return list(map(run_cell, cells))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(
            pool.map(
                run_cell, cells, chunksize=sweep_chunksize(len(cells), n_workers)
            )
        )
