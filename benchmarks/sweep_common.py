"""Shared harness for the loss-rate ablation benches.

``bench_ablation_fault_tolerance`` and ``bench_ablation_loss_adaptive``
both sweep a message-drop probability against a set of variants (a
scheme, or a scheme x adaptation mode), run one simulation per cell and
print a fixed-width table of the sweep.  Keeping the sweep loop and the
table rendering here means the two benches cannot drift apart in how
they run or report the same experiment.

Cells are independent deterministic simulations, so — like the figure
sweeps — they fan out through :func:`repro.experiments.parallel.map_cells`
over a process pool by default (``workers="auto"``); results are
identical at any worker count.
"""

from repro.experiments.parallel import map_cells
from repro.sim import run_simulation


def _run_cell(cell):
    """Worker entry point (module-level so it pickles)."""
    key, params, scheme, workload = cell
    return key, run_simulation(params, workload, scheme)


def run_loss_sweep(drop_rates, variants, configure, workload, workers="auto"):
    """Run one simulation per ``(drop, variant)`` cell.

    *configure* maps ``(drop, variant) -> (params, scheme_name)``; the
    result dict is keyed by the same ``(drop, variant)`` pairs.  Cells
    fan out over *workers* processes (``"auto"`` = cpu_count); configure
    itself runs serially in the parent, so it may close over anything.
    """
    cells = []
    for drop in drop_rates:
        for variant in variants:
            params, scheme = configure(drop, variant)
            cells.append(((drop, variant), params, scheme, workload))
    return dict(map_cells(_run_cell, cells, workers))


def format_sweep_table(
    title, results, drop_rates, variants, cell, width=16, row_label="loss"
):
    """Render the sweep as rows of loss rate x variant columns.

    *cell* maps a :class:`SimulationResult` to the string shown in its
    table cell.  Row keys may be numbers (loss rates, seeds) or strings
    (scheme names); *row_label* names the row axis in the header.
    """
    lines = [title]
    lines.append(
        f"  {row_label:>6s} " + "".join(f"{str(v):>{width}s}" for v in variants)
    )
    for drop in drop_rates:
        row = "".join(
            f"{cell(results[(drop, v)]):>{width}s}" for v in variants
        )
        label = (
            f"{drop:>6.2f}"
            if isinstance(drop, (int, float))
            else f"{str(drop):>6s}"
        )
        lines.append(f"  {label} " + row)
    lines.append(oracle_summary(results))
    return "\n".join(lines)


def oracle_summary(results) -> str:
    """One line of safety-oracle accounting for a finished sweep.

    Sums stale cache hits and counts non-SAFE verdicts across every
    cell, so a consistency violation is visible in any bench output even
    when the table itself plots throughput.
    """
    stale = sum(r.stale_hits for r in results.values())
    unsafe = [
        f"{key}: {r.oracle_verdict}"
        for key, r in results.items()
        if r.oracle_verdict != "SAFE"
    ]
    verdict = "all cells SAFE" if not unsafe else "; ".join(unsafe)
    return f"  oracle: {stale:.0f} stale hits across {len(results)} cells — {verdict}"
