"""Convenience entry points for running simulations."""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

from ..schemes import Scheme
from .metrics import SimulationResult
from .model import SimulationModel
from .params import SystemParams
from .workload import Workload, workload_by_name


def run_simulation(
    params: SystemParams,
    workload: Union[str, Workload],
    scheme: Union[str, Scheme],
) -> SimulationResult:
    """Build and run one simulation; returns its metrics."""
    if isinstance(workload, str):
        workload = workload_by_name(workload)
    return SimulationModel(params, workload, scheme).run()


def run_schemes(
    params: SystemParams,
    workload: Union[str, Workload],
    schemes: Iterable[Union[str, Scheme]],
) -> Dict[str, SimulationResult]:
    """Run several schemes on identical parameters and seed.

    Named random streams guarantee common random numbers across schemes:
    the same clients think, query and disconnect at the same instants, so
    differences isolate the invalidation strategy.
    """
    results: Dict[str, SimulationResult] = {}
    for scheme in schemes:
        result = run_simulation(params, workload, scheme)
        results[result.scheme] = result
    return results


def run_replications(
    params: SystemParams,
    workload: Union[str, Workload],
    scheme: Union[str, Scheme],
    seeds: Iterable[int],
) -> List[SimulationResult]:
    """Independent replications over *seeds* (for confidence intervals)."""
    return [
        run_simulation(params.with_(seed=seed), workload, scheme) for seed in seeds
    ]
