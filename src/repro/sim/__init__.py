"""Simulation model of the paper's Section 4: parameters, workloads,
server/client actors, metrics, and runners."""

from .client import MobileClient
from .metrics import SimulationResult, finalize
from .model import SimulationModel
from .energy import EnergyModel, energy_per_query_nj
from .params import SystemParams
from .population import AggregationConfig, PopulationPool, rebuild_cache
from .querylog import ClientSummary, QueryLog, QueryRecord, jain_index
from .runner import run_replications, run_schemes, run_simulation
from .server import Server
from .workload import (
    HOTCOLD,
    UNIFORM,
    AccessPattern,
    Region,
    Workload,
    workload_by_name,
)

__all__ = [
    "AccessPattern",
    "AggregationConfig",
    "PopulationPool",
    "rebuild_cache",
    "HOTCOLD",
    "MobileClient",
    "Region",
    "Server",
    "SimulationModel",
    "ClientSummary",
    "EnergyModel",
    "QueryLog",
    "QueryRecord",
    "SimulationResult",
    "SystemParams",
    "energy_per_query_nj",
    "jain_index",
    "UNIFORM",
    "Workload",
    "finalize",
    "run_replications",
    "run_schemes",
    "run_simulation",
    "workload_by_name",
]
