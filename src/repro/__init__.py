"""repro — reproduction of *Adaptive Cache Invalidation Methods in Mobile
Environments* (Qinglong Hu and Dik Lun Lee, HPDC 1997).

A single wireless cell is simulated: a stateless server periodically
broadcasts invalidation reports; mobile clients cache data items, doze
through long disconnections, and salvage their caches on reconnection.
The package implements the paper's adaptive schemes (**AFW**, **AAW**),
every baseline (TS, AT, SIG, BS, TS-with-checking, a GCORE-inspired
grouped checking), and the full simulation substrate (discrete-event
kernel, bit-accurate wireless channels, server database, LRU client
caches).

Quickstart::

    from repro import SystemParams, run_simulation

    params = SystemParams(simulation_time=20_000, n_clients=50)
    result = run_simulation(params, "uniform", "aaw")
    print(result.summary())
"""

from . import _purity

if _purity.pure_python_forced():
    # Must run before any strict-tier import: reroute compiled extension
    # modules back to their .py sources.
    _purity.install()

from .net import FaultConfig
from .sim import (
    HOTCOLD,
    UNIFORM,
    SimulationModel,
    SimulationResult,
    SystemParams,
    Workload,
    run_replications,
    run_schemes,
    run_simulation,
    workload_by_name,
)
from .schemes import (
    EVALUATED_SCHEMES,
    Scheme,
    available_schemes,
    get_scheme,
    register_scheme,
)
from .service import (
    Answer,
    CacheNode,
    NodeConfig,
    ServiceParams,
    SWRConfig,
    VirtualClock,
)

__version__ = "1.0.0"

__all__ = [
    "Answer",
    "CacheNode",
    "EVALUATED_SCHEMES",
    "FaultConfig",
    "HOTCOLD",
    "NodeConfig",
    "SWRConfig",
    "Scheme",
    "ServiceParams",
    "VirtualClock",
    "SimulationModel",
    "SimulationResult",
    "SystemParams",
    "UNIFORM",
    "Workload",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "run_replications",
    "run_schemes",
    "run_simulation",
    "workload_by_name",
    "__version__",
]
