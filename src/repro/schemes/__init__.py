"""Cache invalidation schemes: the paper's AFW/AAW and every baseline."""

from .aaw import AAW_SCHEME, AAWServerPolicy
from .afw import AFW_SCHEME, AFWServerPolicy, AdaptiveClientPolicy
from .at import AT_SCHEME, ATServerPolicy
from .base import (
    ClientPolicy,
    PendingTlbBuffer,
    Scheme,
    ServerPolicy,
    apply_invalidation,
    apply_window_report,
    drop_unreconciled,
    reconcile_with_amnesic,
    reconcile_with_bitseq,
)
from .bs import BS_SCHEME, BSServerPolicy
from .checking import CHECKING_SCHEME, CheckingClientPolicy, CheckingServerPolicy
from .gcore import GCORE_SCHEME, GCOREClientPolicy, group_of
from .loss_adaptive import (
    LossAdaptationConfig,
    LossAdaptiveController,
    LossEstimator,
    consecutive_loss_tolerance,
    effective_window_intervals,
)
from .registry import (
    EVALUATED_SCHEMES,
    available_schemes,
    get_scheme,
    register_scheme,
)
from .session import ClientSession, SessionOutcome
from .sig import SIG_SCHEME, SIGClientPolicy, SIGServerPolicy
from .ts_nocheck import TS_SCHEME, TSServerPolicy

__all__ = [
    "AAW_SCHEME",
    "AAWServerPolicy",
    "AFW_SCHEME",
    "AFWServerPolicy",
    "AT_SCHEME",
    "ATServerPolicy",
    "AdaptiveClientPolicy",
    "BS_SCHEME",
    "BSServerPolicy",
    "CHECKING_SCHEME",
    "CheckingClientPolicy",
    "CheckingServerPolicy",
    "ClientPolicy",
    "ClientSession",
    "EVALUATED_SCHEMES",
    "GCORE_SCHEME",
    "GCOREClientPolicy",
    "LossAdaptationConfig",
    "LossAdaptiveController",
    "LossEstimator",
    "PendingTlbBuffer",
    "SIG_SCHEME",
    "SIGClientPolicy",
    "SIGServerPolicy",
    "Scheme",
    "ServerPolicy",
    "SessionOutcome",
    "TS_SCHEME",
    "TSServerPolicy",
    "apply_invalidation",
    "apply_window_report",
    "drop_unreconciled",
    "reconcile_with_amnesic",
    "reconcile_with_bitseq",
    "available_schemes",
    "consecutive_loss_tolerance",
    "effective_window_intervals",
    "get_scheme",
    "group_of",
    "register_scheme",
]
