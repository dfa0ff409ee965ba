"""Incremental counting on anonymous dynamic networks.

Deterministic simulator and library: T-stable topology streams (uniform
random rooted trees, stars, paths, Erdos-Renyi graphs), the three-phase
counting protocol (collection / verification / notification), and the
parameter-sweep harness used to check the polynomial-envelope claims.
"""

from .dynamics import DynamicsSchedule, ScheduleParams, new_schedule
from .errors import (
    BudgetOverflow,
    CountingError,
    DegreeBoundViolated,
    InfeasibleDegreeBound,
    InvalidParameters,
    RoundLimitExceeded,
)
from .experiment import (
    RunRow,
    RunSetting,
    SweepResult,
    SweepSpec,
    check_bound,
    csv_text,
    export_csv,
    export_json,
    load_json,
    run_sweep,
    standard_grid,
)
from .protocol import (
    PhaseTrace,
    ProtocolConfig,
    RunDiagnostics,
    RunRecord,
    collection_budget,
    collection_round,
    count,
    heard_round,
    notification_round,
    notification_rounds,
    verification_round,
    verification_rounds,
)
from .seeds import derive_seed
from .topology import Topology, gnp, path, star, tree_to_topology
from .trees import (
    canonical_form,
    check_tables,
    enumerate_rooted_trees,
    prune,
    ranrut,
    row_pairs,
    sizes_table,
)

__version__ = "0.1.0"
