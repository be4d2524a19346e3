"""Timed-stream state machines, an alternating bit protocol model built on
them, and a model-based test kit for both."""

__version__ = "0.1.0"

from .streams import (
    Msg,
    Tick,
    TimedStream,
    all_ticks,
    inject_ticks,
    take_slots,
)
from .runtime import (
    DeadlockDetected,
    Delta,
    FromA,
    FromB,
    InvalidTimerValue,
    ModelError,
    MsgI,
    MsgO,
    NetworkRun,
    NetworkSpec,
    SetTimer,
    TimeoutEvent,
    attach_timer,
    demux_timed,
    lift_timed,
    merge_timed,
    run_machine,
    run_network,
)
from .abp import (
    INITIAL_BIT,
    RESEND_TIMEOUT,
    OracleCursor,
    OracleExhausted,
    OracleSpec,
    build_abp_network,
    make_sender_delta,
    medium_delta,
    receiver_delta,
    receiver_delta_tagged,
    sender_delta,
)
from .literals import LiteralError, format_value, parse_value
from .testkit import (
    FULL,
    OUTPUTS_ONLY,
    STATES_ONLY,
    CatalogEntry,
    ClassificationError,
    CoverageAccumulator,
    CoverageReport,
    IdentityResult,
    IdentityStatus,
    PathCase,
    ScenarioSpec,
    TransitionCase,
    TransitionCatalog,
    Verdict,
    check_identity,
    generate_scenario,
    instrument,
    path_test,
    run_scenario,
    scenario_digest,
    trans_test,
)
from .golden import (
    MACHINES,
    MachineBinding,
    TableCase,
    bundled_path_cases,
    bundled_scenario,
    bundled_tables,
    load_scenario_file,
    load_table_file,
    parse_table,
)
