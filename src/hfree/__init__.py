"""Simulation and verification lab for the triangle-free and K4-free random
greedy graph processes."""

from .process import (
    CLOSED,
    EDGE,
    K3,
    K4,
    NO_PAIR,
    OPEN,
    ProcessState,
    ProcessTerminated,
    StepOutcome,
)
from .ledger import (
    FULL,
    SAMPLED,
    PairCounts,
    PairLedger,
    expected_open_loss,
    expected_partial_gain,
    expected_partial_loss,
    expected_q_drop,
    oracle_counts_matrix,
    recompute_oracle,
    sampled_counts,
)
from .trajectory import (
    DEFAULT_P_COEFFS,
    Violation,
    k3_bad_event,
    k3_envelope,
    k3_envelope_f,
    k3_eval,
    k3_ode_residual,
    k4_bad_event,
    k4_envelope,
    k4_envelope_f,
    k4_eval,
    k4_ode_residual,
)
from .k4stats import k4_triple_counts, k4_witness_counts
from .concentration import (
    MartingaleSpec,
    TailBounds,
    g_func,
    hoeffding_tail,
    simulate_bounded_martingale,
    submartingale_tail,
    supermartingale_tail,
)
from .analysis import (
    AlphaResult,
    graph_from_edges,
    independence_exact,
    independence_greedy,
    ramsey_summary,
)
from .graphio import (
    edge_log_text,
    graph6_line,
    parse_edge_log,
    write_edge_log,
    write_graph6,
)
from .harness import (
    ExperimentConfig,
    emit_plotdata,
    load_config,
    load_records,
    mix64,
    parse_config,
    run_experiment,
    run_trial,
    trial_seed,
    write_csv,
)

__version__ = "0.1.0"
