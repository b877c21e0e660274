"""Photon-level simulator and key-rate analysis for one-way time-bin QKD
with weak coherent pulses and a monitoring interferometer."""

__version__ = "0.1.0"

from .rates import (
    Protocol,
    PnsKind,
    PnsModel,
    RateMode,
    ProtocolParams,
    QberBreakdown,
    EveInfo,
    KeyRateResult,
    binary_entropy,
    transmission,
    counting_rate,
    monitoring_rate,
    sifted_rate,
    qber,
    xi,
    pns_fraction,
    eve_information,
    secret_key_rate,
)
from .optimize import (
    OptimizationSpec,
    OptimizeResult,
    CurvePoint,
    RobustnessResult,
    optimize_mu,
    sweep_loss,
    visibility_robustness,
)
from .simulation import (
    SymbolStream,
    OpticsConfig,
    DetectionRecord,
    MonitoringStats,
    QberEstimate,
    SimResult,
    generate_symbols,
    propagate,
    interferometer_outputs,
    detect,
    run_simulation,
    simulate_stream,
    estimate_qber,
)
from .attacks import (
    AttackKind,
    AttackConfig,
    AttackLog,
    apply_intercept_resend,
    predicted_signature,
)
from .protocol import (
    Announcement,
    SiftedKeyPair,
    AbortReason,
    EstimationReport,
    DistillationSummary,
    ProtocolReport,
    announce,
    sift,
    estimate_parameters,
    distill_accounting,
    run_protocol,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    FRAME_PATTERNS,
    run_experiment,
)
