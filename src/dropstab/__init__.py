"""Mean-square stabilizability of linear plants over lossy input channels.

The package decides whether a discrete-time MIMO plant can be stabilized in
mean square when each actuator command crosses an independent Bernoulli
packet-drop link, maps the admissible dropout-probability region, builds the
optimal stabilizing controller for a certified operating point, and checks
the verdict two independent ways (exact second-moment propagation and
Monte-Carlo simulation).  The ``dropstab`` console script exposes the same
pipeline on files.
"""

from .factorization import (
    AssumptionViolation,
    DoublyCoprime,
    bezout,
    coprime_factorize,
    enumerate_wonham_forms,
    gamma_scale,
    inner_outer,
    observer_gain,
    validate_assumption,
    wonham_decompose,
    wonham_gain,
)
from .stabilizability import (
    ChannelSpec,
    GammaScaling,
    MpSupremum,
    RectangleSet,
    ScalingProblem,
    StabilizabilityReport,
    Synthesis,
    closed_loop_map,
    controller,
    max_blocking_probability,
    membership,
    mp_supremum,
    ms_radius,
    phi_diag_entry,
    rectangle_set,
    rectangle_vertex,
    sweep_bounds,
    synthesize,
    synthesize_Q,
    t_hat,
    union_membership,
)
from .statespace import (
    StateSpaceModel,
    TransferMatrix,
    balanced_truncate,
    cascade,
    evaluate,
    h2_norm_sq,
    minimal,
    realize,
    scale_io,
    stable_part,
)
from .verification import (
    StochasticClosedLoop,
    assemble,
    exact_moment_trace,
    monte_carlo_trace,
    second_moment_radius,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "ChannelSpec",
    "DoublyCoprime",
    "GammaScaling",
    "MpSupremum",
    "RectangleSet",
    "ScalingProblem",
    "StabilizabilityReport",
    "Synthesis",
    "StateSpaceModel",
    "StochasticClosedLoop",
    "TransferMatrix",
    "assemble",
    "balanced_truncate",
    "bezout",
    "cascade",
    "closed_loop_map",
    "controller",
    "coprime_factorize",
    "enumerate_wonham_forms",
    "evaluate",
    "exact_moment_trace",
    "gamma_scale",
    "h2_norm_sq",
    "inner_outer",
    "max_blocking_probability",
    "membership",
    "minimal",
    "monte_carlo_trace",
    "mp_supremum",
    "ms_radius",
    "observer_gain",
    "phi_diag_entry",
    "realize",
    "scale_io",
    "rectangle_set",
    "rectangle_vertex",
    "second_moment_radius",
    "stable_part",
    "sweep_bounds",
    "synthesize",
    "synthesize_Q",
    "t_hat",
    "union_membership",
    "validate_assumption",
    "wonham_decompose",
    "wonham_gain",
]
