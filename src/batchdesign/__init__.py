"""Optimal batch selection from a candidate pool.

Solve the capped-simplex relaxation of the best-size-n-subset problem for
Phi_p information criteria, round to a sample, and certify its efficiency.
"""

from .atoms import AtomSet, as_atom_set
from .criteria import CriterionSpec, InfoState, build_info_state, phi_p_scores
from .errors import (
    DegenerateCategory,
    DesignError,
    DimensionMismatch,
    EmptyInput,
    FitDiverged,
    InfeasibleEpsilon,
    InfeasibleMass,
    NonFiniteAtom,
    NotPSD,
    ParseError,
    PositivityRepairFailed,
    SingularInformation,
    ZeroVariance,
)
from .measures import (
    Measure,
    SampleSet,
    TrichotomyReport,
    measure_of_sample,
    project_capped_simplex,
    psg_measure,
    round_to_sample,
    sg_measure,
    trichotomy_check,
)
from .models import (
    CumulativeLinkSpec,
    LogisticModelSpec,
    cumlink_atoms,
    logistic_atoms,
    standardize_features,
)
from .solvers import (
    EfficiencyBounds,
    SolverConfig,
    SolveResult,
    SolveTrace,
    efficiency_bounds,
    solve_hybrid,
)
from .baselines import BaselineResult, backward_select, exchange_select
from .fitting import CumlinkFit, LogisticFit, fit_cumlink, fit_logistic
from .pipeline import BootstrapResult, TwoStageResult, bootstrap_evaluate, two_stage_select

__version__ = "0.1.0"
