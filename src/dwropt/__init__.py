"""Goal-oriented adaptive finite elements for PDE-constrained optimal control.

The package solves tracking-type optimal control problems constrained by
(possibly nonlinear) elliptic PDEs on adaptively refined quadrilateral
meshes.  Dual-weighted residual estimates on the reduced optimality system
localize the discretization error in one or several quantities of interest
and balance it against the inexactness of the outer Newton iteration.
"""

from .mesh import (
    CellSet,
    Domain,
    HOLED_RECT,
    Mesh,
    UNIT_SQUARE,
    build_initial,
    dorfler_mark,
    refine,
    refine_all,
)
from .fem import (
    DiscreteFunction,
    Factorization,
    Space,
    assemble_matrix,
    assemble_vector,
    build_space,
    integrate,
    interpolate,
    transfer,
    zero_function,
)
from .problem import (
    GoalFunctional,
    ProblemDefinition,
    make_goals,
    make_plaplace_control,
    make_poisson_control,
)
from .reduced import (
    KKTTriple,
    NewtonLog,
    goal_gradient,
    hessvec,
    make_consistent,
    newton_reduced_adaptive,
    newton_standard,
    reduced_gradient,
    solve_reduced_system,
    solve_state,
)
from .estimator import (
    AdjointTriple,
    ErrorBreakdown,
    compute_eta_k,
    effectivities,
    localize_pu,
    recover_v,
    recover_y,
    solve_reduced_adjoint,
)
from .multigoal import CombinedGoal, build_combined
from .driver import Config, LevelReport, emit_outputs, preset_config, run_adaptive

__version__ = "0.1.0"
