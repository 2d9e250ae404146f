"""Reduced-space optimization: state solves, adjoints, Newton drivers.

The control-to-state map is realized by a damped Newton iteration on the
nonlinear state residual.  Its linearization is factorized once per
point and reused for every adjoint, tangent and Hessian-vector solve at
that point, which makes the matrix-free CG on the reduced Hessian cheap:
one Hessian application costs two triangular solve pairs.

Dual vectors (assembled functionals) are always condensed, i.e. indexed
by the unconstrained DOFs of their test space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LineSearchError,
    NegativeCurvatureError,
    NonConvergenceError,
    StaleTripleError,
)
from .fem import (
    DiscreteFunction,
    Factorization,
    assemble_matrix,
    assemble_vector,
    function_from_free,
    mass_fields,
    zero_function,
)

ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 20


@dataclass(frozen=True)
class SpacePair:
    """State and control spaces of one discretization level."""

    state: object
    control: object


class LinearizedState:
    """Factorized state Jacobian at a fixed linearization point."""

    def __init__(self, problem, u, q):
        space = u.space
        key = ("a_u_const", problem.name)
        if problem.a_u_is_constant and key in space._cache:
            self.matrix, self.fac = space._cache[key]
        else:
            self.matrix = assemble_matrix(
                problem.a_u_fields, space, space, coeffs={"u": u, "q": q}
            )
            self.fac = Factorization(self.matrix)
            if problem.a_u_is_constant:
                space._cache[key] = (self.matrix, self.fac)
        self.space = space

    def solve(self, rhs_dual):
        """Forward linearized solve; returns a state-space function."""
        return function_from_free(self.space, self.fac.solve(rhs_dual))

    def solve_transposed(self, rhs_dual):
        """Adjoint (transposed) solve; returns a state-space function."""
        return function_from_free(self.space, self.fac.solve_transposed(rhs_dual))


@dataclass
class KKTTriple:
    """State, control and adjoint with the cached linearization."""

    u: DiscreteFunction
    q: DiscreteFunction
    z: DiscreteFunction
    lin: LinearizedState | None = None
    consistent: bool = False
    state_iterations: int = 0

    def require_consistent(self):
        if not self.consistent:
            raise StaleTripleError("operation requires a consistent KKT triple")


@dataclass
class NewtonLog:
    """Verbatim per-iteration record of one Newton run."""

    residuals: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    stop_reason: str = ""

    @property
    def iterations(self):
        return len(self.step_sizes)


# ---------------------------------------------------------------------------
# assembly helpers


def assemble_terms(terms, space, coeffs):
    """Sum of scaled (fields, region) functional terms over one test space."""
    out = np.zeros(space.nfree)
    for scale, fields, region in terms:
        if scale == 0.0:
            continue
        out += scale * assemble_vector(fields, space, coeffs=coeffs, region=region)
    return out


def state_residual(problem, u, q):
    """Condensed residual vector of the state equation at (u, q)."""
    return assemble_vector(
        problem.residual_fields, u.space, coeffs={"u": u, "q": q}
    )


def _ju_vector(problem, u, q):
    return assemble_vector(problem.j_u_fields, u.space, coeffs={"u": u, "q": q})


def control_mass(control_space):
    """Control mass matrix and its factorization (cached on the space)."""
    if "mass" not in control_space._cache:
        M = assemble_matrix(mass_fields, control_space, control_space)
        control_space._cache["mass"] = (M, Factorization(M))
    return control_space._cache["mass"]


def dual_norm(control_space, g):
    """Mass-weighted dual norm sqrt(g' M^-1 g); mesh-size independent."""
    _, fac = control_mass(control_space)
    return float(np.sqrt(max(g @ fac.solve(g), 0.0)))


# ---------------------------------------------------------------------------
# state and adjoint solves


def _solve_state_impl(problem, q, space, warm_start=None, tol_abs=1e-10,
                      tol_rel=1e-12, max_iter=50):
    u = warm_start.copy() if warm_start is not None else zero_function(space)
    u = DiscreteFunction(space, space.distribute(u.coefs))
    res = state_residual(problem, u, q)
    norm0 = float(np.linalg.norm(res))
    norm = norm0
    lin = None
    for it in range(max_iter):
        if norm <= tol_abs or norm <= tol_rel * norm0:
            if lin is None:
                lin = LinearizedState(problem, u, q)
            return u, lin, it
        lin = LinearizedState(problem, u, q)
        du = lin.solve(-res)
        s = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = DiscreteFunction(space, u.coefs + s * du.coefs)
            res_trial = state_residual(problem, trial, q)
            norm_trial = float(np.linalg.norm(res_trial))
            if norm_trial < norm:
                break
            s *= BACKTRACK_FACTOR
        else:
            raise LineSearchError(
                f"state Newton line search stalled at residual {norm:.3e}"
            )
        u, res, norm = trial, res_trial, norm_trial
        if not problem.a_u_is_constant:
            lin = None  # Jacobian is stale after the update
    raise NonConvergenceError(
        f"state Newton did not reach tolerance in {max_iter} iterations "
        f"(residual {norm:.3e})"
    )


def solve_state(problem, q, space, warm_start=None, tol_abs=1e-10, tol_rel=1e-12):
    """Damped Newton solve of the state equation; returns the state."""
    u, _, _ = _solve_state_impl(problem, q, space, warm_start, tol_abs, tol_rel)
    return u


def solve_adjoint_like(problem, u, q, rhs, lin=None):
    """Solve the transposed linearized state equation.

    rhs is either a condensed dual vector over the state test space or a
    fields callable (assembled with coefficients u, q).
    """
    if lin is None:
        lin = LinearizedState(problem, u, q)
    if callable(rhs):
        rhs = assemble_vector(rhs, u.space, coeffs={"u": u, "q": q})
    return lin.solve_transposed(rhs)


def make_consistent(problem, q, pair, warm_u=None, tol_abs=1e-10, tol_rel=1e-12,
                    _precomputed=None):
    """State + adjoint solve at q, yielding a consistent KKT triple."""
    if _precomputed is not None:
        u, lin, its = _precomputed
    else:
        u, lin, its = _solve_state_impl(
            problem, q, pair.state, warm_u, tol_abs, tol_rel
        )
    z = lin.solve_transposed(_ju_vector(problem, u, q))
    return KKTTriple(u=u, q=q, z=z, lin=lin, consistent=True, state_iterations=its)


def reduced_cost(problem, q, pair, warm_u=None):
    """Cost of the reduced problem at q (one state solve).

    Returns (j, u, lin, its): the cost, the state, its factorized
    linearization and the state-Newton iteration count.
    """
    u, lin, its = _solve_state_impl(problem, q, pair.state, warm_u)
    return problem.j_value(u, q), u, lin, its


# ---------------------------------------------------------------------------
# reduced derivatives


def reduced_gradient(problem, triple):
    """Assembled first derivative of the reduced cost (dual vector)."""
    triple.require_consistent()

    def fields(ctx):
        g, _ = problem.j_q_fields(ctx)
        return g - problem.a_q_c * ctx.val("z"), None

    return assemble_vector(
        fields, triple.q.space, coeffs={"q": triple.q, "z": triple.z}
    )


def goal_gradient(problem, goal, triple):
    """Assembled derivative of the reduced goal i(q) = I(S(q), q) (dual vector)."""
    triple.require_consistent()
    coeffs = {"u": triple.u, "q": triple.q}
    ctrl = triple.q.space
    out = assemble_terms(goal.iq_terms, ctrl, coeffs)
    if goal.iu_terms:
        rhs = assemble_terms(goal.iu_terms, triple.u.space, coeffs)
        w = triple.lin.solve_transposed(rhs)

        def fields(ctx):
            return -problem.a_q_c * ctx.val("w"), None

        out += assemble_vector(fields, ctrl, coeffs={"w": w})
    return out


def hessvec(problem, triple, dq):
    """Matrix-free application of the reduced Hessian to a control direction.

    Runs the tangent solve, the second-order adjoint solve, and collects
    the control-space terms; returns a dual vector.
    """
    triple.require_consistent()
    state = triple.u.space
    ctrl = triple.q.space

    def tangent_rhs(ctx):
        return -problem.a_q_c * ctx.val("dq"), None

    du = triple.lin.solve(assemble_vector(tangent_rhs, state, coeffs={"dq": dq}))

    def adj_rhs(ctx):
        return problem.j_uu_c * ctx.val("du"), None

    rhs2 = assemble_vector(adj_rhs, state, coeffs={"du": du})
    if problem.a_uu_fields is not None:
        rhs2 -= assemble_vector(
            lambda ctx: problem.a_uu_fields(ctx, "w", "zfun"),
            state,
            coeffs={"u": triple.u, "w": du, "zfun": triple.z},
        )
    dz = triple.lin.solve_transposed(rhs2)

    def out_fields(ctx):
        return problem.j_qq_c * ctx.val("dq") - problem.a_q_c * ctx.val("dz"), None

    return assemble_vector(out_fields, ctrl, coeffs={"dq": dq, "dz": dz})


def solve_reduced_system(problem, triple, rhs, krylov_tol=1e-10, max_iter=500,
                         truncate_on_negative=False):
    """Preconditioned CG on the reduced Hessian.

    The preconditioner is the inverse of the alpha-scaled control mass
    matrix.  Nonpositive curvature aborts with the offending direction,
    unless truncation is requested (Newton globalization): then the CG
    progress so far, or the preconditioned right-hand side, is returned.
    """
    triple.require_consistent()
    ctrl = triple.q.space
    b = np.asarray(rhs, dtype=np.float64)
    if not np.any(b):
        return zero_function(ctrl)
    _, mfac = control_mass(ctrl)
    inv_alpha = 1.0 / problem.alpha

    x = np.zeros(ctrl.nfree)
    r = b.copy()
    z = mfac.solve(r) * inv_alpha
    rho = float(r @ z)
    rho0 = rho
    p = z.copy()
    for it in range(max_iter):
        Hp = hessvec(problem, triple, function_from_free(ctrl, p))
        pHp = float(p @ Hp)
        if pHp <= 0.0:
            if truncate_on_negative:
                return function_from_free(ctrl, x if it > 0 else z)
            raise NegativeCurvatureError(
                f"nonpositive curvature {pHp:.3e} in reduced CG",
                direction=function_from_free(ctrl, p),
            )
        a = rho / pHp
        x += a * p
        r -= a * Hp
        z = mfac.solve(r) * inv_alpha
        rho_new = float(r @ z)
        if np.sqrt(max(rho_new, 0.0) / rho0) <= krylov_tol:
            return function_from_free(ctrl, x)
        p = z + (rho_new / rho) * p
        rho = rho_new
    raise NonConvergenceError(f"reduced CG stalled after {max_iter} iterations")


# ---------------------------------------------------------------------------
# Newton drivers


def _newton_update(problem, triple, pair, g, krylov_tol):
    """One Newton step with Armijo backtracking on the reduced cost.

    Near convergence the predicted decrease falls below the accuracy of
    evaluating j through a state re-solve; the acceptance test allows
    that evaluation noise so the final tiny steps are not rejected.
    """
    dq = solve_reduced_system(
        problem, triple, -g, krylov_tol=krylov_tol, truncate_on_negative=True
    )
    slope = float(g @ dq.coefs[pair.control.free_dofs])
    j0 = problem.j_value(triple.u, triple.q)
    j_noise = 1e-12 * max(1.0, abs(j0))
    s = 1.0
    for _ in range(MAX_BACKTRACKS):
        q_trial = DiscreteFunction(pair.control, triple.q.coefs + s * dq.coefs)
        j_trial, u_trial, lin_trial, its = reduced_cost(
            problem, q_trial, pair, warm_u=triple.u
        )
        if j_trial <= j0 + ARMIJO_C * s * slope + j_noise:
            new_triple = make_consistent(
                problem, q_trial, pair, _precomputed=(u_trial, lin_trial, its)
            )
            return new_triple, s
        s *= BACKTRACK_FACTOR
    raise LineSearchError("reduced Newton line search failed")


def newton_standard(problem, pair, q0, tol_abs=1e-7, tol_rel=8e-5,
                    krylov_tol=1e-10, max_iter=50):
    """Reduced Newton with the classical gradient-norm stopping rule."""
    triple = make_consistent(problem, q0, pair)
    log = NewtonLog()
    g = reduced_gradient(problem, triple)
    ng0 = dual_norm(pair.control, g)
    ng = ng0
    while True:
        log.residuals.append(ng)
        if ng <= tol_abs:
            log.stop_reason = "absolute"
            return triple, log
        if ng <= tol_rel * ng0:
            log.stop_reason = "relative"
            return triple, log
        if log.iterations >= max_iter:
            log.stop_reason = "maxiter"
            raise NonConvergenceError(
                f"reduced Newton: {max_iter} iterations, gradient {ng:.3e}"
            )
        triple, s = _newton_update(problem, triple, pair, g, krylov_tol)
        log.step_sizes.append(s)
        g = reduced_gradient(problem, triple)
        ng = dual_norm(pair.control, g)


def newton_reduced_adaptive(problem, goal_combined, pair, q0, gamma, eta_prev,
                            krylov_tol=1e-10, max_iter=50,
                            tol_abs=1e-7, tol_rel=8e-5):
    """Reduced Newton stopped by the goal-weighted iteration-error guard.

    After every update the goal adjoint direction is recomputed with the
    combined functional refrozen at the current iterate; the loop ends
    once |j'(q)(p)| drops below gamma times the previous discretization
    estimate.  The classical gradient-norm criteria stay active as
    additional exits, so the adaptive rule can only stop earlier than
    the standard one.  Returns the triple, the goal adjoint p, the log.
    """
    if gamma <= 0 or eta_prev <= 0:
        raise NonConvergenceError("gamma and eta_prev must be positive")
    triple = make_consistent(problem, q0, pair)
    log = NewtonLog()
    threshold = gamma * eta_prev
    ng0 = None
    while True:
        goal_k = goal_combined.refreeze(triple.u, triple.q)
        ig = goal_gradient(problem, goal_k, triple)
        # truncation: far-from-converged iterates may see an indefinite
        # reduced Hessian; an inexact p only loosens the stopping guard
        p = solve_reduced_system(
            problem, triple, -ig, krylov_tol=krylov_tol, truncate_on_negative=True
        )
        g = reduced_gradient(problem, triple)
        guard = abs(float(g @ p.coefs[pair.control.free_dofs]))
        log.residuals.append(guard)
        ng = dual_norm(pair.control, g)
        if ng0 is None:
            ng0 = ng
        if guard <= threshold:
            log.stop_reason = "adaptive"
            return triple, p, log
        if ng <= tol_abs:
            log.stop_reason = "absolute"
            return triple, p, log
        if ng <= tol_rel * ng0:
            log.stop_reason = "relative"
            return triple, p, log
        if log.iterations >= max_iter:
            log.stop_reason = "maxiter"
            raise NonConvergenceError(
                f"adaptive Newton: {max_iter} iterations, guard {guard:.3e}"
            )
        triple, s = _newton_update(problem, triple, pair, g, krylov_tol)
        log.step_sizes.append(s)
