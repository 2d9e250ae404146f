"""Reduced-space optimization: state solves, adjoints, reduced Newton.

The control-to-state map is realized by one damped chord iteration on
the nonlinear state residual, :func:`solve_state`: a factorized Jacobian
is kept while every step cuts the residual norm by the ratio CHORD_RATE
and refactorized after a weaker step, and a reduced-Newton line-search
trial starts from the factor of the accepted iterate, taken over from its
triple so that it is freed before the trial's refactorization.  Its
iteration counts (``its``, ``KKTTriple.state_iterations``) count chord
steps.  It returns the state with the Jacobian factorized at it, which
the KKT triple keeps and reuses for every adjoint, tangent and
Hessian-vector solve at that point (and refactorizes there after a
release or a handover).  A linear operator's Jacobian is the Laplacian,
factorized once per state space and cached there, and its residual, like
the cost derivatives, is a product with constant operators plus data integrals
cached on the spaces, without a quadrature sweep.  The reduced Hessian and the
goal-adjoint chain are composed from that factorization and operators
applied cell by cell (:func:`fem.reference_apply`): the control-to-state
coupling, the control mass and the Lagrangian's state Hessian, which is
the state mass for a linear operator and otherwise a matrix assembled
once per KKT point.  One Hessian application costs two triangular solve
pairs and four operator applications; its CG preconditioner applies the
block-diagonal inverse of the control mass.

One reduced-Newton loop serves both stopping rules: :func:`newton_standard`
stops on the gradient norm, :func:`newton_reduced_adaptive` also once the
goal-weighted iteration error |j'(q)(p)| drops below gamma * eta.

Dual vectors (assembled functionals) are always condensed, i.e. indexed
by the unconstrained DOFs of their test space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LineSearchError, NonConvergenceError
from .fem import (
    DiscreteFunction,
    Factorization,
    assemble_matrix,
    assemble_vector,
    function_from_free,
    gauss_points,
    load_vector,
    reference_apply,
    reference_matrix,
    zero_function,
)

ARMIJO_C = 1e-4
CHORD_RATE = 0.1  # keep a state Jacobian while it contracts the residual this much
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 20
MAX_CG_ITERATIONS = 500
MAX_STATE_ITERATIONS = 50  # chord steps of one state solve
MAX_NEWTON_ITERATIONS = 50  # reduced-Newton updates of one solve


@dataclass
class KKTTriple:
    """State, control and adjoint with the factorized state Jacobian at u.

    The triple carries the problem it solves, so the reduced-space
    functions take the triple alone.  Solves with the Jacobian go through
    :meth:`factor`, so a triple stays usable after :meth:`release` has
    freed its solver state.
    """

    u: DiscreteFunction
    q: DiscreteFunction
    z: DiscreteFunction
    problem: object  # the problem u solves
    lin: Factorization | None = None
    state_iterations: int = 0
    l_uu: object = None  # lagrangian_uu, built on first use

    def factor(self):
        """The factorized state Jacobian at u, refactorized there after a release.

        The state solve factorized it at the u it returned, so the
        refactorized Jacobian is bitwise the same.
        """
        if self.lin is None:
            self.lin = _jacobian(self.problem, self.u, self.q)
        return self.lin

    def take_factor(self):
        """The factor of :meth:`factor`, handed over: the triple lets go of
        it, so the caller's last reference frees it, and refactorizes on its
        next use."""
        fac = self.factor()
        self.lin = None
        return fac

    def release(self):
        """Free the factor, the Lagrangian's state Hessian and what both
        spaces cache; each is rebuilt on next use, bitwise the same."""
        self.lin = self.l_uu = None
        self.u.space.drop_cached()
        self.q.space.drop_cached()


@dataclass
class NewtonLog:
    """Verbatim per-iteration record of one Newton run.

    residuals and state_iterations have one entry per iterate (the chord
    steps of the state solve that produced its triple), step_sizes and
    cg_iterations one per update (the CG iterations, that is Hessian
    applications, of the step's reduced system solve).
    """

    residuals: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    state_iterations: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    stop_reason: str = ""

    def record(self, residual, triple):
        self.residuals.append(residual)
        self.state_iterations.append(triple.state_iterations)

    @property
    def iterations(self):
        return len(self.step_sizes)


# ---------------------------------------------------------------------------
# assembly helpers


def state_residual(problem, u, q):
    """Condensed residual vector of the state equation at (u, q).

    A linear operator's residual is K u - M q - F: reference-element
    products with the stiffness and the state-control mass, and the load
    F of f cached on the state space.  A nonlinear one is assembled.
    """
    state, ctrl = u.space, q.space
    if problem.a_uu_fields is None:
        uf, qf = u.coefs[state.free_dofs], q.coefs[ctrl.free_dofs]
        return (reference_apply(uf, state) - reference_apply(qf, state, ctrl)
                - load_vector(state, problem.f, gauss_points(state, ctrl)))
    return assemble_vector(
        problem.residual_fields, state, coeffs={"u": u, "q": q}
    )


def _ju_vector(problem, u, q):
    """dJ/du as M u - b: a mass product and the cached load of u_des."""
    state = u.space
    uf = u.coefs[state.free_dofs]
    return (reference_apply(uf, state, state)
            - load_vector(state, problem.u_des, gauss_points(state, q.space)))


def _jacobian(problem, u, q):
    """Factorized state Jacobian at (u, q); if linear, the Laplacian cached on u's space."""
    space = u.space
    if problem.a_uu_fields is None:
        return space.cached("stiffness_factor",
                            lambda: Factorization(reference_matrix(space)))
    return Factorization(assemble_matrix(problem.a_u_fields, space, {"u": u, "q": q}))


def lagrangian_uu(triple, x):
    """State Hessian of the Lagrangian, J_uu - a_uu(u)(., .; z), applied to x.

    For a linear operator it is the state mass, applied cell by cell.
    Otherwise it is a matrix, assembled on first use at a consistent
    triple and kept on it.
    """
    state = triple.u.space
    a_uu_fields = triple.problem.a_uu_fields
    if a_uu_fields is None:
        return reference_apply(x, state, state)
    if triple.l_uu is None:

        def fields(ctx):
            K, _ = a_uu_fields(ctx)
            return -K, np.ones(ctx.wdet.shape)

        triple.l_uu = assemble_matrix(
            fields, state, coeffs={"u": triple.u, "z": triple.z}
        )
    return triple.l_uu @ x


def dual_norm(control, g):
    """Dual norm sqrt(g' M^-1 g) with the control mass M; mesh-size independent."""
    return float(np.sqrt(max(g @ reference_apply(g, control, control, inverse=True), 0.0)))


# ---------------------------------------------------------------------------
# state and adjoint solves


def solve_state(problem, q, u0, tol_abs=1e-10, tol_rel=1e-12, fac=None):
    """Damped chord solve of the state equation at the control q, from u0.

    u0 carries the state space.  fac, if given, is a factorized Jacobian
    near u0 (a line-search trial passes the one of the accepted iterate,
    which it then owns, so the refactorization at its converged state
    frees it).  A factor is kept while each step reduces the residual norm
    by at least the ratio CHORD_RATE; after a weaker step the Jacobian is
    factorized afresh at the new iterate, and a line search that stalls
    on a stale factor is retried once with a fresh one.  A linear
    operator's Jacobian is the Laplacian cached on the state space, so
    refactorizing it costs nothing.  At most MAX_STATE_ITERATIONS steps
    are taken.  Returns (u, fac, its): the state, the Jacobian factorized
    at it and the number of chord steps.
    """
    space = u0.space
    u = DiscreteFunction(space, space.distribute(u0.coefs))
    res = state_residual(problem, u, q)
    norm0 = float(np.linalg.norm(res))
    norm = norm0
    fresh = False  # fac is the Jacobian at u
    for it in range(MAX_STATE_ITERATIONS):
        converged = norm <= tol_abs or norm <= tol_rel * norm0
        if fac is None or (converged and not fresh):
            fac = None  # free the stale factor before building the next
            fac, fresh = _jacobian(problem, u, q), True
        if converged:
            return u, fac, it
        step = _damped_step(problem, q, u, res, norm, fac)
        if step is None and not fresh:
            fac = None
            fac, fresh = _jacobian(problem, u, q), True
            step = _damped_step(problem, q, u, res, norm, fac)
        if step is None:
            raise LineSearchError(
                f"state Newton line search stalled at residual {norm:.3e}"
            )
        u, res, norm_new = step
        fresh = False
        if norm_new > CHORD_RATE * norm:
            fac = None  # refactorize at the new iterate
        norm = norm_new
    raise NonConvergenceError(
        f"state Newton did not reach tolerance in {MAX_STATE_ITERATIONS} iterations "
        f"(residual {norm:.3e})"
    )


def _damped_step(problem, q, u, res, norm, fac):
    """Backtracked step -fac^-1 res from u that lowers the residual norm.

    Returns (u, res, norm) at the new iterate, or None if the line search
    stalls.
    """
    du = u.space.from_free(fac.solve(-res))
    s = 1.0
    for _ in range(MAX_BACKTRACKS):
        trial = DiscreteFunction(u.space, u.coefs + s * du)
        res_trial = state_residual(problem, trial, q)
        norm_trial = float(np.linalg.norm(res_trial))
        if norm_trial < norm:
            return trial, res_trial, norm_trial
        s *= BACKTRACK_FACTOR
    return None


def _with_adjoint(problem, q, u, fac, its):
    """Consistent KKT triple at the solved state u = S(q): adds the adjoint."""
    z = function_from_free(u.space, fac.solve_transposed(_ju_vector(problem, u, q)))
    return KKTTriple(u=u, q=q, z=z, lin=fac, state_iterations=its, problem=problem)


def make_consistent(problem, q, u0, tol_abs=1e-10, tol_rel=1e-12):
    """State + adjoint solve at q from u0, yielding a consistent KKT triple."""
    u, fac, its = solve_state(problem, q, u0, tol_abs, tol_rel)
    return _with_adjoint(problem, q, u, fac, its)


# ---------------------------------------------------------------------------
# reduced derivatives


def reduced_gradient(triple):
    """Assembled first derivative of the reduced cost (dual vector).

    Its J_q term is alpha (M q - b), a control mass product and the load
    of q_des cached on the control space; its a_q term the mass product
    (z, .) on the control space.
    """
    problem, state, ctrl = triple.problem, triple.u.space, triple.q.space
    qf = triple.q.coefs[ctrl.free_dofs]
    g = problem.alpha * (reference_apply(qf, ctrl, ctrl)
                         - load_vector(ctrl, problem.q_des, gauss_points(ctrl)))
    return g + reference_apply(triple.z.coefs[state.free_dofs], ctrl, state)


def goal_gradient(goal, triple):
    """Assembled derivative of the reduced goal i(q) = I(S(q), q) (dual vector)."""
    coeffs = {"u": triple.u, "q": triple.q}
    iu, iq = goal.iu_fields, goal.iq_fields
    state, ctrl = triple.u.space, triple.q.space
    out = np.zeros(ctrl.nfree) if iq is None else assemble_vector(iq, ctrl, coeffs)
    if iu is not None:
        rhs = assemble_vector(iu, state, coeffs)
        out += reference_apply(triple.factor().solve_transposed(rhs), ctrl, state)
    return out


def hessvec(triple, dq):
    """Application of the reduced Hessian to a control direction.

    A tangent solve and a second-order adjoint solve with the cached
    factorization, joined by the coupling -a_q = (dq, .), the Lagrangian's
    state Hessian and the control mass; returns a dual vector.
    """
    state, ctrl = triple.u.space, triple.q.space
    x = dq.coefs[ctrl.free_dofs]
    fac = triple.factor()
    du = fac.solve(reference_apply(x, state, ctrl))
    dz = fac.solve_transposed(lagrangian_uu(triple, du))
    return (triple.problem.alpha * reference_apply(x, ctrl, ctrl)
            + reference_apply(dz, ctrl, state))


def solve_reduced_system(triple, rhs, krylov_tol=1e-10):
    """Preconditioned CG on the reduced Hessian, truncated on nonpositive curvature.

    The preconditioner is the inverse of the alpha-scaled control mass,
    applied block by block.  A direction of nonpositive curvature (far
    from a minimum the reduced Hessian may be indefinite) ends the
    iteration with the CG progress so far, or with the preconditioned
    right-hand side on the first iteration.  Returns
    (solution, iterations), one iteration per Hessian application.
    """
    ctrl = triple.q.space
    b = np.asarray(rhs, dtype=np.float64)
    if not np.any(b):
        return zero_function(ctrl), 0
    inv_alpha = 1.0 / triple.problem.alpha

    x = np.zeros(ctrl.nfree)
    r = b.copy()
    z = reference_apply(r, ctrl, ctrl, inverse=True) * inv_alpha
    rho = float(r @ z)
    rho0 = rho
    p = z.copy()
    for it in range(MAX_CG_ITERATIONS):
        Hp = hessvec(triple, function_from_free(ctrl, p))
        pHp = float(p @ Hp)
        if pHp <= 0.0:
            return function_from_free(ctrl, x if it > 0 else z), it + 1
        a = rho / pHp
        x += a * p
        r -= a * Hp
        z = reference_apply(r, ctrl, ctrl, inverse=True) * inv_alpha
        rho_new = float(r @ z)
        if np.sqrt(max(rho_new, 0.0) / rho0) <= krylov_tol:
            return function_from_free(ctrl, x), it + 1
        p = z + (rho_new / rho) * p
        rho = rho_new
    raise NonConvergenceError(
        f"reduced CG stalled after {MAX_CG_ITERATIONS} iterations"
    )


# ---------------------------------------------------------------------------
# reduced Newton: one loop, two stopping rules


def _newton_update(triple, g, krylov_tol):
    """One Newton step with Armijo backtracking on the reduced cost.

    Near convergence the predicted decrease falls below the accuracy of
    evaluating j through a state re-solve; the acceptance test allows
    that evaluation noise so the final tiny steps are not rejected.
    Returns (triple, step size, CG iterations of the step solve).
    """
    problem, ctrl = triple.problem, triple.q.space
    dq, cg_its = solve_reduced_system(triple, -g, krylov_tol=krylov_tol)
    slope = float(g @ dq.coefs[ctrl.free_dofs])
    triple.l_uu = None  # the trial solves below peak in memory; free it first
    j0 = problem.j_value(triple.u, triple.q)
    j_noise = 1e-12 * max(1.0, abs(j0))
    s = 1.0
    for _ in range(MAX_BACKTRACKS):
        q_trial = DiscreteFunction(ctrl, triple.q.coefs + s * dq.coefs)
        # the trial owns the accepted factor, so that one factor is alive
        # when it refactorizes; a rejected trial's successor refactorizes
        # the accepted point, bitwise the same
        u, fac, its = solve_state(problem, q_trial, triple.u,
                                  fac=triple.take_factor())
        if problem.j_value(u, q_trial) <= j0 + ARMIJO_C * s * slope + j_noise:
            return _with_adjoint(problem, q_trial, u, fac, its), s, cg_its
        fac = None  # free the rejected trial's factor before refactorizing
        s *= BACKTRACK_FACTOR
    raise LineSearchError("reduced Newton line search failed")


def _newton(problem, q0, u0, guard, tol_abs, tol_rel, krylov_tol):
    """Reduced Newton loop from (q0, u0); guard is None or (combined goal, threshold).

    With a guard, each iterate refreezes the goal, solves for its adjoint
    p and records |j'(q)(p)|, stopping once that reaches the threshold;
    without one it records the gradient norm.  The absolute and relative
    exits follow; MAX_NEWTON_ITERATIONS updates without an exit raise.
    Returns (triple, goal, p, log): with a guard, the goal refrozen at the
    returned triple and its adjoint p, otherwise None and None.
    """
    triple = make_consistent(problem, q0, u0)
    log = NewtonLog()
    goal_k = p = ng0 = None
    while True:
        g = reduced_gradient(triple)
        ng = dual_norm(q0.space, g)
        ng0 = ng if ng0 is None else ng0
        measure = ng
        if guard is not None:
            goal_k = guard[0].refreeze(triple.u, triple.q)
            # truncation: far-from-converged iterates may see an indefinite
            # reduced Hessian; an inexact p only loosens the stopping guard
            p, _ = solve_reduced_system(
                triple, -goal_gradient(goal_k, triple), krylov_tol=krylov_tol
            )
            measure = abs(float(g @ p.coefs[q0.space.free_dofs]))
        log.record(measure, triple)
        if guard is not None and measure <= guard[1]:
            log.stop_reason = "adaptive"
        elif ng <= tol_abs:
            log.stop_reason = "absolute"
        elif ng <= tol_rel * ng0:
            log.stop_reason = "relative"
        elif log.iterations >= MAX_NEWTON_ITERATIONS:
            raise NonConvergenceError(
                f"reduced Newton: {MAX_NEWTON_ITERATIONS} iterations, residual {measure:.3e}"
            )
        if log.stop_reason:
            return triple, goal_k, p, log
        triple, s, cg_its = _newton_update(triple, g, krylov_tol)
        log.step_sizes.append(s)
        log.cg_iterations.append(cg_its)


def newton_standard(problem, q0, u0, tol_abs=1e-7, tol_rel=8e-5, krylov_tol=1e-10):
    """Reduced Newton with the classical gradient-norm stopping rule.

    Starts at the control q0, its first state solve at u0.  Returns
    (triple, log).
    """
    triple, _, _, log = _newton(problem, q0, u0, None, tol_abs, tol_rel, krylov_tol)
    return triple, log


def newton_reduced_adaptive(problem, goal_combined, q0, u0, gamma, eta_prev,
                            krylov_tol=1e-10, tol_abs=1e-7, tol_rel=8e-5):
    """Reduced Newton stopped by the goal-weighted iteration-error guard.

    The loop of :func:`newton_standard` with one extra exit, taken once
    |j'(q)(p)| drops below gamma times the previous discretization
    estimate, so it can only stop earlier.  Starts at the control q0, its
    first state solve at u0.  Returns the triple, goal_combined refrozen at it,
    that goal's adjoint p and the log.
    """
    if gamma <= 0 or eta_prev <= 0:
        raise NonConvergenceError("gamma and eta_prev must be positive")
    return _newton(problem, q0, u0, (goal_combined, gamma * eta_prev),
                   tol_abs, tol_rel, krylov_tol)
