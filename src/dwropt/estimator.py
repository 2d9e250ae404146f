"""Dual-weighted residual machinery on the reduced optimality system.

Given the low-order and enriched solutions of both the optimality system
(u, q, z) and its goal-adjoint system (v, p, y), the discretization
estimator pairs six residual functionals, all linearized at the
low-order solutions, with enriched-minus-low weight functions:

    rho_u . (y2 - y),  rho_z . (v2 - v),  rho_q . (p2 - p),
    rho_v . (z2 - z),  rho_y . (u2 - u),  rho_p . (q2 - q),

and half their sum is the signed global estimate.  The same pairings,
multiplied by Q1 vertex hat functions, localize the estimate to cells
(the hat gradients enter the pairing, so the signed vertex sum
reproduces the global value).  The iteration estimator is the reduced
gradient paired with the goal adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fem import assemble_vector, build_space, function_from_free, reference_apply
from .reduced import (
    goal_gradient,
    lagrangian_uu,
    reduced_gradient,
    solve_reduced_system,
)

@dataclass
class AdjointTriple:
    """Goal-adjoint chain: tangent state v, reduced adjoint p, second adjoint y."""

    v: object
    p: object
    y: object


@dataclass
class ErrorBreakdown:
    """Signed residual parts, global estimates and localized indicators."""

    rho_u: float = 0.0
    rho_q: float = 0.0
    rho_z: float = 0.0
    rho_v: float = 0.0
    rho_p: float = 0.0
    rho_y: float = 0.0
    eta_h2: float = 0.0
    eta_k: float = 0.0
    indicators: np.ndarray | None = None
    vertex_values: np.ndarray | None = None

    @property
    def primal_sum(self):
        return self.rho_u + self.rho_z + self.rho_q

    @property
    def adjoint_sum(self):
        return self.rho_v + self.rho_y + self.rho_p


@dataclass(frozen=True)
class EffectivityIndices:
    i_eff: float
    i_eff_p: float
    i_eff_a: float
    i_eff_c: float


# ---------------------------------------------------------------------------
# goal adjoint chain


def solve_reduced_adjoint(goal, triple, krylov_tol=1e-10):
    """Goal adjoint p: reduced Hessian applied to p equals -i'(q)."""
    p, _ = solve_reduced_system(triple, -goal_gradient(goal, triple), krylov_tol)
    return p


def recover_v(triple, p):
    """Tangent state of the goal adjoint direction p."""
    state, ctrl = triple.u.space, triple.q.space
    x = reference_apply(p.coefs[ctrl.free_dofs], state, ctrl)  # -a_q(p)
    return function_from_free(state, triple.factor().solve(x))


def recover_y(goal, triple, v):
    """Second adjoint from the first row of the adjoint optimality system."""
    state = triple.u.space
    rhs = lagrangian_uu(triple, v.coefs[state.free_dofs])
    if goal.iu_fields is not None:
        rhs += assemble_vector(goal.iu_fields, state, {"u": triple.u, "q": triple.q})
    return function_from_free(state, triple.factor().solve_transposed(rhs))


def adjoint_chain(goal, triple, p=None, krylov_tol=1e-10):
    """p, v, y for one goal at one consistent triple.

    A given p (the adaptive Newton's goal adjoint) is reused.
    """
    if p is None:
        p = solve_reduced_adjoint(goal, triple, krylov_tol=krylov_tol)
    v = recover_v(triple, p)
    y = recover_y(goal, triple, v)
    return AdjointTriple(v=v, p=p, y=y)


# ---------------------------------------------------------------------------
# estimator sweep


def _apply_K(K, grad):
    return K[..., 0] * grad[..., 0, None] + K[..., 1] * grad[..., 1, None]


def _part_fields(problem, goal, ctx):
    """(g, h, weight_name) of the six residual parts on one cell chunk.

    The parts come in the order of _PART_ATTR.  All forms are linearized
    at the low-order solutions, which the context exposes under the names
    u, q, z, v, p, y; enriched solutions carry a "2" suffix.  Weight
    names refer to enriched-minus-low pairs.  Both operators take the
    control as a_q(q, .) = -(q, .), so J_uu is the mass and J_qq alpha
    times it.
    """
    K, _ = problem.a_u_fields(ctx)  # linearized at the low state

    parts = []

    # rho_u = L'_z = -a(u, q)(.)   weighted by y2 - y
    g_res, h_res = problem.residual_fields(ctx)
    parts.append((-g_res, -h_res, "y"))

    # rho_q = L'_q = J_q(.) - a_q(., z)   weighted by p2 - p
    g_jq, _ = problem.j_q_fields(ctx)
    parts.append((g_jq + ctx.val("z"), None, "p"))

    # rho_z = L'_u = J_u(.) - a_u(., z)   weighted by v2 - v
    g_ju, _ = problem.j_u_fields(ctx)
    parts.append((g_ju, -_apply_K(K, ctx.grad("z")), "v"))

    # rho_v = -a_u(v, .) - a_q(p, .)   weighted by z2 - z
    parts.append((ctx.val("p"), -_apply_K(K, ctx.grad("v")), "z"))

    # rho_y = I_u(.) + J_uu(v, .) - a_uu(v, .)(z) - a_u(., y)   weighted by u2 - u
    g, h = (None, None) if goal.iu_fields is None else goal.iu_fields(ctx)
    gy = ctx.val("v") if g is None else g + ctx.val("v")
    hy = -_apply_K(K, ctx.grad("y"))
    if problem.a_uu_fields is not None:
        K_uu, _ = problem.a_uu_fields(ctx)
        hy -= _apply_K(K_uu, ctx.grad("v"))
    parts.append((gy, hy if h is None else h + hy, "u"))

    # rho_p = I_q(.) + J_qq(p, .) - a_q(., y)   weighted by q2 - q
    g, h = (None, None) if goal.iq_fields is None else goal.iq_fields(ctx)
    gp = problem.alpha * ctx.val("p")
    parts.append(((gp if g is None else g + gp) + ctx.val("y"), h, "q"))

    return parts


_PART_ATTR = ("rho_u", "rho_q", "rho_z", "rho_v", "rho_y", "rho_p")


def _estimator_sweep(goal, low, enriched, pu_space):
    """Global residual parts and PU vertex vector in one pass over the mesh:
    one vector form of half the six pairings' sum, which adds each part's
    integral to part_sums on the way."""
    low_kkt, low_adj = low
    problem = low_kkt.problem
    enr_kkt, enr_adj = enriched
    funcs = {
        "u": low_kkt.u, "q": low_kkt.q, "z": low_kkt.z,
        "v": low_adj.v, "p": low_adj.p, "y": low_adj.y,
        "u2": enr_kkt.u, "q2": enr_kkt.q, "z2": enr_kkt.z,
        "v2": enr_adj.v, "p2": enr_adj.p, "y2": enr_adj.y,
    }
    part_sums = np.zeros(6)

    def fields(ctx):
        G_acc = None
        H_acc = None
        for k, (g, h, wname) in enumerate(_part_fields(problem, goal, ctx)):
            wv = ctx.val(wname + "2") - ctx.val(wname)
            F = np.zeros_like(wv)
            if g is not None:
                F += g * wv
            if h is not None:
                wg = ctx.grad(wname + "2") - ctx.grad(wname)
                F += h[..., 0] * wg[..., 0] + h[..., 1] * wg[..., 1]
            part_sums[k] += float(kernels.cell_integrals(ctx.wdet, F).sum())
            G_acc = F if G_acc is None else G_acc + F
            if h is not None:
                Hw = h * wv[..., None]
                H_acc = Hw if H_acc is None else H_acc + Hw
        return 0.5 * G_acc, None if H_acc is None else 0.5 * H_acc

    return part_sums, assemble_vector(fields, pu_space, funcs)


def localize_pu(goal, low, enriched):
    """Six-part estimate with its partition-of-unity localization.

    Returns an :class:`ErrorBreakdown` carrying the global parts, the
    vertex values (their signed sum equals the global estimate) and the
    cell indicators.  Hanging-vertex contributions fold into their
    masters through the Q1 constraint weights.
    """
    mesh = low[0].u.space.mesh
    pu_space = build_space(mesh, "cg", 1, constrain_dirichlet=False)
    part_sums, vertex = _estimator_sweep(goal, low, enriched, pu_space)

    # cell indicators: |vertex value| split by the number of adjacent cells
    col = pu_space.col_of[pu_space.cell_dofs]  # -1 marks hanging corners
    cell, corner = np.nonzero(col >= 0)
    vcol = col[cell, corner]
    deg = np.bincount(vcol, minlength=pu_space.nfree)
    share = np.abs(vertex)[vcol] / deg[vcol]
    indicators = np.bincount(cell, weights=share, minlength=mesh.ncells)

    bd = ErrorBreakdown(indicators=indicators, vertex_values=vertex)
    for name, val in zip(_PART_ATTR, part_sums):
        setattr(bd, name, float(val))
    bd.eta_h2 = 0.5 * float(part_sums.sum())
    return bd


def compute_eta_k(triple, p):
    """Iteration-error estimate: minus the reduced gradient paired with p."""
    g = reduced_gradient(triple)
    return -float(g @ p.coefs[triple.q.space.free_dofs])


def effectivities(breakdown, true_error):
    """Estimator-to-error ratios: total, primal, adjoint and corrected.

    The primal/adjoint indices divide the raw three-part sums (no half),
    so the total index is exactly their mean.  None for a zero or
    non-finite error, as the reference error is None without references.
    """
    if true_error == 0.0 or not np.isfinite(true_error):
        return None
    return EffectivityIndices(
        i_eff=breakdown.eta_h2 / true_error,
        i_eff_p=breakdown.primal_sum / true_error,
        i_eff_a=breakdown.adjoint_sum / true_error,
        i_eff_c=(breakdown.eta_h2 + breakdown.eta_k) / true_error,
    )
