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

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .fem import (
    QUAD_EXTRA,
    FormContext,
    _chunks,
    _tabulated,
    assemble_vector,
    build_space,
    region_cell_mask,
)
from .reduced import (
    assemble_terms,
    goal_gradient,
    reduced_gradient,
    solve_reduced_system,
)

#: names of the six residual parts in report order
PART_NAMES = ("rho_u", "rho_q", "rho_z", "rho_v", "rho_p", "rho_y")


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
    i_eff: float | None = None
    i_eff_p: float | None = None
    i_eff_a: float | None = None
    i_eff_c: float | None = None

    def parts(self):
        return (self.rho_u, self.rho_q, self.rho_z, self.rho_v, self.rho_p, self.rho_y)

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
    defined: bool = True


# ---------------------------------------------------------------------------
# goal adjoint chain


def solve_reduced_adjoint(problem, goal, triple, krylov_tol=1e-10,
                          truncate_on_negative=False):
    """Goal adjoint p: reduced Hessian applied to p equals -i'(q)."""
    rhs = -goal_gradient(problem, goal, triple)
    return solve_reduced_system(
        problem, triple, rhs, krylov_tol=krylov_tol,
        truncate_on_negative=truncate_on_negative,
    )


def recover_v(problem, triple, p):
    """Tangent state of the goal adjoint direction p."""
    triple.require_consistent()

    def fields(ctx):
        return -problem.a_q_c * ctx.val("p"), None

    rhs = assemble_vector(fields, triple.u.space, coeffs={"p": p})
    return triple.lin.solve(rhs)


def recover_y(problem, goal, triple, v, p):
    """Second adjoint from the first row of the adjoint optimality system."""
    triple.require_consistent()
    state = triple.u.space
    coeffs = {"u": triple.u, "q": triple.q}
    rhs = assemble_terms(goal.iu_terms, state, coeffs)

    def juu(ctx):
        return problem.j_uu_c * ctx.val("v"), None

    rhs += assemble_vector(juu, state, coeffs={"v": v})
    if problem.a_uu_fields is not None:
        rhs -= assemble_vector(
            lambda ctx: problem.a_uu_fields(ctx, "w", "zfun"),
            state,
            coeffs={"u": triple.u, "w": v, "zfun": triple.z},
        )
    return triple.lin.solve_transposed(rhs)


def adjoint_chain(problem, goal, triple, krylov_tol=1e-10):
    """p, v, y for one goal at one consistent triple."""
    p = solve_reduced_adjoint(problem, goal, triple, krylov_tol=krylov_tol)
    v = recover_v(problem, triple, p)
    y = recover_y(problem, goal, triple, v, p)
    return AdjointTriple(v=v, p=p, y=y)


# ---------------------------------------------------------------------------
# estimator sweep


def _goal_term_fields(terms, ctx, mesh, cells):
    """Pointwise (g, h) of summed goal-derivative terms, region-masked."""
    nc, nq = ctx.x.shape[:2]
    g_out = np.zeros((nc, nq))
    h_out = None
    for scale, fields, region in terms:
        g, h = fields(ctx)
        if region is not None:
            mask = region_cell_mask(mesh, region)[cells].astype(np.float64)
        else:
            mask = None
        if g is not None:
            g_out += scale * (g if mask is None else g * mask[:, None])
        if h is not None:
            hh = scale * (h if mask is None else h * mask[:, None, None])
            h_out = hh if h_out is None else h_out + hh
    return g_out, h_out


def _apply_K(K, grad):
    return np.einsum("cgde,cge->cgd", K, grad, optimize=True)


def _part_fields(problem, goal, ctx, mesh, cells):
    """(g, h, weight_name) of the six residual parts on one cell chunk.

    All forms are linearized at the low-order solutions, which the
    context exposes under the names u, q, z, v, p, y; enriched solutions
    carry a "2" suffix.  Weight names refer to enriched-minus-low pairs.
    """
    aq = problem.a_q_c
    K, c_mass = problem.a_u_fields(ctx)  # linearized at the low state

    parts = []

    # rho_u = L'_z = -a(u, q)(.)   weighted by y2 - y
    g_res, h_res = problem.residual_fields(ctx)
    parts.append((None if g_res is None else -g_res,
                  None if h_res is None else -h_res, "y"))

    # rho_q = L'_q = J_q(.) - a_q(., z)   weighted by p2 - p
    g_jq, _ = problem.j_q_fields(ctx)
    parts.append((g_jq - aq * ctx.val("z"), None, "p"))

    # rho_z = L'_u = J_u(.) - a_u(., z)   weighted by v2 - v
    g_ju, _ = problem.j_u_fields(ctx)
    h = -_apply_K(K, ctx.grad("z")) if K is not None else None
    g = g_ju - (c_mass * ctx.val("z") if c_mass is not None else 0.0)
    parts.append((g, h, "v"))

    # rho_v = -a_u(v, .) - a_q(p, .)   weighted by z2 - z
    h = -_apply_K(K, ctx.grad("v")) if K is not None else None
    g = -aq * ctx.val("p") - (c_mass * ctx.val("v") if c_mass is not None else 0.0)
    parts.append((g, h, "z"))

    # rho_y = I_u(.) + J_uu(v, .) - a_uu(v, .)(z) - a_u(., y)   weighted by u2 - u
    g, h = _goal_term_fields(goal.iu_terms, ctx, mesh, cells)
    g = g + problem.j_uu_c * ctx.val("v")
    if problem.a_uu_fields is not None:
        g2, h2 = problem.a_uu_fields(ctx, "v", "z")
        if g2 is not None:
            g = g - g2
        if h2 is not None:
            h = -h2 if h is None else h - h2
    if K is not None:
        hy = -_apply_K(K, ctx.grad("y"))
        h = hy if h is None else h + hy
    if c_mass is not None:
        g = g - c_mass * ctx.val("y")
    parts.append((g, h, "u"))

    # rho_p = I_q(.) + J_qq(p, .) - a_q(., y)   weighted by q2 - q
    g, h = _goal_term_fields(goal.iq_terms, ctx, mesh, cells)
    g = g + problem.j_qq_c * ctx.val("p") - aq * ctx.val("y")
    parts.append((g, h, "q"))

    return parts


_PART_ORDER = {"y": 0, "p": 1, "v": 2, "z": 3, "u": 4, "q": 5}
_PART_ATTR = ("rho_u", "rho_q", "rho_z", "rho_v", "rho_y", "rho_p")


def _estimator_sweep(problem, goal, low, enriched, pu_space):
    """One pass over the mesh: global residual parts and PU vertex vector."""
    low_kkt, low_adj = low
    enr_kkt, enr_adj = enriched
    mesh = low_kkt.u.space.mesh
    if enr_kkt.u.space.mesh is not mesh:
        raise ValueError("low and enriched solutions must share one mesh")

    funcs = {
        "u": low_kkt.u, "q": low_kkt.q, "z": low_kkt.z,
        "v": low_adj.v, "p": low_adj.p, "y": low_adj.y,
        "u2": enr_kkt.u, "q2": enr_kkt.q, "z2": enr_kkt.z,
        "v2": enr_adj.v, "p2": enr_adj.p, "y2": enr_adj.y,
    }
    n1d = max(f.space.degree for f in funcs.values()) + 1 + QUAD_EXTRA
    qpts, w, phi_pu, gphi_pu = _tabulated(1, n1d)
    h_all = mesh.cell_h()

    part_sums = np.zeros(6)
    pu_raw = np.zeros(pu_space.ndofs)

    for cells in _chunks(np.arange(mesh.ncells), len(w)):
        ctx = FormContext(mesh, cells, qpts, funcs, n1d)
        wdet = w[None, :] * (h_all[cells] ** 2)[:, None]
        parts = _part_fields(problem, goal, ctx, mesh, cells)
        G_acc = None
        H_acc = None
        for g, h, wname in parts:
            wv = ctx.val(wname + "2") - ctx.val(wname)
            F = np.zeros_like(wv)
            if g is not None:
                F += g * wv
            if h is not None:
                wg = ctx.grad(wname + "2") - ctx.grad(wname)
                F += np.einsum("cgd,cgd->cg", h, wg, optimize=True)
            part_sums[_PART_ORDER[wname]] += float(
                kernels.cell_integrals(wdet, F).sum()
            )
            G_acc = F if G_acc is None else G_acc + F
            if h is not None:
                Hw = h * wv[..., None]
                H_acc = Hw if H_acc is None else H_acc + Hw
        loc = kernels.local_vector(
            wdet, phi_pu, gphi_pu, ctx.inv_h,
            0.5 * G_acc, None if H_acc is None else 0.5 * H_acc,
        )
        np.add.at(pu_raw, pu_space.cell_dofs[cells].ravel(), loc.ravel())

    return part_sums, pu_space.C.T @ pu_raw


def localize_pu(problem, goal, low, enriched):
    """Six-part estimate with its partition-of-unity localization.

    Returns an :class:`ErrorBreakdown` carrying the global parts, the
    vertex values (their signed sum equals the global estimate) and the
    cell indicators.  Hanging-vertex contributions fold into their
    masters through the Q1 constraint weights.
    """
    mesh = low[0].u.space.mesh
    pu_space = build_space(mesh, "cg", 1, constrain_dirichlet=False)
    part_sums, vertex = _estimator_sweep(problem, goal, low, enriched, pu_space)

    # cell indicators: |vertex value| split by the number of adjacent cells
    deg = np.zeros(pu_space.nfree)
    col = pu_space._col_of[pu_space.cell_dofs]  # -1 marks hanging corners
    for j in range(4):
        valid = col[:, j] >= 0
        np.add.at(deg, col[valid, j], 1.0)
    absval = np.abs(vertex)
    indicators = np.zeros(mesh.ncells)
    for j in range(4):
        valid = col[:, j] >= 0
        indicators[valid] += absval[col[valid, j]] / deg[col[valid, j]]

    bd = ErrorBreakdown(indicators=indicators, vertex_values=vertex)
    for name, val in zip(_PART_ATTR, part_sums):
        setattr(bd, name, float(val))
    bd.eta_h2 = 0.5 * float(part_sums.sum())
    return bd


def compute_eta_k(problem, goal_combined, triple, p):
    """Iteration-error estimate: minus the reduced gradient paired with p."""
    g = reduced_gradient(problem, triple)
    return -float(g @ p.coefs[triple.q.space.free_dofs])


def effectivities(breakdown, true_error):
    """Estimator-to-error ratios: total, primal, adjoint and corrected.

    The primal/adjoint indices divide the raw three-part sums (no half),
    so the total index is exactly their mean.
    """
    if true_error == 0.0 or not np.isfinite(true_error):
        return EffectivityIndices(np.nan, np.nan, np.nan, np.nan, defined=False)
    return EffectivityIndices(
        i_eff=breakdown.eta_h2 / true_error,
        i_eff_p=breakdown.primal_sum / true_error,
        i_eff_a=breakdown.adjoint_sum / true_error,
        i_eff_c=(breakdown.eta_h2 + breakdown.eta_k) / true_error,
    )
