import numpy as np
import pytest

from dwropt import kernels
from dwropt.driver import _solve_level, instantiate, preset_config
from dwropt.errors import DwroptError
from dwropt.estimator import (
    AdjointTriple,
    adjoint_chain,
    compute_eta_k,
    effectivities,
    localize_pu,
    recover_v,
    recover_y,
    solve_reduced_adjoint,
)
from dwropt.fem import (
    DiscreteFunction,
    build_space,
    function_from_free,
    integrate,
    interpolate,
    sweep,
    transfer,
    zero_function,
)
from dwropt.mesh import UNIT_SQUARE, CellSet, build_initial, refine
from dwropt.problem import GoalFunctional, make_goals, make_poisson_control
from dwropt.reduced import (
    KKTTriple,
    goal_gradient,
    hessvec,
    make_consistent,
    newton_standard,
    reduced_gradient,
    solve_state,
)
from dwropt.estimator import _PART_ATTR, ErrorBreakdown, _part_fields


def l2_norm(f):
    return np.sqrt(
        integrate(lambda ctx: ctx.val("f") ** 2, f.space.mesh, coeffs={"f": f})
    )


def scaled_form(form, c):
    """The vector form c * form (None stays None)."""
    if form is None:
        return None

    def fields(ctx):
        g, h = form(ctx)
        return None if g is None else c * g, None if h is None else c * h

    return fields


def make_spaces(cell=0.25):
    mesh = build_initial(UNIT_SQUARE, cell)
    return mesh, build_space(mesh, "cg", 1), build_space(mesh, "dg", 1)


def parts(bd):
    """The six residual parts of a breakdown, in the estimator's order."""
    return [getattr(bd, name) for name in _PART_ATTR]


class TestGoalGradient:
    def test_cost_goal_matches_reduced_gradient(self):
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces()
        (goal,) = make_goals("example1_cost", prob)
        triple, _ = newton_standard(prob, zero_function(ctrl), zero_function(state),
                                    tol_abs=1e-11)
        ig = goal_gradient(goal, triple)
        g = reduced_gradient(triple)
        np.testing.assert_allclose(ig, g, atol=1e-12)
        assert np.max(np.abs(ig)) <= 1e-10

    def test_constant_goal_gives_zero(self):
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces(0.5)
        goal = GoalFunctional("const", lambda u, q: 1.0)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        ig = goal_gradient(goal, triple)
        assert np.max(np.abs(ig)) == 0.0

    def test_fd_consistency_l1_goal(self):
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces(0.25)
        (goal,) = make_goals("example1_l1", prob)
        rng = np.random.default_rng(13)
        q = DiscreteFunction(ctrl, rng.standard_normal(ctrl.ndofs))
        dq = DiscreteFunction(ctrl, rng.standard_normal(ctrl.ndofs))
        triple = make_consistent(prob, q, zero_function(state))
        ig = goal_gradient(goal, triple)
        directional = float(ig @ dq.coefs[ctrl.free_dofs])
        h = 1e-5

        def i_of(qv):
            u, _, _ = solve_state(prob, qv, zero_function(state), tol_abs=1e-13)
            return goal.value(u, qv)

        fd = (
            i_of(DiscreteFunction(ctrl, q.coefs + h * dq.coefs))
            - i_of(DiscreteFunction(ctrl, q.coefs - h * dq.coefs))
        ) / (2 * h)
        assert abs(fd - directional) <= 1e-6 * max(1.0, abs(directional))


@pytest.fixture(scope="module")
def converged():
    prob = make_poisson_control(0.01)
    mesh, state, ctrl = make_spaces(0.25)
    (goal,) = make_goals("example1_cost", prob)
    triple, _ = newton_standard(prob, zero_function(ctrl), zero_function(state),
                                tol_abs=1e-12)
    return prob, mesh, state, goal, triple


class TestPropositionSuite:
    """Goal = cost at the converged optimum: p = 0, v = 0, y = z."""

    def test_p_vanishes(self, converged):
        prob, mesh, state, goal, triple = converged
        p = solve_reduced_adjoint(goal, triple)
        assert l2_norm(p) <= 1e-9 * max(1.0, l2_norm(triple.q))

    def test_scaled_goal_p_vanishes(self, converged):
        prob, mesh, state, goal, triple = converged
        scaled = GoalFunctional(
            "2cost",
            lambda u, q: 2 * goal.value(u, q),
            scaled_form(goal.iu_fields, 2),
            scaled_form(goal.iq_fields, 2),
        )
        p = solve_reduced_adjoint(scaled, triple)
        assert l2_norm(p) <= 1e-9 * max(1.0, l2_norm(triple.q))

    def test_v_vanishes_and_y_equals_z(self, converged):
        prob, mesh, state, goal, triple = converged
        adj = adjoint_chain(goal, triple)
        nz = l2_norm(triple.z)
        assert l2_norm(adj.v) <= 1e-9 * nz
        diff = DiscreteFunction(state, adj.y.coefs - triple.z.coefs)
        assert l2_norm(diff) <= 1e-9 * nz


class TestRecovery:
    def test_zero_p_gives_zero_v(self):
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces(0.5)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        v = recover_v(triple, zero_function(ctrl))
        assert np.max(np.abs(v.coefs)) == 0.0

    def test_manufactured_v(self):
        # a_u = laplace: v solves -lap v = p with p = sin(pi x) sin(pi y)
        prob = make_poisson_control(0.01)
        errs = []
        for cell in (0.125, 0.0625):
            mesh = build_initial(UNIT_SQUARE, cell)
            state, ctrl = build_space(mesh, "cg", 1), build_space(mesh, "dg", 1)
            triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
            p = interpolate(
                ctrl, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
            )
            v = recover_v(triple, p)

            def err(ctx):
                x, y = ctx.x[..., 0], ctx.x[..., 1]
                vex = np.sin(np.pi * x) * np.sin(np.pi * y) / (2 * np.pi**2)
                return (ctx.val("v") - vex) ** 2

            errs.append(np.sqrt(integrate(err, mesh, coeffs={"v": v})))
        rate = np.log2(errs[0] / errs[1])
        assert 1.6 <= rate <= 2.4

    def test_zero_goal_zero_directions_give_zero_y(self):
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces(0.5)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        goal = GoalFunctional("null", lambda u, q: 0.0)
        y = recover_y(goal, triple, zero_function(state))
        assert np.max(np.abs(y.coefs)) == 0.0

    def test_y_matches_dense_oracle(self):
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces(0.5)
        (goal,) = make_goals("example1_l1", prob)
        rng = np.random.default_rng(2)
        q = DiscreteFunction(ctrl, rng.standard_normal(ctrl.ndofs))
        triple = make_consistent(prob, q, zero_function(state))
        p = DiscreteFunction(ctrl, rng.standard_normal(ctrl.ndofs))
        v = recover_v(triple, p)
        y = recover_y(goal, triple, v)
        # dense oracle on the tiny free system: A^T y = I_u + M v
        from dwropt.fem import assemble_matrix, assemble_vector

        A = assemble_matrix(
            prob.a_u_fields, state, coeffs={"u": triple.u, "q": q}
        ).toarray()
        rhs = assemble_vector(goal.iu_fields, state, {"u": triple.u, "q": q})
        rhs = rhs + assemble_vector(
            lambda ctx: (ctx.val("v"), None), state, coeffs={"v": v}
        )
        y_dense = np.linalg.solve(A.T, rhs)
        got = y.coefs[state.free_dofs]
        assert np.max(np.abs(got - y_dense)) <= 1e-10 * max(1.0, np.max(np.abs(y_dense)))


class TestReducedAdjointOracle:
    def test_dense_hessian_oracle(self):
        # assemble the reduced Hessian column by column and solve densely
        prob = make_poisson_control(0.01)
        mesh, state, ctrl = make_spaces(0.5)
        (goal,) = make_goals("example1_l1", prob)
        triple, _ = newton_standard(prob, zero_function(ctrl), zero_function(state),
                                    tol_abs=1e-11)
        n = ctrl.nfree
        H = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            H[:, j] = hessvec(triple, function_from_free(ctrl, e))
        rhs = -goal_gradient(goal, triple)
        p_dense = np.linalg.solve(H, rhs)
        p = solve_reduced_adjoint(goal, triple, krylov_tol=1e-13)
        got = p.coefs[ctrl.free_dofs]
        assert np.max(np.abs(got - p_dense)) <= 1e-9 * max(1.0, np.max(np.abs(p_dense)))


def _transferred_enriched(sol, keep_adjoint=False):
    """Low solutions transferred into the enriched spaces (zero weights)."""
    state2, ctrl2 = sol["triple2"].u.space, sol["triple2"].q.space
    t = sol["triple"]
    a = sol["adj_low"]
    kkt2 = KKTTriple(
        u=transfer(t.u, state2),
        q=transfer(t.q, ctrl2),
        z=transfer(t.z, state2),
        problem=t.problem,
    )
    adj2 = AdjointTriple(
        v=transfer(a.v, state2),
        p=transfer(a.p, ctrl2),
        y=transfer(a.y, state2),
    )
    return kkt2, adj2


class TestEstimator:
    def test_zero_weights_zero_parts(self, ex1_level):
        sol = ex1_level
        enriched = _transferred_enriched(sol)
        bd = localize_pu(sol["combined"], (sol["triple"], sol["adj_low"]), enriched)
        for part in parts(bd):
            assert abs(part) <= 1e-13
        assert abs(bd.eta_h2) <= 1e-13

    def test_half_sum_identity(self, ex1_level):
        bd = ex1_level["breakdown"]
        assert bd.eta_h2 == pytest.approx(0.5 * sum(parts(bd)), abs=1e-13)

    def test_pu_signed_sum_identity(self, ex1_level):
        bd = ex1_level["breakdown"]
        total = float(np.sum(bd.vertex_values))
        assert total == pytest.approx(bd.eta_h2, rel=1e-10)

    def test_pu_zero_weights_zero_indicators(self, ex1_level):
        sol = ex1_level
        enriched = _transferred_enriched(sol)
        bd = localize_pu(sol["combined"], (sol["triple"], sol["adj_low"]), enriched)
        assert np.max(np.abs(bd.indicators)) <= 1e-13

    def test_indicators_nonnegative(self, ex1_level):
        bd = ex1_level["breakdown"]
        assert np.all(bd.indicators >= 0.0)

    def test_indicator_split_on_hanging_mesh(self):
        cfg = preset_config("example1_cost", cell_size=0.25)
        problem, goals, mesh = instantiate(cfg)
        mesh = refine(mesh, CellSet(frozenset({0, 5}), mesh.generation))
        sol = _solve_level(problem, goals, mesh, cfg, None, cfg.eta0)
        bd = sol["breakdown"]
        pu = build_space(mesh, "cg", 1, constrain_dirichlet=False)
        assert pu.nfree < pu.ndofs  # the mesh has hanging vertices
        # per-cell loop oracle: each free vertex's |value| is split equally
        # among the cells that have it as a non-hanging corner
        column = {int(d): j for j, d in enumerate(pu.free_dofs)}
        owners = {}
        for c in range(mesh.ncells):
            for d in pu.cell_dofs[c]:
                if int(d) in column:
                    owners[int(d)] = owners.get(int(d), 0) + 1
        oracle = np.zeros(mesh.ncells)
        for c in range(mesh.ncells):
            for d in pu.cell_dofs[c]:
                if int(d) in column:
                    oracle[c] += abs(bd.vertex_values[column[int(d)]]) / owners[int(d)]
        np.testing.assert_allclose(bd.indicators, oracle, rtol=1e-14, atol=0)
        total = np.abs(bd.vertex_values).sum()
        assert abs(bd.indicators.sum() - total) <= 1e-13 * total

    def test_goal_scaling_linearity(self, ex1_l1_level):
        # replacing the goal by c I scales p, v, y, all parts and eta by c
        sol = ex1_l1_level
        triple, triple2 = sol["triple"], sol["triple2"]
        goal = sol["combined"]
        c = 3.7

        scaled = GoalFunctional(
            "scaled", lambda u, q: c * goal.value(u, q),
            scaled_form(goal.iu_fields, c), scaled_form(goal.iq_fields, c),
        )
        low1 = (triple, adjoint_chain(goal, triple, krylov_tol=1e-13))
        enr1 = (triple2, adjoint_chain(goal, triple2, krylov_tol=1e-13))
        low2 = (triple, adjoint_chain(scaled, triple, krylov_tol=1e-13))
        enr2 = (triple2, adjoint_chain(scaled, triple2, krylov_tol=1e-13))
        scale_p = np.max(np.abs(low1[1].p.coefs))
        np.testing.assert_allclose(
            low2[1].p.coefs, c * low1[1].p.coefs, rtol=0, atol=1e-12 * scale_p
        )
        bd1 = localize_pu(goal, low1, enr1)
        bd2 = localize_pu(scaled, low2, enr2)
        for a, b in zip(parts(bd1), parts(bd2)):
            assert b == pytest.approx(c * a, rel=1e-11, abs=1e-14)
        assert bd2.eta_h2 == pytest.approx(c * bd1.eta_h2, rel=1e-11)


class TestEtaK:
    def test_zero_p(self, ex1_level):
        sol = ex1_level
        got = compute_eta_k(sol["triple"], zero_function(sol["triple"].q.space))
        assert got == 0.0

    def test_converged_iterate_vanishes(self, ex1_level):
        sol = ex1_level
        got = compute_eta_k(sol["triple"], sol["adj_low"].p)
        assert abs(got) <= 1e-8


class TestEffectivities:
    def test_simple_ratio(self):
        bd = ErrorBreakdown(eta_h2=0.5, eta_k=0.0)
        eff = effectivities(bd, 0.5)
        assert eff.i_eff == 1.0

    def test_literal_part_arithmetic(self):
        # oracle: apply the three ratio formulas literally
        bd = ErrorBreakdown(rho_u=0.2, rho_z=0.1, rho_q=0.1,
                            rho_v=0.05, rho_y=0.03, rho_p=0.02)
        bd.eta_h2 = 0.5 * sum(parts(bd))
        eff = effectivities(bd, 0.5)
        assert eff.i_eff_p == pytest.approx(0.8)
        assert eff.i_eff_a == pytest.approx(0.2)
        # half-sum estimator over the same error: mean of the two indices
        assert eff.i_eff == pytest.approx(0.5)
        assert eff.i_eff == pytest.approx((eff.i_eff_p + eff.i_eff_a) / 2)

    def test_mean_identity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            vals = rng.standard_normal(6)
            bd = ErrorBreakdown(*vals)
            bd.eta_h2 = 0.5 * sum(parts(bd))
            err = rng.standard_normal() or 1.0
            eff = effectivities(bd, err)
            assert eff.i_eff == pytest.approx((eff.i_eff_p + eff.i_eff_a) / 2,
                                              rel=1e-12, abs=1e-12)

    def test_corrected_index(self):
        bd = ErrorBreakdown(eta_h2=0.4, eta_k=0.1)
        eff = effectivities(bd, 0.5)
        assert eff.i_eff_c == pytest.approx(1.0)

    def test_zero_error_undefined(self):
        for err in (0.0, np.nan, np.inf):
            assert effectivities(ErrorBreakdown(eta_h2=0.5), err) is None


# ---------------------------------------------------------------------------
# reference: the estimator's own sweep loop before it assembled through fem


def _hand_written_estimator_sweep(goal, low, enriched, pu_space):
    """Global residual parts and PU vertex vector, summed chunk by chunk."""
    low_kkt, low_adj = low
    enr_kkt, enr_adj = enriched
    funcs = {
        "u": low_kkt.u, "q": low_kkt.q, "z": low_kkt.z,
        "v": low_adj.v, "p": low_adj.p, "y": low_adj.y,
        "u2": enr_kkt.u, "q2": enr_kkt.q, "z2": enr_kkt.z,
        "v2": enr_adj.v, "p2": enr_adj.p, "y2": enr_adj.y,
    }
    part_sums = np.zeros(6)
    cells, entries = [], []
    for ctx in sweep(pu_space.mesh, funcs, (pu_space,)):
        G_acc = H_acc = None
        for k, (g, h, wname) in enumerate(_part_fields(low_kkt.problem, goal, ctx)):
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
        cells.append(ctx.cells)
        entries.append(kernels.local_vector(
            ctx.wdet, *ctx.basis(pu_space), ctx.inv_h,
            0.5 * G_acc, None if H_acc is None else 0.5 * H_acc,
        ))
    dofs = pu_space.cell_dofs[np.concatenate(cells)]
    pu_raw = np.bincount(
        dofs.ravel(), weights=np.concatenate(entries).ravel(), minlength=pu_space.ndofs
    )
    return part_sums, pu_space.C.T @ pu_raw


@pytest.fixture(scope="module")
def plaplace_hanging_level():
    """One solved p-Laplace level on a mesh with hanging vertices."""
    cfg = preset_config("example2_uq", max_levels=1)
    problem, goals, mesh = instantiate(cfg)
    mesh = refine(mesh, CellSet(frozenset(range(0, mesh.ncells, 3)), mesh.generation))
    sol = _solve_level(problem, goals, mesh, cfg, None, cfg.eta0)
    return {"mesh": mesh, **sol}


@pytest.mark.parametrize("level", ["ex1_level", "plaplace_hanging_level"])
def test_localize_pu_matches_the_hand_written_sweep(request, level):
    # the estimator's vector form through fem.assemble_vector sums every
    # part and vertex entry in the order of its old loop: bitwise the same
    sol = request.getfixturevalue(level)
    low, enriched = (sol["triple"], sol["adj_low"]), (sol["triple2"], sol["adj2"])
    pu = build_space(sol["mesh"], "cg", 1, constrain_dirichlet=False)
    if level == "plaplace_hanging_level":
        assert pu.nfree < pu.ndofs  # hanging vertices fold into their masters
    part_sums, vertex = _hand_written_estimator_sweep(sol["combined"], low, enriched, pu)
    bd = localize_pu(sol["combined"], low, enriched)
    assert [getattr(bd, name) for name in _PART_ATTR] == part_sums.tolist()
    assert np.array_equal(bd.vertex_values, vertex)
