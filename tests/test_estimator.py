import numpy as np
import pytest

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
    transfer,
    zero_function,
)
from dwropt.mesh import UNIT_SQUARE, build_initial
from dwropt.multigoal import build_combined
from dwropt.problem import GoalFunctional, make_goals, make_poisson_control
from dwropt.reduced import (
    KKTTriple,
    SpacePair,
    goal_gradient,
    hessvec,
    make_consistent,
    newton_standard,
    reduced_gradient,
    solve_state,
)
from dwropt.estimator import ErrorBreakdown


def l2_norm(f):
    return np.sqrt(
        integrate(lambda ctx: ctx.val("f") ** 2, f.space.mesh, coeffs={"f": f})
    )


def make_pair(cell=0.25):
    mesh = build_initial(UNIT_SQUARE, cell)
    return mesh, SpacePair(build_space(mesh, "cg", 1), build_space(mesh, "dg", 1))


class TestGoalGradient:
    def test_cost_goal_matches_reduced_gradient(self):
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair()
        (goal,) = make_goals("example1_cost", prob)
        triple, _ = newton_standard(prob, pair, zero_function(pair.control),
                                    tol_abs=1e-11)
        ig = goal_gradient(prob, goal, triple)
        g = reduced_gradient(prob, triple)
        np.testing.assert_allclose(ig, g, atol=1e-12)
        assert np.max(np.abs(ig)) <= 1e-10

    def test_constant_goal_gives_zero(self):
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair(0.5)
        goal = GoalFunctional("const", lambda u, q: 1.0)
        triple = make_consistent(prob, zero_function(pair.control), pair)
        ig = goal_gradient(prob, goal, triple)
        assert np.max(np.abs(ig)) == 0.0

    def test_fd_consistency_l1_goal(self):
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair(0.25)
        (goal,) = make_goals("example1_l1", prob)
        rng = np.random.default_rng(13)
        q = DiscreteFunction(pair.control, rng.standard_normal(pair.control.ndofs))
        dq = DiscreteFunction(pair.control, rng.standard_normal(pair.control.ndofs))
        triple = make_consistent(prob, q, pair)
        ig = goal_gradient(prob, goal, triple)
        directional = float(ig @ dq.coefs[pair.control.free_dofs])
        h = 1e-5

        def i_of(qv):
            u = solve_state(prob, qv, pair.state, tol_abs=1e-13)
            return goal.value(u, qv)

        fd = (
            i_of(DiscreteFunction(pair.control, q.coefs + h * dq.coefs))
            - i_of(DiscreteFunction(pair.control, q.coefs - h * dq.coefs))
        ) / (2 * h)
        assert abs(fd - directional) <= 1e-6 * max(1.0, abs(directional))


@pytest.fixture(scope="module")
def converged():
    prob = make_poisson_control(0.01)
    mesh, pair = make_pair(0.25)
    (goal,) = make_goals("example1_cost", prob)
    triple, _ = newton_standard(prob, pair, zero_function(pair.control),
                                tol_abs=1e-12)
    return prob, mesh, pair, goal, triple


class TestPropositionSuite:
    """Goal = cost at the converged optimum: p = 0, v = 0, y = z."""

    def test_p_vanishes(self, converged):
        prob, mesh, pair, goal, triple = converged
        p = solve_reduced_adjoint(prob, goal, triple)
        assert l2_norm(p) <= 1e-9 * max(1.0, l2_norm(triple.q))

    def test_scaled_goal_p_vanishes(self, converged):
        prob, mesh, pair, goal, triple = converged
        scaled = GoalFunctional(
            "2cost",
            lambda u, q: 2 * goal.value(u, q),
            tuple((2 * s, f, r) for s, f, r in goal.iu_terms),
            tuple((2 * s, f, r) for s, f, r in goal.iq_terms),
        )
        p = solve_reduced_adjoint(prob, scaled, triple)
        assert l2_norm(p) <= 1e-9 * max(1.0, l2_norm(triple.q))

    def test_v_vanishes_and_y_equals_z(self, converged):
        prob, mesh, pair, goal, triple = converged
        adj = adjoint_chain(prob, goal, triple)
        nz = l2_norm(triple.z)
        assert l2_norm(adj.v) <= 1e-9 * nz
        diff = DiscreteFunction(pair.state, adj.y.coefs - triple.z.coefs)
        assert l2_norm(diff) <= 1e-9 * nz


class TestRecovery:
    def test_zero_p_gives_zero_v(self):
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair(0.5)
        triple = make_consistent(prob, zero_function(pair.control), pair)
        v = recover_v(prob, triple, zero_function(pair.control))
        assert np.max(np.abs(v.coefs)) == 0.0

    def test_manufactured_v(self):
        # a_u = laplace: v solves -lap v = p with p = sin(pi x) sin(pi y)
        prob = make_poisson_control(0.01)
        errs = []
        for cell in (0.125, 0.0625):
            mesh = build_initial(UNIT_SQUARE, cell)
            pair = SpacePair(build_space(mesh, "cg", 1), build_space(mesh, "dg", 1))
            triple = make_consistent(prob, zero_function(pair.control), pair)
            p = interpolate(
                pair.control, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
            )
            v = recover_v(prob, triple, p)

            def err(ctx):
                x, y = ctx.x[..., 0], ctx.x[..., 1]
                vex = np.sin(np.pi * x) * np.sin(np.pi * y) / (2 * np.pi**2)
                return (ctx.val("v") - vex) ** 2

            errs.append(np.sqrt(integrate(err, mesh, coeffs={"v": v})))
        rate = np.log2(errs[0] / errs[1])
        assert 1.6 <= rate <= 2.4

    def test_zero_goal_zero_directions_give_zero_y(self):
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair(0.5)
        triple = make_consistent(prob, zero_function(pair.control), pair)
        goal = GoalFunctional("null", lambda u, q: 0.0)
        y = recover_y(prob, goal, triple, zero_function(pair.state),
                      zero_function(pair.control))
        assert np.max(np.abs(y.coefs)) == 0.0

    def test_y_matches_dense_oracle(self):
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair(0.5)
        (goal,) = make_goals("example1_l1", prob)
        rng = np.random.default_rng(2)
        q = DiscreteFunction(pair.control, rng.standard_normal(pair.control.ndofs))
        triple = make_consistent(prob, q, pair)
        p = DiscreteFunction(pair.control, rng.standard_normal(pair.control.ndofs))
        v = recover_v(prob, triple, p)
        y = recover_y(prob, goal, triple, v, p)
        # dense oracle on the tiny free system: A^T y = I_u + M v
        from dwropt.fem import assemble_vector
        from dwropt.reduced import assemble_terms

        A = triple.lin.matrix.toarray()
        rhs = assemble_terms(goal.iu_terms, pair.state, {"u": triple.u, "q": q})
        rhs = rhs + assemble_vector(
            lambda ctx: (ctx.val("v"), None), pair.state, coeffs={"v": v}
        )
        y_dense = np.linalg.solve(A.T, rhs)
        got = y.coefs[pair.state.free_dofs]
        assert np.max(np.abs(got - y_dense)) <= 1e-10 * max(1.0, np.max(np.abs(y_dense)))


class TestReducedAdjointOracle:
    def test_dense_hessian_oracle(self):
        # assemble the reduced Hessian column by column and solve densely
        prob = make_poisson_control(0.01)
        mesh, pair = make_pair(0.5)
        (goal,) = make_goals("example1_l1", prob)
        triple, _ = newton_standard(prob, pair, zero_function(pair.control),
                                    tol_abs=1e-11)
        n = pair.control.nfree
        H = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            H[:, j] = hessvec(prob, triple, function_from_free(pair.control, e))
        rhs = -goal_gradient(prob, goal, triple)
        p_dense = np.linalg.solve(H, rhs)
        p = solve_reduced_adjoint(prob, goal, triple, krylov_tol=1e-13)
        got = p.coefs[pair.control.free_dofs]
        assert np.max(np.abs(got - p_dense)) <= 1e-9 * max(1.0, np.max(np.abs(p_dense)))


def _transferred_enriched(sol, keep_adjoint=False):
    """Low solutions transferred into the enriched spaces (zero weights)."""
    pair2 = sol["pair2"]
    t = sol["triple"]
    a = sol["adj_low"]
    kkt2 = KKTTriple(
        u=transfer(t.u, pair2.state),
        q=transfer(t.q, pair2.control),
        z=transfer(t.z, pair2.state),
    )
    adj2 = AdjointTriple(
        v=transfer(a.v, pair2.state),
        p=transfer(a.p, pair2.control),
        y=transfer(a.y, pair2.state),
    )
    return kkt2, adj2


class TestEstimator:
    def test_zero_weights_zero_parts(self, ex1_level):
        sol = ex1_level
        enriched = _transferred_enriched(sol)
        bd = localize_pu(
            sol["problem"], sol["combined"],
            (sol["triple"], sol["adj_low"]), enriched,
        )
        for part in bd.parts():
            assert abs(part) <= 1e-13
        assert abs(bd.eta_h2) <= 1e-13

    def test_half_sum_identity(self, ex1_level):
        bd = ex1_level["breakdown"]
        assert bd.eta_h2 == pytest.approx(0.5 * sum(bd.parts()), abs=1e-13)

    def test_pu_signed_sum_identity(self, ex1_level):
        bd = ex1_level["breakdown"]
        total = float(np.sum(bd.vertex_values))
        assert total == pytest.approx(bd.eta_h2, rel=1e-10)

    def test_pu_zero_weights_zero_indicators(self, ex1_level):
        sol = ex1_level
        enriched = _transferred_enriched(sol)
        bd = localize_pu(
            sol["problem"], sol["combined"],
            (sol["triple"], sol["adj_low"]), enriched,
        )
        assert np.max(np.abs(bd.indicators)) <= 1e-13

    def test_indicators_nonnegative(self, ex1_level):
        bd = ex1_level["breakdown"]
        assert np.all(bd.indicators >= 0.0)

    def test_goal_scaling_linearity(self, ex1_l1_level):
        # replacing the goal by c I scales p, v, y, all parts and eta by c
        sol = ex1_l1_level
        prob = sol["problem"]
        triple, triple2 = sol["triple"], sol["triple2"]
        goal = sol["combined"]
        c = 3.7

        class Scaled:
            name = "scaled"
            reference = None
            iu_terms = tuple((c * s, f, r) for s, f, r in goal.iu_terms)
            iq_terms = tuple((c * s, f, r) for s, f, r in goal.iq_terms)

            def value(self, u, q):
                return c * goal.value(u, q)

        scaled = Scaled()
        low1 = (triple, adjoint_chain(prob, goal, triple, krylov_tol=1e-13))
        enr1 = (triple2, adjoint_chain(prob, goal, triple2, krylov_tol=1e-13))
        low2 = (triple, adjoint_chain(prob, scaled, triple, krylov_tol=1e-13))
        enr2 = (triple2, adjoint_chain(prob, scaled, triple2, krylov_tol=1e-13))
        scale_p = np.max(np.abs(low1[1].p.coefs))
        np.testing.assert_allclose(
            low2[1].p.coefs, c * low1[1].p.coefs, rtol=0, atol=1e-12 * scale_p
        )
        bd1 = localize_pu(prob, goal, low1, enr1)
        bd2 = localize_pu(prob, scaled, low2, enr2)
        for a, b in zip(bd1.parts(), bd2.parts()):
            assert b == pytest.approx(c * a, rel=1e-11, abs=1e-14)
        assert bd2.eta_h2 == pytest.approx(c * bd1.eta_h2, rel=1e-11)


class TestEtaK:
    def test_zero_p(self, ex1_level):
        sol = ex1_level
        got = compute_eta_k(
            sol["problem"], sol["combined"], sol["triple"],
            zero_function(sol["pair"].control),
        )
        assert got == 0.0

    def test_converged_iterate_vanishes(self, ex1_level):
        sol = ex1_level
        got = compute_eta_k(
            sol["problem"], sol["combined"], sol["triple"], sol["adj_low"].p
        )
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
        bd.eta_h2 = 0.5 * sum(bd.parts())
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
            bd.eta_h2 = 0.5 * sum(bd.parts())
            err = rng.standard_normal() or 1.0
            eff = effectivities(bd, err)
            assert eff.i_eff == pytest.approx((eff.i_eff_p + eff.i_eff_a) / 2,
                                              rel=1e-12, abs=1e-12)

    def test_corrected_index(self):
        bd = ErrorBreakdown(eta_h2=0.4, eta_k=0.1)
        eff = effectivities(bd, 0.5)
        assert eff.i_eff_c == pytest.approx(1.0)

    def test_zero_error_undefined(self):
        eff = effectivities(ErrorBreakdown(eta_h2=0.5), 0.0)
        assert not eff.defined
        assert np.isnan(eff.i_eff)
