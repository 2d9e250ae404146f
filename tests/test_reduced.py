import sys
import weakref

import numpy as np
import pytest

import dwropt.fem as fem
import dwropt.reduced as red

from dwropt.errors import DwroptError, NonConvergenceError
from dwropt.fem import (
    DiscreteFunction,
    Factorization,
    assemble_matrix,
    assemble_vector,
    build_space,
    function_from_free,
    integrate,
    interpolate,
    reference_apply,
    zero_function,
)
from dwropt.estimator import recover_v, recover_y
from dwropt.mesh import CellSet, HOLED_RECT, UNIT_SQUARE, build_initial, refine, refine_all
from dwropt.multigoal import build_combined
from dwropt.problem import make_goals, make_plaplace_control, make_poisson_control
from dwropt.reduced import (
    KKTTriple,
    dual_norm,
    goal_gradient,
    hessvec,
    lagrangian_uu,
    make_consistent,
    newton_reduced_adaptive,
    newton_standard,
    reduced_gradient,
    solve_reduced_system,
    solve_state,
    state_residual,
)

ALPHA = 0.01


def poisson_setup(cell=0.25):
    prob = make_poisson_control(ALPHA)
    mesh = build_initial(UNIT_SQUARE, cell)
    state, ctrl = build_space(mesh, "cg", 1), build_space(mesh, "dg", 1)
    return prob, mesh, state, ctrl


def plaplace_setup(cell=0.25, alpha=0.1, domain=UNIT_SQUARE):
    prob = make_plaplace_control(alpha, 4.0, 1.0)
    mesh = build_initial(domain, cell)
    state, ctrl = build_space(mesh, "cg", 1), build_space(mesh, "dg", 1)
    return prob, mesh, state, ctrl


def cost_at(prob, q, state):
    """Reduced cost j(q) = J(S(q), q), one state solve from zero."""
    u, _, _ = solve_state(prob, q, zero_function(state))
    return prob.j_value(u, q)


def random_control(space, rng, scale=1.0):
    return DiscreteFunction(space, rng.standard_normal(space.ndofs) * scale)


class TestControlMass:
    @pytest.mark.parametrize("degree", [0, 1])
    def test_control_mass_inverse_is_block_inverse(self, degree):
        mesh = build_initial(HOLED_RECT, 1.0)
        for picks in ([0, 3], [1, 2]):
            ids = [mesh.ncells - 1 - i for i in picks]
            mesh = refine(mesh, CellSet(frozenset(ids), mesh.generation))
        state, ctrl = build_space(mesh, "cg", degree + 1), build_space(mesh, "dg", degree)
        eye = np.column_stack([
            reference_apply(reference_apply(e, ctrl, ctrl), ctrl, ctrl, inverse=True)
            for e in np.eye(ctrl.nfree)
        ])
        assert abs(eye - np.eye(ctrl.nfree)).max() <= 1e-13
        # only a DG mass is block-diagonal
        for test, trial in ((state, state), (ctrl, state), (ctrl, None)):
            with pytest.raises(DwroptError, match="block-diagonal"):
                reference_apply(np.zeros((trial or test).nfree), test, trial, inverse=True)


class TestSolveState:
    def test_poisson_one_step(self):
        prob, mesh, state, ctrl = poisson_setup()
        q = interpolate(ctrl, lambda x, y: np.sin(np.pi * x) * y)
        u, fac, its = solve_state(prob, q, zero_function(state))
        assert its == 1
        res = state_residual(prob, u, q)
        assert np.linalg.norm(res) <= 1e-10

    def test_plaplace_trivial_solution(self):
        prob, mesh, state, ctrl = plaplace_setup()
        q = zero_function(ctrl)
        u, _, _ = solve_state(prob, q, zero_function(state))
        assert np.max(np.abs(u.coefs)) == 0.0

    def test_plaplace_uniqueness_cross_check(self):
        # same solution from zero and from a perturbed start
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT)
        q = DiscreteFunction(ctrl, 10.0 * np.ones(ctrl.ndofs))
        u1, _, _ = solve_state(prob, q, zero_function(state), tol_abs=1e-9)
        res = state_residual(prob, u1, q)
        assert np.linalg.norm(res) <= 1e-7
        rng = np.random.default_rng(0)
        start = DiscreteFunction(
            state,
            state.distribute(u1.coefs + 0.3 * rng.standard_normal(state.ndofs)),
        )
        u2, _, _ = solve_state(prob, q, start, tol_abs=1e-9)
        diff = integrate(
            lambda ctx: (ctx.val("a") - ctx.val("b")) ** 2,
            mesh,
            coeffs={"a": u1, "b": u2},
        )
        assert np.sqrt(diff) <= 1e-8

    def test_chord_returns_jacobian_at_returned_state(self):
        # a line-search trial: start from the triple at q with its factor
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT)
        q = DiscreteFunction(ctrl, 5.0 * np.ones(ctrl.ndofs))
        triple = make_consistent(prob, q, zero_function(state))
        rng = np.random.default_rng(3)
        q2 = DiscreteFunction(ctrl, q.coefs + rng.standard_normal(q.coefs.size))
        u, fac, its = solve_state(prob, q2, triple.u,
                                  fac=triple.lin)
        assert its >= 2
        A = assemble_matrix(prob.a_u_fields, state,
                            coeffs={"u": u, "q": q2})
        x = rng.standard_normal(state.nfree)
        assert np.linalg.norm(fac.solve(A @ x) - x) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("scale", [10.0, -1.0])
    def test_poor_chord_converges(self, scale):
        # 10 J contracts too weakly and is refreshed after the first step;
        # -J points uphill, so the stale line search stalls and is retried
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT)
        q = DiscreteFunction(ctrl, 10.0 * np.ones(ctrl.ndofs))
        cold, _, _ = solve_state(prob, q, zero_function(state))
        start = zero_function(state)
        J = assemble_matrix(prob.a_u_fields, state,
                            coeffs={"u": start, "q": q})
        u, _, _ = solve_state(prob, q, start,
                              fac=Factorization(scale * J))
        assert np.linalg.norm(state_residual(prob, u, q)) <= 1e-10
        diff = integrate(
            lambda ctx: (ctx.val("a") - ctx.val("b")) ** 2,
            mesh,
            coeffs={"a": u, "b": cold},
        )
        assert np.sqrt(diff) <= 1e-10


class TestAdjoint:
    def test_zero_rhs_gives_zero(self):
        prob, mesh, state, ctrl = poisson_setup()
        q = zero_function(ctrl)
        triple = make_consistent(prob, q, zero_function(state))
        z = function_from_free(
            state, triple.lin.solve_transposed(np.zeros(state.nfree))
        )
        assert np.max(np.abs(z.coefs)) == 0.0

    def test_manufactured_adjoint(self):
        # rhs integral(sin(pi x) sin(pi y) v) -> z = sin sin / (2 pi^2) + O(h^2)
        prob, mesh, state, ctrl = poisson_setup(cell=0.0625)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))

        def rhs(ctx):
            x, y = ctx.x[..., 0], ctx.x[..., 1]
            return np.sin(np.pi * x) * np.sin(np.pi * y), None

        z = function_from_free(
            state, triple.lin.solve_transposed(assemble_vector(rhs, state))
        )

        def err(ctx):
            x, y = ctx.x[..., 0], ctx.x[..., 1]
            zex = np.sin(np.pi * x) * np.sin(np.pi * y) / (2 * np.pi**2)
            return (ctx.val("z") - zex) ** 2

        e = np.sqrt(integrate(err, mesh, coeffs={"z": z}))
        assert e <= 0.02 / (2 * np.pi**2)

    def test_plaplace_adjoint_equals_forward(self):
        # the linearized p-Laplace operator is symmetric
        prob, mesh, state, ctrl = plaplace_setup()
        rng = np.random.default_rng(5)
        q = random_control(ctrl, rng)
        triple = make_consistent(prob, q, zero_function(state))
        rhs = rng.standard_normal(state.nfree)
        fwd = function_from_free(state, triple.lin.solve(rhs))
        adj = function_from_free(state, triple.lin.solve_transposed(rhs))
        assert np.max(np.abs(fwd.coefs - adj.coefs)) <= 1e-12 * max(
            1.0, np.max(np.abs(fwd.coefs))
        )


class TestReducedGradient:
    def test_zero_data_zero_gradient(self):
        # q = q_des = 0, f = 0, u_des = 0: the optimum is at zero
        prob = make_plaplace_control(alpha=5.0, p=4.0, eps=1.0)
        prob = type(prob)(**{**prob.__dict__, "u_des": lambda x, y: np.zeros_like(x),
                             "q_des": lambda x, y: np.zeros_like(x)})
        mesh = build_initial(UNIT_SQUARE, 0.5)
        state, ctrl = build_space(mesh, "cg", 1), build_space(mesh, "dg", 1)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        g = reduced_gradient(triple)
        assert np.max(np.abs(g)) <= 1e-14

    @pytest.mark.parametrize("cell", [0.5, 0.25])
    def test_fd_gradient_poisson(self, cell):
        prob, mesh, state, ctrl = poisson_setup(cell)
        rng = np.random.default_rng(11)
        q = random_control(ctrl, rng, scale=3.0)
        dq = random_control(ctrl, rng)
        triple = make_consistent(prob, q, zero_function(state))
        g = reduced_gradient(triple)
        directional = float(g @ dq.coefs[ctrl.free_dofs])
        h = 1e-5
        jp = cost_at(prob, DiscreteFunction(ctrl, q.coefs + h * dq.coefs), state)
        jm = cost_at(prob, DiscreteFunction(ctrl, q.coefs - h * dq.coefs), state)
        fd = (jp - jm) / (2 * h)
        assert abs(fd - directional) <= 1e-6 * max(1.0, abs(directional))

    def test_fd_gradient_plaplace_with_richardson(self):
        prob, mesh, state, ctrl = plaplace_setup(cell=0.25)
        rng = np.random.default_rng(7)
        q = random_control(ctrl, rng)
        dq = random_control(ctrl, rng)
        triple = make_consistent(prob, q, zero_function(state), tol_abs=1e-13)
        g = reduced_gradient(triple)
        directional = float(g @ dq.coefs[ctrl.free_dofs])

        def fd(h):
            jp = cost_at(
                prob, DiscreteFunction(ctrl, q.coefs + h * dq.coefs), state
            )
            jm = cost_at(
                prob, DiscreteFunction(ctrl, q.coefs - h * dq.coefs), state
            )
            return (jp - jm) / (2 * h)

        e1 = abs(fd(1e-3) - directional)
        e2 = abs(fd(5e-4) - directional)
        order = np.log(e1 / e2) / np.log(2.0)
        assert abs(fd(1e-4) - directional) <= 1e-6 * max(1.0, abs(directional))
        assert order >= 1.9 or e2 <= 1e-10

    def test_exact_optimum_gradient_shrinks(self):
        # at the interpolated exact optimum the gradient is O(h); FD match holds
        errs = []
        for cell in (0.25, 0.125):
            prob, mesh, state, ctrl = poisson_setup(cell)
            q = interpolate(
                ctrl,
                lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y) / ALPHA,
            )
            triple = make_consistent(prob, q, zero_function(state))
            g = reduced_gradient(triple)
            errs.append(dual_norm(ctrl, g))
        assert errs[1] < 0.5 * errs[0]


class TestGoalGradient:
    def test_one_sweep_per_derivative_side(self, monkeypatch):
        # five example3 goals combined: one iq and one iu assembly in all
        import dwropt.reduced as red

        prob, mesh, state, ctrl = plaplace_setup(cell=0.25, alpha=0.01, domain=HOLED_RECT)
        rng = np.random.default_rng(5)
        t = make_consistent(prob, random_control(ctrl, rng), zero_function(state))
        q2 = random_control(ctrl, rng)
        u2, _, _ = solve_state(prob, q2, zero_function(state))
        comb = build_combined(make_goals("example3", prob), (u2, q2)).refreeze(t.u, t.q)
        spaces = []
        real = red.assemble_vector

        def counting(form, test, *args, **kwargs):
            spaces.append(test)
            return real(form, test, *args, **kwargs)

        monkeypatch.setattr(red, "assemble_vector", counting)
        goal_gradient(comb, t)
        assert spaces == [ctrl, state]


class TestHessvec:
    def test_spd_and_base_point_independence(self):
        prob, mesh, state, ctrl = poisson_setup()
        rng = np.random.default_rng(3)
        dq = random_control(ctrl, rng)
        t0 = make_consistent(prob, zero_function(ctrl), zero_function(state))
        t1 = make_consistent(prob, random_control(ctrl, rng, 5.0), zero_function(state))
        h0 = hessvec(t0, dq)
        h1 = hessvec(t1, dq)
        quad = float(h0 @ dq.coefs[ctrl.free_dofs])
        assert quad > 0
        np.testing.assert_allclose(h0, h1, rtol=1e-12, atol=1e-14)

    def test_hessvec_quadratic_identity(self):
        # for the linear-quadratic instance: h(dq)(dq) = alpha |dq|^2 + |du|^2
        prob, mesh, state, ctrl = poisson_setup()
        rng = np.random.default_rng(4)
        dq = random_control(ctrl, rng)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        h = hessvec(triple, dq)
        quad = float(h @ dq.coefs[ctrl.free_dofs])

        def tangent_rhs(ctx):
            return ctx.val("dq"), None

        du = function_from_free(
            state,
            triple.lin.solve(assemble_vector(tangent_rhs, state, coeffs={"dq": dq})),
        )
        ndq = integrate(lambda ctx: ctx.val("f") ** 2, mesh, coeffs={"f": dq})
        ndu = integrate(lambda ctx: ctx.val("f") ** 2, mesh, coeffs={"f": du})
        assert quad == pytest.approx(prob.alpha * ndq + ndu, rel=1e-10)

    def test_fd_hessvec_plaplace(self):
        prob, mesh, state, ctrl = plaplace_setup(cell=0.25)
        rng = np.random.default_rng(9)
        q = random_control(ctrl, rng)
        dq = random_control(ctrl, rng)
        triple = make_consistent(prob, q, zero_function(state), tol_abs=1e-13)
        hv = hessvec(triple, dq)
        h = 1e-4
        tp = make_consistent(
            prob, DiscreteFunction(ctrl, q.coefs + h * dq.coefs), zero_function(state),
            tol_abs=1e-13,
        )
        tm = make_consistent(
            prob, DiscreteFunction(ctrl, q.coefs - h * dq.coefs), zero_function(state),
            tol_abs=1e-13,
        )
        fd = (reduced_gradient(tp) - reduced_gradient(tm)) / (2 * h)
        scale = max(1.0, np.max(np.abs(hv)))
        assert np.max(np.abs(fd - hv)) / scale <= 1e-4


class TestSolveReducedSystem:
    def test_zero_rhs(self):
        prob, mesh, state, ctrl = poisson_setup()
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        x, its = solve_reduced_system(triple, np.zeros(ctrl.nfree))
        assert np.max(np.abs(x.coefs)) == 0.0
        assert its == 0

    def test_newton_step_reaches_optimum(self):
        prob, mesh, state, ctrl = poisson_setup()
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        g = reduced_gradient(triple)
        dq, _ = solve_reduced_system(triple, -g, krylov_tol=1e-12)
        q1 = DiscreteFunction(ctrl, triple.q.coefs + dq.coefs)
        t1 = make_consistent(prob, q1, zero_function(state))
        g1 = reduced_gradient(t1)
        assert dual_norm(ctrl, g1) <= 1e-8 * max(1.0, dual_norm(ctrl, g))

    def test_spd_pairing(self):
        prob, mesh, state, ctrl = poisson_setup(cell=0.5)
        rng = np.random.default_rng(21)
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        rhs = rng.standard_normal(ctrl.nfree)
        x, _ = solve_reduced_system(triple, rhs)
        assert float(rhs @ x.coefs[ctrl.free_dofs]) >= 0.0

    def _negated_hessvec_from_call(self, monkeypatch, first):
        # the true product up to call first - 1, its negative from then on
        calls, real = [0], red.hessvec

        def hessvec_(triple, dq):
            calls[0] += 1
            h = real(triple, dq)
            return -h if calls[0] >= first else h

        monkeypatch.setattr(red, "hessvec", hessvec_)

    def test_negative_curvature_at_once_returns_preconditioned_rhs(self, monkeypatch):
        prob, mesh, state, ctrl = poisson_setup()
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        b = np.random.default_rng(23).standard_normal(ctrl.nfree)
        self._negated_hessvec_from_call(monkeypatch, first=1)
        x, its = solve_reduced_system(triple, b)
        assert its == 1
        want = reference_apply(b, ctrl, ctrl, inverse=True) * (1.0 / prob.alpha)
        np.testing.assert_array_equal(x.coefs[ctrl.free_dofs], want)

    def test_negative_curvature_later_returns_cg_progress(self, monkeypatch):
        prob, mesh, state, ctrl = poisson_setup()
        triple = make_consistent(prob, zero_function(ctrl), zero_function(state))
        b = np.random.default_rng(23).standard_normal(ctrl.nfree)
        p0 = reference_apply(b, ctrl, ctrl, inverse=True) * (1.0 / prob.alpha)
        a = float(b @ p0) / float(p0 @ hessvec(triple, function_from_free(ctrl, p0)))
        self._negated_hessvec_from_call(monkeypatch, first=2)
        x, its = solve_reduced_system(triple, b)
        assert its == 2
        np.testing.assert_array_equal(x.coefs[ctrl.free_dofs], a * p0)


class TestNewtonStandard:
    def test_example1_converges(self):
        prob, mesh, state, ctrl = poisson_setup()
        triple, log = newton_standard(prob, zero_function(ctrl), zero_function(state))
        assert log.stop_reason in ("absolute", "relative")
        g = reduced_gradient(triple)
        assert dual_norm(ctrl, g) <= 1e-7 or log.stop_reason == "relative"
        assert log.iterations == 1  # quadratic problem: one exact step

    def test_zero_iterations_at_optimum(self):
        prob, mesh, state, ctrl = poisson_setup()
        t, _ = newton_standard(prob, zero_function(ctrl), zero_function(state), tol_abs=1e-10)
        t2, log2 = newton_standard(prob, t.q, zero_function(state), tol_abs=1e-7)
        assert log2.iterations == 0

    def test_monotone_cost(self):
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT, alpha=1.0)
        q0 = zero_function(ctrl)
        triple, log = newton_standard(prob, q0, zero_function(state), tol_abs=1e-8)
        assert all(s > 0 for s in log.step_sizes)
        assert log.stop_reason in ("absolute", "relative")


class TestLineSearchFactor:
    def test_trial_takes_over_the_accepted_factor(self, monkeypatch):
        # a line-search trial owns the accepted factor, so when it (or any
        # state solve) factorizes, no other state factor is alive
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT, alpha=1.0)
        alive, others = weakref.WeakSet(), []
        init = Factorization.__init__

        def tracking(self, matrix):
            others.append(len(alive))
            init(self, matrix)
            alive.add(self)

        monkeypatch.setattr(Factorization, "__init__", tracking)
        triple, log = newton_standard(prob, zero_function(ctrl), zero_function(state), tol_abs=1e-8)
        assert log.iterations >= 2
        assert len(others) > log.iterations and set(others) == {0}
        assert list(alive) == [triple.lin]

    def test_rejected_trial_refactorizes_the_accepted_point(self, monkeypatch):
        # a stricter Armijo constant rejects the first full step; the next
        # trial starts from the accepted point refactorized, bitwise the same
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT, alpha=1.0)
        b = np.cos(np.arange(state.nfree))
        trials = []
        solve = red.solve_state

        def recording(*args, fac=None, **kwargs):
            if fac is not None:
                # is the previous trial's factor freed by now?
                freed = bool(trials) and trials[-1][0]() is None
                trials.append((weakref.ref(fac), freed, fac.solve(b), fac.solve_transposed(b)))
            return solve(*args, fac=fac, **kwargs)

        monkeypatch.setattr(red, "solve_state", recording)
        monkeypatch.setattr(red, "ARMIJO_C", 0.6)
        _, log = newton_standard(prob, zero_function(ctrl), zero_function(state), tol_abs=1e-8)
        assert log.step_sizes[0] == 0.5
        (_, _, x1, t1), (_, freed, x2, t2) = trials[:2]
        assert freed
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(t1, t2)


class TestNewtonAdaptive:
    def _combined(self, prob, triple):
        goals = make_goals("example1_cost", prob)
        return build_combined(goals, (triple.u, triple.q)).refreeze(triple.u, triple.q)

    def test_huge_threshold_zero_iterations(self):
        prob, mesh, state, ctrl = poisson_setup()
        t0 = make_consistent(prob, zero_function(ctrl), zero_function(state))
        goal = self._combined(prob, t0)
        triple, _, p, log = newton_reduced_adaptive(
            prob, goal, zero_function(ctrl), zero_function(state), gamma=1e-2, eta_prev=1e12
        )
        assert log.iterations == 0
        assert log.stop_reason == "adaptive"
        np.testing.assert_array_equal(triple.q.coefs, 0.0)

    def test_example1_single_step(self):
        prob, mesh, state, ctrl = poisson_setup()
        t0 = make_consistent(prob, zero_function(ctrl), zero_function(state))
        goal = self._combined(prob, t0)
        triple, _, p, log = newton_reduced_adaptive(
            prob, goal, zero_function(ctrl), zero_function(state), gamma=1e-2, eta_prev=1e-5
        )
        assert log.iterations == 1
        assert log.stop_reason == "adaptive"
        g = reduced_gradient(triple)
        assert abs(float(g @ p.coefs[ctrl.free_dofs])) <= 1e-7

    def _plaplace_start(self):
        # the cost goal, unlike uq_product, has a nonzero derivative at q = 0
        prob, mesh, state, ctrl = plaplace_setup(cell=0.5, domain=HOLED_RECT, alpha=1.0)
        q0 = zero_function(ctrl)
        return prob, state, q0, self._combined(prob, make_consistent(prob, q0, zero_function(state)))

    def test_unreachable_guard_matches_standard(self):
        # a guard that never fires leaves the gradient-norm exits: same iterates
        prob, state, q0, goal = self._plaplace_start()
        std, log_std = newton_standard(prob, q0, zero_function(state), tol_abs=1e-8)
        ada, _, p, log_ada = newton_reduced_adaptive(
            prob, goal, q0, zero_function(state), gamma=1e-2, eta_prev=1e-300, tol_abs=1e-8
        )
        assert log_ada.iterations >= 1 and p is not None
        np.testing.assert_array_equal(ada.q.coefs, std.q.coefs)
        np.testing.assert_array_equal(ada.u.coefs, std.u.coefs)
        assert log_ada.step_sizes == log_std.step_sizes
        assert log_ada.stop_reason == log_std.stop_reason != "adaptive"

    def test_max_iter_zero_raises(self, monkeypatch):
        prob, state, q0, goal = self._plaplace_start()
        monkeypatch.setattr(red, "MAX_NEWTON_ITERATIONS", 0)
        with pytest.raises(NonConvergenceError, match="0 iterations"):
            newton_standard(prob, q0, zero_function(state), tol_abs=1e-8)
        with pytest.raises(NonConvergenceError, match="0 iterations"):
            newton_reduced_adaptive(prob, goal, q0, zero_function(state), gamma=1e-2,
                                    eta_prev=1e-300, tol_abs=1e-8)


# ---------------------------------------------------------------------------
# reference: the quadrature-closure formulations the assembled operators
# replaced.  Both problems take the control as a_q(q, v) = -(q, v), with
# J_uu the mass and J_qq alpha times it.

PLAPLACE_P, PLAPLACE_EPS = 4.0, 1.0  # the p-Laplace problem these oracles check


def _ref_a_uu_vector(p, eps):
    """Vector form a_uu(u)(w, .; z) of the p-Laplacian, coefficients u, w, z."""

    def fields(ctx):
        gu, gw, gz = ctx.grad("u"), ctx.grad("w"), ctx.grad("z")
        s = eps**2 + gu[..., 0] ** 2 + gu[..., 1] ** 2
        kap4 = s ** ((p - 4) / 2)
        kap6 = s ** ((p - 6) / 2)
        uw = np.einsum("cgd,cgd->cg", gu, gw)
        uz = np.einsum("cgd,cgd->cg", gu, gz)
        wz = np.einsum("cgd,cgd->cg", gw, gz)
        h = (p - 2) * kap4[..., None] * (
            wz[..., None] * gu + uz[..., None] * gw + uw[..., None] * gz
        )
        h += ((p - 2) * (p - 4) * kap6 * uw * uz)[..., None] * gu
        return None, h

    return fields


def _ref_l_uu(prob, t, d):
    """J_uu(d, .) - a_uu(u)(d, .; z) at the triple t."""
    state = t.u.space
    rhs = assemble_vector(lambda ctx: (ctx.val("d"), None), state, coeffs={"d": d})
    if prob.a_uu_fields is not None:
        rhs -= assemble_vector(
            _ref_a_uu_vector(PLAPLACE_P, PLAPLACE_EPS), state,
            coeffs={"u": t.u, "w": d, "z": t.z},
        )
    return rhs


def _ref_reduced_gradient(prob, t):
    def fields(ctx):
        g, _ = prob.j_q_fields(ctx)
        return g + ctx.val("z"), None

    return assemble_vector(fields, t.q.space, coeffs={"q": t.q, "z": t.z})


def _ref_goal_gradient(prob, goal, t):
    coeffs = {"u": t.u, "q": t.q}
    out = assemble_vector(goal.iq_fields, t.q.space, coeffs)
    w = function_from_free(
        t.u.space, t.lin.solve_transposed(assemble_vector(goal.iu_fields, t.u.space, coeffs))
    )
    return out + assemble_vector(
        lambda ctx: (ctx.val("w"), None), t.q.space, coeffs={"w": w}
    )


def _ref_recover_v(prob, t, p):
    return function_from_free(t.u.space, t.lin.solve(
        assemble_vector(lambda ctx: (ctx.val("p"), None), t.u.space, coeffs={"p": p})
    ))


def _ref_hessvec(prob, t, dq):
    du = _ref_recover_v(prob, t, dq)
    dz = function_from_free(t.u.space, t.lin.solve_transposed(_ref_l_uu(prob, t, du)))

    def fields(ctx):
        return prob.alpha * ctx.val("dq") + ctx.val("dz"), None

    return assemble_vector(fields, t.q.space, coeffs={"dq": dq, "dz": dz})


def _ref_recover_y(prob, goal, t, v):
    rhs = assemble_vector(goal.iu_fields, t.u.space, {"u": t.u, "q": t.q})
    return function_from_free(t.u.space, t.lin.solve_transposed(rhs + _ref_l_uu(prob, t, v)))


def _assert_close(got, ref):
    ref = np.asarray(ref)
    np.testing.assert_allclose(
        got, ref, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(ref)))
    )


class TestAssembledOperatorsMatchClosures:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("which", ["poisson", "plaplace"])
    def test_against_closure_reference(self, which, degree):
        mesh = build_initial(UNIT_SQUARE, 0.25)
        mesh = refine(mesh, CellSet(frozenset({0, 5}), mesh.generation))
        state, ctrl = build_space(mesh, "cg", degree), build_space(mesh, "dg", degree - 1)
        if which == "poisson":
            prob = make_poisson_control(ALPHA)
        else:
            prob = make_plaplace_control(0.1, PLAPLACE_P, PLAPLACE_EPS)
        (goal,) = make_goals("example2_uq", prob)
        rng = np.random.default_rng(13)
        t = make_consistent(prob, random_control(ctrl, rng), zero_function(state))
        dq = random_control(ctrl, rng)

        _assert_close(reduced_gradient(t), _ref_reduced_gradient(prob, t))
        _assert_close(goal_gradient(goal, t), _ref_goal_gradient(prob, goal, t))
        _assert_close(hessvec(t, dq), _ref_hessvec(prob, t, dq))
        v = recover_v(t, dq)
        _assert_close(v.coefs, _ref_recover_v(prob, t, dq).coefs)
        y = recover_y(goal, t, v)
        _assert_close(y.coefs, _ref_recover_y(prob, goal, t, v).coefs)
        if which == "plaplace":
            # the stored CSC Hessian sums each row in the order CSR does
            x = rng.standard_normal(state.nfree)
            assert t.l_uu.format == "csc"
            np.testing.assert_array_equal(lagrangian_uu(t, x), t.l_uu.tocsr() @ x)


# ---------------------------------------------------------------------------
# reference: the quadrature sweeps that the reference-element products and
# the cached data loads replaced


def _ref_j_value(prob, u, q):
    def fields(ctx):
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        du = ctx.val("u") - prob.u_des(x, y)
        dq = ctx.val("q") - prob.q_des(x, y)
        return 0.5 * du * du + 0.5 * prob.alpha * dq * dq

    return integrate(fields, u.space.mesh, coeffs={"u": u, "q": q})


def _ref_ju_vector(prob, u, q):
    return assemble_vector(prob.j_u_fields, u.space, coeffs={"u": u, "q": q})


def _ref_jq_vector(prob, q):
    return assemble_vector(prob.j_q_fields, q.space, coeffs={"q": q})


def _ref_state_residual(prob, u, q):
    return assemble_vector(prob.residual_fields, u.space, coeffs={"u": u, "q": q})


def _close(new, old):
    return np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


class TestProductsMatchQuadrature:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("which", ["poisson", "plaplace"])
    def test_against_quadrature(self, which, degree):
        if which == "poisson":
            prob, mesh = make_poisson_control(ALPHA), build_initial(UNIT_SQUARE, 0.25)
        else:
            # u_des jumps on the tracking box, q_des = 1
            prob, mesh = make_plaplace_control(0.1, 4.0, 1.0), build_initial(HOLED_RECT, 0.5)
        mesh = refine(mesh, CellSet(frozenset({0, 5, 11}), mesh.generation))
        state, ctrl = build_space(mesh, "cg", degree), build_space(mesh, "dg", degree - 1)
        rng = np.random.default_rng(29)
        for _ in range(3):
            u = function_from_free(state, rng.standard_normal(state.nfree))
            q = random_control(ctrl, rng)
            j_new, j_old = prob.j_value(u, q), _ref_j_value(prob, u, q)
            assert abs(j_new - j_old) <= 1e-12 * abs(j_old)
            assert _close(red._ju_vector(prob, u, q), _ref_ju_vector(prob, u, q))
            assert _close(state_residual(prob, u, q), _ref_state_residual(prob, u, q))
            # with a zero adjoint the reduced gradient is its J_q term
            t = KKTTriple(u=u, q=q, z=zero_function(state), problem=prob)
            assert _close(reduced_gradient(t), _ref_jq_vector(prob, q))


def test_cached_level_makes_no_quadrature_sweep(monkeypatch):
    # once a level's loads are cached, the Poisson state and adjoint solves,
    # the reduced gradient and the cost are products and solves only
    from dwropt.driver import instantiate, preset_config

    problem, _, mesh = instantiate(preset_config("example1_cost"))
    state, ctrl = build_space(mesh, "cg", 1), build_space(mesh, "dg", 0)
    q = interpolate(ctrl, lambda x, y: np.sin(np.pi * x) * y)

    def level():
        t = make_consistent(problem, q, zero_function(state))
        return reduced_gradient(t), problem.j_value(t.u, t.q)

    g0, j0 = level()
    sweeps = []
    for name in ("assemble_vector", "integrate"):
        original = getattr(fem, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            sweeps.append(_name)
            return _original(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.startswith("dwropt")]:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting)
    g1, j1 = level()
    assert sweeps == []
    assert np.array_equal(g0, g1) and j0 == j1
