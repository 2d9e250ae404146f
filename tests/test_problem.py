import numpy as np
import pytest

from dwropt.errors import ConfigError
from dwropt.fem import (
    DiscreteFunction,
    assemble_matrix,
    assemble_vector,
    build_space,
    integrate,
    interpolate,
)
from dwropt.mesh import HOLED_RECT, UNIT_SQUARE, build_initial
from dwropt.problem import (
    make_goals,
    make_plaplace_control,
    make_poisson_control,
)

ALPHA = 0.01


def exact_state(x, y):
    return np.sin(4 * np.pi * x) * np.sin(2 * np.pi * y)


def exact_control(x, y):
    return np.sin(np.pi * x) * np.sin(2 * np.pi * y) / ALPHA


def grad_exact_state(x, y):
    gx = 4 * np.pi * np.cos(4 * np.pi * x) * np.sin(2 * np.pi * y)
    gy = 2 * np.pi * np.sin(4 * np.pi * x) * np.cos(2 * np.pi * y)
    return gx, gy


class TestPoissonInstance:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            make_poisson_control(-1.0)

    def test_exact_minimizer_residual(self):
        # weak residual of the known minimizer, with analytic fields, is
        # pure quadrature error: tiny against a Q2 test space
        prob = make_poisson_control(ALPHA)
        m = build_initial(UNIT_SQUARE, 0.125)
        s2 = build_space(m, "cg", 2)

        def fields(ctx):
            x, y = ctx.x[..., 0], ctx.x[..., 1]
            gx, gy = grad_exact_state(x, y)
            h = np.stack([gx, gy], axis=-1)
            return -(prob.f(x, y) + exact_control(x, y)), h

        r = assemble_vector(fields, s2, nquad=6)
        assert np.max(np.abs(r)) <= 1e-8

    def test_exact_cost_value(self):
        prob = make_poisson_control(ALPHA)
        m = build_initial(UNIT_SQUARE, 0.125)

        def fields(ctx):
            x, y = ctx.x[..., 0], ctx.x[..., 1]
            du = exact_state(x, y) - prob.u_des(x, y)
            q = exact_control(x, y)
            return 0.5 * du * du + 0.5 * ALPHA * q * q

        got = integrate(fields, m, nquad=8)
        expected = (25 * np.pi**4 + 1.0 / ALPHA) / 8.0
        assert expected == pytest.approx(316.9034094812, rel=1e-9)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_operator_is_linear(self):
        prob = make_poisson_control(ALPHA)
        assert prob.a_uu_fields is None
        assert prob.a_u_is_constant


def _residual_vec(prob, space, u, q):
    return assemble_vector(
        prob.residual_fields, space, coeffs={"u": u, "q": q}, nquad=5
    )


class TestPLaplaceInstance:
    def setup_method(self):
        self.prob = make_plaplace_control(alpha=0.1, p=4.0, eps=1.0)
        self.mesh = build_initial(UNIT_SQUARE, 0.25)
        self.space = build_space(self.mesh, "cg", 1)
        self.rng = np.random.default_rng(42)

    def _random_fn(self, scale=1.0):
        s = self.space
        return DiscreteFunction(
            s, s.distribute(self.rng.standard_normal(s.ndofs) * scale)
        )

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            make_plaplace_control(alpha=0.1, p=4.0, eps=0.0)
        with pytest.raises(ConfigError):
            make_plaplace_control(alpha=0.1, p=0.5, eps=1.0)
        with pytest.raises(ConfigError):
            make_plaplace_control(alpha=0.0, p=4.0, eps=1.0)

    def test_zero_state_zero_control(self):
        u = self._random_fn(0.0)
        q = DiscreteFunction(
            build_space(self.mesh, "dg", 1), np.zeros(self.mesh.ncells * 4)
        )
        r = _residual_vec(self.prob, self.space, u, q)
        assert np.max(np.abs(r)) == 0.0

    def test_a_u_fd_consistency(self):
        # central-difference oracle on the residual in a random direction
        u = self._random_fn()
        du = self._random_fn()
        q = DiscreteFunction(
            build_space(self.mesh, "dg", 1), np.zeros(self.mesh.ncells * 4)
        )
        A = assemble_matrix(
            self.prob.a_u_fields, self.space, self.space,
            coeffs={"u": u}, nquad=5,
        )
        exact = A @ du.coefs[self.space.free_dofs]
        h = 1e-5
        up = DiscreteFunction(self.space, u.coefs + h * du.coefs)
        um = DiscreteFunction(self.space, u.coefs - h * du.coefs)
        fd = (
            _residual_vec(self.prob, self.space, up, q)
            - _residual_vec(self.prob, self.space, um, q)
        ) / (2 * h)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact)) / scale <= 1e-6

    def test_a_uu_fd_consistency(self):
        # derivative of a_u in a second direction, paired with a dual weight
        u = self._random_fn()
        d1 = self._random_fn()
        d2 = self._random_fn()
        zf = self._random_fn()
        exact = assemble_vector(
            lambda ctx: self.prob.a_uu_fields(ctx, "w", "zfun"),
            self.space,
            coeffs={"u": u, "w": d1, "zfun": zf},
            nquad=5,
        )
        h = 1e-5

        def a_u_apply(ubase):
            A = assemble_matrix(
                self.prob.a_u_fields, self.space, self.space,
                coeffs={"u": ubase}, nquad=5,
            )
            return A @ d1.coefs[self.space.free_dofs]

        up = DiscreteFunction(self.space, u.coefs + h * zf.coefs)
        um = DiscreteFunction(self.space, u.coefs - h * zf.coefs)
        # full symmetry of the trilinear form: the FD direction may sit in
        # any slot, so pair the zf-dual variant against d1-directional FD
        fd = (a_u_apply(up) - a_u_apply(um)) / (2 * h)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact)) / scale <= 1e-5

    def test_a_u_matrix_symmetric(self):
        u = self._random_fn()
        A = assemble_matrix(
            self.prob.a_u_fields, self.space, self.space, coeffs={"u": u}
        )
        diff = (A - A.T).toarray()
        assert np.max(np.abs(diff)) <= 1e-12 * max(1.0, abs(A).max())

    def test_tracking_data(self):
        prob = self.prob
        x = np.array([3.0, 0.5, 2.5, 4.75])
        y = np.array([3.0, 0.5, 2.5, 2.0])
        np.testing.assert_allclose(prob.u_des(x, y), [-1.0, 0.0, -1.0, 0.0])
        np.testing.assert_allclose(prob.q_des(x, y), 1.0)


class TestGoals:
    def test_example1_cost_reference(self):
        prob = make_poisson_control(0.01)
        (goal,) = make_goals("example1_cost", prob)
        assert goal.reference == pytest.approx((25 * np.pi**4 + 100) / 8, rel=1e-14)

    def test_example1_l1_reference(self):
        prob = make_poisson_control(0.01)
        (goal,) = make_goals("example1_l1", prob)
        assert goal.reference == pytest.approx(4 / np.pi**2, rel=1e-14)
        assert goal.reference == pytest.approx(0.4052847, rel=1e-6)

    def test_l1_derivative_sign_definite(self):
        # for u > 0 the regularized derivative reduces to integral of test fn
        prob = make_poisson_control(0.01)
        (goal,) = make_goals("example1_l1", prob)
        m = build_initial(UNIT_SQUARE, 0.25)
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        u = interpolate(s, lambda x, y: 2.0 + x + 0 * y)
        (scale, fields, region), = goal.iu_terms
        got = assemble_vector(fields, s, coeffs={"u": u})
        ones = assemble_vector(lambda ctx: (np.ones(ctx.x.shape[:2]), None), s)
        np.testing.assert_allclose(got, ones, rtol=1e-7)

    def test_uq_goal_fd_consistency(self):
        prob = make_plaplace_control(0.01, 4.0, 1.0)
        goals = make_goals("example3", prob)
        goal = next(g for g in goals if g.name == "uq_product")
        m = build_initial(UNIT_SQUARE, 0.25)
        su = build_space(m, "cg", 1, constrain_dirichlet=False)
        sq = build_space(m, "dg", 1)
        rng = np.random.default_rng(1)
        u = DiscreteFunction(su, su.distribute(rng.standard_normal(su.ndofs)))
        q = DiscreteFunction(sq, rng.standard_normal(sq.ndofs))
        du = DiscreteFunction(su, su.distribute(rng.standard_normal(su.ndofs)))
        dq = DiscreteFunction(sq, rng.standard_normal(sq.ndofs))
        coeffs = {"u": u, "q": q}
        gu = sum(
            sc * assemble_vector(f, su, coeffs=coeffs, region=r)
            for sc, f, r in goal.iu_terms
        )
        gq = sum(
            sc * assemble_vector(f, sq, coeffs=coeffs, region=r)
            for sc, f, r in goal.iq_terms
        )
        h = 1e-6
        for d, gvec, which in ((du, gu, "u"), (dq, gq, "q")):
            up = {**coeffs, which: DiscreteFunction(d.space, coeffs[which].coefs + h * d.coefs)}
            um = {**coeffs, which: DiscreteFunction(d.space, coeffs[which].coefs - h * d.coefs)}
            fd = (goal.value(up["u"], up["q"]) - goal.value(um["u"], um["q"])) / (2 * h)
            directional = float(gvec @ d.coefs[d.space.free_dofs])
            assert fd == pytest.approx(directional, rel=1e-6, abs=1e-9)

    def test_example3_names_and_references(self):
        prob = make_plaplace_control(0.01, 4.0, 1.0)
        goals = make_goals("example3", prob)
        assert [g.name for g in goals] == [
            "state_misfit",
            "control_misfit",
            "state_strip",
            "control_band",
            "uq_product",
        ]
        refs = [g.reference for g in goals]
        np.testing.assert_allclose(
            refs, [1.15760, 21.3305, -0.236288, 0.328042, 0.231615]
        )

    def test_box_goals_integrate_regions(self):
        prob = make_plaplace_control(0.01, 4.0, 1.0)
        goals = make_goals("example3", prob)
        strip = next(g for g in goals if g.name == "state_strip")
        band = next(g for g in goals if g.name == "control_band")
        m = build_initial(HOLED_RECT, 0.25)
        su = build_space(m, "cg", 1, constrain_dirichlet=False)
        sq = build_space(m, "dg", 1)
        u = interpolate(su, lambda x, y: np.ones_like(x))
        q = DiscreteFunction(sq, np.ones(sq.ndofs))
        # strip [4,5] x R keeps area 5 (holes only touch its boundary)
        assert strip.value(u, q) == pytest.approx(5.0, rel=1e-12)
        # band [1, 6.25] x [2, 2.5]: area 2.625 minus hole slices
        hole_cut = 3 * (1.0 * 0.5)  # three holes intersect the band? oracle below
        org = m.cell_origin()
        h = m.cell_h()
        expected = sum(
            h[c] ** 2
            for c in range(m.ncells)
            if org[c, 0] >= 1 - 1e-9 and org[c, 0] + h[c] <= 6.25 + 1e-9
            and org[c, 1] >= 2 - 1e-9 and org[c, 1] + h[c] <= 2.5 + 1e-9
        )
        assert band.value(u, q) == pytest.approx(expected, rel=1e-12)

    def test_unknown_preset(self):
        prob = make_poisson_control(0.01)
        with pytest.raises(ConfigError):
            make_goals("nope", prob)
