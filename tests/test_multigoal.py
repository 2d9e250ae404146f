import numpy as np
import pytest

from dwropt.fem import DiscreteFunction, assemble_vector, build_space, interpolate
from dwropt.mesh import UNIT_SQUARE, build_initial
from dwropt.multigoal import build_combined
from dwropt.problem import GoalFunctional


def _poly_goal(name, cu, cq, offset=0.0):
    """I(u, q) = cu * mean(u) + cq * mean(q) + offset (linear, easy FD)."""
    from dwropt.fem import integrate

    def value(u, q):
        mesh = u.space.mesh
        out = offset
        if cu:
            out += cu * integrate(lambda c: c.val("u"), mesh, coeffs={"u": u})
        if cq:
            out += cq * integrate(lambda c: c.val("q"), mesh, coeffs={"q": q})
        return out

    iu = (lambda c: (np.full(c.x.shape[:2], cu), None)) if cu else None
    iq = (lambda c: (np.full(c.x.shape[:2], cq), None)) if cq else None
    return GoalFunctional(name, value, iu, iq)


def _fields(cell=0.5):
    mesh = build_initial(UNIT_SQUARE, cell)
    su = build_space(mesh, "cg", 1, constrain_dirichlet=False)
    sq = build_space(mesh, "dg", 1)
    u2 = interpolate(su, lambda x, y: 1.0 + x * y)
    q2 = interpolate(sq, lambda x, y: 2.0 - x)
    uf = interpolate(su, lambda x, y: 1.0 + x * y + 0.05 * x)
    qf = interpolate(sq, lambda x, y: 2.0 - x - 0.1 * y)
    return mesh, su, sq, u2, q2, uf, qf


class TestBuildCombined:
    def test_single_goal_relative_deviation(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        goal = _poly_goal("lin", 1.0, 0.5)
        comb = build_combined([goal], (u2, q2), (uf, qf))
        r = goal.value(u2, q2)
        f = goal.value(uf, qf)
        assert comb.value_at_freeze() == pytest.approx(abs(r - f) / abs(f), rel=1e-13)

    def test_sign_flip_invariance(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        plus = _poly_goal("lin", 1.0, 0.5)
        minus = _poly_goal("neg", -1.0, -0.5)
        c1 = build_combined([plus], (u2, q2), (uf, qf))
        c2 = build_combined([minus], (u2, q2), (uf, qf))
        assert c1.value_at_freeze() == pytest.approx(c2.value_at_freeze(), rel=1e-13)

    def test_dominance_at_freeze(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        goals = [
            _poly_goal("a", 1.0, 0.0),
            _poly_goal("b", 0.0, 1.0),
            _poly_goal("c", 2.0, -1.0),
        ]
        comb = build_combined(goals, (u2, q2), (uf, qf))
        total = comb.value_at_freeze()
        for dev in comb.relative_deviations():
            assert total >= dev - 1e-15

    def test_value_matches_sign_frozen_form_at_freeze(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        goals = [_poly_goal("a", 1.0, 0.0), _poly_goal("b", 0.0, 1.0)]
        comb = build_combined(goals, (u2, q2), (uf, qf))
        assert comb.value(uf, qf) == pytest.approx(comb.value_at_freeze(), rel=1e-13)

    def test_derivative_fd_consistency(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        goals = [_poly_goal("a", 1.0, 0.3), _poly_goal("b", -0.5, 1.0)]
        comb = build_combined(goals, (u2, q2), (uf, qf))
        rng = np.random.default_rng(3)
        du = DiscreteFunction(su, su.distribute(rng.standard_normal(su.ndofs)))
        dq = DiscreteFunction(sq, rng.standard_normal(sq.ndofs))
        gu = assemble_vector(comb.iu_fields, su, {"u": uf, "q": qf})
        gq = assemble_vector(comb.iq_fields, sq, {"u": uf, "q": qf})
        h = 1e-6
        fd_u = (
            comb.value(DiscreteFunction(su, uf.coefs + h * du.coefs), qf)
            - comb.value(DiscreteFunction(su, uf.coefs - h * du.coefs), qf)
        ) / (2 * h)
        fd_q = (
            comb.value(uf, DiscreteFunction(sq, qf.coefs + h * dq.coefs))
            - comb.value(uf, DiscreteFunction(sq, qf.coefs - h * dq.coefs))
        ) / (2 * h)
        got_u = float(gu @ du.coefs[su.free_dofs])
        got_q = float(gq @ dq.coefs[sq.free_dofs])
        assert abs(fd_u - got_u) <= 1e-6 * max(1.0, abs(got_u))
        assert abs(fd_q - got_q) <= 1e-6 * max(1.0, abs(got_q))

    def test_positive_homogeneity(self):
        # scaling one member goal by c > 0 leaves its summand invariant
        mesh, su, sq, u2, q2, uf, qf = _fields()
        goals = [_poly_goal("a", 1.0, 0.0), _poly_goal("b", 0.0, 1.0)]
        base = build_combined(goals, (u2, q2), (uf, qf))
        scaled = [_poly_goal("a", 7.0, 0.0), _poly_goal("b", 0.0, 1.0)]
        comb = build_combined(scaled, (u2, q2), (uf, qf))
        assert comb.value_at_freeze() == pytest.approx(
            base.value_at_freeze(), rel=1e-12
        )

    def test_fallback_on_zero_freeze_value(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        # a goal that evaluates to zero at the freeze point
        dead = _poly_goal("dead", 0.0, 0.0, offset=0.0)
        live = _poly_goal("live", 1.0, 0.0)
        comb = build_combined([dead, live], (u2, q2), (uf, qf))
        assert comb.weights[0] == 1.0

    def test_refreeze_moves_weights(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        uf2 = interpolate(su, lambda x, y: 1.0 + x * y + 0.3 * x * x)
        goal = _poly_goal("lin", 1.0, 0.5)
        comb = build_combined([goal], (u2, q2), (uf2, qf))
        re = comb.refreeze(u2, q2)
        assert re.refs == comb.refs
        assert re.freeze_values != comb.freeze_values
        assert re.value_at_freeze() == pytest.approx(0.0, abs=1e-14)


class TestCombinedForms:
    def test_no_member_form_gives_none(self):
        mesh, su, sq, u2, q2, uf, qf = _fields()
        comb = build_combined([_poly_goal("a", 1.0, 0.0)], (u2, q2), (uf, qf))
        assert comb.iq_fields is None
        assert comb.iu_fields is not None
