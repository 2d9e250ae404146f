"""Concrete problem definitions: weak operator, cost, goal functionals.

A :class:`ProblemDefinition` bundles the residual form of the state
operator, its Gateaux derivatives, and the tracking cost with all the
partial derivatives the optimizer and the error estimator consume.  The
derivative forms follow the field conventions of :mod:`dwropt.fem`.

Two instances ship: a linear Poisson control problem with a known exact
minimizer, and a regularized p-Laplacian control problem on a rectangle
with six holes.  Control enters both operators as a_q(q, v) = -(q, v)
and the cost is the separable tracking functional, so J_uu is the state
mass, J_qq alpha times the control mass, and all cross and
control-control operator derivatives vanish; none of these has a slot
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fem import (
    gauss_points,
    integrate,
    load_vector,
    reference_apply,
    region_cell_mask,
    stiffness_fields,
)

TRACKING_BOX = (2.5, 2.5, 4.5, 4.5)  # u_des = -1 inside, 0 elsewhere

EXAMPLE2_REFERENCES = {
    0.01: 0.2316036,
    0.1: 0.07069658,
    1.0: 0.1502366,
    10.0: 0.1635741,
}

EXAMPLE3_REFERENCES = (1.15760, 21.3305, -0.236288, 0.328042, 0.231615)

GOAL_PRESETS = ("example1_cost", "example1_l1", "example2_uq", "example3")


@dataclass(frozen=True)
class ProblemDefinition:
    """Weak forms of the state operator and cost with their derivatives.

    Every form callable follows fem's field conventions.  The second
    derivative of the operator, a_uu(u)(., .; z), is a matrix form that
    reads the state and the dual weight from coefficients ``u`` and
    ``z``; it is None when the operator is linear in the state.  A linear
    operator is the Laplacian: its Jacobian is the factorized stiffness
    of the SpacePair, not assembled from a_u_fields, and the state solve
    forms its residual from reference-element products and the load of
    f (the estimator still reads residual_fields).
    """

    name: str
    alpha: float
    p: float | None
    eps: float | None
    f: Callable
    u_des: Callable
    q_des: Callable
    residual_fields: Callable
    a_u_fields: Callable
    a_uu_fields: Callable | None

    def j_u_fields(self, ctx):
        """dJ/du directional form: g = u - u_des."""
        return ctx.val("u") - ctx.data(self.u_des), None

    def j_q_fields(self, ctx):
        """dJ/dq directional form: g = alpha (q - q_des)."""
        return self.alpha * (ctx.val("q") - ctx.data(self.q_des)), None

    def j_value(self, u, q):
        """J(u, q) = 1/2 |u - u_des|^2 + alpha/2 |q - q_des|^2 (L2 norms).

        Without a quadrature sweep: see _half_misfit.  The data integrals
        use the Gauss rule of a sweep over both spaces.
        """
        nquad = gauss_points(u.space, q.space)
        return (_half_misfit(u, self.u_des, nquad)
                + self.alpha * _half_misfit(q, self.q_des, nquad))


def _half_misfit(f, data, nquad):
    """1/2 |f - data|^2 as 1/2 x'Mx - x'b + c for the free values x of f.

    Mx is a reference-element mass product; b, the integrals of data
    against the test functions, and c = 1/2 of the integral of data^2 are
    cached on f's space (Gauss rule with nquad points per direction).
    """
    space = f.space
    x = f.coefs[space.free_dofs]

    def half_square():
        return 0.5 * integrate(lambda ctx: data(ctx.x[..., 0], ctx.x[..., 1]) ** 2,
                               space.mesh, nquad=nquad)

    c = space.cached(("half_square", data, nquad), half_square)
    return 0.5 * (x @ reference_apply(x, space, space)) - x @ load_vector(space, data, nquad) + c


def make_poisson_control(alpha):
    """Linear Poisson control problem on the unit square.

    The minimizer is known in closed form, which makes this instance the
    validation anchor: the optimal cost is (25 pi^4 + 1/alpha) / 8.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")

    def f(x, y):
        return (20 * np.pi**2 * np.sin(4 * np.pi * x)
                - np.sin(np.pi * x) / alpha) * np.sin(2 * np.pi * y)

    def u_des(x, y):
        return (5 * np.pi**2 * np.sin(np.pi * x)
                + np.sin(4 * np.pi * x)) * np.sin(2 * np.pi * y)

    def q_des(x, y):
        return np.zeros_like(x)

    def residual_fields(ctx):
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        return -(f(x, y) + ctx.val("q")), ctx.grad("u")

    return ProblemDefinition(
        name="poisson_control",
        alpha=alpha,
        p=None,
        eps=None,
        f=f,
        u_des=u_des,
        q_des=q_des,
        residual_fields=residual_fields,
        a_u_fields=stiffness_fields,
        a_uu_fields=None,
    )


def make_plaplace_control(alpha, p, eps):
    """Regularized p-Laplacian control problem on the holed rectangle.

    Operator coefficient (eps^2 + |grad u|^2)^((p-2)/2); f = 0, desired
    control 1, desired state -1 inside the central box and 0 elsewhere.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if p <= 1.0:  # 2d/(2+d) with d = 2
        raise ConfigError(f"p must exceed 1, got {p}")

    def f(x, y):
        return np.zeros_like(x)

    x0, y0, x1, y1 = TRACKING_BOX

    def u_des(x, y):
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return np.where(inside, -1.0, 0.0)

    def q_des(x, y):
        return np.ones_like(x)

    def _s(gu):
        return eps**2 + gu[..., 0] ** 2 + gu[..., 1] ** 2

    def residual_fields(ctx):
        gu = ctx.grad("u")
        kap = _s(gu) ** ((p - 2) / 2)
        return -(ctx.val("q")), kap[..., None] * gu

    def a_u_fields(ctx):
        gu = ctx.grad("u")
        s = _s(gu)
        kap = s ** ((p - 2) / 2)
        kap4 = s ** ((p - 4) / 2)
        outer = gu[..., :, None] * gu[..., None, :]
        K = (p - 2) * kap4[..., None, None] * outer
        K[..., 0, 0] += kap
        K[..., 1, 1] += kap
        return K, None

    def a_uu_fields(ctx):
        gu, gz = ctx.grad("u"), ctx.grad("z")
        s = _s(gu)
        uz = np.einsum("cgd,cgd->cg", gu, gz)
        kap4 = (p - 2) * s ** ((p - 4) / 2)
        kap6 = (p - 2) * (p - 4) * s ** ((p - 6) / 2)
        K = kap4[..., None, None] * (
            gu[..., :, None] * gz[..., None, :] + gz[..., :, None] * gu[..., None, :]
        )
        K += (kap6 * uz)[..., None, None] * gu[..., :, None] * gu[..., None, :]
        K[..., 0, 0] += kap4 * uz
        K[..., 1, 1] += kap4 * uz
        return K, None

    return ProblemDefinition(
        name="plaplace_control",
        alpha=alpha,
        p=p,
        eps=eps,
        f=f,
        u_des=u_des,
        q_des=q_des,
        residual_fields=residual_fields,
        a_u_fields=a_u_fields,
        a_uu_fields=a_uu_fields,
    )


# ---------------------------------------------------------------------------
# goal functionals


@dataclass(frozen=True)
class GoalFunctional:
    """Quantity of interest with its first derivatives.

    ``iu_fields`` and ``iq_fields`` are fem vector forms of the
    derivative in the state and in the control; None means the goal does
    not depend on that variable.  A goal over a box multiplies its value
    integrand and its forms by the box's cell mask and names the box in
    ``region``, which only the configuration check reads (the box must
    align with the initial mesh lines).
    """

    name: str
    value_fn: Callable
    iu_fields: Callable | None = None
    iq_fields: Callable | None = None
    reference: float | None = None
    region: tuple | None = None

    def value(self, u, q):
        return self.value_fn(u, q)


def _cost_goal(problem, reference=None):
    def value(u, q):
        return problem.j_value(u, q)

    return GoalFunctional("cost", value, problem.j_u_fields, problem.j_q_fields,
                          reference)


def _l1_goal(reference=None, smoothing=1e-8):
    def value(u, q):
        return integrate(lambda ctx: np.abs(ctx.val("u")), u.space.mesh, coeffs={"u": u})

    def iu_fields(ctx):
        # regularized |.|': u / sqrt(u^2 + delta^2), delta tied to sup|u|;
        # the floor keeps delta^2 representable when u is (nearly) zero
        uv = ctx.val("u")
        delta = max(smoothing * ctx.functions["u"].norm_max(), 1e-150)
        return uv / np.sqrt(uv * uv + delta * delta), None

    return GoalFunctional("l1_norm", value, iu_fields, reference=reference)


def _uq_product_goal(reference):
    """I(u, q) = half the integral of u^2 q^2 over the domain.

    The half matches the tabulated reference values of both experiments
    that use this quantity.
    """

    def value(u, q):
        return integrate(
            lambda ctx: 0.5 * ctx.val("u") ** 2 * ctx.val("q") ** 2,
            u.space.mesh,
            coeffs={"u": u, "q": q},
        )

    def iu_fields(ctx):
        return ctx.val("u") * ctx.val("q") ** 2, None

    def iq_fields(ctx):
        return ctx.val("u") ** 2 * ctx.val("q"), None

    return GoalFunctional("uq_product", value, iu_fields, iq_fields, reference)


def _state_tracking_goal(problem, reference):
    def value(u, q):
        def fields(ctx):
            d = ctx.val("u") - ctx.data(problem.u_des)
            return 0.5 * d * d

        return integrate(fields, u.space.mesh, coeffs={"u": u})

    return GoalFunctional("state_misfit", value, problem.j_u_fields,
                          reference=reference)


def _control_tracking_goal(problem, reference):
    def value(u, q):
        def fields(ctx):
            d = ctx.val("q") - ctx.data(problem.q_des)
            return 0.5 * d * d

        return integrate(fields, u.space.mesh, coeffs={"q": q})

    def iq_fields(ctx):
        return ctx.val("q") - ctx.data(problem.q_des), None

    return GoalFunctional("control_misfit", value, None, iq_fields, reference)


def _box_integral_goal(name, which, box, reference):
    """Integral of the state (which = "u") or the control ("q") over a box."""

    def indicator(ctx):
        inside = region_cell_mask(ctx.mesh, box)[ctx.cells, None]
        return np.broadcast_to(inside, ctx.wdet.shape).astype(np.float64)

    def value(u, q):
        return integrate(
            lambda ctx: indicator(ctx) * ctx.val("w"),
            u.space.mesh,
            coeffs={"w": u if which == "u" else q},
        )

    def fields(ctx):
        return indicator(ctx), None

    return GoalFunctional(name, value, fields if which == "u" else None,
                          fields if which == "q" else None, reference, box)


def make_goals(preset, problem, smoothing=1e-8):
    """Goal functionals of one experiment preset, references attached."""
    if preset == "example1_cost":
        ref = (25 * np.pi**4 + 1.0 / problem.alpha) / 8.0
        return [_cost_goal(problem, reference=ref)]
    if preset == "example1_l1":
        return [_l1_goal(reference=4.0 / np.pi**2, smoothing=smoothing)]
    if preset == "example2_uq":
        ref = None
        for a, v in EXAMPLE2_REFERENCES.items():
            if np.isclose(problem.alpha, a, rtol=1e-12):
                ref = v
        return [_uq_product_goal(reference=ref)]
    if preset == "example3":
        r = EXAMPLE3_REFERENCES
        return [
            _state_tracking_goal(problem, r[0]),
            _control_tracking_goal(problem, r[1]),
            _box_integral_goal("state_strip", "u", (4.0, -np.inf, 5.0, np.inf), r[2]),
            _box_integral_goal("control_band", "q", (1.0, 2.0, 6.25, 2.5), r[3]),
            _uq_product_goal(r[4]),
        ]
    raise ConfigError(f"unknown goal preset {preset!r}; choose from {GOAL_PRESETS}")
