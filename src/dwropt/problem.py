"""Concrete problem definitions: weak operator, cost, goal functionals.

A :class:`ProblemDefinition` bundles the residual form of the state
operator, its Gateaux derivatives, and the tracking cost with all the
partial derivatives the optimizer and the error estimator consume.  The
derivative forms follow the field conventions of :mod:`dwropt.fem`.

Two instances ship: a linear Poisson control problem with a known exact
minimizer, and a regularized p-Laplacian control problem on a rectangle
with six holes.  Control enters both operators linearly and the cost is
separable, so all cross and control-control operator derivatives vanish
and have no slot here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fem import integrate

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

    Matrix/vector form callables follow fem's field conventions.  The
    trilinear second derivative of the operator is exposed through
    ``a_uu_fields(ctx, w, z)`` which fixes one direction (coefficient
    name ``w``) and the dual weight (name ``z``) and leaves the test slot
    open; it is None when the operator is linear in the state.
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
    a_u_is_constant: bool
    a_q_c: float = -1.0  # a_q(dq, v) = a_q_c * integral(dq * v)
    j_uu_c: float = 1.0  # J_uu(d1, d2) = j_uu_c * integral(d1 * d2)

    @property
    def j_qq_c(self):
        return self.alpha

    def j_u_fields(self, ctx):
        """dJ/du directional form: g = u - u_des."""
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        return ctx.val("u") - self.u_des(x, y), None

    def j_q_fields(self, ctx):
        """dJ/dq directional form: g = alpha (q - q_des)."""
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        return self.alpha * (ctx.val("q") - self.q_des(x, y)), None

    def j_value(self, u, q, nquad=None):
        mesh = u.space.mesh

        def fields(ctx):
            x, yy = ctx.x[..., 0], ctx.x[..., 1]
            du = ctx.val("u") - self.u_des(x, yy)
            dq = ctx.val("q") - self.q_des(x, yy)
            return 0.5 * du * du + 0.5 * self.alpha * dq * dq

        return integrate(fields, mesh, coeffs={"u": u, "q": q}, nquad=nquad)


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

    def a_u_fields(ctx):
        nc, nq = ctx.x.shape[:2]
        K = np.zeros((nc, nq, 2, 2))
        K[:, :, 0, 0] = 1.0
        K[:, :, 1, 1] = 1.0
        return K, None

    return ProblemDefinition(
        name="poisson_control",
        alpha=alpha,
        p=None,
        eps=None,
        f=f,
        u_des=u_des,
        q_des=q_des,
        residual_fields=residual_fields,
        a_u_fields=a_u_fields,
        a_uu_fields=None,
        a_u_is_constant=True,
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

    def a_uu_fields(ctx, w="w", z="zfun"):
        gu = ctx.grad("u")
        gw = ctx.grad(w)
        gz = ctx.grad(z)
        s = _s(gu)
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
        a_u_is_constant=False,
    )


# ---------------------------------------------------------------------------
# goal functionals


@dataclass(frozen=True)
class GoalFunctional:
    """Quantity of interest with first derivatives.

    Derivatives are tuples of (scale, fields, region) terms: ``iu_terms``
    act on the state test space, ``iq_terms`` on the control test space.
    """

    name: str
    value_fn: Callable
    iu_terms: tuple = ()
    iq_terms: tuple = ()
    reference: float | None = None

    def value(self, u, q):
        return self.value_fn(u, q)


def _cost_goal(problem, reference=None):
    def value(u, q):
        return problem.j_value(u, q)

    return GoalFunctional(
        name="cost",
        value_fn=value,
        iu_terms=((1.0, problem.j_u_fields, None),),
        iq_terms=((1.0, problem.j_q_fields, None),),
        reference=reference,
    )


def _l1_goal(reference=None, smoothing=1e-8):
    def value(u, q):
        return integrate(lambda ctx: np.abs(ctx.val("u")), u.space.mesh, coeffs={"u": u})

    def iu_fields(ctx):
        # regularized |.|': u / sqrt(u^2 + delta^2), delta tied to sup|u|;
        # the floor keeps delta^2 representable when u is (nearly) zero
        uv = ctx.val("u")
        delta = max(smoothing * ctx.function("u").norm_max(), 1e-150)
        return uv / np.sqrt(uv * uv + delta * delta), None

    return GoalFunctional(
        name="l1_norm",
        value_fn=value,
        iu_terms=((1.0, iu_fields, None),),
        iq_terms=(),
        reference=reference,
    )


def _uq_product_goal(name="uq_product", reference=None):
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

    return GoalFunctional(
        name=name,
        value_fn=value,
        iu_terms=((1.0, iu_fields, None),),
        iq_terms=((1.0, iq_fields, None),),
        reference=reference,
    )


def _state_tracking_goal(problem, reference):
    def value(u, q):
        def fields(ctx):
            x, y = ctx.x[..., 0], ctx.x[..., 1]
            d = ctx.val("u") - problem.u_des(x, y)
            return 0.5 * d * d

        return integrate(fields, u.space.mesh, coeffs={"u": u})

    def iu_fields(ctx):
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        return ctx.val("u") - problem.u_des(x, y), None

    return GoalFunctional(
        "state_misfit", value, ((1.0, iu_fields, None),), (), reference
    )


def _control_tracking_goal(problem, reference):
    def value(u, q):
        def fields(ctx):
            x, y = ctx.x[..., 0], ctx.x[..., 1]
            d = ctx.val("q") - problem.q_des(x, y)
            return 0.5 * d * d

        return integrate(fields, u.space.mesh, coeffs={"q": q})

    def iq_fields(ctx):
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        return ctx.val("q") - problem.q_des(x, y), None

    return GoalFunctional(
        "control_misfit", value, (), ((1.0, iq_fields, None),), reference
    )


def _box_integral_goal(name, which, box, reference):
    def value(u, q):
        f = u if which == "u" else q
        return integrate(
            lambda ctx: ctx.val("w"), u.space.mesh, coeffs={"w": f}, region=box
        )

    def one(ctx):
        return np.ones(ctx.x.shape[:2]), None

    iu = ((1.0, one, box),) if which == "u" else ()
    iq = ((1.0, one, box),) if which == "q" else ()
    return GoalFunctional(name, value, iu, iq, reference)


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
            _uq_product_goal(name="uq_product", reference=r[4]),
        ]
    raise ConfigError(f"unknown goal preset {preset!r}; choose from {GOAL_PRESETS}")
