"""Acceptance suite: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s; on
failure the line and the assertion both show).  The heavyweight runs are
session-scoped so the suite performs each experiment once.
"""

import time

import numpy as np
import pytest

from dwropt.driver import (
    compare_stopping,
    instantiate,
    preset_config,
    run_adaptive,
)
from dwropt.estimator import adjoint_chain, compute_eta_k, solve_reduced_adjoint
from dwropt.fem import (
    DiscreteFunction,
    build_space,
    integrate,
    zero_function,
)
from dwropt.mesh import UNIT_SQUARE, build_initial
from dwropt.problem import (
    make_goals,
    make_plaplace_control,
    make_poisson_control,
)
from dwropt.reduced import (
    SpacePair,
    hessvec,
    make_consistent,
    newton_standard,
    reduced_cost,
    reduced_gradient,
)


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def _slope(dofs, errors):
    return float(np.polyfit(np.log10(dofs), np.log10(np.abs(errors)), 1)[0])


def l2_norm(f):
    return np.sqrt(
        integrate(lambda ctx: ctx.val("f") ** 2, f.space.mesh, coeffs={"f": f})
    )


# ---------------------------------------------------------------------------
# session-scoped experiment runs


@pytest.fixture(scope="session")
def run_ex1_cost():
    cfg = preset_config("example1_cost", target_dofs_state=3e4, max_levels=30)
    t0 = time.perf_counter()
    reports = run_adaptive(cfg)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def run_ex1_l1():
    cfg = preset_config("example1_l1", target_dofs_state=3e4, max_levels=30)
    t0 = time.perf_counter()
    reports = run_adaptive(cfg)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def run_ex2():
    out = {}
    for alpha in (1.0, 10.0, 0.1):
        cfg = preset_config("example2_uq", alpha=alpha,
                            target_dofs_total=3e4, max_levels=30)
        t0 = time.perf_counter()
        out[alpha] = (run_adaptive(cfg), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def run_ex3():
    cfg = preset_config("example3", target_dofs_total=1e5, max_levels=30)
    return run_adaptive(cfg)


@pytest.fixture(scope="session")
def run_ex3_uniform(run_ex3):
    target = 1.05 * run_ex3[-1].dofs_total
    cfg = preset_config("example3", target_dofs_total=target, max_levels=12,
                        refinement="uniform")
    return run_adaptive(cfg)


@pytest.fixture(scope="session")
def run_ex3_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    cfg = preset_config("example3", target_dofs_total=2e4, max_levels=12,
                        output_dir=str(out))
    return compare_stopping(cfg)


# ---------------------------------------------------------------------------
# criterion 1: linear problem, cost goal


class TestCriterion1:
    def test_1_exact_value(self):
        cfg = preset_config("example1_cost")
        _, goals, _ = instantiate(cfg)
        expected = (25 * np.pi**4 + 1.0 / 0.01) / 8.0
        _report("1 (exact cost value)",
                goals[0].reference == pytest.approx(expected, rel=1e-14),
                f"reference {goals[0].reference!r}")

    def test_1a_effectivity(self, run_ex1_cost):
        reports, _ = run_ex1_cost
        assert reports[-1].dofs_state >= 3e4
        devs = [abs(r.i_eff - 1.0) for r in reports[-3:]]
        _report("1a (|i_eff-1| <= 0.25, last three levels)",
                all(d <= 0.25 for d in devs),
                f"deviations {[f'{d:.3f}' for d in devs]}")

    def test_1b_error_slope(self, run_ex1_cost):
        reports, _ = run_ex1_cost
        tail = reports[-5:]
        slope = _slope([r.dofs_state for r in tail],
                       [r.ref_error for r in tail])
        _report("1b (error slope in [-1.3, -0.7])",
                -1.3 <= slope <= -0.7, f"slope {slope:.3f}")

    def test_1_runtime(self, run_ex1_cost):
        _, elapsed = run_ex1_cost
        _report("1 (runtime under 2 minutes)", elapsed < 120.0,
                f"{elapsed:.1f}s")

    def test_1_sign_tracking(self, run_ex1_cost):
        # the signed estimate matches the true error sign on most levels
        reports, _ = run_ex1_cost
        hits = [np.sign(r.eta_h2) == np.sign(r.ref_error) for r in reports]
        frac = np.mean(hits)
        _report("1 (sign agreement >= 80% of levels)", frac >= 0.8,
                f"{frac:.0%}")


# ---------------------------------------------------------------------------
# criterion 2: linear problem, L1 goal


class TestCriterion2:
    def test_2_exact_value(self):
        cfg = preset_config("example1_l1")
        _, goals, _ = instantiate(cfg)
        _report("2 (exact L1 value)",
                goals[0].reference == pytest.approx(4 / np.pi**2, rel=1e-14),
                f"reference {goals[0].reference!r}")

    def test_2a_effectivity(self, run_ex1_l1):
        reports, _ = run_ex1_l1
        assert reports[-1].dofs_state >= 3e4
        devs = [abs(r.i_eff - 1.0) for r in reports[-3:]]
        _report("2a (|i_eff-1| <= 0.25, last three levels)",
                all(d <= 0.25 for d in devs),
                f"deviations {[f'{d:.3f}' for d in devs]}")

    def test_2b_error_slope(self, run_ex1_l1):
        reports, _ = run_ex1_l1
        tail = reports[-5:]
        slope = _slope([r.dofs_state for r in tail],
                       [r.ref_error for r in tail])
        _report("2b (error slope in [-1.3, -0.7])",
                -1.3 <= slope <= -0.7, f"slope {slope:.3f}")

    def test_2_runtime(self, run_ex1_l1):
        _, elapsed = run_ex1_l1
        _report("2 (runtime under 2 minutes)", elapsed < 120.0,
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: p-Laplacian, single goal, three regularization weights


class TestCriterion3:
    BANDS = {
        1.0: (0.1502366, 0.01, (0.80, 1.10)),
        10.0: (0.1635741, 0.01, (0.85, 1.10)),
        0.1: (None, None, (0.30, 1.00)),
    }

    @pytest.mark.parametrize("alpha", [1.0, 10.0, 0.1])
    def test_3_goal_and_effectivity(self, run_ex2, alpha):
        reports, elapsed = run_ex2[alpha]
        ref, tol, band = self.BANDS[alpha]
        last = reports[-1]
        assert last.dofs_total >= 3e4
        ok = True
        details = []
        if ref is not None:
            goal = list(last.goal_values.values())[0]
            dev = abs(goal - ref) / abs(ref)
            ok &= dev <= tol
            details.append(f"goal {goal:.7f} dev {dev:.2%}")
        ieffs = [r.i_eff for r in reports if r.level >= 6]
        ok &= all(band[0] <= v <= band[1] for v in ieffs)
        details.append(
            f"i_eff(l>=6) in [{min(ieffs):.3f}, {max(ieffs):.3f}]"
        )
        ok &= elapsed < 600.0
        details.append(f"{elapsed:.0f}s")
        _report(f"3 (alpha={alpha})", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: p-Laplacian, five simultaneous goals


class TestCriterion4:
    REFS = {
        "state_misfit": 1.15760,
        "control_misfit": 21.3305,
        "state_strip": -0.236288,
        "control_band": 0.328042,
        "uq_product": 0.231615,
    }

    def test_4_goal_values(self, run_ex3):
        last = run_ex3[-1]
        assert last.dofs_total >= 1e5
        devs = {
            name: abs(last.goal_values[name] - ref) / abs(ref)
            for name, ref in self.REFS.items()
        }
        _report("4 (five goals within 2% at >= 1e5 DOFs)",
                all(d <= 0.02 for d in devs.values()),
                " ".join(f"{n}:{d:.2%}" for n, d in devs.items()))

    def test_4_dominance(self, run_ex3):
        ok = all(
            r.goal_combined >= max(r.goal_reldev.values()) - 1e-15
            for r in run_ex3
        )
        _report("4 (combined bounds every single deviation)", ok,
                f"{len(run_ex3)} levels checked")

    def test_4_adaptive_beats_uniform(self, run_ex3, run_ex3_uniform):
        du = np.log10([r.dofs_total for r in run_ex3_uniform])
        eu = np.log10([abs(r.ref_error) for r in run_ex3_uniform])
        checked = 0
        ok = True
        worst = 0.0
        for r in run_ex3[4:]:
            x = np.log10(r.dofs_total)
            if x < du[0] or x > du[-1]:
                continue
            uni = 10 ** np.interp(x, du, eu)
            ratio = abs(r.ref_error) / uni
            worst = max(worst, ratio)
            ok &= ratio <= 1.0
            checked += 1
        _report("4 (adaptive <= uniform error at matched DOFs, l >= 4)",
                ok and checked >= 3,
                f"{checked} matches, worst adaptive/uniform ratio {worst:.2f}")


# ---------------------------------------------------------------------------
# criterion 5: vanishing goal-adjoint chain when the goal is the cost


class TestCriterion5:
    def test_5_proposition(self):
        prob = make_poisson_control(0.01)
        mesh = build_initial(UNIT_SQUARE, 0.25)
        pair = SpacePair(build_space(mesh, "cg", 1), build_space(mesh, "dg", 0))
        (goal,) = make_goals("example1_cost", prob)
        triple, _ = newton_standard(prob, pair, zero_function(pair.control),
                                    tol_abs=1e-12)
        adj = adjoint_chain(prob, goal, triple)
        nz = l2_norm(triple.z)
        nq = max(1.0, l2_norm(triple.q))
        ok_p = l2_norm(adj.p) <= 1e-9 * nq
        ok_v = l2_norm(adj.v) <= 1e-9 * nz
        diff = DiscreteFunction(pair.state, adj.y.coefs - triple.z.coefs)
        ok_y = l2_norm(diff) <= 1e-9 * nz
        _report("5 (p = 0, v = 0, y = z at the converged cost optimum)",
                ok_p and ok_v and ok_y,
                f"|p|={l2_norm(adj.p):.2e} |v|={l2_norm(adj.v):.2e} "
                f"|y-z|={l2_norm(diff):.2e}")


# ---------------------------------------------------------------------------
# criterion 6: derivative oracles


def _setup_instance(kind, cell):
    if kind == "poisson":
        prob = make_poisson_control(0.01)
    else:
        prob = make_plaplace_control(0.1, 4.0, 1.0)
    mesh = build_initial(UNIT_SQUARE, cell)
    pair = SpacePair(build_space(mesh, "cg", 1), build_space(mesh, "dg", 0))
    return prob, pair


class TestCriterion6:
    @pytest.mark.parametrize("kind", ["poisson", "plaplace"])
    def test_6_gradient_fd(self, kind):
        worst = 0.0
        for cell in (0.5, 0.25):
            prob, pair = _setup_instance(kind, cell)
            rng = np.random.default_rng(17)
            for _ in range(5):
                q = DiscreteFunction(pair.control,
                                     rng.standard_normal(pair.control.ndofs))
                dq = DiscreteFunction(pair.control,
                                      rng.standard_normal(pair.control.ndofs))
                triple = make_consistent(prob, q, pair, tol_abs=1e-13)
                g = reduced_gradient(prob, triple)
                directional = float(g @ dq.coefs[pair.control.free_dofs])
                h = 1e-5
                jp, _, _, _ = reduced_cost(
                    prob, DiscreteFunction(pair.control, q.coefs + h * dq.coefs), pair
                )
                jm, _, _, _ = reduced_cost(
                    prob, DiscreteFunction(pair.control, q.coefs - h * dq.coefs), pair
                )
                fd = (jp - jm) / (2 * h)
                err = abs(fd - directional) / max(1.0, abs(directional))
                worst = max(worst, err)
        _report(f"6 (gradient FD <= 1e-6, {kind})", worst <= 1e-6,
                f"worst relative error {worst:.2e}")

    @pytest.mark.parametrize("kind", ["poisson", "plaplace"])
    def test_6_hessvec_fd(self, kind):
        prob, pair = _setup_instance(kind, 0.25)
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(5):
            q = DiscreteFunction(pair.control,
                                 rng.standard_normal(pair.control.ndofs))
            dq = DiscreteFunction(pair.control,
                                  rng.standard_normal(pair.control.ndofs))
            triple = make_consistent(prob, q, pair, tol_abs=1e-13)
            hv = hessvec(prob, triple, dq)
            h = 1e-4
            tp = make_consistent(
                prob, DiscreteFunction(pair.control, q.coefs + h * dq.coefs),
                pair, tol_abs=1e-13,
            )
            tm = make_consistent(
                prob, DiscreteFunction(pair.control, q.coefs - h * dq.coefs),
                pair, tol_abs=1e-13,
            )
            fd = (reduced_gradient(prob, tp) - reduced_gradient(prob, tm)) / (2 * h)
            err = np.max(np.abs(fd - hv)) / max(1.0, np.max(np.abs(hv)))
            worst = max(worst, err)
        _report(f"6 (hessvec FD <= 1e-4, {kind})", worst <= 1e-4,
                f"worst relative error {worst:.2e}")

    def test_6_operator_forms_fd(self):
        # ProblemDefinition derivative forms: a_u and a_uu consistency
        from dwropt.fem import assemble_matrix, assemble_vector

        prob = make_plaplace_control(0.1, 4.0, 1.0)
        mesh = build_initial(UNIT_SQUARE, 0.25)
        space = build_space(mesh, "cg", 1)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(3):
            u = DiscreteFunction(space, space.distribute(rng.standard_normal(space.ndofs)))
            d1 = DiscreteFunction(space, space.distribute(rng.standard_normal(space.ndofs)))
            d2 = DiscreteFunction(space, space.distribute(rng.standard_normal(space.ndofs)))
            q = zero_function(build_space(mesh, "dg", 0))
            h = 1e-5

            def res(ub):
                return assemble_vector(prob.residual_fields, space,
                                       coeffs={"u": ub, "q": q}, nquad=5)

            A = assemble_matrix(prob.a_u_fields, space, space, coeffs={"u": u},
                                nquad=5)
            fd1 = (res(DiscreteFunction(space, u.coefs + h * d1.coefs))
                   - res(DiscreteFunction(space, u.coefs - h * d1.coefs))) / (2 * h)
            e1 = np.max(np.abs(fd1 - A @ d1.coefs[space.free_dofs]))
            e1 /= max(1.0, np.max(np.abs(fd1)))

            auu = assemble_vector(
                lambda ctx: prob.a_uu_fields(ctx, "w", "zfun"), space,
                coeffs={"u": u, "w": d1, "zfun": d2}, nquad=5,
            )

            def a_u_dir(ub):
                M = assemble_matrix(prob.a_u_fields, space, space,
                                    coeffs={"u": ub}, nquad=5)
                return M @ d1.coefs[space.free_dofs]

            fd2 = (a_u_dir(DiscreteFunction(space, u.coefs + h * d2.coefs))
                   - a_u_dir(DiscreteFunction(space, u.coefs - h * d2.coefs))) / (2 * h)
            e2 = np.max(np.abs(fd2 - auu)) / max(1.0, np.max(np.abs(auu)))
            worst = max(worst, e1, e2)
        _report("6 (operator form FD consistency <= 1e-5)", worst <= 1e-5,
                f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: estimator identities


class TestCriterion7:
    def test_7_half_sum(self, ex1_level):
        bd = ex1_level["breakdown"]
        err = abs(bd.eta_h2 - 0.5 * sum(bd.parts()))
        _report("7 (half-sum identity <= 1e-13)", err <= 1e-13, f"{err:.2e}")

    def test_7_pu_sum(self, ex1_level):
        bd = ex1_level["breakdown"]
        total = float(np.sum(bd.vertex_values))
        err = abs(total - bd.eta_h2) / max(1e-300, abs(bd.eta_h2))
        _report("7 (PU signed-sum identity <= 1e-10 relative)", err <= 1e-10,
                f"{err:.2e}")

    def test_7_goal_scaling(self, ex1_l1_level):
        from dwropt.estimator import localize_pu

        sol = ex1_l1_level
        prob, goal = sol["problem"], sol["combined"]
        triple, triple2 = sol["triple"], sol["triple2"]
        c = 2.5

        class Scaled:
            name = "scaled"
            reference = None
            iu_terms = tuple((c * s, f, r) for s, f, r in goal.iu_terms)
            iq_terms = tuple((c * s, f, r) for s, f, r in goal.iq_terms)

            def value(self, u, q):
                return c * goal.value(u, q)

        low1 = (triple, adjoint_chain(prob, goal, triple, krylov_tol=1e-13))
        enr1 = (triple2, adjoint_chain(prob, goal, triple2, krylov_tol=1e-13))
        low2 = (triple, adjoint_chain(prob, Scaled(), triple, krylov_tol=1e-13))
        enr2 = (triple2, adjoint_chain(prob, Scaled(), triple2, krylov_tol=1e-13))
        e1 = localize_pu(prob, goal, low1, enr1).eta_h2
        e2 = localize_pu(prob, Scaled(), low2, enr2).eta_h2
        err = abs(e2 - c * e1) / max(1e-300, abs(c * e1))
        _report("7 (goal-scaling linearity <= 1e-12 relative)", err <= 1e-12,
                f"{err:.2e}")

    def test_7_effectivity_mean_identity(self, ex1_level):
        from dwropt.estimator import effectivities

        bd = ex1_level["breakdown"]
        eff = effectivities(bd, 0.37)
        err = abs(eff.i_eff - 0.5 * (eff.i_eff_p + eff.i_eff_a))
        _report("7 (i_eff = (i_eff_p + i_eff_a)/2 exactly)", err <= 1e-15,
                f"{err:.2e}")

    def test_7_eta_k_converged(self, ex1_level):
        sol = ex1_level
        val = compute_eta_k(sol["problem"], sol["combined"], sol["triple"],
                            sol["adj_low"].p)
        _report("7 (eta_k = 0 at converged iterates)", abs(val) <= 1e-8,
                f"{val:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: stopping-rule comparison


class TestCriterion8:
    def test_8_iteration_counts(self, run_ex3_compare):
        standard, adaptive = run_ex3_compare
        leq = all(ra.newton_its_low <= rs.newton_its_low
                  for rs, ra in zip(standard, adaptive))
        few = all(ra.newton_its_low <= 3 for ra in adaptive[1:])
        its = [(rs.newton_its_low, ra.newton_its_low)
               for rs, ra in zip(standard, adaptive)]
        _report("8 (adaptive <= standard iterations; <= 3 for l >= 1)",
                leq and few, f"(std, adp) per level: {its}")

    def test_8_corrected_effectivities(self, run_ex3_compare):
        standard, adaptive = run_ex3_compare
        diffs = [abs(rs.i_eff_c - ra.i_eff_c)
                 for rs, ra in zip(standard, adaptive)]
        _report("8 (corrected effectivities within 0.05)",
                all(d <= 0.05 for d in diffs),
                f"max diff {max(diffs):.4f} over {len(diffs)} common levels")


# ---------------------------------------------------------------------------
# estimator-magnitude monotonicity across levels (driver invariant)


class TestEtaMonotonicity:
    def _violations(self, reports):
        etas = [abs(r.eta_h2) for r in reports if r.level >= 3]
        return sum(b >= a for a, b in zip(etas, etas[1:]))

    def test_eta_decreases_over_levels(self, run_ex1_cost, run_ex1_l1,
                                       run_ex2, run_ex3):
        bad = {
            "example1_cost": self._violations(run_ex1_cost[0]),
            "example1_l1": self._violations(run_ex1_l1[0]),
            "example2_uq": self._violations(run_ex2[1.0][0]),
            "example3": self._violations(run_ex3),
        }
        _report("estimator monotonicity (<= 1 non-monotone level, l >= 3)",
                all(v <= 1 for v in bad.values()), f"violations {bad}")


# ---------------------------------------------------------------------------
# indicator locality (estimator example, not a numbered criterion)


class TestIndicatorLocality:
    def test_indicators_concentrate_at_features(self):
        from dwropt.driver import _solve_level
        from dwropt.mesh import HOLED_RECT, dorfler_mark, refine

        cfg = preset_config("example2_uq", alpha=0.01, max_levels=6)
        problem, goals, mesh = instantiate(cfg)
        warm = (None, None, cfg.eta0)
        for _ in range(5):
            sol = _solve_level(problem, goals, mesh, cfg, warm)
            marked = dorfler_mark(sol["breakdown"].indicators, cfg.theta, mesh)
            warm = (sol["triple"].q, sol["triple2"].q,
                    abs(sol["breakdown"].eta_h2))
            mesh = refine(mesh, marked)
        sol = _solve_level(problem, goals, mesh, cfg, warm)
        ind = sol["breakdown"].indicators
        org = mesh.cell_origin()
        h = mesh.cell_h()
        centers = org + 0.5 * h[:, None]
        corners = [(x, y) for b in HOLED_RECT.holes
                   for x in (b[0], b[2]) for y in (b[1], b[3])]

        def feature_dist(cx, cy):
            d = min(np.hypot(cx - x, cy - y) for x, y in corners)
            dx = max(2.5 - cx, 0.0, cx - 4.5)
            dy = max(2.5 - cy, 0.0, cy - 4.5)
            if dx == 0.0 and dy == 0.0:
                dbox = min(cx - 2.5, 4.5 - cx, cy - 2.5, 4.5 - cy)
            else:
                dbox = np.hypot(dx, dy)
            return min(d, dbox)

        top = np.argsort(-ind)[: max(1, len(ind) // 10)]
        dists = np.array([feature_dist(*centers[c]) / h[c] for c in top])
        _report("estimator locality (top-decile cells within 2 cells of features)",
                float(np.max(dists)) <= 2.0,
                f"max distance {np.max(dists):.2f} cells at level 5")
