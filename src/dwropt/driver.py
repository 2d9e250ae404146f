"""End-to-end adaptive driver, experiment presets and report emission.

One refinement level solves the enriched and low-order optimization
problems (each warm-started from the previous level), builds the
combined goal functional from enriched references frozen at the low
solution, runs the goal-adjoint recovery chain on both space sets,
evaluates the error estimator with its partition-of-unity localization,
and finally marks and refines.  Levels are strictly sequential.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, DwroptError, SizingError
from .estimator import (
    AdjointTriple,
    compute_eta_k,
    effectivities,
    localize_pu,
    recover_v,
    recover_y,
    solve_reduced_adjoint,
)
from .fem import build_space, interpolate, transfer
from .mesh import CellSet, DOMAINS, build_initial, check_cell_size, dorfler_mark, refine
from .multigoal import build_combined
from .problem import make_goals, make_plaplace_control, make_poisson_control
from .reduced import SpacePair, newton_reduced_adaptive, newton_standard


@dataclass
class Config:
    """Run configuration; documented defaults match the experiment setup."""

    preset: str = "example1_cost"
    alpha: float | None = None  # None picks the preset default
    p: float = 4.0
    epsilon: float = 1.0
    degree: int = 1  # low order; enrichment uses degree + 1
    gamma: float = 1e-2
    theta: float = 0.5
    tol_dis: float = 0.0  # stop once |eta_h2| < tol_dis (0 disables)
    max_levels: int = 40
    newton_tol_abs: float = 1e-7
    newton_tol_rel: float = 8e-5
    krylov_tol: float = 1e-10
    smoothing_delta: float = 1e-8
    output_dir: str = "out"
    stopping: str = "adaptive"  # adaptive | standard
    reference_source: str = "analytic"  # analytic | none
    refinement: str = "adaptive"  # adaptive | uniform
    target_dofs_state: float = float("inf")
    target_dofs_total: float = float("inf")
    eta0: float = 1e-5  # level-0 seed for the adaptive Newton guard
    cell_size: float | None = None

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not (
                math.isfinite(val) or (val == math.inf and f.name in _INF_KEYS)
            ):
                raise ConfigError(f"{f.name} must be finite, got {val}")
        if self.max_levels < 1:
            raise ConfigError("max_levels must be at least 1")
        if self.cell_size is not None:
            try:
                check_cell_size(DOMAINS[PRESETS[self.preset].domain], self.cell_size)
            except SizingError as exc:
                raise ConfigError(str(exc)) from exc
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta must lie in (0, 1]")
        for key in ("gamma", "newton_tol_abs", "newton_tol_rel", "krylov_tol",
                    "eta0"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        if self.tol_dis < 0:
            raise ConfigError("tol_dis must be nonnegative")
        if self.stopping not in ("adaptive", "standard"):
            raise ConfigError("stopping must be adaptive or standard")
        if self.refinement not in ("adaptive", "uniform"):
            raise ConfigError("refinement must be adaptive or uniform")
        if self.reference_source not in ("analytic", "none"):
            raise ConfigError("reference_source must be analytic or none")
        if self.degree not in (1, 2):
            raise ConfigError("degree must be 1 or 2 (enrichment adds one)")
        return self


@dataclass
class _Preset:
    domain: str
    cell_size: float
    alpha: float
    problem_kind: str  # poisson | plaplace


PRESETS = {
    "example1_cost": _Preset("unit_square", 0.5, 0.01, "poisson"),
    "example1_l1": _Preset("unit_square", 0.5, 0.01, "poisson"),
    "example2_uq": _Preset("holed_rect", 0.5, 1.0, "plaplace"),
    "example3": _Preset("holed_rect", 0.25, 0.01, "plaplace"),
}


def preset_config(name, **overrides):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = Config(preset=name, **overrides)
    return cfg.validate()


_CONFIG_KEYS = {f.name for f in fields(Config)}
_STR_KEYS = ("preset", "output_dir", "stopping", "reference_source", "refinement")
_INT_KEYS = ("max_levels", "degree")
_INF_KEYS = ("tol_dis", "target_dofs_state", "target_dofs_total")


def parse_config(text):
    """Flat key = value configuration; unknown keys are rejected."""
    cfg = Config()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {ln}: unknown configuration key {key!r}")
        if key in _STR_KEYS:
            setattr(cfg, key, val)
            continue
        kind = int if key in _INT_KEYS else float
        try:
            setattr(cfg, key, kind(val))
        except ValueError:
            raise ConfigError(
                f"line {ln}: {key} must be {'an integer' if kind is int else 'a number'}, "
                f"got {val!r}"
            ) from None
    return cfg.validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def instantiate(config):
    """Problem, goal list and initial mesh of a validated configuration."""
    preset = PRESETS[config.preset]
    alpha = preset.alpha if config.alpha is None else config.alpha
    if preset.problem_kind == "poisson":
        problem = make_poisson_control(alpha)
    else:
        problem = make_plaplace_control(alpha, config.p, config.epsilon)
    goals = make_goals(config.preset, problem, smoothing=config.smoothing_delta)
    if config.reference_source == "none":
        goals = [replace(g, reference=None) for g in goals]
    cell = preset.cell_size if config.cell_size is None else config.cell_size
    mesh = build_initial(DOMAINS[preset.domain], cell)
    return problem, goals, mesh


@dataclass
class LevelReport:
    """One row of the per-level convergence record."""

    level: int
    cells: int
    dofs_state: int
    dofs_control: int
    dofs_total: int
    dofs_enriched: int
    goal_values: dict
    goal_reldev: dict
    goal_combined: float
    ref_error: float | None
    eta_h2: float
    eta_k: float
    rho_u: float
    rho_q: float
    rho_z: float
    rho_v: float
    rho_p: float
    rho_y: float
    i_eff: float | None
    i_eff_p: float | None
    i_eff_a: float | None
    i_eff_c: float | None
    newton_its_low: int
    newton_its_enriched: int
    stop_reason: str
    marked: CellSet | None = None
    fallback_weighting: bool = False
    wall_time: float = 0.0


def _solve_level(problem, goals, mesh, config, warm):
    """All solves and estimates of one level.

    State spaces are continuous Q^r; controls are discontinuous one
    degree lower (piecewise constants for r = 1), which reproduces the
    reference DOF counts and convergence orders.  Enrichment raises both
    degrees by one on the same mesh.
    """
    r = config.degree
    state = build_space(mesh, "cg", r)
    ctrl = build_space(mesh, "dg", r - 1)
    state2 = build_space(mesh, "cg", r + 1)
    ctrl2 = build_space(mesh, "dg", r)
    pair = SpacePair(state, ctrl)
    pair2 = SpacePair(state2, ctrl2)

    # initial guess: previous level's control, or the desired control on
    # level 0 (a zero start can make goal derivatives degenerate)
    q_prev, q2_prev, eta_prev = warm
    q0 = transfer(q_prev, ctrl) if q_prev is not None else interpolate(ctrl, problem.q_des)
    q20 = transfer(q2_prev, ctrl2) if q2_prev is not None else interpolate(ctrl2, problem.q_des)

    # enriched optimization (classical stopping), warm-started
    triple2, log2 = newton_standard(
        problem, pair2, q20,
        tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
        krylov_tol=config.krylov_tol,
    )

    # low-order optimization
    if config.stopping == "adaptive":
        seed = build_combined(goals, (triple2.u, triple2.q), (triple2.u, triple2.q))
        triple, p_low, log = newton_reduced_adaptive(
            problem, seed, pair, q0,
            gamma=config.gamma, eta_prev=eta_prev,
            krylov_tol=config.krylov_tol,
            tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
        )
    else:
        triple, log = newton_standard(
            problem, pair, q0,
            tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
            krylov_tol=config.krylov_tol,
        )
        p_low = None

    # combined goal frozen at the converged low solution
    combined = build_combined(goals, (triple2.u, triple2.q), (triple.u, triple.q))
    if p_low is None:
        p_low = solve_reduced_adjoint(
            problem, combined, triple, krylov_tol=config.krylov_tol,
            truncate_on_negative=True,
        )
    v_low = recover_v(problem, triple, p_low)
    y_low = recover_y(problem, combined, triple, v_low, p_low)
    adj_low = AdjointTriple(v=v_low, p=p_low, y=y_low)

    # enriched goal-adjoint chain at the enriched linearization point
    p2 = solve_reduced_adjoint(
        problem, combined, triple2, krylov_tol=config.krylov_tol,
        truncate_on_negative=True,
    )
    v2 = recover_v(problem, triple2, p2)
    y2 = recover_y(problem, combined, triple2, v2, p2)
    adj2 = AdjointTriple(v=v2, p=p2, y=y2)

    breakdown = localize_pu(problem, combined, (triple, adj_low), (triple2, adj2))
    breakdown.eta_k = compute_eta_k(problem, combined, triple, p_low)
    return {
        "pair": pair,
        "pair2": pair2,
        "triple": triple,
        "triple2": triple2,
        "adj_low": adj_low,
        "adj2": adj2,
        "combined": combined,
        "breakdown": breakdown,
        "log": log,
        "log2": log2,
    }


def _make_report(level, mesh, sol, config):
    combined = sol["combined"]
    bd = sol["breakdown"]
    pair, pair2 = sol["pair"], sol["pair2"]
    goal_values = dict(zip((g.name for g in combined.goals), combined.freeze_values))
    goal_reldev = dict(
        zip((g.name for g in combined.goals), combined.relative_deviations())
    )
    ref_error = combined.reference_error()
    i_eff = i_eff_p = i_eff_a = i_eff_c = None
    if ref_error is not None:
        eff = effectivities(bd, ref_error)
        if eff.defined:
            i_eff, i_eff_p, i_eff_a, i_eff_c = (
                eff.i_eff, eff.i_eff_p, eff.i_eff_a, eff.i_eff_c,
            )
            bd.i_eff, bd.i_eff_p = eff.i_eff, eff.i_eff_p
            bd.i_eff_a, bd.i_eff_c = eff.i_eff_a, eff.i_eff_c
    return LevelReport(
        level=level,
        cells=mesh.ncells,
        dofs_state=pair.state.ndofs,
        dofs_control=pair.control.ndofs,
        dofs_total=pair.state.ndofs + pair.control.ndofs,
        dofs_enriched=pair2.state.ndofs + pair2.control.ndofs,
        goal_values=goal_values,
        goal_reldev=goal_reldev,
        goal_combined=combined.value_at_freeze(),
        ref_error=ref_error,
        eta_h2=bd.eta_h2,
        eta_k=bd.eta_k,
        rho_u=bd.rho_u,
        rho_q=bd.rho_q,
        rho_z=bd.rho_z,
        rho_v=bd.rho_v,
        rho_p=bd.rho_p,
        rho_y=bd.rho_y,
        i_eff=i_eff,
        i_eff_p=i_eff_p,
        i_eff_a=i_eff_a,
        i_eff_c=i_eff_c,
        newton_its_low=sol["log"].iterations,
        newton_its_enriched=sol["log2"].iterations,
        stop_reason=sol["log"].stop_reason,
        fallback_weighting=combined.fallback_used,
    )


def _run(config, capture=None):
    config.validate()
    problem, goals, mesh = instantiate(config)
    q_prev = None
    q2_prev = None
    eta_prev = config.eta0
    reports = []
    for level in range(config.max_levels):
        t0 = time.perf_counter()
        try:
            sol = _solve_level(problem, goals, mesh, config,
                               (q_prev, q2_prev, eta_prev))
        except DwroptError as exc:
            # completed levels ride along so callers can flush them
            err = DwroptError(f"level {level}: {exc}")
            err.reports = reports
            raise err from exc
        report = _make_report(level, mesh, sol, config)
        report.wall_time = time.perf_counter() - t0
        bd = sol["breakdown"]

        stop = (
            (config.tol_dis > 0 and abs(bd.eta_h2) < config.tol_dis)
            or report.dofs_state >= config.target_dofs_state
            or report.dofs_total >= config.target_dofs_total
            or level == config.max_levels - 1
        )
        if not stop:
            if config.refinement == "uniform":
                marked = CellSet(frozenset(range(mesh.ncells)), mesh.generation)
            else:
                marked = dorfler_mark(bd.indicators, config.theta, mesh)
            report.marked = marked
            if len(marked) == 0:
                stop = True
        reports.append(report)
        if capture is not None:
            capture.update(mesh=mesh, q=sol["triple"].q, q2=sol["triple2"].q,
                           breakdown=bd, combined=sol["combined"])
        if stop:
            break
        mesh = refine(mesh, marked)
        q_prev = sol["triple"].q
        q2_prev = sol["triple2"].q
        if abs(bd.eta_h2) > 0:
            eta_prev = abs(bd.eta_h2)
        # the KKT triples, their LU factors and the spaces' caches are not
        # needed by the next level; free them before it allocates its own
        del sol, bd
    return reports


def run_adaptive(config):
    """Solve, estimate, mark and refine until a stop rule fires.

    ``config.refinement`` selects Dörfler marking (adaptive) or marking
    every cell (uniform).
    """
    return _run(config)


# ---------------------------------------------------------------------------
# output emission


def _fmt(x):
    if x is None:
        return "nan"
    return f"{float(x):.17e}"


def csv_columns(reports):
    goal_names = list(reports[0].goal_values)
    cols = ["level", "cells", "dofs_state", "dofs_control", "dofs_total",
            "dofs_enriched"]
    for name in goal_names:
        cols.append(f"goal_{name}")
        cols.append(f"goal_{name}_reldev")
    cols += ["goal_combined", "ref_error", "eta_h2", "eta_k",
             "rho_u", "rho_q", "rho_z", "rho_v", "rho_p", "rho_y",
             "i_eff", "i_eff_p", "i_eff_a", "i_eff_c",
             "newton_its_low", "newton_its_enriched", "stop_reason"]
    return cols, goal_names


def render_csv(reports):
    cols, goal_names = csv_columns(reports)
    lines = [",".join(cols)]
    for r in reports:
        row = [str(r.level), str(r.cells), str(r.dofs_state),
               str(r.dofs_control), str(r.dofs_total), str(r.dofs_enriched)]
        for name in goal_names:
            row.append(_fmt(r.goal_values[name]))
            row.append(_fmt(r.goal_reldev[name]))
        row += [_fmt(r.goal_combined), _fmt(r.ref_error), _fmt(r.eta_h2),
                _fmt(r.eta_k), _fmt(r.rho_u), _fmt(r.rho_q), _fmt(r.rho_z),
                _fmt(r.rho_v), _fmt(r.rho_p), _fmt(r.rho_y),
                _fmt(r.i_eff), _fmt(r.i_eff_p), _fmt(r.i_eff_a),
                _fmt(r.i_eff_c), str(r.newton_its_low),
                str(r.newton_its_enriched), r.stop_reason]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_summary(reports, config):
    last = reports[-1]
    lines = [
        f"preset            {config.preset}",
        f"levels            {len(reports)}",
        f"final cells       {last.cells}",
        f"final total DOFs  {last.dofs_total}",
        f"final eta_h2      {last.eta_h2:.6e}",
        f"final eta_k       {last.eta_k:.6e}",
    ]
    if last.ref_error is not None:
        lines.append(f"final ref error   {last.ref_error:.6e}")
    if last.i_eff is not None:
        lines.append(f"final i_eff       {last.i_eff:.4f}")
        lines.append(f"final i_eff_c     {last.i_eff_c:.4f}")
    lines.append("")
    lines.append("goal values at the finest level:")
    for name, val in last.goal_values.items():
        lines.append(f"  {name:16s} {val: .10e}")
    return "\n".join(lines) + "\n"


def render_gnuplot(reports):
    cols, _ = csv_columns(reports)
    ix = {name: i + 1 for i, name in enumerate(cols)}  # gnuplot is 1-based
    dofs = ix["dofs_total"]
    return "\n".join([
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'DOFs'",
        "set key left bottom",
        "set terminal pngcairo size 900,600",
        "set output 'error_vs_dofs.png'",
        f"plot 'levels.csv' using {dofs}:(abs(column({ix['ref_error']}))) "
        "skip 1 with linespoints title 'reference error', \\",
        f"     'levels.csv' using {dofs}:(abs(column({ix['eta_h2']}))) "
        "skip 1 with linespoints title 'estimated error'",
        "unset logscale y",
        "set logscale x",
        "set output 'ieff_vs_dofs.png'",
        f"plot 'levels.csv' using {dofs}:{ix['i_eff']} skip 1 "
        "with linespoints title 'effectivity', \\",
        f"     'levels.csv' using {dofs}:{ix['i_eff_p']} skip 1 "
        "with linespoints title 'primal part', \\",
        f"     'levels.csv' using {dofs}:{ix['i_eff_a']} skip 1 "
        "with linespoints title 'adjoint part', \\",
        "     1 title ''",
    ]) + "\n"


def emit_outputs(reports, config):
    """Write levels.csv, summary.txt and plots.gp into the output directory."""
    if not reports:
        raise DwroptError("no level reports to emit")
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, text in (
        ("levels.csv", render_csv(reports)),
        ("summary.txt", render_summary(reports, config)),
        ("plots.gp", render_gnuplot(reports)),
    ):
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# higher-level experiment drivers


def compare_stopping(config):
    """Run both Newton stopping rules on otherwise identical configs.

    Returns (standard_reports, adaptive_reports); each mode's artifacts
    go to a subdirectory of the configured output directory.
    """
    results = {}
    for mode in ("standard", "adaptive"):
        cfg = replace(config, stopping=mode,
                      output_dir=os.path.join(config.output_dir, mode))
        results[mode] = run_adaptive(cfg)
        emit_outputs(results[mode], cfg)
    return results["standard"], results["adaptive"]


def render_comparison_csv(standard, adaptive):
    cols = ["level", "its_standard", "its_adaptive", "cells_standard",
            "cells_adaptive", "i_eff_standard", "i_eff_adaptive",
            "i_eff_c_standard", "i_eff_c_adaptive"]
    lines = [",".join(cols)]
    for lvl in range(max(len(standard), len(adaptive))):
        rs = standard[lvl] if lvl < len(standard) else None
        ra = adaptive[lvl] if lvl < len(adaptive) else None
        row = [str(lvl)]
        row.append(str(rs.newton_its_low) if rs else "")
        row.append(str(ra.newton_its_low) if ra else "")
        row.append(str(rs.cells) if rs else "")
        row.append(str(ra.cells) if ra else "")
        row.append(_fmt(rs.i_eff) if rs else "")
        row.append(_fmt(ra.i_eff) if ra else "")
        row.append(_fmt(rs.i_eff_c) if rs else "")
        row.append(_fmt(ra.i_eff_c) if ra else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_alpha(config, alphas):
    """One run per regularization weight; per-alpha outputs plus a summary."""
    runs = {}
    for a in alphas:
        cfg = replace(config, alpha=a,
                      output_dir=os.path.join(config.output_dir, f"alpha_{a:g}"))
        runs[a] = run_adaptive(cfg)
        emit_outputs(runs[a], cfg)
    return runs


def render_sweep_csv(runs):
    alphas = sorted(runs)
    cols = ["level"]
    for a in alphas:
        cols += [f"i_eff_{a:g}", f"dofs_{a:g}"]
    lines = [",".join(cols)]
    nlev = max(len(r) for r in runs.values())
    for lvl in range(nlev):
        row = [str(lvl)]
        for a in alphas:
            reps = runs[a]
            if lvl < len(reps):
                row.append(_fmt(reps[lvl].i_eff))
                row.append(str(reps[lvl].dofs_total))
            else:
                row += ["", ""]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def self_reference_values(config, extra_refinements=2):
    """Independent goal references: extra uniform refinements + degree bump.

    Runs the configured pipeline, then solves the optimization problem
    once more on the uniformly refined final mesh with raised degree and
    evaluates every goal there.  Expensive; intended for verification.
    """
    from .mesh import refine_all

    capture = {}
    _run(config, capture=capture)
    problem, goals, _ = instantiate(config)
    mesh = capture["mesh"]
    q_warm = capture["q2"]
    for _ in range(extra_refinements):
        mesh = refine_all(mesh)
    state = build_space(mesh, "cg", config.degree + 1)
    ctrl = build_space(mesh, "dg", config.degree + 1)
    pair = SpacePair(state, ctrl)
    q0 = transfer(q_warm, ctrl)
    triple, _ = newton_standard(
        problem, pair, q0,
        tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
        krylov_tol=config.krylov_tol,
    )
    return {g.name: g.value(triple.u, triple.q) for g in goals}
