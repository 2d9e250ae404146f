"""End-to-end adaptive driver, experiment presets and report emission.

One refinement level solves the enriched optimization problem, started
from the previous level's enriched solution, then the low-order one,
started from this level's enriched optimum (the control, and for a
nonlinear state equation the state too).  It builds the combined goal
functional from enriched references frozen at the low solution, runs the
goal-adjoint recovery chain on both space sets, evaluates the error
estimator with its partition-of-unity localization, and finally marks
and refines.  Levels are strictly sequential.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, DwroptError, RegionError, SizingError
from .estimator import adjoint_chain, compute_eta_k, effectivities, localize_pu
from .fem import build_space, interpolate, region_cell_mask, transfer, zero_function
from .mesh import CellSet, DOMAINS, build_initial, check_cell_size, dorfler_mark, refine
from .multigoal import build_combined
from .problem import make_goals, make_plaplace_control, make_poisson_control
from .reduced import NewtonLog, newton_reduced_adaptive, newton_standard


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
        for key in ("tol_dis", "smoothing_delta"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative")
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
    reads: tuple = ()  # the _PRESET_KEYS this preset uses


PRESETS = {
    "example1_cost": _Preset("unit_square", 0.5, 0.01, "poisson"),
    "example1_l1": _Preset("unit_square", 0.5, 0.01, "poisson", ("smoothing_delta",)),
    "example2_uq": _Preset("holed_rect", 0.5, 1.0, "plaplace", ("p", "epsilon")),
    "example3": _Preset("holed_rect", 0.25, 0.01, "plaplace", ("p", "epsilon")),
}

#: keys that only some presets read; giving one to another preset is an error
_PRESET_KEYS = ("p", "epsilon", "smoothing_delta")
#: keys read under one mode only: key -> (mode key, the value that reads it)
_MODE_KEYS = {"gamma": ("stopping", "adaptive"), "eta0": ("stopping", "adaptive"),
              "theta": ("refinement", "adaptive")}


def _check_given(cfg, given):
    """Reject keys given to a validated config that its run never reads:
    keys of other presets, and keys of a stopping rule or refinement it
    does not use."""
    unread = [k for k in _PRESET_KEYS
              if k in given and k not in PRESETS[cfg.preset].reads]
    if unread:
        raise ConfigError(f"preset {cfg.preset} does not use {', '.join(unread)}")
    for key, (mode, reads) in _MODE_KEYS.items():
        if key in given and getattr(cfg, mode) != reads:
            raise ConfigError(f"{mode} = {getattr(cfg, mode)} does not use {key}")
    return cfg


def preset_config(name, **overrides):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = Config(preset=name, **overrides)
    return _check_given(cfg.validate(), overrides)


_PARSERS = {"str": str, "int": int, "float": float, "float | None": float}
#: config key -> the parser of its value text, from the field's annotation
_KINDS = {f.name: _PARSERS[f.type] for f in fields(Config)}
_INF_KEYS = ("tol_dis", "target_dofs_state", "target_dofs_total")


def parse_config(text, overridden=()):
    """Flat key = value configuration; unknown or unused keys are rejected,
    and so are the overridden keys, which the calling command sets per run."""
    cfg = Config()
    given = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        kind = _KINDS.get(key)
        if kind is None:
            raise ConfigError(f"line {ln}: unknown configuration key {key!r}")
        if key in overridden:
            raise ConfigError(f"line {ln}: this command sets {key} per run; remove it")
        given.add(key)
        try:
            setattr(cfg, key, kind(val))
        except ValueError:
            raise ConfigError(
                f"line {ln}: {key} must be {'an integer' if kind is int else 'a number'}, "
                f"got {val!r}"
            ) from None
    return _check_given(cfg.validate(), given)


def load_config(path, overridden=()):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from None
    return parse_config(text, overridden)


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
    # refinement keeps a box aligned with the initial mesh lines aligned
    for goal in goals:
        try:
            region_cell_mask(mesh, goal.region)
        except RegionError:
            raise ConfigError(
                f"cell_size {cell} does not align with the region box "
                f"{goal.region} of goal {goal.name}"
            ) from None
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
    log_low: NewtonLog | None = None
    log_enriched: NewtonLog | None = None
    marked: CellSet | None = None
    wall_time: float = 0.0
    peak_rss_mb: float = 0.0  # the process's peak resident set size at the level's end


def _initial_guess(problem, prev, state, control):
    """Starting control and state (q0, u0) on the given spaces.

    prev is a solution (u, q) on the spaces' mesh or a coarser one, or
    None.  Without one, the control starts at the desired control (a zero
    start can make goal derivatives degenerate) and the state at zero.
    The state is carried over only for a nonlinear operator: a linear
    state equation is solved by one Newton step from any start, so it
    starts at zero.
    """
    if prev is None:
        return interpolate(control, problem.q_des), zero_function(state)
    u, q = prev
    u0 = transfer(u, state) if problem.a_uu_fields is not None else zero_function(state)
    return transfer(q, control), u0


def _solve_level(problem, goals, mesh, config, prev, eta_prev):
    """All solves and estimates of one level.

    State spaces are continuous Q^r; controls are discontinuous one
    degree lower (piecewise constants for r = 1), which reproduces the
    reference DOF counts and convergence orders.  Enrichment raises both
    degrees by one on the same mesh.  prev is the previous level's
    enriched (u, q), or None on level 0, and eta_prev its discretization
    estimate (the adaptive Newton guard's seed).  The enriched problem
    starts from prev, the low-order one from this level's enriched
    optimum.  The returned triples are released (see KKTTriple.release):
    a later solve with one refactorizes its Jacobian.
    """
    r = config.degree
    state, control = build_space(mesh, "cg", r), build_space(mesh, "dg", r - 1)
    state2, control2 = build_space(mesh, "cg", r + 1), build_space(mesh, "dg", r)

    # enriched optimization (classical stopping)
    q20, u20 = _initial_guess(problem, prev, state2, control2)
    triple2, log2 = newton_standard(
        problem, q20, u20,
        tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
        krylov_tol=config.krylov_tol,
    )

    # the combined goal's references, frozen at the enriched solution
    seed = build_combined(goals, (triple2.u, triple2.q))

    # low-order optimization from the enriched optimum, and the combined
    # goal refrozen at its solution (the adaptive Newton's guard
    # refreezes it at every iterate)
    q0, u0 = _initial_guess(problem, (triple2.u, triple2.q), state, control)
    if config.stopping == "adaptive":
        triple, combined, p_low, log = newton_reduced_adaptive(
            problem, seed, q0, u0,
            gamma=config.gamma, eta_prev=eta_prev,
            krylov_tol=config.krylov_tol,
            tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
        )
    else:
        triple, log = newton_standard(
            problem, q0, u0,
            tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
            krylov_tol=config.krylov_tol,
        )
        combined, p_low = seed.refreeze(triple.u, triple.q), None

    # goal-adjoint chains at the low and at the enriched linearization point
    adj_low = adjoint_chain(combined, triple, p=p_low, krylov_tol=config.krylov_tol)
    adj2 = adjoint_chain(combined, triple2, krylov_tol=config.krylov_tol)
    eta_k = compute_eta_k(triple, adj_low.p)

    # the estimate needs the solutions only: free the factors, Hessians
    # and space caches before its sweep allocates its quadrature fields
    triple.release()
    triple2.release()
    breakdown = localize_pu(combined, (triple, adj_low), (triple2, adj2))
    breakdown.eta_k = eta_k
    return {
        "triple": triple,
        "triple2": triple2,
        "adj_low": adj_low,
        "adj2": adj2,
        "combined": combined,
        "breakdown": breakdown,
        "log": log,
        "log2": log2,
    }


def _make_report(level, mesh, sol):
    combined = sol["combined"]
    bd = sol["breakdown"]
    low, enriched = sol["triple"], sol["triple2"]
    names = [g.name for g in combined.goals]
    goal_values = dict(zip(names, combined.freeze_values))
    goal_reldev = dict(zip(names, combined.relative_deviations()))
    ref_error = combined.reference_error()
    eff = None if ref_error is None else effectivities(bd, ref_error)
    i_eff, i_eff_p, i_eff_a, i_eff_c = (
        (None,) * 4 if eff is None else (eff.i_eff, eff.i_eff_p, eff.i_eff_a, eff.i_eff_c)
    )
    return LevelReport(
        level=level,
        cells=mesh.ncells,
        dofs_state=low.u.space.ndofs,
        dofs_control=low.q.space.ndofs,
        dofs_total=low.u.space.ndofs + low.q.space.ndofs,
        dofs_enriched=enriched.u.space.ndofs + enriched.q.space.ndofs,
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
        log_low=sol["log"],
        log_enriched=sol["log2"],
    )


def run_adaptive(config, capture=None):
    """Solve, estimate, mark and refine until a stop rule fires.

    ``config.refinement`` selects Dörfler marking (adaptive) or marking
    every cell (uniform).  A ``capture`` dict, if given, receives the
    problem, the goal list and each level's mesh and enriched solution (u, q).
    """
    config.validate()
    problem, goals, mesh = instantiate(config)
    prev, eta_prev = None, config.eta0
    reports = []
    for level in range(config.max_levels):
        t0 = time.perf_counter()
        try:
            sol = _solve_level(problem, goals, mesh, config, prev, eta_prev)
        except DwroptError as exc:
            # completed levels and the config they ran with ride along, so
            # callers can flush them to this run's own output_dir
            err = DwroptError(f"level {level}: {exc}")
            err.reports = reports
            err.config = config
            raise err from exc
        report = _make_report(level, mesh, sol)
        report.wall_time = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
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
        prev = (sol["triple2"].u, sol["triple2"].q)
        if capture is not None:
            capture.update(problem=problem, goals=goals, mesh=mesh, high=prev)
        if stop:
            break
        mesh = refine(mesh, marked)
        if abs(bd.eta_h2) > 0:
            eta_prev = abs(bd.eta_h2)
    return reports


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
        row = dict(vars(r))
        for name in goal_names:
            row[f"goal_{name}"] = r.goal_values[name]
            row[f"goal_{name}_reldev"] = r.goal_reldev[name]
        values = (row[c] for c in cols)
        lines.append(",".join(
            _fmt(v) if v is None or isinstance(v, float) else str(v) for v in values
        ))
    return "\n".join(lines) + "\n"


def render_newton_csv(reports):
    """One row per reduced-Newton iterate of both problems of every level.

    step_size is the step that produced the iterate (nan for the start);
    state_iterations counts the chord steps of the iterate's state solve,
    cg_iterations the CG iterations of the reduced system solve of the
    step that produced the iterate (empty for the start).
    """
    lines = ["level,problem,iteration,residual,step_size,state_iterations,"
             "cg_iterations"]
    for r in reports:
        for problem, log in (("low", r.log_low), ("enriched", r.log_enriched)):
            for k, (res, its) in enumerate(zip(log.residuals, log.state_iterations)):
                step = log.step_sizes[k - 1] if k else None
                cg = log.cg_iterations[k - 1] if k else ""
                lines.append(
                    f"{r.level},{problem},{k},{_fmt(res)},{_fmt(step)},{its},{cg}"
                )
    return "\n".join(lines) + "\n"


def render_summary(reports, config):
    last = reports[-1]
    lines = [
        f"preset            {config.preset}",
        f"levels            {len(reports)}",
        f"total wall time   {sum(r.wall_time for r in reports):.3f} s",
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
    lines.append("")
    lines.append("peak RSS per level:")
    for r in reports:
        lines.append(f"  level {r.level:<9d} {r.peak_rss_mb:.1f} MB")
    lines.append("")
    lines.append("wall time per level:")
    for r in reports:
        lines.append(f"  level {r.level:<9d} {r.wall_time:.3f} s")
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
    """Write levels.csv, newton.csv, summary.txt and plots.gp into the output directory."""
    if not reports:
        raise DwroptError("no level reports to emit")
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, text in (
        ("levels.csv", render_csv(reports)),
        ("newton.csv", render_newton_csv(reports)),
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


def _make_output_dir(path):
    """Create the output directory, so a bad path fails before any level runs."""
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {path!r}: {exc}") from None


def _run_each(config, runs):
    """Reports of one run per (subdirectory, overrides) pair.

    Each run writes its outputs to its subdirectory of the configured
    output directory; all of them are created before the first run.
    """
    configs = [replace(config, output_dir=os.path.join(config.output_dir, sub), **kw)
               for sub, kw in runs]
    for cfg in configs:
        _make_output_dir(cfg.output_dir)
    reports = []
    for cfg in configs:
        reports.append(run_adaptive(cfg))
        emit_outputs(reports[-1], cfg)
    return reports


def compare_stopping(config):
    """Run both Newton stopping rules on otherwise identical configs.

    Returns (standard_reports, adaptive_reports); each mode's artifacts
    go to a subdirectory of the configured output directory.
    """
    standard, adaptive = _run_each(
        config, [(mode, {"stopping": mode}) for mode in ("standard", "adaptive")]
    )
    return standard, adaptive


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
    """One run per regularization weight, each into alpha_<value:g>.

    Returns {alpha: reports}.  Weights with the same :g form would share
    a subdirectory and a sweep.csv column, so they are rejected.
    """
    names = [f"{a:g}" for a in alphas]
    twice = sorted({n for n in names if names.count(n) > 1})
    if twice:
        raise ConfigError(
            f"--alphas names alpha {', '.join(twice)} more than once "
            "(values are told apart by their :g form)"
        )
    reports = _run_each(
        config, [(f"alpha_{n}", {"alpha": a}) for a, n in zip(alphas, names)]
    )
    return dict(zip(alphas, reports))


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


def self_reference_values(config, capture, extra_refinements=2):
    """Independent goal references: extra uniform refinements + degree bump.

    capture is the one run_adaptive(config, capture=capture) filled.  The
    optimization problem is solved once more on its final mesh, refined
    uniformly, with raised degree, and every goal is evaluated there.
    Expensive; intended for verification.
    """
    from .mesh import refine_all

    problem, goals, mesh = capture["problem"], capture["goals"], capture["mesh"]
    for _ in range(extra_refinements):
        mesh = refine_all(mesh)
    r = config.degree + 1
    q0, u0 = _initial_guess(problem, capture["high"],
                            build_space(mesh, "cg", r), build_space(mesh, "dg", r))
    triple, _ = newton_standard(
        problem, q0, u0,
        tol_abs=config.newton_tol_abs, tol_rel=config.newton_tol_rel,
        krylov_tol=config.krylov_tol,
    )
    return {g.name: g.value(triple.u, triple.q) for g in goals}
