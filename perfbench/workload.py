"""One round of a benchmark workload, run in a fresh interpreter.

run.py starts one process per round:

    python3 perfbench/workload.py setup <workload> [--coarse]
    python3 perfbench/workload.py solve <workload> --out DIR [--coarse]
    python3 perfbench/workload.py trace <workload> --out DIR [--coarse]

``setup`` imports dwropt, builds the validated preset config and
instantiates problem, goals and initial mesh, then prints ``ready``;
run.py times it from process start.  ``solve`` does the same set-up, times
``run_adaptive``, emits the outputs with ``emit_outputs``, checks them and
prints one JSON line.  ``trace`` is ``solve`` with the span tracer
installed around both calls; it also writes the spans to DIR/spans.npz.

The workloads are fixed presets with no random draws.  ``--coarse`` runs
each of them to a small DOF target (a few levels) for the self-test; the
asymptotic checks, which need fine levels, are skipped there.
"""

import argparse
import csv
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: highest level count a run may take; a run must stop on its DOF target first
MAX_LEVELS = 40


@dataclass(frozen=True)
class Workload:
    preset: str
    alpha: float
    target_column: str  # levels.csv column the DOF target applies to
    target: float
    coarse_target: float
    references: dict  # goal name -> reference value held by the benchmark


# Reference values are the benchmark's own, not read from dwropt.problem:
# the exact optimal cost of the Poisson problem, and the published values
# of the p-Laplace examples (alpha = 1 for the single goal, alpha = 0.01 for
# the five goals).
WORKLOADS = {
    "poisson_cost": Workload(
        "example1_cost", 0.01, "dofs_state", 1.5e4, 300,
        {"cost": (25 * math.pi**4 + 1 / 0.01) / 8},
    ),
    "plaplace_uq": Workload(
        "example2_uq", 1.0, "dofs_total", 2e4, 1000,
        {"uq_product": 0.1502366},
    ),
    "plaplace_multigoal": Workload(
        "example3", 0.01, "dofs_total", 1e4, 1500,
        {"state_misfit": 1.15760, "control_misfit": 21.3305,
         "state_strip": -0.236288, "control_band": 0.328042,
         "uq_product": 0.231615},
    ),
}

IDENTITY_RTOL = 1e-13
ANALYTIC_RTOL = 1e-14
#: tolerance of the check that the module self times sum to the traced solve_s
SELF_SUM_RTOL = 1e-3


def make_config(name, coarse, output_dir="out"):
    from dwropt.driver import preset_config

    w = WORKLOADS[name]
    target = w.coarse_target if coarse else w.target
    return preset_config(w.preset, alpha=w.alpha, max_levels=MAX_LEVELS,
                         output_dir=output_dir,
                         **{f"target_{w.target_column}": target})


def _slope(x, y):
    """Least-squares slope of log10|y| against log10 x."""
    lx = [math.log10(v) for v in x]
    ly = [math.log10(abs(v)) for v in y]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def check_references(name, goals):
    """The program's goal references equal the benchmark's own values."""
    w = WORKLOADS[name]
    got = {g.name: g.reference for g in goals}
    if set(got) != set(w.references):
        return [("references", False, f"goals {sorted(got)}")]
    bad = []
    for goal, ref in w.references.items():
        tol = ANALYTIC_RTOL * abs(ref) if name == "poisson_cost" else 0.0
        if got[goal] is None or abs(got[goal] - ref) > tol:
            bad.append(f"{goal} {got[goal]!r} != {ref!r}")
    return [("references", not bad, "; ".join(bad) or "all equal")]


def goal_error(name, row):
    """Largest relative deviation of the final goal values from the references."""
    refs = WORKLOADS[name].references
    return max(abs(float(row[f"goal_{g}"]) - r) / abs(r) for g, r in refs.items())


def check_levels(name, rows, coarse):
    """Correctness checks on the rows of levels.csv; list of (name, ok, detail)."""
    w = WORKLOADS[name]
    target = w.coarse_target if coarse else w.target
    checks = []

    def col(key):
        return [float(r[key]) for r in rows]

    sizes = col(w.target_column)
    checks.append((
        "stops_on_dof_target",
        sizes[-1] >= target and all(s < target for s in sizes[:-1])
        and len(rows) < MAX_LEVELS,
        f"{len(rows)} levels, final {w.target_column} {sizes[-1]:.0f}, target {target:.0f}",
    ))

    parts = ("rho_u", "rho_q", "rho_z", "rho_v", "rho_p", "rho_y")
    devs = [abs(float(r["eta_h2"]) - 0.5 * sum(float(r[k]) for k in parts))
            / abs(float(r["eta_h2"])) for r in rows]
    checks.append(("half_sum_identity", all(d <= IDENTITY_RTOL for d in devs),
                   f"max relative deviation {max(devs):.1e}"))
    devs = [abs(float(r["i_eff"]) - 0.5 * (float(r["i_eff_p"]) + float(r["i_eff_a"])))
            / abs(float(r["i_eff"])) for r in rows]
    checks.append(("i_eff_mean_identity", all(d <= IDENTITY_RTOL for d in devs),
                   f"max relative deviation {max(devs):.1e}"))

    if name == "plaplace_multigoal":
        reldev = [max(float(r[f"goal_{g}_reldev"]) for g in w.references) for r in rows]
        ok = all(c >= d - 1e-15 for c, d in zip(col("goal_combined"), reldev))
        checks.append(("combined_dominates_each_goal", ok, f"{len(rows)} levels"))
        its = [int(r["newton_its_low"]) for r in rows[1:]]
        checks.append(("low_newton_at_most_3_from_level_1", all(i <= 3 for i in its),
                       f"iterations {its}"))
    if coarse:
        return checks

    if name == "poisson_cost":
        devs = [abs(v - 1.0) for v in col("i_eff")[-3:]]
        checks.append(("i_eff_band_last_3", all(d <= 0.25 for d in devs),
                       "|i_eff - 1| " + " ".join(f"{d:.3f}" for d in devs)))
        ref = w.references["cost"]
        tail = rows[-5:]
        slope = _slope([float(r["dofs_state"]) for r in tail],
                       [float(r["goal_cost"]) - ref for r in tail])
        checks.append(("error_slope_last_5", -1.3 <= slope <= -0.7, f"slope {slope:.3f}"))
    elif name == "plaplace_uq":
        dev = goal_error(name, rows[-1])
        checks.append(("goal_within_1pct", dev <= 0.01, f"deviation {dev:.2%}"))
        ieff = [float(r["i_eff"]) for r in rows if int(r["level"]) >= 6]
        checks.append(("i_eff_band_from_level_6",
                       bool(ieff) and all(0.80 <= v <= 1.10 for v in ieff),
                       "i_eff " + " ".join(f"{v:.3f}" for v in ieff)))
    return checks


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_round(name, mode, outdir, coarse):
    """One solve or traced round; returns the JSON-ready result dict."""
    import dwropt.driver
    from dwropt.driver import instantiate
    from dwropt.errors import DwroptError

    cfg = make_config(name, coarse, output_dir=str(outdir))
    _, goals, _ = instantiate(cfg)
    checks = check_references(name, goals)

    tracer = None
    if mode == "trace":
        from tracer import UNITS, Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        reports = dwropt.driver.run_adaptive(cfg)
        solve_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        paths = dwropt.driver.emit_outputs(reports, cfg)
    except DwroptError as exc:
        done = len(getattr(exc, "reports", []))
        return {"levels": done + 1, "failed": done + 1, "error": str(exc),
                "checks": checks}
    finally:
        if tracer is not None:
            tracer.uninstall()

    rows = _read_rows(paths["levels.csv"])
    checks += check_levels(name, rows, coarse)
    result = {
        "levels": len(reports),
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "goal_error": goal_error(name, rows[-1]),
        "final_goals": {g: float(rows[-1][f"goal_{g}"]) for g in WORKLOADS[name].references},
    }
    if tracer is not None:
        left = tracer.restored()
        checks.append(("tracer_restored_every_name", not left, ", ".join(left) or "all"))
        tracer.save(os.path.join(outdir, "spans.npz"))
        layers, self_sum, root_s, nesting_ok = tracer.summarize()
        checks.append(("spans_nest_inside_parents", nesting_ok, f"{len(tracer.start)} spans"))
        # the self times partition the root span; the root span and the
        # timer around the call differ only by one wrapper's overhead
        gap = abs(self_sum - solve_s) / solve_s
        checks.append(("module_self_times_sum_to_solve_s", gap <= SELF_SUM_RTOL,
                       f"sum {self_sum:.6f} s, solve_s {solve_s:.6f} s, root span {root_s:.6f} s"))
        layers["driver.final_level_s"] = reports[-1].wall_time
        layers["driver.levels"] = len(reports)
        layers["reduced.newton_iterations"] = sum(
            r.newton_its_low + r.newton_its_enriched for r in reports)
        layers["trace.solve_s"] = solve_s
        layers = {name: {"value": layers[name], "unit": unit}
                  for name, unit in UNITS.items() if name != "trace.overhead_s"}
        result["layers"] = layers
    failed = not all(ok for _, ok, _ in checks)
    result.update(failed=len(reports) if failed else 0, checks=checks)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "solve", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--out", default=None)
    parser.add_argument("--coarse", action="store_true")
    args = parser.parse_args(argv)

    import dwropt

    src = ROOT / "src"
    if Path(dwropt.__file__).resolve().parent != src / "dwropt":
        raise SystemExit(f"dwropt imported from {dwropt.__file__}, not from {src}")
    if args.mode == "setup":
        from dwropt.driver import instantiate

        instantiate(make_config(args.workload, args.coarse))
        print("ready", flush=True)
        return 0
    os.makedirs(args.out, exist_ok=True)
    result = run_round(args.workload, args.mode, args.out, args.coarse)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
