"""Benchmark of the adaptive DWR loop of dwropt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one preset workload through ``preset_config``, ``run_adaptive`` and
``emit_outputs`` (the calls ``dwropt preset`` makes), each round in a
fresh interpreter started from this checkout's ``src`` with BLAS pinned to
one thread, and checks the outputs.  Rounds repeat until ``--seconds`` have
passed (at least one whole round).  The last line of standard output is a
JSON object with ``correct``, ``attempted`` and ``failed`` (counted in
levels) and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``solve_s``, ``setup_s``,
  ``peak_rss_mb`` and ``goal_error``, medians over the rounds; ``setup_s``
  is the median over several fresh starts.
* ``--trace 1``: the per-layer metrics of a traced round, and
  ``trace.overhead_s``, the traced minus the untraced ``solve_s`` of an
  untraced round run just before it.

The inputs are fixed presets with no random draws, so ``--seed`` selects
nothing; it is accepted and echoed.  ``--coarse`` runs every workload to a
small DOF target and is used by the self-test.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("poisson_cost", "plaplace_uq", "plaplace_multigoal")

#: fresh starts timed per run for setup_s (after one untimed start that
#: fills the byte-code cache)
SETUP_STARTS = 7
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "goal_error": "1"}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        DWROPT_NUMBA="0",
    )
    return env


def child_cmd(mode, workload, coarse, out=None):
    cmd = [sys.executable, str(HERE / "workload.py"), mode, workload]
    if out is not None:
        cmd += ["--out", str(out)]
    if coarse:
        cmd.append("--coarse")
    return cmd


def time_setup(workload, coarse):
    """Seconds from process start to a ready problem in a fresh interpreter."""
    t0 = time.perf_counter()
    with subprocess.Popen(child_cmd("setup", workload, coarse), cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up of {workload} exited with code {code}")
    return elapsed


def run_child(mode, workload, coarse):
    out = OUT / workload / mode
    proc = subprocess.run(child_cmd(mode, workload, coarse, out), cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} round of {workload} exited with code "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, ok, detail in result["checks"]:
        print(f"  {mode:5s} check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    if "error" in result:
        print(f"  {mode:5s} failed: {result['error']}")
    return result


def same_goals(rounds):
    finals = [r["final_goals"] for r in rounds if "final_goals" in r]
    return all(f == finals[0] for f in finals)


def run_untraced(workload, seconds, coarse):
    starts = 1 if coarse else SETUP_STARTS
    time_setup(workload, coarse)  # untimed: fills the byte-code cache
    setup = [time_setup(workload, coarse) for _ in range(starts)]
    print(f"setup_s over {starts} fresh starts: " + " ".join(f"{s:.4f}" for s in setup))

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        r = run_child("solve", workload, coarse)
        rounds.append(r)
        if "solve_s" in r:
            print(f"round {len(rounds)}: solve_s {r['solve_s']:.4f} "
                  f"peak_rss_mb {r['peak_rss_mb']:.1f} goal_error {r['goal_error']!r} "
                  f"levels {r['levels']}")
    ok_rounds = [r for r in rounds if "solve_s" in r]
    if not ok_rounds:
        raise BenchError(f"no round of {workload} completed")
    deterministic = same_goals(rounds)
    print(f"final goal values identical across rounds: {deterministic}")
    metrics = {
        "solve_s": statistics.median(r["solve_s"] for r in ok_rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_rounds),
        "goal_error": statistics.median(r["goal_error"] for r in ok_rounds),
    }
    return summarize(rounds, deterministic,
                     {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()})


def run_traced(workload, seconds, coarse):
    rounds = []
    layers = []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        base = run_child("solve", workload, coarse)
        traced = run_child("trace", workload, coarse)
        rounds += [base, traced]
        if "layers" not in traced or "solve_s" not in base:
            raise BenchError(f"traced round of {workload} did not complete")
        values = traced["layers"]
        values["trace.overhead_s"] = {"value": traced["solve_s"] - base["solve_s"],
                                      "unit": "s"}
        layers.append(values)
        print(f"round {len(layers)}: untraced solve_s {base['solve_s']:.4f}, "
              f"traced solve_s {traced['solve_s']:.4f}")
    deterministic = same_goals(rounds)
    print(f"traced and untraced final goal values identical: {deterministic}")
    metrics = {name: {"value": statistics.median(v[name]["value"] for v in layers),
                      "unit": m["unit"]}
               for name, m in layers[0].items()}
    return summarize(rounds, deterministic, metrics)


def summarize(rounds, deterministic, metrics):
    checks_ok = all(ok for r in rounds for _, ok, _ in r["checks"])
    return {
        "correct": bool(checks_ok and deterministic),
        "attempted": sum(r["levels"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--coarse", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "dwropt" / "__init__.py").is_file():
        print(f"perfbench: no dwropt sources under {SRC}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed} (fixed preset inputs), "
          f"seconds {args.seconds:g}, trace {args.trace}, coarse {args.coarse}")
    try:
        if args.trace:
            result = run_traced(args.workload, args.seconds, args.coarse)
        else:
            result = run_untraced(args.workload, args.seconds, args.coarse)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
