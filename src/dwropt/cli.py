"""Command-line interface.

Subcommands:
    run <config>                 run a configuration file
    preset <name>                run a named experiment preset
    compare-stopping <config>    run both Newton stopping rules, emit a comparison
    sweep-alpha <config>         one run per regularization weight

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .driver import (
    PRESETS,
    _make_output_dir,
    compare_stopping,
    emit_outputs,
    load_config,
    preset_config,
    render_comparison_csv,
    render_sweep_csv,
    run_adaptive,
    self_reference_values,
    sweep_alpha,
)
from .errors import ConfigError, DwroptError


def _build_parser():
    preset_names = ", ".join(sorted(PRESETS))
    parser = argparse.ArgumentParser(
        prog="dwropt",
        description=(
            "Goal-oriented adaptive solver for PDE-constrained optimal "
            f"control. Available presets: {preset_names}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configuration file")
    p_run.add_argument("config")
    p_run.add_argument("--self-reference", action="store_true",
                       help="recompute goal references on refined enriched spaces")

    p_preset = sub.add_parser(
        "preset", help=f"run a named preset ({preset_names})"
    )
    p_preset.add_argument("name")
    p_preset.add_argument("--alpha", type=float, default=None)
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--stopping", choices=("adaptive", "standard"),
                          default=None)
    p_preset.add_argument("--max-levels", type=int, default=None)
    p_preset.add_argument("--self-reference", action="store_true")

    p_cmp = sub.add_parser("compare-stopping",
                           help="run adaptive and standard Newton stopping")
    p_cmp.add_argument("config")

    p_sweep = sub.add_parser("sweep-alpha",
                             help="run a sweep over regularization weights")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--alphas", default="0.01,0.1,1,10",
                         help="comma-separated list of alpha values")
    return parser


def _emit_self_reference(cfg, capture):
    """Write references.txt: each goal's self reference beside its stored one."""
    stored = {g.name: g.reference for g in capture["goals"]}
    lines = ["goal, self_reference, stored_reference"]
    for name, val in self_reference_values(cfg, capture).items():
        stored_txt = "" if stored[name] is None else f"{stored[name]!r}"
        lines.append(f"{name}, {float(val)!r}, {stored_txt}")
    path = os.path.join(cfg.output_dir, "references.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_config(args):
    """The configuration of a run: a file, or a preset with its overrides."""
    if args.command == "run":
        return load_config(args.config)
    overrides = {"alpha": args.alpha, "output_dir": args.out,
                 "stopping": args.stopping, "max_levels": args.max_levels}
    return preset_config(
        args.name, **{k: v for k, v in overrides.items() if v is not None}
    )


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help
        return int(exc.code or 0)

    try:
        if args.command in ("run", "preset"):
            cfg = _run_config(args)
            _make_output_dir(cfg.output_dir)
            capture = {}
            emit_outputs(run_adaptive(cfg, capture=capture), cfg)
            if args.self_reference:
                _emit_self_reference(cfg, capture)
            print(f"wrote {os.path.join(cfg.output_dir, 'levels.csv')}")
        elif args.command == "compare-stopping":
            cfg = load_config(args.config, overridden=("stopping",))
            standard, adaptive = compare_stopping(cfg)
            path = os.path.join(cfg.output_dir, "comparison.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_comparison_csv(standard, adaptive))
            print(f"wrote {path}")
        elif args.command == "sweep-alpha":
            cfg = load_config(args.config, overridden=("alpha",))
            try:
                alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --alphas list: {exc}") from exc
            if not alphas:
                raise ConfigError("--alphas must name at least one value")
            # reject every bad value before the first run writes its outputs
            bad = [a for a in alphas if not (math.isfinite(a) and a > 0)]
            if bad:
                raise ConfigError(f"alpha must be positive and finite, got {bad[0]}")
            runs = sweep_alpha(cfg, alphas)
            path = os.path.join(cfg.output_dir, "sweep.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_sweep_csv(runs))
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DwroptError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        partial = getattr(exc, "reports", None)
        if partial:
            try:
                emit_outputs(partial, exc.config)
                print(f"flushed {len(partial)} completed level(s) to "
                      f"{exc.config.output_dir}", file=sys.stderr)
            except Exception as flush_exc:
                print(f"could not flush completed levels to "
                      f"{exc.config.output_dir}: {flush_exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
