import csv
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwropt.cli import main as cli_main
from dwropt.driver import (
    Config,
    compare_stopping,
    csv_columns,
    emit_outputs,
    instantiate,
    parse_config,
    preset_config,
    render_comparison_csv,
    render_csv,
    run_adaptive,
)
from dwropt.errors import ConfigError

#: random "key = value" entries: every Config field plus an unknown key,
#: with numbers, non-numbers and non-finite values
CONFIG_ENTRIES = st.lists(st.tuples(
    st.sampled_from([f.name for f in fields(Config)] + ["bogus"]),
    st.one_of(
        st.text(alphabet="0123456789abcdefinx.+-e_ ", max_size=8),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-3, 50).map(str),
    ),
), max_size=4)


def _config_text(entries):
    return "\n".join(f"{k} = {v}" for k, v in entries)


class TestConfig:
    def test_parse_round_trip(self):
        text = """
        preset = example1_cost
        alpha = 0.02
        theta = 0.4          # marking fraction
        max_levels = 3
        stopping = standard
        output_dir = /tmp/somewhere
        """
        cfg = parse_config(text)
        assert cfg.preset == "example1_cost"
        assert cfg.alpha == 0.02
        assert cfg.theta == 0.4
        assert cfg.max_levels == 3
        assert cfg.stopping == "standard"

    @pytest.mark.parametrize("key", [f.name for f in fields(Config)
                                     if f.default is not None])
    def test_default_round_trip(self, key):
        # each default, written as "key = value", parses back to itself
        preset = {"p": "example2_uq", "epsilon": "example2_uq",
                  "smoothing_delta": "example1_l1"}.get(key, Config.preset)
        default = getattr(Config(), key)
        text = f"preset = {preset}\n{key} = {default}\n"
        cfg = parse_config(text)
        assert cfg == Config(preset=preset)
        assert type(getattr(cfg, key)) is type(default)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config("warp_factor = 9")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("theta = 1.5")
        with pytest.raises(ConfigError):
            parse_config("stopping = sometimes")
        with pytest.raises(ConfigError):
            parse_config("preset = not_a_preset")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("example99")

    def test_unread_keys_rejected(self):
        with pytest.raises(ConfigError, match="does not use p"):
            preset_config("example1_cost", p=3.0)
        # the presets that read them accept them, given either way
        assert preset_config("example2_uq", p=3.0, epsilon=0.5).p == 3.0
        assert parse_config("preset = example1_l1\nsmoothing_delta = 1e-6"
                            ).smoothing_delta == 1e-6
        assert parse_config("p = 3\npreset = example3").p == 3.0

    @settings(max_examples=200, deadline=None)
    @given(CONFIG_ENTRIES)
    def test_any_text_parses_or_raises_config_error(self, entries):
        text = _config_text(entries)
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert cfg.validate() is cfg

    def test_defaults_match_documented_constants(self):
        cfg = Config()
        assert cfg.gamma == 1e-2
        assert cfg.theta == 0.5
        assert cfg.newton_tol_abs == 1e-7
        assert cfg.newton_tol_rel == 8e-5
        assert cfg.krylov_tol == 1e-10


@pytest.fixture(scope="module")
def small_run():
    cfg = preset_config("example1_cost", max_levels=4)
    return cfg, run_adaptive(cfg)


class TestRun:
    def test_infinite_tolerance_single_level(self):
        cfg = preset_config("example1_cost", tol_dis=float("inf"), max_levels=9)
        reports = run_adaptive(cfg)
        assert len(reports) == 1
        assert reports[0].marked is None

    def test_uniform_dof_growth(self):
        cfg = preset_config("example1_cost", max_levels=3, refinement="uniform")
        reports = run_adaptive(cfg)
        cells = [r.cells for r in reports]
        assert cells[1] == 4 * cells[0]
        assert cells[2] == 4 * cells[1]

    def test_level0_rows_match_between_modes(self, small_run):
        cfg, adaptive = small_run
        uniform = run_adaptive(
            preset_config("example1_cost", max_levels=1, refinement="uniform")
        )
        row_a = render_csv([adaptive[0]]).splitlines()[1]
        row_u = render_csv([uniform[0]]).splitlines()[1]
        assert row_a == row_u

    def test_monotone_dofs(self, small_run):
        cfg, reports = small_run
        dofs = [r.dofs_total for r in reports]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))

    def test_determinism(self, small_run):
        cfg, reports = small_run
        again = run_adaptive(preset_config("example1_cost", max_levels=4))
        assert render_csv(reports) == render_csv(again)

    def test_target_dofs_stop(self):
        cfg = preset_config("example1_cost", target_dofs_state=50, max_levels=10)
        reports = run_adaptive(cfg)
        assert reports[-1].dofs_state >= 50
        assert len(reports) < 10

    def test_eta_k_small_at_reported_levels(self, small_run):
        cfg, reports = small_run
        for r in reports:
            assert abs(r.eta_k) <= max(1e-8, 1e-2 * abs(r.eta_h2))


class TestEmission:
    def test_csv_schema(self, small_run):
        cfg, reports = small_run
        cols, goal_names = csv_columns(reports)
        assert cols[:6] == ["level", "cells", "dofs_state", "dofs_control",
                            "dofs_total", "dofs_enriched"]
        tail = ["goal_combined", "ref_error", "eta_h2", "eta_k",
                "rho_u", "rho_q", "rho_z", "rho_v", "rho_p", "rho_y",
                "i_eff", "i_eff_p", "i_eff_a", "i_eff_c",
                "newton_its_low", "newton_its_enriched", "stop_reason"]
        assert cols[-len(tail):] == tail
        assert f"goal_{goal_names[0]}" in cols

    def test_csv_round_trip_full_precision(self, small_run):
        cfg, reports = small_run
        text = render_csv(reports)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        parsed = dict(zip(header, row))
        assert float(parsed["eta_h2"]) == reports[0].eta_h2
        assert float(parsed["goal_cost"]) == reports[0].goal_values["cost"]
        assert int(parsed["cells"]) == reports[0].cells

    def test_emit_files(self, small_run, tmp_path):
        cfg, reports = small_run
        cfg2 = preset_config("example1_cost", output_dir=str(tmp_path / "o"))
        paths = emit_outputs(reports, cfg2)
        for name in ("levels.csv", "summary.txt", "plots.gp"):
            assert os.path.exists(paths[name])
        csv = open(paths["levels.csv"]).read()
        assert csv == render_csv(reports)
        summary = open(paths["summary.txt"]).read().splitlines()
        total = sum(r.wall_time for r in reports)
        assert total > 0
        assert f"total wall time   {total:.3f} s" in summary
        per_level = summary[summary.index("wall time per level:") + 1:]
        assert [line.split() for line in per_level] == [
            ["level", str(r.level), f"{r.wall_time:.3f}", "s"] for r in reports
        ]
        # the peak RSS block comes before it, one line per level
        start = summary.index("peak RSS per level:") + 1
        rss = summary[start:summary.index("wall time per level:") - 1]
        assert [line.split() for line in rss] == [
            ["level", str(r.level), f"{r.peak_rss_mb:.1f}", "MB"] for r in reports
        ]
        peaks = [r.peak_rss_mb for r in reports]
        assert peaks[0] > 0 and peaks == sorted(peaks)

    def test_single_report_csv(self, small_run):
        cfg, reports = small_run
        text = render_csv(reports[:1])
        assert len(text.strip().splitlines()) == 2

    def test_gnuplot_references_existing_columns(self, small_run):
        import re

        cfg, reports = small_run
        from dwropt.driver import render_gnuplot

        cols, _ = csv_columns(reports)
        script = render_gnuplot(reports)
        used = set()
        for m in re.finditer(r"using (\d+):", script):
            used.add(int(m.group(1)))
        for m in re.finditer(r"column\((\d+)\)", script):
            used.add(int(m.group(1)))
        for m in re.finditer(r"using \d+:(\d+)", script):
            used.add(int(m.group(1)))
        assert used
        assert max(used) <= len(cols)


@pytest.fixture(scope="module")
def both(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    cfg = preset_config("example1_cost", max_levels=4, output_dir=str(out))
    return compare_stopping(cfg)


class TestCompareStopping:
    def test_adaptive_never_more_iterations(self, both):
        standard, adaptive = both
        for rs, ra in zip(standard, adaptive):
            assert ra.newton_its_low <= rs.newton_its_low

    def test_early_marked_sets_agree(self, both):
        standard, adaptive = both
        for lvl in range(min(4, len(standard), len(adaptive))):
            rs, ra = standard[lvl], adaptive[lvl]
            if rs.marked is None or ra.marked is None:
                break
            assert rs.marked.ids == ra.marked.ids

    def test_comparison_csv_shape(self, both):
        standard, adaptive = both
        text = render_comparison_csv(standard, adaptive)
        lines = text.strip().splitlines()
        assert lines[0].startswith("level,its_standard,its_adaptive")
        assert len(lines) == 1 + max(len(standard), len(adaptive))


#: per level (cells, dofs_state, dofs_control, dofs_total, dofs_enriched,
#: newton_its_low, newton_its_enriched, stop_reason) of
#: `dwropt preset <name> --max-levels 5`; a change that keeps the numbers
#: keeps these.  CG and hessvec counts are left out: roundoff moves them.
TRAJECTORIES = {
    "example1_cost": [
        (4, 9, 4, 13, 41, 0, 1, "adaptive"),
        (10, 18, 10, 28, 95, 1, 1, "adaptive"),
        (19, 30, 19, 49, 173, 1, 1, "adaptive"),
        (40, 59, 40, 99, 357, 1, 1, "adaptive"),
        (70, 92, 70, 162, 603, 1, 1, "adaptive"),
    ],
    "example1_l1": [
        (4, 9, 4, 13, 41, 0, 1, "adaptive"),
        (10, 18, 10, 28, 95, 1, 1, "adaptive"),
        (19, 30, 19, 49, 173, 1, 1, "adaptive"),
        (40, 58, 40, 98, 355, 1, 1, "adaptive"),
        (64, 86, 64, 150, 555, 1, 1, "adaptive"),
    ],
    "example2_uq": [
        (116, 159, 116, 275, 1019, 2, 2, "adaptive"),
        (254, 326, 254, 580, 2181, 1, 1, "adaptive"),
        (389, 485, 389, 874, 3309, 1, 1, "adaptive"),
        (719, 919, 719, 1638, 6157, 1, 1, "adaptive"),
        (1253, 1498, 1253, 2751, 10519, 1, 1, "adaptive"),
    ],
    "example3": [
        (464, 555, 464, 1019, 3899, 6, 4, "absolute"),
        (548, 655, 548, 1203, 4603, 1, 2, "adaptive"),
        (740, 887, 740, 1627, 6219, 1, 2, "adaptive"),
        (1127, 1332, 1127, 2459, 9431, 1, 1, "adaptive"),
        (1727, 2003, 1727, 3730, 14373, 1, 1, "adaptive"),
    ],
}
TRAJECTORY_COLUMNS = ("cells", "dofs_state", "dofs_control", "dofs_total",
                      "dofs_enriched", "newton_its_low", "newton_its_enriched",
                      "stop_reason")


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_preset_trajectory_pinned(tmp_path, capsys, name):
    out = tmp_path / name
    assert cli_main(["preset", name, "--max-levels", "5", "--out", str(out)]) == 0
    with open(out / "levels.csv", newline="") as fh:
        rows = [tuple(r[c] for c in TRAJECTORY_COLUMNS) for r in csv.DictReader(fh)]
    assert rows == [tuple(map(str, level)) for level in TRAJECTORIES[name]]


@pytest.fixture
def factorizations(monkeypatch):
    """One-element list counting the sparse LU factorizations built."""
    from dwropt.fem import Factorization

    count = [0]
    init = Factorization.__init__

    def counting_init(self, matrix):
        count[0] += 1
        init(self, matrix)

    monkeypatch.setattr(Factorization, "__init__", counting_init)
    return count


@pytest.mark.parametrize("name, levels, full_newton", [
    ("example2_uq", 4, 76),
    ("example3", 3, 111),
])
def test_chord_state_solves_save_factorizations(factorizations, name, levels,
                                                full_newton):
    # full_newton: the count with a fresh state Jacobian at every step.
    # Trial solves started without the accepted triple's factor give
    # 51 and 74, chord solves that reuse it 41 and 57.
    run_adaptive(preset_config(name, max_levels=levels))
    assert factorizations[0] <= 0.6 * full_newton


def test_linear_state_factorizations(factorizations):
    # per level: the Poisson Jacobian of both pairs; the control masses are
    # inverted block by block, without a factorization
    run_adaptive(preset_config("example1_cost", max_levels=4))
    assert factorizations[0] == 8


class TestLevelRelease:
    """A level frees its solver state before the estimate and stays usable."""

    @pytest.mark.parametrize("name", ["example1_cost", "example2_uq"])
    def test_no_factorization_alive_during_estimate(self, monkeypatch, name):
        import gc
        import weakref

        import dwropt.driver as drv
        from dwropt.fem import Factorization

        alive, built = weakref.WeakSet(), [0]
        init = Factorization.__init__

        def tracking_init(self, matrix):
            init(self, matrix)
            alive.add(self)
            built[0] += 1

        localize = drv.localize_pu
        at_estimate = []

        def checking_localize(*args, **kwargs):
            gc.collect()
            at_estimate.append(len(alive))
            return localize(*args, **kwargs)

        monkeypatch.setattr(Factorization, "__init__", tracking_init)
        monkeypatch.setattr(drv, "localize_pu", checking_localize)
        cfg = preset_config(name, max_levels=1)
        problem, goals, mesh = instantiate(cfg)
        drv._solve_level(problem, goals, mesh, cfg, (None, None, cfg.eta0))
        assert built[0] >= 2 and at_estimate == [0]

    @pytest.mark.parametrize("name", ["example1_cost", "example2_uq"])
    def test_released_triples_rebuild_their_factors(self, name):
        # the refactorized Jacobians and rebuilt operators are bitwise the
        # ones the level used, so both goal-adjoint chains repeat exactly
        from dwropt.driver import _solve_level
        from dwropt.estimator import adjoint_chain

        cfg = preset_config(name, max_levels=1)
        problem, goals, mesh = instantiate(cfg)
        sol = _solve_level(problem, goals, mesh, cfg, (None, None, cfg.eta0))
        triple, triple2, combined = sol["triple"], sol["triple2"], sol["combined"]
        assert triple.lin is None and triple2.lin is None
        low = adjoint_chain(combined, triple, p=sol["adj_low"].p,
                            krylov_tol=cfg.krylov_tol)
        enr = adjoint_chain(combined, triple2, krylov_tol=cfg.krylov_tol)
        assert triple.lin is not None and triple2.lin is not None
        for got, want in ((low, sol["adj_low"]), (enr, sol["adj2"])):
            for attr in ("v", "p", "y"):
                assert np.array_equal(getattr(got, attr).coefs, getattr(want, attr).coefs)


def test_newton_csv_rows_match_logs(tmp_path, monkeypatch):
    import dwropt.reduced as red

    # hessvec calls inside each Newton step's update, in the order run
    hessvecs, step_cg = [0], []
    hessvec, update = red.hessvec, red._newton_update

    def counting_hessvec(*args, **kwargs):
        hessvecs[0] += 1
        return hessvec(*args, **kwargs)

    def counting_update(*args, **kwargs):
        before = hessvecs[0]
        out = update(*args, **kwargs)
        step_cg.append(hessvecs[0] - before)
        return out

    monkeypatch.setattr(red, "hessvec", counting_hessvec)
    monkeypatch.setattr(red, "_newton_update", counting_update)
    cfg = preset_config("example3", max_levels=2, output_dir=str(tmp_path))
    reports = run_adaptive(cfg)
    paths = emit_outputs(reports, cfg)
    with open(paths["newton.csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    nrows = 0
    for r in reports:
        for problem, log, its in (("low", r.log_low, r.newton_its_low),
                                  ("enriched", r.log_enriched, r.newton_its_enriched)):
            mine = [row for row in rows
                    if row["level"] == str(r.level) and row["problem"] == problem]
            assert len(mine) == its + 1
            assert [int(row["iteration"]) for row in mine] == list(range(its + 1))
            assert [float(row["residual"]) for row in mine] == log.residuals
            assert np.isnan(float(mine[0]["step_size"]))
            assert [float(row["step_size"]) for row in mine[1:]] == log.step_sizes
            assert [int(row["state_iterations"]) for row in mine] == log.state_iterations
            assert mine[0]["cg_iterations"] == ""
            assert [int(row["cg_iterations"]) for row in mine[1:]] == log.cg_iterations
            nrows += its + 1
    assert len(rows) == nrows
    # each level solves the enriched problem first, then the low one
    ran = [n for r in reports for n in (*r.log_enriched.cg_iterations,
                                        *r.log_low.cg_iterations)]
    assert ran == step_cg
    assert all(n > 0 for n in step_cg)
    assert max(r.newton_its_low for r in reports) > 1


class TestCli:
    def test_preset_runs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["preset", "example1_cost", "--out", str(out),
                         "--max-levels", "2"])
        assert code == 0
        assert (out / "levels.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "plots.gp").exists()

    def test_unknown_preset_exit_2(self, capsys):
        assert cli_main(["preset", "example99"]) == 2

    def test_run_config_file(self, tmp_path):
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text(
            "preset = example1_cost\nmax_levels = 2\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert cli_main(["run", str(cfgfile)]) == 0
        assert (tmp_path / "out" / "levels.csv").exists()

    @pytest.mark.parametrize("command", ["preset", "run"])
    def test_self_reference_writes_references(self, tmp_path, command):
        out = tmp_path / "out"
        if command == "preset":
            argv = ["preset", "example1_cost", "--max-levels", "1", "--out", str(out)]
        else:
            cfgfile = tmp_path / "a.cfg"
            cfgfile.write_text(
                f"preset = example1_cost\nmax_levels = 1\noutput_dir = {out}\n"
            )
            argv = ["run", str(cfgfile)]
        assert cli_main([*argv, "--self-reference"]) == 0
        lines = (out / "references.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "goal, self_reference, stored_reference"
        assert len(lines) == 2
        name, self_ref, stored = lines[1].split(", ")
        assert name == "cost"
        assert stored == repr((25 * np.pi**4 + 1 / 0.01) / 8)
        assert np.isfinite(float(self_ref))

    def test_missing_config_exit_2(self):
        assert cli_main(["run", "/nonexistent/path.cfg"]) == 2

    @pytest.mark.parametrize("below", ["", "out"], ids=["file", "under_file"])
    def test_output_dir_on_a_file_exit_2(self, tmp_path, capsys, monkeypatch, below):
        # an existing regular file, or a path under one, fails before any level runs
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr("dwropt.cli.run_adaptive", lambda cfg: pytest.fail("ran"))
        code = cli_main(["preset", "example1_cost", "--max-levels", "1",
                         "--out", str(blocker / below)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, blocked", [
        (["compare-stopping"], "adaptive"),
        (["sweep-alpha", "--alphas", "1"], "alpha_1"),
    ], ids=["compare_stopping", "sweep_alpha"])
    def test_run_subdir_on_a_file_exit_2(self, tmp_path, capsys, monkeypatch,
                                         command, blocked):
        # a file in the place of a per-run subdirectory fails before any level runs
        out = tmp_path / "out"
        out.mkdir()
        (out / blocked).write_text("")
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"preset = example1_cost\nmax_levels = 1\noutput_dir = {out}\n")
        monkeypatch.setattr("dwropt.driver.run_adaptive", lambda cfg: pytest.fail("ran"))
        code = cli_main([command[0], str(cfgfile), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("line", [
        "nonsense_key = 1",
        "max_levels = abc",
        "alpha = none",
        "gamma = nan",
        "max_levels = 0",
        "krylov_tol = inf",
        "cell_size = 0.3",
        "cell_size = 0",
        "cell_size = 5e-324",
        b"cell_size = 1e-300",  # a root grid past the 64-bit lattice keys
        "reference_source = file",
        "quad_extra = 1",
        # example3's control_band box (1, 2, 6.25, 2.5) cuts cells of size 0.5
        "preset = example3\ncell_size = 0.5",
        "preset = example1_l1\nsmoothing_delta = -1",
        # keys the example1_cost preset never reads
        "p = 3",
        "epsilon = 0.5",
        "smoothing_delta = 1e-6",
        b"\xff\xfe preset",  # not UTF-8
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        if isinstance(line, str):
            line = line.encode("utf-8")
        cfgfile.write_bytes(b"preset = example1_cost\n" + line + b"\n")
        assert cli_main(["run", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1

    @settings(max_examples=150, deadline=None)
    @given(CONFIG_ENTRIES)
    def test_any_config_exits_0_1_or_2(self, entries):
        # a coarse one-level run, so any config that parses solves quickly
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "any.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_config_text(entries) + (
                    "\npreset = example1_cost\ncell_size = 0.5\nmax_levels = 1\n"
                    f"output_dir = {os.path.join(tmp, 'out')}\n"
                ))
            assert cli_main(["run", path]) in (0, 1, 2)

    def test_aligned_goal_boxes_accepted(self):
        _, goals, mesh = instantiate(preset_config("example3", cell_size=0.125))
        assert len(goals) == 5 and mesh.ncells > 0

    def test_zero_max_levels_preset_exit_2(self, capsys):
        assert cli_main(["preset", "example1_cost", "--max-levels", "0"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_compare_stopping_cli(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "preset = example1_cost\nmax_levels = 2\n"
            f"output_dir = {tmp_path / 'cmp'}\n"
        )
        assert cli_main(["compare-stopping", str(cfgfile)]) == 0
        assert (tmp_path / "cmp" / "comparison.csv").exists()
        assert (tmp_path / "cmp" / "adaptive" / "levels.csv").exists()
        assert (tmp_path / "cmp" / "standard" / "levels.csv").exists()

    def test_sweep_alpha_cli(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "preset = example1_cost\nmax_levels = 2\n"
            f"output_dir = {tmp_path / 'sweep'}\n"
        )
        assert cli_main(["sweep-alpha", str(cfgfile), "--alphas", "0.01,0.1"]) == 0
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert (tmp_path / "sweep" / "alpha_0.01" / "levels.csv").exists()
        assert (tmp_path / "sweep" / "alpha_0.1" / "levels.csv").exists()

    def test_bad_alphas_exit_2(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("preset = example1_cost\n")
        assert cli_main(["sweep-alpha", str(cfgfile), "--alphas", "zero"]) == 2

    @pytest.mark.parametrize("alphas", ["0.1,0.10", "1e-7,1.0000001e-7", "1,2,1"])
    def test_duplicate_alphas_exit_2(self, tmp_path, capsys, alphas):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(f"preset = example1_cost\noutput_dir = {tmp_path / 'sweep'}\n")
        assert cli_main(["sweep-alpha", str(cfgfile), "--alphas", alphas]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "more than once" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("alphas", ["1,-1", "1,0", "1,nan"])
    def test_bad_alpha_value_exit_2_before_any_run(self, tmp_path, capsys, alphas):
        cfgfile = tmp_path / "s.cfg"
        out = tmp_path / "sweep"
        cfgfile.write_text(f"preset = example1_cost\nmax_levels = 1\noutput_dir = {out}\n")
        assert cli_main(["sweep-alpha", str(cfgfile), "--alphas", alphas]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "alpha" in err
        assert not list(tmp_path.glob("sweep/alpha_*"))

    def test_help_exits_cleanly(self):
        assert cli_main(["--help"]) == 0

    def test_python_m_dwropt_help(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-m", "dwropt", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "sweep-alpha" in done.stdout


class TestSelfReference:
    def test_recomputed_reference_close_to_exact(self):
        from dwropt.driver import self_reference_values

        cfg = preset_config("example1_cost", max_levels=3)
        vals = self_reference_values(cfg, extra_refinements=1)
        exact = (25 * np.pi**4 + 100) / 8
        assert abs(vals["cost"] - exact) / exact <= 1e-4


class TestPartialFlush:
    def test_failed_run_flushes_completed_levels(self, tmp_path, monkeypatch):
        import dwropt.driver as drv
        from dwropt.errors import DwroptError

        real = drv._solve_level
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise DwroptError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(drv, "_solve_level", flaky)
        cfgfile = tmp_path / "f.cfg"
        cfgfile.write_text(
            "preset = example1_cost\nmax_levels = 4\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert cli_main(["run", str(cfgfile)]) == 1
        csv = (tmp_path / "out" / "levels.csv").read_text()
        assert len(csv.strip().splitlines()) == 2  # header + level 0

    def test_failed_run_of_comparison_flushes_to_its_subdirectory(
            self, tmp_path, monkeypatch, capsys):
        import dwropt.driver as drv
        from dwropt.errors import DwroptError

        real = drv._solve_level
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            # calls 1-2: the standard run; 3-4: the adaptive one
            calls["n"] += 1
            if calls["n"] == 4:
                raise DwroptError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(drv, "_solve_level", flaky)
        out = tmp_path / "out"
        cfgfile = tmp_path / "f.cfg"
        cfgfile.write_text(
            f"preset = example1_cost\nmax_levels = 2\noutput_dir = {out}\n"
        )
        assert cli_main(["compare-stopping", str(cfgfile)]) == 1
        csv = (out / "adaptive" / "levels.csv").read_text()
        assert len(csv.strip().splitlines()) == 2  # header + level 0
        assert not (out / "levels.csv").exists()
        assert str(out / "adaptive") in capsys.readouterr().err


class TestWarmStartInvariance:
    def test_final_control_start_independent(self):
        # second-level solve from scratch vs transferred warm start
        from dwropt.driver import instantiate
        from dwropt.fem import build_space, integrate, transfer, zero_function
        from dwropt.mesh import refine, CellSet
        from dwropt.reduced import SpacePair, newton_standard

        cfg = preset_config("example1_cost")
        problem, goals, mesh = instantiate(cfg)
        pair0 = SpacePair(build_space(mesh, "cg", 1), build_space(mesh, "dg", 1))
        t0, _ = newton_standard(problem, pair0, zero_function(pair0.control),
                                tol_abs=1e-10)
        mesh1 = refine(mesh, CellSet(frozenset(range(mesh.ncells)), mesh.generation))
        pair1 = SpacePair(build_space(mesh1, "cg", 1), build_space(mesh1, "dg", 1))
        cold, _ = newton_standard(problem, pair1, zero_function(pair1.control),
                                  tol_abs=1e-10)
        warm, _ = newton_standard(problem, pair1, transfer(t0.q, pair1.control),
                                  tol_abs=1e-10)
        diff = integrate(
            lambda ctx: (ctx.val("a") - ctx.val("b")) ** 2,
            mesh1,
            coeffs={"a": cold.q, "b": warm.q},
        )
        assert np.sqrt(diff) <= 1e-9

    def test_plaplace_state_warm_start(self, factorizations):
        # second level from the transferred control, with and without the
        # transferred state as the first state solve's start
        from dwropt.driver import instantiate
        from dwropt.fem import build_space, integrate, interpolate, transfer
        from dwropt.mesh import refine, CellSet
        from dwropt.reduced import SpacePair, make_consistent, newton_standard

        cfg = preset_config("example2_uq")
        problem, goals, mesh = instantiate(cfg)
        pair0 = SpacePair(build_space(mesh, "cg", 1), build_space(mesh, "dg", 0))
        t0, _ = newton_standard(problem, pair0, interpolate(pair0.control, problem.q_des),
                                tol_abs=1e-10)
        mesh1 = refine(mesh, CellSet(frozenset(range(mesh.ncells)), mesh.generation))
        pair1 = SpacePair(build_space(mesh1, "cg", 1), build_space(mesh1, "dg", 0))
        q1 = transfer(t0.q, pair1.control)
        u1 = transfer(t0.u, pair1.state)
        factorizations[0] = 0
        # chord steps can tie; the Jacobian factorizations are what it saves
        make_consistent(problem, q1, pair1)
        cold_factors = factorizations[0]
        make_consistent(problem, q1, pair1, warm_u=u1)
        assert factorizations[0] - cold_factors < cold_factors
        cold, _ = newton_standard(problem, pair1, q1, tol_abs=1e-10)
        warm, _ = newton_standard(problem, pair1, q1, tol_abs=1e-10, warm_u=u1)
        diff = integrate(
            lambda ctx: (ctx.val("a") - ctx.val("b")) ** 2,
            mesh1,
            coeffs={"a": cold.q, "b": warm.q},
        )
        assert np.sqrt(diff) <= 1e-9


class TestTracerTargets:
    def test_targets_resolve_to_distinct_objects(self):
        # the benchmark tracer charges a span to each target; an alias of
        # another target would be wrapped twice
        import importlib
        import importlib.util
        from functools import reduce

        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        objs = [reduce(getattr, attr.split("."), importlib.import_module(f"dwropt.{module}"))
                for module, attr in tracer.TARGETS]
        assert all(callable(o) for o in objs)
        assert len({id(o) for o in objs}) == len(tracer.TARGETS) == 30
