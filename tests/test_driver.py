import os
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
    parse_config,
    preset_config,
    render_comparison_csv,
    render_csv,
    run_adaptive,
)
from dwropt.errors import ConfigError


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([f.name for f in fields(Config)] + ["bogus"]),
        st.one_of(
            st.text(alphabet="0123456789abcdefinx.+-e_ ", max_size=8),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.integers(-3, 50).map(str),
        ),
    ), max_size=4))
    def test_any_text_parses_or_raises_config_error(self, entries):
        text = "\n".join(f"{k} = {v}" for k, v in entries)
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

    def test_missing_config_exit_2(self):
        assert cli_main(["run", "/nonexistent/path.cfg"]) == 2

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
        "reference_source = file",
        "quad_extra = 1",
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"preset = example1_cost\n{line}\n")
        assert cli_main(["run", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1

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

    def test_help_exits_cleanly(self):
        assert cli_main(["--help"]) == 0


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
