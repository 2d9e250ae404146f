import numpy as np
import pytest

from dwropt.driver import _solve_level, instantiate, preset_config


@pytest.fixture(scope="session")
def ex1_level():
    """One solved level of the linear control problem (cost goal)."""
    cfg = preset_config("example1_cost", max_levels=1)
    problem, goals, mesh = instantiate(cfg)
    sol = _solve_level(problem, goals, mesh, cfg, None, cfg.eta0)
    return {"config": cfg, "problem": problem, "goals": goals, "mesh": mesh, **sol}


@pytest.fixture(scope="session")
def ex1_l1_level():
    """One solved level of the linear control problem (L1 goal)."""
    cfg = preset_config("example1_l1", max_levels=1, cell_size=0.25)
    problem, goals, mesh = instantiate(cfg)
    sol = _solve_level(problem, goals, mesh, cfg, None, cfg.eta0)
    return {"config": cfg, "problem": problem, "goals": goals, "mesh": mesh, **sol}
