import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwropt.errors import DwroptError, SizingError
from dwropt.fem import build_space
from dwropt.mesh import (
    LBITS,
    CellSet,
    HOLED_RECT,
    UNIT_SQUARE,
    build_initial,
    dorfler_mark,
    refine,
    refine_all,
)


def mark(mesh, ids):
    return CellSet(frozenset(ids), mesh.generation)


def total_area(mesh):
    """Sum of the active cells' areas."""
    h = mesh.cell_h()
    return float(np.sum(h * h))


def adjacency_level_gaps(mesh):
    """Oracle: exhaustive pairwise edge-adjacency scan over active cells.

    Also checks the closure left no untagged face without an active neighbor.
    """
    org = mesh.cell_origin()
    h = mesh.cell_h()
    gaps = []
    n = mesh.ncells
    touched = np.zeros((n, 4), dtype=bool)
    for a in range(n):
        ax0, ay0 = org[a]
        ax1, ay1 = ax0 + h[a], ay0 + h[a]
        for b in range(a + 1, n):
            bx0, by0 = org[b]
            bx1, by1 = bx0 + h[b], by0 + h[b]
            overlap_y = min(ay1, by1) - max(ay0, by0) > 1e-12
            overlap_x = min(ax1, bx1) - max(ax0, bx0) > 1e-12
            # (face of a, face of b) for each way the two can share an edge
            for touch, fa, fb in (
                (overlap_y and abs(ax1 - bx0) < 1e-12, 1, 3),
                (overlap_y and abs(bx1 - ax0) < 1e-12, 3, 1),
                (overlap_x and abs(ay1 - by0) < 1e-12, 2, 0),
                (overlap_x and abs(by1 - ay0) < 1e-12, 0, 2),
            ):
                if touch:
                    touched[a, fa] = touched[b, fb] = True
                    gaps.append(abs(int(mesh.level[a]) - int(mesh.level[b])))
    open_faces = np.argwhere((mesh.btags == 0) & ~touched)
    assert len(open_faces) == 0, f"untagged open faces (cell, face): {open_faces.tolist()}"
    return max(gaps) if gaps else 0


class TestBuildInitial:
    def test_unit_square_half(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        assert m.ncells == 4
        assert build_space(m, "cg", 1).ndofs == 9

    def test_holed_domain_count(self):
        # oracle: enumerate the 14x10 grid and drop cells inside the holes
        n = 0
        for i in range(14):
            for j in range(10):
                cx, cy = (i + 0.5) * 0.5, (j + 0.5) * 0.5
                if any(x0 < cx < x1 and y0 < cy < y1 for x0, y0, x1, y1 in HOLED_RECT.holes):
                    continue
                n += 1
        assert n == 116
        m = build_initial(HOLED_RECT, 0.5)
        assert m.ncells == 116

    def test_bad_cell_size(self):
        with pytest.raises(SizingError):
            build_initial(UNIT_SQUARE, 0.3)

    def test_area(self):
        m = build_initial(HOLED_RECT, 0.5)
        assert total_area(m) == pytest.approx(29.0, rel=1e-12)

    def test_boundary_tags_cover_outer_and_holes(self):
        m = build_initial(HOLED_RECT, 0.5)
        # total tagged face length: outer perimeter 24 plus 6 holes x 4
        h = m.cell_h()
        length = sum(
            h[c] for c in range(m.ncells) for f in range(4) if m.btags[c, f] != 0
        )
        assert length == pytest.approx(2 * (7 + 5) + 6 * 4.0, rel=1e-12)


class TestRefine:
    def test_single_mark(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        m2 = refine(m, mark(m, [0]))
        assert m2.ncells == 7

    def test_mark_all(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        m2 = refine_all(m)
        assert m2.ncells == 16

    def test_closure_enforced(self):
        # refine one cell twice, then force a level-2 gap; closure must split
        # the intermediate cell so the exhaustive scan sees gaps <= 1
        m = build_initial(UNIT_SQUARE, 0.5)
        m = refine(m, mark(m, [0]))
        ci = int(np.argmin(m.cell_h()))
        m = refine(m, mark(m, [ci]))
        assert adjacency_level_gaps(m) <= 1
        ci = int(np.argmin([m.cell_h()[c] for c in range(m.ncells)]))
        m = refine(m, mark(m, [ci]))
        assert adjacency_level_gaps(m) <= 1

    def test_area_preserved(self):
        m = build_initial(HOLED_RECT, 0.5)
        rng = np.random.default_rng(7)
        for _ in range(3):
            ids = rng.choice(m.ncells, size=max(1, m.ncells // 10), replace=False)
            m = refine(m, mark(m, ids))
            assert total_area(m) == pytest.approx(29.0, rel=1e-12)
            assert adjacency_level_gaps(m) <= 1

    def test_depth_limit(self):
        # the lattice resolves LBITS halvings of a root cell and no more
        m = build_initial(UNIT_SQUARE, 1.0)
        for _ in range(LBITS):
            m = refine(m, mark(m, [0]))
        assert m.level.max() == LBITS
        assert adjacency_level_gaps(m) <= 1
        assert build_space(m, "cg", 3).nfree > 0
        with pytest.raises(DwroptError):
            refine(m, mark(m, [0]))

    def test_generation_mismatch(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        m2 = refine(m, mark(m, [0]))
        with pytest.raises(DwroptError):
            refine(m2, mark(m, [0]))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=4))
    def test_closure_random_marks(self, seq):
        m = build_initial(UNIT_SQUARE, 1.0)
        for pick in seq:
            m = refine(m, mark(m, [pick % m.ncells]))
        assert adjacency_level_gaps(m) <= 1
        assert total_area(m) == pytest.approx(1.0, rel=1e-12)


class TestDorfler:
    def test_forced_prefix(self):
        got = dorfler_mark([4, 2, 1, 1], 0.5)
        assert set(got.ids) == {0}

    def test_tie_break(self):
        got = dorfler_mark([1, 1, 1, 1], 0.5)
        assert set(got.ids) == {0, 1}

    def test_theta_one(self):
        got = dorfler_mark([3, 3, 2], 1.0)
        assert set(got.ids) == {0, 1, 2}

    def test_all_zero(self):
        assert len(dorfler_mark([0.0, 0.0], 0.5)) == 0

    def test_roundoff_does_not_reorder(self):
        # indicators of symmetric cells agree only up to roundoff
        a, b = 1.0, np.nextafter(1.0, 2.0)
        assert set(dorfler_mark([a, b, 0.5], 0.3).ids) == {0}
        assert set(dorfler_mark([b, a, 0.5], 0.3).ids) == {0}

    @pytest.mark.parametrize("tiny", [1e-12, 5e-324])
    def test_zero_never_before_positive(self, tiny):
        assert set(dorfler_mark([0.0, tiny, tiny], 1.0).ids) == {1, 2}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_threshold_and_minimality(self, eta, theta):
        got = dorfler_mark(eta, theta)
        eta = np.asarray(eta)
        total = eta.sum()
        if total == 0:
            assert len(got) == 0
            return
        picked = sorted(got.ids)
        ssum = eta[picked].sum()
        assert ssum >= theta * total - 1e-9 * total
        # minimality: dropping the smallest marked indicator breaks the bound
        if len(picked) > 1:
            smallest = min(picked, key=lambda i: (eta[i], -i))
            assert ssum - eta[smallest] < theta * total + 1e-9 * total
