"""The vectorized mesh refinement and space construction against loop oracles.

The oracles below are the per-cell dictionary and loop implementations the
vectorized code replaced: face neighbors by dictionary lookup, recursive
refinement closure, node numbering by sorted key sets, hanging-node
constraints resolved by recursion, and node coordinates cell by cell.  The
new code must reproduce them bitwise.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dwropt.fem import build_space, lagrange_1d
from dwropt.mesh import (
    LBITS,
    TAG_NONE,
    CellSet,
    HOLED_RECT,
    UNIT_SQUARE,
    build_initial,
    refine,
)

_FACE_CORNERS = {0: (0, 1), 1: (1, 3), 2: (2, 3), 3: (0, 2)}


def active_dict(mesh):
    return {
        (int(l), int(x), int(y)): i
        for i, (l, x, y) in enumerate(zip(mesh.level, mesh.ix, mesh.iy))
    }


def across(mesh, active, ci, face):
    """("none", None), ("same", cj), ("coarser", cj) or ("finer", (cj_lo, cj_hi))."""
    l = int(mesh.level[ci])
    s = 1 << (LBITS - l)
    x, y = int(mesh.ix[ci]), int(mesh.iy[ci])
    nx, ny = [(x, y - s), (x + s, y), (x, y + s), (x - s, y)][face]
    same = active.get((l, nx, ny))
    if same is not None:
        return "same", same
    if l > 0:
        m = s << 1
        cj = active.get((l - 1, nx - (nx % m), ny - (ny % m)))
        if cj is not None:
            return "coarser", cj
    half = s >> 1
    if face in (0, 2):
        fy = ny if face == 2 else y - half
        k1, k2 = (l + 1, x, fy), (l + 1, x + half, fy)
    else:
        fx = nx if face == 1 else x - half
        k1, k2 = (l + 1, fx, y), (l + 1, fx, y + half)
    f1, f2 = active.get(k1), active.get(k2)
    if f1 is not None and f2 is not None:
        return "finer", (f1, f2)
    return "none", None


def refine_oracle(mesh, ids):
    """Recursive closure; returns (level, ix, iy, btags) in (iy, ix, level) order."""
    work = {}
    tags = {}
    for i in range(mesh.ncells):
        key = (int(mesh.level[i]), int(mesh.ix[i]), int(mesh.iy[i]))
        work[key] = True
        tags[key] = tuple(int(t) for t in mesh.btags[i])

    def neighbor_coarser(key, face):
        l, x, y = key
        if l == 0:
            return None
        s = 1 << (LBITS - l)
        nx, ny = [(x, y - s), (x + s, y), (x, y + s), (x - s, y)][face]
        if (l, nx, ny) in work:
            return None
        m = s << 1
        ck = (l - 1, nx - (nx % m), ny - (ny % m))
        return ck if ck in work else None

    def split(key):
        if key not in work:
            return
        for face in range(4):
            if tags[key][face] != TAG_NONE:
                continue
            ck = neighbor_coarser(key, face)
            if ck is not None:
                split(ck)
        l, x, y = key
        half = (1 << (LBITS - l)) >> 1
        del work[key]
        b, r, t, le = tags.pop(key)
        child_tags = (
            (b, TAG_NONE, TAG_NONE, le),
            (b, r, TAG_NONE, TAG_NONE),
            (TAG_NONE, TAG_NONE, t, le),
            (TAG_NONE, r, t, TAG_NONE),
        )
        offs = ((0, 0), (half, 0), (0, half), (half, half))
        for (dx, dy), ct in zip(offs, child_tags):
            ck = (l + 1, x + dx, y + dy)
            work[ck] = True
            tags[ck] = ct

    for key in sorted((int(mesh.level[c]), int(mesh.ix[c]), int(mesh.iy[c])) for c in ids):
        split(key)
    keys = sorted(work, key=lambda k: (k[2], k[1], k[0]))
    level, ix, iy = (np.array([k[i] for k in keys]) for i in range(3))
    return level, ix, iy, np.array([tags[k] for k in keys], dtype=np.int8)


def space_oracle(mesh, family, r, constrain_dirichlet):
    """Returns (cell_dofs, free_dofs, C, node_xy) built cell by cell."""
    nloc = (r + 1) ** 2

    def node_keys(ci):
        s = 1 << (LBITS - int(mesh.level[ci]))
        x0, y0 = int(mesh.ix[ci]) * r, int(mesh.iy[ci]) * r
        return [(x0 + a * s, y0 + b * s) for b in range(r + 1) for a in range(r + 1)]

    def face_keys(ci, face, step_div=1):
        s = 1 << (LBITS - int(mesh.level[ci]))
        x0, y0 = int(mesh.ix[ci]) * r, int(mesh.iy[ci]) * r
        c0, _ = _FACE_CORNERS[face]
        sx = x0 + (s * r if c0 in (1, 3) else 0)
        sy = y0 + (s * r if c0 in (2, 3) else 0)
        step = s // step_div
        ux, uy = (1, 0) if face in (0, 2) else (0, 1)
        return [(sx + ux * m * step, sy + uy * m * step) for m in range(r * step_div + 1)]

    constraints = {}
    if family == "dg":
        n = mesh.ncells * nloc
        cell_dofs = np.arange(n, dtype=np.int64).reshape(mesh.ncells, nloc)
    else:
        keys = sorted({k for ci in range(mesh.ncells) for k in node_keys(ci)},
                      key=lambda k: (k[1], k[0]))
        kid = {k: i for i, k in enumerate(keys)}
        n = len(keys)
        cell_dofs = np.array([[kid[k] for k in node_keys(ci)] for ci in range(mesh.ncells)],
                             dtype=np.int64)
        active = active_dict(mesh)
        raw = {}
        wts, _ = lagrange_1d(r, np.arange(1, 2 * r, 2) / (2.0 * r))
        for ci in range(mesh.ncells):
            for face in range(4):
                if across(mesh, active, ci, face)[0] != "finer":
                    continue
                masters = [kid[k] for k in face_keys(ci, face)]
                fine = face_keys(ci, face, step_div=2)
                for row, m in enumerate(range(1, 2 * r, 2)):
                    raw[kid[fine[m]]] = tuple(
                        (md, float(wts[row, k])) for k, md in enumerate(masters)
                    )
        if constrain_dirichlet:
            for ci in range(mesh.ncells):
                for face in range(4):
                    if mesh.btags[ci, face] != TAG_NONE:
                        for k in face_keys(ci, face):
                            raw[kid[k]] = ()
        resolved = {}

        def resolve(dof, depth=0):
            assert depth <= LBITS + 2, "constraint chain too deep"
            if dof in resolved:
                return resolved[dof]
            out = {}
            for md, w in raw[dof]:
                if md in raw:
                    for md2, w2 in resolve(md, depth + 1):
                        out[md2] = out.get(md2, 0.0) + w * w2
                else:
                    out[md] = out.get(md, 0.0) + w
            resolved[dof] = tuple(sorted(out.items()))
            return resolved[dof]

        constraints = {d: resolve(d) for d in raw}

    free = np.array([d for d in range(n) if d not in constraints], dtype=np.int64)
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[free] = np.arange(len(free))
    rows, cols, data = [], [], []
    for d in range(n):
        entries = constraints.get(d, ((d, 1.0),))
        for md, w in entries:
            rows.append(d)
            cols.append(col_of[md])
            data.append(w)
    C = sp.csr_matrix((data, (rows, cols)), shape=(n, len(free)))

    node_xy = np.empty((n, 2))
    origin = mesh.cell_origin()
    h = mesh.cell_h()
    for ci in range(mesh.ncells):
        for b in range(r + 1):
            for a in range(r + 1):
                d = cell_dofs[ci, b * (r + 1) + a]
                node_xy[d, 0] = origin[ci, 0] + (a / r if r else 0.5) * h[ci]
                node_xy[d, 1] = origin[ci, 1] + (b / r if r else 0.5) * h[ci]
    return cell_dofs, free, C, node_xy


def ancestor_oracle(src, tgt):
    active = active_dict(src)
    anc = []
    for ci in range(tgt.ncells):
        l, x, y = int(tgt.level[ci]), int(tgt.ix[ci]), int(tgt.iy[ci])
        while (l, x, y) not in active:
            l -= 1
            m = 1 << (LBITS - l)
            x, y = x - x % m, y - y % m
        anc.append(active[(l, x, y)])
    return np.array(anc)


def assert_same_space(mesh, family, degree, constrain_dirichlet):
    s = build_space(mesh, family, degree, constrain_dirichlet=constrain_dirichlet)
    cell_dofs, free, C, node_xy = space_oracle(mesh, family, degree, constrain_dirichlet)
    np.testing.assert_array_equal(s.cell_dofs, cell_dofs)
    np.testing.assert_array_equal(s.free_dofs, free)
    np.testing.assert_array_equal(s.C.indptr, C.indptr)
    np.testing.assert_array_equal(s.C.indices, C.indices)
    np.testing.assert_array_equal(s.C.data, C.data)
    assert s.C.shape == C.shape
    np.testing.assert_array_equal(s.node_xy, node_xy)


steps = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 10**6), min_size=1, max_size=4)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(UNIT_SQUARE, 0.5), (HOLED_RECT, 1.0)]), steps)
def test_refine_and_spaces_match_loop_oracles(root, seq):
    mesh = build_initial(*root)
    for finest, picks in seq:
        pool = np.nonzero(mesh.level == mesh.level.max())[0] if finest else np.arange(mesh.ncells)
        ids = sorted({int(pool[p % len(pool)]) for p in picks})
        new = refine(mesh, CellSet(frozenset(ids), mesh.generation))
        for got, want in zip((new.level, new.ix, new.iy, new.btags), refine_oracle(mesh, ids)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(new.locate(new.ix, new.iy), np.arange(new.ncells))
        np.testing.assert_array_equal(mesh.locate(new.ix, new.iy), ancestor_oracle(mesh, new))
        mesh = new
    for degree in (1, 2, 3):
        for constrain_dirichlet in (True, False):
            assert_same_space(mesh, "cg", degree, constrain_dirichlet)
    for degree in (0, 1):
        assert_same_space(mesh, "dg", degree, True)


def test_locate_neighbors_match_across():
    # a two-level mesh with every neighbor kind, probed one cell outside each face
    m = build_initial(UNIT_SQUARE, 0.5)
    m = refine(m, CellSet(frozenset([0]), m.generation))
    m = refine(m, CellSet(frozenset([0]), m.generation))
    active = active_dict(m)
    s = m.lattice_size()
    for ci in range(m.ncells):
        for face, (dx, dy) in enumerate([(0, -1), (1, 0), (0, 1), (-1, 0)]):
            kind, other = across(m, active, ci, face)
            got = int(m.locate(m.ix[ci] + dx * s[ci], m.iy[ci] + dy * s[ci]))
            if kind in ("same", "coarser"):
                assert got == other
            elif kind == "none":
                assert got == -1
            else:
                assert m.level[got] > m.level[ci]
