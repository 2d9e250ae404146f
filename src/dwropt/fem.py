"""Finite element spaces and assembly over quadtree meshes.

Continuous tensor-product Lagrange elements (Q^r) serve the state-like
variables, discontinuous ones the controls.  Hanging and Dirichlet DOFs
are expressed as affine combinations of master DOFs and eliminated during
assembly, so solved systems only ever see the unconstrained unknowns.

Weak forms are supplied as small "field" callables that receive a
:class:`FormContext` and return pointwise coefficient arrays:

    matrix forms  ->  (K, c)   with  a(trial, test) = grad(test)·K·grad(trial) + c·test·trial
    vector forms  ->  (g, h)   with  F(test)        = g·test + h·grad(test)
    scalar forms  ->  field    with  value          = integral of field

Any entry may be None to drop that term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .errors import (
    AssemblyError,
    DegreeError,
    DwroptError,
    RegionError,
    SingularSystemError,
    UnrelatedMeshError,
)
from .mesh import LBITS, TAG_NONE

_CHUNK_POINTS = 1_000_000  # cells-per-chunk chosen so ncells*nq stays near this

# Gauss points per direction beyond degree + 1
QUAD_EXTRA = 1


# ---------------------------------------------------------------------------
# reference element: equispaced Lagrange basis and Gauss quadrature


def gauss_rule(n1d):
    """Tensor Gauss-Legendre rule on the unit cell: (pts (nq,2), w (nq,))."""
    x, w = np.polynomial.legendre.leggauss(n1d)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(x, x, indexing="xy")
    WX, WY = np.meshgrid(w, w, indexing="xy")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, (WX * WY).ravel()


def lagrange_1d(degree, t):
    """Values and derivatives of the equispaced Lagrange basis at t.

    Returns (val, der) with shape (len(t), degree+1).
    """
    t = np.asarray(t, dtype=np.float64)
    nodes = np.arange(degree + 1) / max(degree, 1)
    val = np.ones((t.size, degree + 1))
    der = np.zeros((t.size, degree + 1))
    for k in range(degree + 1):
        for m in range(degree + 1):
            if m == k:
                continue
            dm = nodes[k] - nodes[m]
            der[:, k] = (der[:, k] * (t - nodes[m]) + val[:, k]) / dm
            val[:, k] = val[:, k] * (t - nodes[m]) / dm
    return val, der


def tabulate(degree, pts):
    """Tensor basis values/gradients at reference points.

    Local ordering runs x fastest: index = b*(degree+1) + a for node (a, b).
    Returns (phi (npts, nloc), gphi (npts, nloc, 2)).
    """
    vx, dx = lagrange_1d(degree, pts[:, 0])
    vy, dy = lagrange_1d(degree, pts[:, 1])
    n1 = degree + 1
    npts = pts.shape[0]
    phi = np.empty((npts, n1 * n1))
    gphi = np.empty((npts, n1 * n1, 2))
    for b in range(n1):
        for a in range(n1):
            j = b * n1 + a
            phi[:, j] = vx[:, a] * vy[:, b]
            gphi[:, j, 0] = dx[:, a] * vy[:, b]
            gphi[:, j, 1] = vx[:, a] * dy[:, b]
    return phi, gphi


_TAB_CACHE = {}


def _tabulated(degree, n1d):
    key = (degree, n1d)
    if key not in _TAB_CACHE:
        pts, w = gauss_rule(n1d)
        phi, gphi = tabulate(degree, pts)
        _TAB_CACHE[key] = (pts, w, phi, gphi)
    return _TAB_CACHE[key]


# face -> (corner_start, corner_end) in local corner numbering, oriented by
# ascending coordinate along the face
_FACE_CORNERS = {0: (0, 1), 1: (1, 3), 2: (2, 3), 3: (0, 2)}


# ---------------------------------------------------------------------------
# spaces


class Space:
    """A scalar finite element space over one mesh generation."""

    def __init__(self, mesh, family, degree, constrain_dirichlet=True):
        if family not in ("cg", "dg"):
            raise DwroptError(f"unknown family {family!r}")
        if degree not in (1, 2, 3) and not (family == "dg" and degree == 0):
            raise DegreeError(
                f"degree {degree} not supported (1-3, or 0 for dg spaces)"
            )
        self.mesh = mesh
        self.family = family
        self.degree = degree
        self.constrain_dirichlet = constrain_dirichlet
        self._cache = {}
        nloc = (degree + 1) ** 2
        self.nloc = nloc

        if family == "dg":
            self.ndofs = mesh.ncells * nloc
            self.cell_dofs = np.arange(self.ndofs, dtype=np.int64).reshape(
                mesh.ncells, nloc
            )
            self.constraints = {}
        else:
            self.cell_dofs, keys = self._number_cg_nodes()
            self.ndofs = len(keys)
            self.constraints = self._build_constraints(keys)

        self._finalize_constraints()
        self.node_xy = self._node_coordinates()

    # -- construction ---------------------------------------------------

    def _node_keys_of_cell(self, ci):
        r = self.degree
        mesh = self.mesh
        s = 1 << (LBITS - int(mesh.level[ci]))
        x0 = int(mesh.ix[ci]) * r
        y0 = int(mesh.iy[ci]) * r
        return [(x0 + a * s, y0 + b * s) for b in range(r + 1) for a in range(r + 1)]

    def _number_cg_nodes(self):
        mesh = self.mesh
        allkeys = set()
        for ci in range(mesh.ncells):
            allkeys.update(self._node_keys_of_cell(ci))
        keys = sorted(allkeys, key=lambda k: (k[1], k[0]))
        kid = {k: i for i, k in enumerate(keys)}
        cell_dofs = np.empty((mesh.ncells, self.nloc), dtype=np.int64)
        for ci in range(mesh.ncells):
            for j, k in enumerate(self._node_keys_of_cell(ci)):
                cell_dofs[ci, j] = kid[k]
        self._key_to_dof = kid
        return cell_dofs, keys

    def _face_node_keys(self, ci, face, step_div=1):
        """Keys of the nodes on one face, ordered by ascending coordinate.

        step_div=2 yields the refined-side node lattice (twice as dense).
        """
        r = self.degree
        mesh = self.mesh
        s = 1 << (LBITS - int(mesh.level[ci]))
        x0 = int(mesh.ix[ci]) * r
        y0 = int(mesh.iy[ci]) * r
        c0, _ = _FACE_CORNERS[face]
        sx = x0 + (s * r if c0 in (1, 3) else 0)
        sy = y0 + (s * r if c0 in (2, 3) else 0)
        dx, dy = ((s, 0) if face in (0, 2) else (0, s))
        step = s // step_div
        n = r * step_div
        ux, uy = (1, 0) if face in (0, 2) else (0, 1)
        return [(sx + ux * m * step, sy + uy * m * step) for m in range(n + 1)]

    def _build_constraints(self, keys):
        r = self.degree
        mesh = self.mesh
        kid = self._key_to_dof
        raw = {}

        # hanging nodes: for every face split by finer neighbors, the odd
        # fine-lattice nodes interpolate the coarse edge trace
        tpts = np.arange(1, 2 * r, 2) / (2.0 * r)
        wts, _ = lagrange_1d(r, tpts)
        for ci in range(mesh.ncells):
            for face in range(4):
                kind, _ = mesh.across(ci, face)
                if kind != "finer":
                    continue
                masters = [kid[k] for k in self._face_node_keys(ci, face)]
                fine = self._face_node_keys(ci, face, step_div=2)
                for row, m in enumerate(range(1, 2 * r, 2)):
                    slave = kid.get(fine[m])
                    if slave is None:
                        raise AssemblyError(
                            f"hanging node {fine[m]} missing on face {face} of cell {ci}"
                        )
                    raw[slave] = tuple(
                        (md, float(wts[row, k])) for k, md in enumerate(masters)
                    )

        if self.constrain_dirichlet:
            for ci in range(mesh.ncells):
                for face in range(4):
                    if mesh.btags[ci, face] == TAG_NONE:
                        continue
                    for k in self._face_node_keys(ci, face):
                        raw[kid[k]] = ()

        # resolve chains: hanging masters may themselves be constrained
        resolved = {}

        def resolve(dof, depth=0):
            if depth > LBITS + 2:
                raise AssemblyError("constraint chain too deep")
            if dof in resolved:
                return resolved[dof]
            entry = raw[dof]
            out = {}
            for md, w in entry:
                if md in raw:
                    for md2, w2 in resolve(md, depth + 1):
                        out[md2] = out.get(md2, 0.0) + w * w2
                else:
                    out[md] = out.get(md, 0.0) + w
            flat = tuple(sorted(out.items()))
            resolved[dof] = flat
            return flat

        return {d: resolve(d) for d in raw}

    def _finalize_constraints(self):
        n = self.ndofs
        constrained = self.constraints
        self.free_dofs = np.array(
            [d for d in range(n) if d not in constrained], dtype=np.int64
        )
        self.nfree = len(self.free_dofs)
        col_of = np.full(n, -1, dtype=np.int64)
        col_of[self.free_dofs] = np.arange(self.nfree)
        self._col_of = col_of
        rows, cols, data = [], [], []
        for d in range(n):
            if d in constrained:
                for md, w in constrained[d]:
                    rows.append(d)
                    cols.append(col_of[md])
                    data.append(w)
            else:
                rows.append(d)
                cols.append(col_of[d])
                data.append(1.0)
        self.C = sp.csr_matrix(
            (data, (rows, cols)), shape=(n, self.nfree)
        )

    def _node_coordinates(self):
        mesh = self.mesh
        out = np.empty((self.ndofs, 2))
        r = self.degree
        origin = mesh.cell_origin()
        h = mesh.cell_h()
        for ci in range(mesh.ncells):
            for b in range(r + 1):
                for a in range(r + 1):
                    j = b * (r + 1) + a
                    d = self.cell_dofs[ci, j]
                    # constants carry their node at the cell center
                    fx = a / r if r else 0.5
                    fy = b / r if r else 0.5
                    out[d, 0] = origin[ci, 0] + fx * h[ci]
                    out[d, 1] = origin[ci, 1] + fy * h[ci]
        return out

    # -- constraint application ------------------------------------------

    def distribute(self, coefs):
        """Overwrite constrained entries from their masters (idempotent)."""
        return self.C @ coefs[self.free_dofs]

    def restrict(self, coefs):
        """Free part of a full coefficient vector."""
        return coefs[self.free_dofs]

    def from_free(self, xfree):
        """Full coefficient vector from unconstrained values."""
        return self.C @ xfree

    def signature(self):
        return f"{self.family} {self.degree} {self.ndofs} {self.mesh.ncells}"


def build_space(mesh, family, degree, constrain_dirichlet=True):
    return Space(mesh, family, degree, constrain_dirichlet=constrain_dirichlet)


@dataclass
class DiscreteFunction:
    """Coefficient vector over a space, one real per DOF."""

    space: Space
    coefs: np.ndarray

    def copy(self):
        return DiscreteFunction(self.space, self.coefs.copy())

    def norm_max(self):
        return float(np.max(np.abs(self.coefs))) if self.coefs.size else 0.0


def zero_function(space):
    return DiscreteFunction(space, np.zeros(space.ndofs))


def function_from_free(space, xfree):
    return DiscreteFunction(space, space.from_free(np.asarray(xfree, dtype=np.float64)))


def interpolate(space, fn):
    """Nodal interpolation of a callable fn(x, y) (vectorized)."""
    xy = space.node_xy
    vals = np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=np.float64)
    vals = np.broadcast_to(vals, (space.ndofs,)).copy()
    return DiscreteFunction(space, space.distribute(vals))


# ---------------------------------------------------------------------------
# regions


def region_cell_mask(mesh, region):
    """Boolean mask of active cells inside an axis-aligned box.

    The box must align with cell boundaries: a cell straddling a box edge
    raises RegionError.  region = (x0, y0, x1, y1); infinities allowed.
    """
    if region is None:
        return None
    x0, y0, x1, y1 = region
    org = mesh.cell_origin()
    h = mesh.cell_h()
    eps = 1e-9 * mesh.cell_size
    cx0, cy0 = org[:, 0], org[:, 1]
    cx1, cy1 = cx0 + h, cy0 + h
    inside = (cx0 >= x0 - eps) & (cx1 <= x1 + eps) & (cy0 >= y0 - eps) & (cy1 <= y1 + eps)
    outside = (cx1 <= x0 + eps) | (cx0 >= x1 - eps) | (cy1 <= y0 + eps) | (cy0 >= y1 - eps)
    bad = ~(inside | outside)
    if np.any(bad):
        ci = int(np.nonzero(bad)[0][0])
        raise RegionError(
            f"cell {ci} straddles the region box {region}; align the box with mesh lines"
        )
    return inside


# ---------------------------------------------------------------------------
# assembly


class FormContext:
    """Per-chunk quadrature data handed to form callables."""

    def __init__(self, mesh, cells, qpts, functions, n1d=None):
        self.mesh = mesh
        self.cells = cells
        self.qpts = qpts
        self.functions = functions or {}
        self._n1d = n1d
        h = mesh.cell_h()[cells]
        org = mesh.cell_origin()[cells]
        self.h = h
        self.inv_h = 1.0 / h
        nq = qpts.shape[0]
        self.x = np.empty((len(cells), nq, 2))
        self.x[:, :, 0] = org[:, 0:1] + qpts[None, :, 0] * h[:, None]
        self.x[:, :, 1] = org[:, 1:2] + qpts[None, :, 1] * h[:, None]
        self._vals = {}
        self._grads = {}

    def val(self, name):
        if name not in self._vals:
            f = self.functions[name]
            _, _, phi, _ = _tabulated(f.space.degree, self._n1d)
            self._vals[name] = kernels.eval_values(
                f.space.cell_dofs[self.cells], f.coefs, phi
            )
        return self._vals[name]

    def grad(self, name):
        if name not in self._grads:
            f = self.functions[name]
            _, _, _, gphi = _tabulated(f.space.degree, self._n1d)
            self._grads[name] = kernels.eval_gradients(
                f.space.cell_dofs[self.cells], f.coefs, gphi, self.inv_h
            )
        return self._grads[name]

    def function(self, name):
        return self.functions[name]

    def zeros(self):
        return np.zeros(self.x.shape[:2])


def _quad_order(spaces, functions, nquad):
    if nquad is not None:
        return nquad
    degs = [s.degree for s in spaces if s is not None]
    for f in (functions or {}).values():
        degs.append(f.space.degree)
    return max(max(degs, default=1), 1) + 1 + QUAD_EXTRA


def _check_finite(arr, cells, what):
    if arr is None:
        return
    bad = ~np.isfinite(arr)
    if np.any(bad):
        flat = np.nonzero(bad.reshape(arr.shape[0], -1).any(axis=1))[0]
        raise AssemblyError(
            f"non-finite {what} at quadrature point of cell {int(cells[flat[0]])}"
        )


def _chunks(cell_idx, nq):
    step = max(1, _CHUNK_POINTS // max(nq, 1))
    for start in range(0, len(cell_idx), step):
        yield cell_idx[start : start + step]


def _selected_cells(mesh, region):
    mask = region_cell_mask(mesh, region)
    if mask is None:
        return np.arange(mesh.ncells)
    return np.nonzero(mask)[0]


def assemble_matrix(form, test, trial, coeffs=None, nquad=None, region=None):
    """Assemble a bilinear form into a condensed sparse matrix.

    Returns a csr matrix of shape (test.nfree, trial.nfree); constrained
    rows/columns are eliminated through the spaces' constraint maps.
    """
    mesh = test.mesh
    if trial.mesh is not mesh:
        raise AssemblyError("test and trial spaces live on different meshes")
    n1d = _quad_order((test, trial), coeffs, nquad)
    _, w, phi_t, gphi_t = _tabulated(test.degree, n1d)
    qpts, _, phi_r, gphi_r = _tabulated(trial.degree, n1d)
    cells_all = _selected_cells(mesh, region)
    h_all = mesh.cell_h()

    rows, cols, data = [], [], []
    for cells in _chunks(cells_all, len(w)):
        ctx = FormContext(mesh, cells, qpts, coeffs, n1d)
        K, cf = form(ctx)
        _check_finite(K, cells, "matrix coefficient")
        _check_finite(cf, cells, "matrix coefficient")
        wdet = w[None, :] * (h_all[cells] ** 2)[:, None]
        loc = kernels.local_matrix(wdet, phi_t, gphi_t, phi_r, gphi_r, ctx.inv_h, K, cf)
        dt = test.cell_dofs[cells]
        dr = trial.cell_dofs[cells]
        nt, nr = loc.shape[1], loc.shape[2]
        rows.append(np.repeat(dt, nr, axis=1).ravel())
        cols.append(np.tile(dr, (1, nt)).ravel())
        data.append(loc.ravel())
    if rows:
        A = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(test.ndofs, trial.ndofs),
        ).tocsr()
    else:
        A = sp.csr_matrix((test.ndofs, trial.ndofs))
    return (test.C.T @ A @ trial.C).tocsr()


def assemble_vector(form, test, coeffs=None, nquad=None, region=None):
    """Assemble a linear functional into a condensed vector (test.nfree,)."""
    mesh = test.mesh
    n1d = _quad_order((test,), coeffs, nquad)
    qpts, w, phi_t, gphi_t = _tabulated(test.degree, n1d)
    cells_all = _selected_cells(mesh, region)
    h_all = mesh.cell_h()
    out = np.zeros(test.ndofs)
    for cells in _chunks(cells_all, len(w)):
        ctx = FormContext(mesh, cells, qpts, coeffs, n1d)
        gf, hf = form(ctx)
        _check_finite(gf, cells, "functional coefficient")
        _check_finite(hf, cells, "functional coefficient")
        if gf is None and hf is None:
            continue
        wdet = w[None, :] * (h_all[cells] ** 2)[:, None]
        loc = kernels.local_vector(wdet, phi_t, gphi_t, ctx.inv_h, gf, hf)
        np.add.at(out, test.cell_dofs[cells].ravel(), loc.ravel())
    return test.C.T @ out


def integrate(form, mesh, coeffs=None, nquad=None, region=None, per_cell=False):
    """Integrate a pointwise scalar field over the mesh (or a region box).

    form(ctx) must return an (ncells, nq) array.  A region that selects no
    cells integrates to zero with a warning.
    """
    n1d = _quad_order((), coeffs, nquad)
    qpts, w, _, _ = _tabulated(1, n1d)
    cells_all = _selected_cells(mesh, region)
    if len(cells_all) == 0:
        warnings.warn("integration region selects no cells; returning 0")
        return (0.0, np.zeros(mesh.ncells)) if per_cell else 0.0
    h_all = mesh.cell_h()
    total = 0.0
    cellvals = np.zeros(mesh.ncells) if per_cell else None
    for cells in _chunks(cells_all, len(w)):
        ctx = FormContext(mesh, cells, qpts, coeffs, n1d)
        field = form(ctx)
        _check_finite(field, cells, "integrand")
        wdet = w[None, :] * (h_all[cells] ** 2)[:, None]
        vals = kernels.cell_integrals(wdet, field)
        total += float(vals.sum())
        if per_cell:
            cellvals[cells] = vals
    return (total, cellvals) if per_cell else total


# common elementary forms


def mass_fields(ctx):
    return None, np.ones(ctx.x.shape[:2])


def stiffness_fields(ctx):
    nc, nq = ctx.x.shape[:2]
    K = np.zeros((nc, nq, 2, 2))
    K[:, :, 0, 0] = 1.0
    K[:, :, 1, 1] = 1.0
    return K, None


# ---------------------------------------------------------------------------
# linear algebra


@dataclass
class SparseSystem:
    """Condensed sparse operator with a right-hand side."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


class Factorization:
    """Direct sparse LU factorization, reusable for transposed solves."""

    def __init__(self, matrix):
        m = matrix.tocsc()
        try:
            self._lu = spla.splu(m)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        self.shape = m.shape

    def solve(self, b):
        x = self._lu.solve(np.asarray(b, dtype=np.float64))
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("factorization produced non-finite solution")
        return x

    def solve_transposed(self, b):
        x = self._lu.solve(np.asarray(b, dtype=np.float64), trans="T")
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("factorization produced non-finite solution")
        return x


def solve_linear(system):
    """Direct solve of a condensed system; returns the free-DOF vector."""
    return Factorization(system.matrix).solve(system.rhs)


# ---------------------------------------------------------------------------
# transfer between spaces


def _ancestor_map(src_mesh, tgt_mesh):
    """Active source cell index containing each target cell."""
    anc = np.empty(tgt_mesh.ncells, dtype=np.int64)
    for ci in range(tgt_mesh.ncells):
        l = int(tgt_mesh.level[ci])
        x = int(tgt_mesh.ix[ci])
        y = int(tgt_mesh.iy[ci])
        while True:
            j = src_mesh._active.get((l, x, y))
            if j is not None:
                anc[ci] = j
                break
            if l == 0:
                raise UnrelatedMeshError(
                    "target mesh is not a refinement of the source mesh"
                )
            l -= 1
            m = 1 << (LBITS - l)
            x -= x % m
            y -= y % m
    return anc


def transfer(f, target):
    """Nodal interpolation of f into the target space.

    Exact (to rounding) whenever the target space contains the source
    space: same mesh with equal/raised degree, or any refinement.
    """
    src = f.space
    anc = _ancestor_map(src.mesh, target.mesh)

    tgt_xy = target.node_xy[target.cell_dofs]  # (nc, nloc_t, 2)
    s_org = src.mesh.cell_origin()[anc]
    s_h = src.mesh.cell_h()[anc]
    ref = (tgt_xy - s_org[:, None, :]) / s_h[:, None, None]

    nct, nloct, _ = ref.shape
    vx, _ = lagrange_1d(src.degree, ref[:, :, 0].ravel())
    vy, _ = lagrange_1d(src.degree, ref[:, :, 1].ravel())
    n1 = src.degree + 1
    basis = (vy[:, :, None] * vx[:, None, :]).reshape(nct, nloct, n1 * n1)

    src_loc = f.coefs[src.cell_dofs[anc]]  # (nc, nloc_s)
    vals = np.einsum("cjk,ck->cj", basis, src_loc, optimize=True)

    out = np.zeros(target.ndofs)
    out[target.cell_dofs.ravel()] = vals.ravel()
    return DiscreteFunction(target, target.distribute(out))


def evaluate_at(f, points):
    """Point evaluation of a DiscreteFunction (diagnostics; not hot)."""
    mesh = f.space.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ox, oy = mesh.domain.origin
    out = np.empty(len(pts))
    max_level = int(mesh.level.max())
    for i, (px, py) in enumerate(pts):
        gx = (px - ox) / mesh.unit
        gy = (py - oy) / mesh.unit
        found = None
        for lvl in range(max_level + 1):
            s = 1 << (LBITS - lvl)
            key = (lvl, int(gx // s) * s, int(gy // s) * s)
            ci = mesh._active.get(key)
            if ci is not None:
                found = ci
                break
        if found is None:
            raise DwroptError(f"point {(px, py)} lies in no active cell")
        h = mesh.cell_size * 0.5 ** int(mesh.level[found])
        rx = (px - (ox + mesh.ix[found] * mesh.unit)) / h
        ry = (py - (oy + mesh.iy[found] * mesh.unit)) / h
        phi, _ = tabulate(f.space.degree, np.array([[rx, ry]]))
        out[i] = phi[0] @ f.coefs[f.space.cell_dofs[found]]
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# text dump format: "dwrfun v1"


def dump_function(f):
    lines = ["dwrfun v1", f.space.signature()]
    lines.extend(f"{float(c)!r}" for c in f.coefs)
    return "\n".join(lines) + "\n"


def load_function(text, space):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "dwrfun v1":
        raise DwroptError("not a dwrfun v1 dump")
    if lines[1].strip() != space.signature():
        raise DwroptError(
            f"space signature mismatch: dump has {lines[1].strip()!r}, "
            f"expected {space.signature()!r}"
        )
    coefs = np.array([float(x) for x in lines[2:] if x.strip()])
    if len(coefs) != space.ndofs:
        raise DwroptError("coefficient count does not match the space")
    return DiscreteFunction(space, coefs)
