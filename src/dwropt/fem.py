"""Finite element spaces and assembly over quadtree meshes.

Continuous tensor-product Lagrange elements (Q^r) serve the state-like
variables, discontinuous ones the controls.  Hanging and Dirichlet DOFs
are expressed as affine combinations of master DOFs and eliminated during
assembly, so solved systems only ever see the unconstrained unknowns.

Forms with variable coefficients run through one quadrature generator,
:func:`sweep`: it picks the Gauss order and yields one :class:`FormContext`
per chunk of cells, carrying the quadrature points, the weights ``wdet``
and the reference basis of each space.  Every sweep covers the whole
mesh; a form restricted to a box multiplies its fields by
:func:`region_cell_mask` of the context's cells.  The constant operators
need no sweep: :func:`reference_apply` applies a mass, an inverse DG mass
or the Laplacian stiffness cell by cell from one reference element
matrix, and only the stiffness, which is factorized, is built as a matrix
(:func:`reference_matrix`).  Integrals of analytic data against the test
functions of a space are cached on the space (:func:`load_vector`), and
so is the data at the quadrature points of a sweep (``FormContext.data``).
Weak forms are supplied as small "field" callables that receive a
context and return pointwise coefficient arrays:

    matrix forms  ->  (K, c)   with  a(trial, test) = grad(test)·K·grad(trial) + c·test·trial
    vector forms  ->  (g, h)   with  F(test)        = g·test + h·grad(test)
    scalar forms  ->  field    with  value          = integral of field

Any entry may be None to drop that term.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property

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
    SizingError,
    UnrelatedMeshError,
)
from .mesh import TAG_NONE, KeyTable

# Quadrature points per sweep chunk.  A chunk's fields, element matrices and
# data at the points are alive at once, beside the state factors of the
# level; 1e5 points bounds them to a few tens of MB on every mesh and
# measured as fast as one chunk per sweep, while 1e4 was 10-30 % slower.
_CHUNK_POINTS = 100_000
# Cells per chunk are a multiple of this.  BLAS rounds the rows past the
# last full register block of a product with other kernels, so with one
# BLAS thread chunks of whole blocks give every cell the rounding it gets
# in one chunk.
_CHUNK_ALIGN = 64


def _find_malloc_trim():
    """glibc's malloc_trim from the running process, or None where libc has none.

    CDLL(None) opens the symbols already loaded; ctypes.util.find_library
    would start ldconfig or a compiler to locate the library.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # musl or macOS; Windows
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


# Called before every factorization (see Factorization).
_malloc_trim = _find_malloc_trim()

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
            self._build_constraints(None)
        else:
            nodes = KeyTable(*mesh.node_lattice(degree))
            self.cell_dofs = nodes.ids
            self.ndofs = len(nodes.keys)
            self._build_constraints(nodes)

        n1 = degree + 1
        frac = np.arange(n1) / degree if degree else np.array([0.5])
        org = mesh.cell_origin()
        h = mesh.cell_h()[:, None]
        self.node_xy = np.empty((self.ndofs, 2))
        # a node shared by several cells takes its coordinates from the last
        self.node_xy[self.cell_dofs, 0] = org[:, 0:1] + np.tile(frac, n1) * h
        self.node_xy[self.cell_dofs, 1] = org[:, 1:2] + np.repeat(frac, n1) * h

    # -- construction ---------------------------------------------------

    def _build_constraints(self, nodes):
        """Constraint map C (ndofs x nfree) from the CG node table (or None).

        Free DOFs get identity rows, Dirichlet DOFs empty rows, and hanging
        DOFs the weights of the coarse edge trace at their position.
        """
        n, r, mesh = self.ndofs, self.degree, self.mesh
        zero = np.zeros(n, dtype=bool)
        slaves = np.empty(0, dtype=np.int64)
        masters = np.empty((0, r + 1), dtype=np.int64)
        weights = np.empty((0, r + 1))
        if nodes is not None:
            # local nodes on faces 0-3, by ascending coordinate along each
            a = np.arange(r + 1)
            face = np.array([a, a * (r + 1) + r, r * (r + 1) + a, a * (r + 1)])
            if self.constrain_dirichlet:
                c, f = np.nonzero(mesh.btags != TAG_NONE)
                zero[self.cell_dofs[c[:, None], face[f]]] = True

            # a face is split by finer neighbors exactly when its first odd
            # fine-lattice point is a node of the space
            x, y = mesh.node_lattice(r)
            x0, y0 = x[:, face[:, 0]], y[:, face[:, 0]]
            along_x = np.array([1, 0, 1, 0])
            half = (mesh.lattice_size() >> 1)[:, None]
            probe = nodes.find(x0 + along_x * half, y0 + (1 - along_x) * half)
            c, f = np.nonzero((probe >= 0) & (half > 0))
            odd = np.arange(1, 2 * r, 2)
            step = half[c] * odd
            slaves = nodes.find(
                x0[c, f, None] + along_x[f, None] * step,
                y0[c, f, None] + (1 - along_x[f, None]) * step,
            )
            missing = np.nonzero((slaves < 0).any(axis=1))[0]
            if missing.size:
                k = missing[0]
                raise AssemblyError(f"hanging node missing on face {f[k]} of cell {c[k]}")
            wts, _ = lagrange_1d(r, odd / (2.0 * r))
            slaves = slaves.ravel()
            masters = np.repeat(self.cell_dofs[c[:, None], face[f]], r, axis=0)
            weights = np.tile(wts, (len(c), 1))
            live = ~zero[slaves]
            slaves, masters, weights = slaves[live], masters[live], weights[live]

        hanging = np.zeros(n, dtype=bool)
        hanging[slaves] = True
        # in a 1-irregular mesh a hanging node's masters are never hanging
        if np.any(hanging[masters]):
            raise AssemblyError("a hanging node's master is itself hanging")
        self.free_dofs = np.nonzero(~(zero | hanging))[0]
        self.nfree = len(self.free_dofs)
        col_of = np.full(n, -1, dtype=np.int64)
        col_of[self.free_dofs] = np.arange(self.nfree)
        rows = np.concatenate([self.free_dofs, np.repeat(slaves, r + 1)])
        cols = np.concatenate([np.arange(self.nfree), col_of[masters].ravel()])
        data = np.concatenate([np.ones(self.nfree), weights.ravel()])
        keep = cols >= 0  # Dirichlet masters contribute zero
        self.C = sp.csr_matrix(
            (data[keep], (rows[keep], cols[keep])), shape=(n, self.nfree)
        )

    def cached(self, key, build):
        """build() kept on the space under key; built on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def drop_cached(self):
        """Forget what is cached on the space: the matrix scatter map, the
        reference element data and cell map of :func:`reference_apply`,
        the load integrals of analytic data (:func:`load_vector`) and that
        data at the quadrature points (:meth:`FormContext.data`)."""
        self._cache.clear()

    # -- constraint application ------------------------------------------

    def distribute(self, coefs):
        """Overwrite constrained entries from their masters (idempotent)."""
        return self.C @ coefs[self.free_dofs]

    def from_free(self, xfree):
        """Full coefficient vector from unconstrained values."""
        return self.C @ xfree


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


def region_cell_mask(mesh, region, cells=slice(None)):
    """Boolean mask of the active cells (or of cells only) inside an axis-aligned box.

    The box must align with cell boundaries: a cell straddling a box edge
    raises RegionError.  region = (x0, y0, x1, y1); infinities allowed.
    """
    if region is None:
        return None
    x0, y0, x1, y1 = region
    org = mesh.cell_origin(cells)
    h = mesh.cell_h(cells)
    eps = 1e-9 * mesh.cell_size
    cx0, cy0 = org[:, 0], org[:, 1]
    cx1, cy1 = cx0 + h, cy0 + h
    inside = (cx0 >= x0 - eps) & (cx1 <= x1 + eps) & (cy0 >= y0 - eps) & (cy1 <= y1 + eps)
    outside = (cx1 <= x0 + eps) | (cx0 >= x1 - eps) | (cy1 <= y0 + eps) | (cy0 >= y1 - eps)
    bad = ~(inside | outside)
    if np.any(bad):
        ci = int(np.arange(mesh.ncells)[cells][np.argmax(bad)])
        raise RegionError(
            f"cell {ci} straddles the region box {region}; align the box with mesh lines"
        )
    return inside


# ---------------------------------------------------------------------------
# assembly


class FormContext:
    """One chunk of a quadrature sweep, handed to form callables.

    Carries the chunk's cells, the weights wdet (nc, nq) (Gauss weight
    times h^2), inv_h (nc,) and the coefficient functions by name.  The
    physical quadrature points x (nc, nq, 2) are built on first read, so a
    form without analytic data does not pay for them; a form that needs
    only the shape (nc, nq) reads wdet.shape.  val and grad evaluate a
    coefficient at the points, data an analytic function; basis(space) is
    the space's reference (phi, gphi) there.
    """

    def __init__(self, mesh, cells, n1d, functions, owner=None):
        self.mesh = mesh
        self.cells = cells
        self.functions = functions
        self._n1d = n1d
        self._owner = owner
        _, w, _, _ = _tabulated(1, n1d)
        h = mesh.cell_h(cells)
        self.inv_h = 1.0 / h
        self.wdet = w[None, :] * (h**2)[:, None]
        self._vals = {}
        self._grads = {}

    @cached_property
    def x(self):
        qpts = _tabulated(1, self._n1d)[0]
        h = self.mesh.cell_h(self.cells)
        org = self.mesh.cell_origin(self.cells)
        x = np.empty(self.wdet.shape + (2,))
        x[:, :, 0] = org[:, 0:1] + qpts[None, :, 0] * h[:, None]
        x[:, :, 1] = org[:, 1:2] + qpts[None, :, 1] * h[:, None]
        return x

    def basis(self, space):
        return _tabulated(space.degree, self._n1d)[2:]

    def data(self, fn):
        """Analytic data fn(x, y) at the quadrature points, read-only.

        Cached on the sweep's first space (the test space of an assembly)
        per Gauss rule and chunk, as load_vector caches its integrals: a
        form swept again over that space, such as a goal's state
        derivative at every Newton iterate, evaluates fn once.
        """

        def build():
            vals = np.asarray(fn(self.x[..., 0], self.x[..., 1]))
            vals.flags.writeable = False
            return vals

        if self._owner is None:
            return build()
        return self._owner.cached(("at_points", fn, self._n1d, int(self.cells[0])), build)

    def val(self, name):
        if name not in self._vals:
            f = self.functions[name]
            phi, _ = self.basis(f.space)
            self._vals[name] = kernels.eval_values(
                f.space.cell_dofs[self.cells], f.coefs, phi
            )
        return self._vals[name]

    def grad(self, name):
        if name not in self._grads:
            f = self.functions[name]
            _, gphi = self.basis(f.space)
            self._grads[name] = kernels.eval_gradients(
                f.space.cell_dofs[self.cells], f.coefs, gphi, self.inv_h
            )
        return self._grads[name]


def gauss_points(*spaces):
    """Default Gauss points per direction for forms over these spaces.

    QUAD_EXTRA more than one past the highest degree (at least 1).
    """
    return max([1] + [s.degree for s in spaces]) + 1 + QUAD_EXTRA


def sweep(mesh, coeffs=None, spaces=(), nquad=None):
    """Gauss quadrature over the mesh, one cell chunk at a time.

    Yields one FormContext per chunk of about _CHUNK_POINTS quadrature
    points, cells in ascending order.  The chunks are of nearly equal
    size, in whole multiples of _CHUNK_ALIGN cells but the last, so with
    one BLAS thread an assembled matrix or vector is bitwise the one a
    single chunk gives.  The rule has nquad points per direction; by
    default gauss_points of the spaces and the coefficients' spaces.
    Every space and coefficient must live on mesh (AssemblyError
    otherwise); the first of them keeps the contexts' data (FormContext.data).
    """
    coeffs = coeffs or {}
    spaces = [*spaces, *(f.space for f in coeffs.values())]
    if any(s.mesh is not mesh for s in spaces):
        raise AssemblyError("a space or coefficient lives on a different mesh")
    if nquad is None:
        nquad = gauss_points(*spaces)
    nchunks = max(1, -(-mesh.ncells * nquad**2 // _CHUNK_POINTS))
    step = _CHUNK_ALIGN * max(1, -(-mesh.ncells // (nchunks * _CHUNK_ALIGN)))
    cells = np.arange(mesh.ncells)
    owner = spaces[0] if spaces else None
    for start in range(0, len(cells), step):
        yield FormContext(mesh, cells[start : start + step], nquad, coeffs, owner)


def _check_finite(arr, cells, what):
    if arr is None:
        return
    bad = ~np.isfinite(arr)
    if np.any(bad):
        flat = np.nonzero(bad.reshape(arr.shape[0], -1).any(axis=1))[0]
        raise AssemblyError(
            f"non-finite {what} at quadrature point of cell {int(cells[flat[0]])}"
        )


def _matrix_scatter(space):
    """Map from the element matrices of all cells to the condensed CSC matrix.

    Returns (S, indices, indptr): for the element entries flattened cell by
    cell, as the kernel returns them, the condensed matrix is
    csc_matrix((S @ entries, indices, indptr)).  Entry (c, i, j) adds
    w_i * w_j times itself to (I, J) for every entry (I, w_i) of its test
    DOF's C row and (J, w_j) of its trial DOF's.  One sort of int64 keys,
    (J, I) above the index of the contribution, finds the pattern and S;
    each entry sums its contributions in the order they come.
    """
    # the rows of C as (ndofs, width) tables of free columns and weights,
    # padded with column -1 and weight 0 to the longest row, and at least 2
    C = space.C
    lens = np.diff(C.indptr)
    row = np.repeat(np.arange(len(lens)), lens)
    slot = np.arange(C.nnz) - C.indptr[row]
    cs = np.full((len(lens), max(int(lens.max(initial=0)), 2)), -1, dtype=np.int64)
    ws = np.zeros(cs.shape)
    cs[row, slot] = C.indices
    ws[row, slot] = C.data

    d = space.cell_dofs
    nc, n = d.shape
    n_e = nc * n * n
    jbits = int(space.nfree).bit_length()
    stop = space.nfree << jbits  # pairs with a padding slot key at or past this
    # key of a test column I and a trial column J: (J << jbits) + I
    kt = np.where(cs >= 0, cs, stop)
    kr = np.where(cs >= 0, cs << jbits, stop)

    # contributions past the first C entry of a DOF (hanging DOFs only):
    # later test slots with every trial slot, the first with later trial slots
    c, i = np.nonzero(cs[d, 1] >= 0)
    later_t = (
        kt[d[c, i], 1:][:, :, None, None] + kr[d[c]][:, None],
        ws[d[c, i], 1:][:, :, None, None] * ws[d[c]][:, None],
        ((c * n + i) * n)[:, None, None, None] + np.arange(n)[:, None],
    )
    later_r = (
        kt[d[c], 0][:, :, None] + kr[d[c, i], 1:][:, None, :],
        ws[d[c], 0][:, :, None] * ws[d[c, i], 1:][:, None, :],
        (((c * n)[:, None] + np.arange(n)) * n + i[:, None])[:, :, None],
    )
    xk, xw, xe = [], [], []
    for k, wx, e in (later_t, later_r):
        live = k < stop
        xk.append(k[live])
        xw.append(wx[live])
        xe.append(np.broadcast_to(e, k.shape)[live])
    xk, xw, xe = np.concatenate(xk), np.concatenate(xw), np.concatenate(xe)
    nx = len(xk)

    tbits = int(n_e + nx).bit_length()
    if (2 * stop + 1) << tbits > np.iinfo(np.int64).max:
        raise SizingError("too many DOFs for 64-bit scatter keys")
    key = np.empty(n_e + nx, dtype=np.int64)
    w = np.empty(n_e + nx)
    key[n_e:] = (xk << tbits) + np.arange(n_e, n_e + nx)
    w[n_e:] = xw
    # first C entries of both DOFs, indexed by the entry itself
    at = (kt[:, 0] << tbits)[d] + (np.arange(nc)[:, None] * n + np.arange(n)) * n
    ar = (kr[:, 0] << tbits)[d] + np.arange(n)
    np.add(at[:, :, None], ar[:, None, :], out=key[:n_e].reshape(nc, n, n))
    w0 = ws[:, 0][d]
    np.multiply(w0[:, :, None], w0[:, None, :], out=w[:n_e].reshape(nc, n, n))
    key.sort()
    key = key[: np.searchsorted(key, stop << tbits)]
    idx = key & ((1 << tbits) - 1)
    key >>= tbits
    w = w[idx]
    extra = np.flatnonzero(idx >= n_e)
    idx[extra] = xe[idx[extra] - n_e]
    # where a new (J, I) starts, and one past the end
    first = np.ones(len(key) + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:-1])
    starts = np.flatnonzero(first)
    pairs = key[starts[:-1]]
    # int32 indices throughout, so the constructors neither scan nor copy them
    S = sp.csr_matrix(
        (w, idx.astype(np.int32), starts.astype(np.int32)), shape=(len(pairs), n_e)
    )
    indices = (pairs & ((1 << jbits) - 1)).astype(np.int32)  # sorted in each column
    indptr = np.searchsorted(pairs, np.arange(space.nfree + 1) << jbits).astype(np.int32)
    # shared by every matrix assembled with this map
    indices.flags.writeable = False
    indptr.flags.writeable = False
    return S, indices, indptr


def assemble_matrix(form, space, coeffs=None, nquad=None):
    """Assemble a bilinear form on one space over the whole mesh.

    Returns a condensed csc matrix of shape (space.nfree, space.nfree),
    the format SuperLU factorizes without a copy; constrained rows/columns
    are eliminated through the constraint map.
    The kernel's element matrices reach the condensed matrix through one
    sparse mat-vec with a map cached on the space: the first assembly
    builds it, later ones reuse it.  The condensed pattern holds every
    structurally coupled pair of free DOFs, explicit zeros included.
    """
    S, indices, indptr = space.cached("matrix", lambda: _matrix_scatter(space))
    entries = [np.empty(0)]
    for ctx in sweep(space.mesh, coeffs, (space,), nquad):
        K, cf = form(ctx)
        _check_finite(K, ctx.cells, "matrix coefficient")
        _check_finite(cf, ctx.cells, "matrix coefficient")
        basis = ctx.basis(space)
        loc = kernels.local_matrix(ctx.wdet, *basis, *basis, ctx.inv_h, K, cf)
        entries.append(loc.ravel())
    data = S @ np.concatenate(entries)
    return sp.csc_matrix((data, indices, indptr), shape=(space.nfree, space.nfree))


def _reference_element(test, trial, inverse=False):
    """(ref, scale, trial) of a constant-coefficient operator on square cells.

    ref is the element matrix on the unit cell, and the element matrix of a
    cell is scale times ref: h^2 for a mass (trial given), None (one) for
    the Laplacian stiffness (trial None, returned as test).  inverse=True
    gives inv(ref) and h^-2, the blocks of an inverse DG mass.  Both are
    cached on test per trial kind; trial must live on test's mesh.
    """
    stiffness = trial is None
    trial = test if stiffness else trial
    if trial.mesh is not test.mesh:
        raise AssemblyError("test and trial spaces live on different meshes")

    def build():
        n1d = max(test.degree, trial.degree) + 1  # exact for both products
        _, w, phi_t, gphi_t = _tabulated(test.degree, n1d)
        _, _, phi_r, gphi_r = _tabulated(trial.degree, n1d)
        if stiffness:
            return np.einsum("q,qid,qjd->ij", w, gphi_t, gphi_r), None
        ref, h2 = np.einsum("q,qi,qj->ij", w, phi_t, phi_r), test.mesh.cell_h() ** 2
        return (np.linalg.inv(ref), 1.0 / h2) if inverse else (ref, h2)

    key = ("reference", None if stiffness else (trial.family, trial.degree), inverse)
    return (*test.cached(key, build), trial)


def reference_matrix(space):
    """The Laplacian stiffness of a space as a condensed csc matrix, without quadrature.

    The element matrix of every square cell is K_ref, the matrix on the unit
    cell.  Its nonzeros, repeated cell by cell, give the block diagonal
    kron(I, K_ref) (the arrays sp.kron builds, at a fraction of its cost),
    and the rows G of C gathered by cell_dofs condense it as (G^T B) G.
    Each intermediate is freed before the next product.
    """
    ref, _, _ = _reference_element(space, None)
    nc, n = space.mesh.ncells, space.nloc
    j, i = np.nonzero(ref.T)  # by column, rows ascending
    indices = (np.arange(nc)[:, None] * n + i).ravel()
    indptr = np.concatenate([[0], np.cumsum(np.tile(np.bincount(j, minlength=n), nc))])
    blocks = sp.csc_matrix((np.tile(ref[i, j], nc), indices, indptr), shape=(nc * n, nc * n))
    gather = space.C[space.cell_dofs.ravel()]
    gtb = gather.T @ blocks  # csc times csc
    del blocks
    gather = gather.tocsc()
    out = gtb @ gather
    del gtb, gather
    out.sort_indices()
    return out


def _cell_map(space):
    """(S, S.T) of a CG space, cached on it: the csr S, C^T restricted to the
    rows cell_dofs gathers (column i * ncells + c for local DOF i of cell c),
    sums cell values into the free DOFs; S.T, a csc view, gathers them."""

    def build():
        S = space.C[space.cell_dofs.T.ravel()].T.tocsr()
        return S, S.T

    return space.cached("cell_map", build)


def reference_apply(x, test, trial=None, inverse=False):
    """A constant-coefficient operator applied to x cell by cell, without a matrix.

    The mass (trial, test), the Laplacian stiffness of test (no trial), or
    with inverse=True the inverse of a DG mass (trial is test), which is
    block diagonal.  x holds the free values of trial (of test if none).
    Cell values are held as (nloc, ncells), so elementwise steps run along
    the cells: a DG side is a reshape of x, a CG side goes through its cell
    map.  They meet ref in one matmul (a broadcast for one trial DOF per
    cell), and then the per-cell scale.
    """
    if inverse and (trial is not test or test.family != "dg"):
        raise DwroptError("only a DG mass has a block-diagonal inverse")
    ref, scale, trial = _reference_element(test, trial, inverse)
    nc = test.mesh.ncells
    if trial.family == "dg":
        vals = x.reshape(nc, trial.nloc).T
    else:
        vals = (_cell_map(trial)[1] @ x).reshape(trial.nloc, nc)
    loc = ref * vals if trial.nloc == 1 else ref @ vals
    if scale is not None:
        loc *= scale
    if test.family == "dg":
        return loc.T.ravel()
    return _cell_map(test)[0] @ loc.ravel()


def assemble_vector(form, test, coeffs=None, nquad=None):
    """Assemble a linear functional into a condensed vector (test.nfree,).

    The element vectors are summed per DOF in the order they come
    (np.bincount) and then condensed with C^T.
    """
    cells, entries = [np.empty(0, dtype=np.int64)], [np.empty((0, test.nloc))]
    for ctx in sweep(test.mesh, coeffs, (test,), nquad):
        gf, hf = form(ctx)
        _check_finite(gf, ctx.cells, "functional coefficient")
        _check_finite(hf, ctx.cells, "functional coefficient")
        if gf is not None or hf is not None:
            cells.append(ctx.cells)
            entries.append(
                kernels.local_vector(ctx.wdet, *ctx.basis(test), ctx.inv_h, gf, hf)
            )
    dofs = test.cell_dofs[np.concatenate(cells)]
    out = np.bincount(
        dofs.ravel(), weights=np.concatenate(entries).ravel(), minlength=test.ndofs
    )
    return test.C.T @ out


def integrate(form, mesh, coeffs=None, nquad=None):
    """Integrate a pointwise scalar field over the mesh.

    form(ctx) must return an (ncells, nq) array.
    """
    total = 0.0
    for ctx in sweep(mesh, coeffs, (), nquad):
        field = form(ctx)
        _check_finite(field, ctx.cells, "integrand")
        total += float(kernels.cell_integrals(ctx.wdet, field).sum())
    return total


def load_vector(space, fn, nquad):
    """Condensed integrals of a callable fn(x, y) against the test functions.

    The Gauss rule has nquad points per direction.  The vector is cached
    on the space per (fn, nquad): analytic data is integrated once per
    space, not at every evaluation that needs it.  The values of fn come
    from FormContext.data, so a form swept over the space with the same
    rule shares them.
    """

    def fields(ctx):
        return ctx.data(fn), None

    return space.cached(("load", fn, nquad),
                        lambda: assemble_vector(fields, space, nquad=nquad))


# common elementary forms


def stiffness_fields(ctx):
    nc, nq = ctx.wdet.shape
    K = np.zeros((nc, nq, 2, 2))
    K[:, :, 0, 0] = 1.0
    K[:, :, 1, 1] = 1.0
    return K, None


# ---------------------------------------------------------------------------
# linear algebra


class Factorization:
    """Sparse LU factorization of a symmetric positive definite matrix.

    Every matrix solved here is a state Jacobian, symmetric positive
    definite: the Poisson stiffness and the p-Laplace Jacobians.  So SuperLU runs in
    symmetric mode: one minimum degree ordering of A + A^T permutes rows and
    columns alike, and the diagonal supplies the pivots (no row
    interchanges).  That keeps the fill of a Cholesky factor, about half of
    what the default column ordering with partial pivoting leaves.  An
    exactly zero pivot raises SingularSystemError.  The factors also serve
    solves with the transpose.  SuperLU reads a csc matrix, which is what
    assemble_matrix and reference_matrix return, in place; another format
    is converted first.

    SuperLU runs with panel size 1 and supernode relaxation 1 (Demmel,
    Eisenstat, Gilbert, Li and Liu, SIAM J. Matrix Anal. Appl. 20, 1999),
    not its defaults, which are sized for general matrices.  The panel work
    arrays grow with n times the panel size and no longer fit in L2 at the
    final levels, and the supernodes of these 2D finite element Jacobians
    are small: relaxing them adds explicit zeros to the factor and no
    speed.  Measured on a 2-core Xeon with 2 MB of L2 per core and one
    BLAS thread: the largest Q2 p-Laplace Jacobian of the plaplace_uq
    benchmark (n = 40,463) factorized in 0.11 s instead of 0.19 s, kept
    2.48M instead of 2.65M LU entries and raised the RSS peak by 30
    instead of 46 MB; replaying every factorization of a benchmark run
    took 17-22 % less time.

    A factorization sets the memory peak of a level, so the freed heap
    pages are first given back to the OS (glibc only).  Once an array is
    freed, glibc raises its mmap threshold to that size (up to 32 MB), so
    later arrays come from its heap and stay resident after they are
    freed; without the trim the factor would be laid out beside them.
    """

    def __init__(self, matrix):
        if _malloc_trim is not None:
            _malloc_trim(0)
        try:
            self._lu = spla.splu(
                matrix.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                relax=1,
                panel_size=1,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc

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


# ---------------------------------------------------------------------------
# transfer between spaces


def transfer(f, target):
    """Nodal interpolation of f into the target space.

    Exact (to rounding) whenever the target space contains the source
    space: same mesh with equal/raised degree, or any refinement.
    """
    src = f.space
    tgt_mesh = target.mesh
    # the source cell holding each target cell's corner must contain it whole
    anc = src.mesh.locate(tgt_mesh.ix, tgt_mesh.iy)
    if np.any((anc < 0) | (src.mesh.level[anc] > tgt_mesh.level)):
        raise UnrelatedMeshError("target mesh is not a refinement of the source mesh")

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
    vals = (basis @ src_loc[:, :, None])[:, :, 0]

    out = np.zeros(target.ndofs)
    out[target.cell_dofs.ravel()] = vals.ravel()
    return DiscreteFunction(target, target.distribute(out))
