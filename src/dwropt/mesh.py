"""Quadrilateral quadtree meshes with 1-irregular hanging-node refinement.

Cells live on an integer lattice: the root grid has cells of ``cell_size``
and every refinement halves a cell, so a cell at level ``l`` spans
``2**(LBITS - l)`` lattice units.  All coordinates are exact integers,
kept in one sorted key table.  One vectorized lookup, :meth:`Mesh.locate`,
answers "which active cell holds this lattice point" for neighbor queries,
refinement closure and nested-mesh transfer.

Face numbering: 0 = bottom (y-), 1 = right (x+), 2 = top (y+), 3 = left (x-).
Corner order within a cell: (0,0), (1,0), (0,1), (1,1) in local coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DwroptError, SizingError

LBITS = 21  # maximum refinement depth below the root grid

TAG_NONE = 0
TAG_DIRICHLET = 1


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle, possibly with rectangular holes."""

    name: str
    origin: tuple[float, float]
    extent: tuple[float, float]
    holes: tuple[tuple[float, float, float, float], ...] = ()


UNIT_SQUARE = Domain("unit_square", (0.0, 0.0), (1.0, 1.0))

# 7x5 rectangle with six unit holes arranged in a 3x2 pattern.
HOLED_RECT = Domain(
    "holed_rect",
    (0.0, 0.0),
    (7.0, 5.0),
    holes=(
        (1.0, 1.0, 2.0, 2.0),
        (1.0, 3.0, 2.0, 4.0),
        (3.0, 1.0, 4.0, 2.0),
        (3.0, 3.0, 4.0, 4.0),
        (5.0, 1.0, 6.0, 2.0),
        (5.0, 3.0, 6.0, 4.0),
    ),
)

DOMAINS = {d.name: d for d in (UNIT_SQUARE, HOLED_RECT)}


@dataclass(frozen=True)
class CellSet:
    """A set of active-cell indices of one mesh generation."""

    ids: frozenset
    generation: int | None = None

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


class KeyTable:
    """Distinct integer lattice points, numbered by ascending ``(y, x)``.

    Each point is packed into one sorted int64 key ``y * width + x`` after
    dividing out ``step``, the largest power of two dividing every
    coordinate, so the key range grows with the finest refinement present
    rather than with the full lattice depth ``LBITS``.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        bits = int(np.bitwise_or.reduce(x | y, axis=None))
        self.step = (bits & -bits) or 1
        self.width = int(x.max()) // self.step + 1
        self.height = int(y.max()) // self.step + 1
        if self.height * self.width >= 1 << 63:
            raise SizingError("mesh lattice too fine for 64-bit point keys")
        self.keys, inverse = np.unique(self._pack(x, y), return_inverse=True)
        self.ids = inverse.reshape(x.shape)

    def _pack(self, x, y):
        return (y // self.step) * self.width + x // self.step

    def find(self, x, y):
        """Number of each point (x, y) in the table, or -1 if absent."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        ok = (
            (x >= 0) & (x // self.step < self.width) & (x % self.step == 0)
            & (y >= 0) & (y // self.step < self.height) & (y % self.step == 0)
        )
        k = np.where(ok, self._pack(x, y), -1)
        j = np.minimum(np.searchsorted(self.keys, k), len(self.keys) - 1)
        return np.where(ok & (self.keys[j] == k), j, -1)


class Mesh:
    """Immutable snapshot of the active leaves of a refinement tree.

    Cells are sorted by ``(iy, ix)``; active cells never share a lower-left
    corner, so the cell index is the cell's number in a :class:`KeyTable`
    of its corners.
    """

    def __init__(self, domain, cell_size, generation, level, ix, iy, btags):
        self.domain = domain
        self.cell_size = cell_size
        self.generation = generation
        self.unit = cell_size / (1 << LBITS)

        order = np.lexsort((level, ix, iy))
        self.level = np.asarray(level, dtype=np.int64)[order]
        self.ix = np.asarray(ix, dtype=np.int64)[order]
        self.iy = np.asarray(iy, dtype=np.int64)[order]
        self.btags = np.asarray(btags, dtype=np.int8).reshape(-1, 4)[order]
        self._corners = KeyTable(self.ix, self.iy)
        self._levels = np.unique(self.level)

    # -- geometry ---------------------------------------------------------

    @property
    def ncells(self):
        return len(self.level)

    def lattice_size(self):
        return (1 << (LBITS - self.level)).astype(np.int64)

    def cell_h(self):
        """Physical edge length per active cell."""
        return self.cell_size * (0.5 ** self.level.astype(np.float64))

    def cell_origin(self):
        """Physical lower-left corner per active cell, shape (ncells, 2)."""
        ox, oy = self.domain.origin
        out = np.empty((self.ncells, 2))
        out[:, 0] = ox + self.ix * self.unit
        out[:, 1] = oy + self.iy * self.unit
        return out

    def node_lattice(self, degree):
        """Equispaced Q^degree nodes of every cell on the lattice scaled by degree.

        Returns (x, y), each of shape (ncells, (degree+1)**2), local index
        b*(degree+1) + a for node (a, b).
        """
        a = np.arange(degree + 1)
        s = self.lattice_size()[:, None]
        x = self.ix[:, None] * degree + np.tile(a, degree + 1)[None, :] * s
        y = self.iy[:, None] * degree + np.repeat(a, degree + 1)[None, :] * s
        return x, y

    # -- topology ---------------------------------------------------------

    def locate(self, x, y):
        """Active cell containing each integer lattice point, or -1.

        Cells are half-open: a cell at (ix, iy) of lattice size s contains
        the points ix <= x < ix + s, iy <= y < iy + s.
        """
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        out = np.full(np.broadcast(x, y).shape, -1, dtype=np.int64)
        for lvl in self._levels:
            s = 1 << (LBITS - int(lvl))
            ci = self._corners.find(x - x % s, y - y % s)
            hit = (ci >= 0) & (self.level[ci] == lvl)
            out[hit] = ci[hit]
        return out


def _fits(extent, cell_size):
    if not cell_size > 0:
        return False
    n = extent / cell_size
    return math.isfinite(n) and abs(n - round(n)) < 1e-9 and round(n) >= 1


def check_cell_size(domain, cell_size):
    """Raise SizingError unless square cells of this size tile the domain.

    The corners of the root grid must also fit the 64-bit keys of a
    KeyTable.
    """
    if not (_fits(domain.extent[0], cell_size) and _fits(domain.extent[1], cell_size)):
        raise SizingError(
            f"cell size {cell_size} does not divide domain extent {domain.extent}"
        )
    nx, ny = (round(e / cell_size) for e in domain.extent)
    if (nx + 1) * (ny + 1) >= 1 << 63:
        raise SizingError(f"cell size {cell_size} gives a root grid too large "
                          "for 64-bit point keys")
    for box in domain.holes:
        for v in box:
            if not _fits(max(abs(v), cell_size), cell_size) and abs(v) > 1e-12:
                raise SizingError(f"cell size {cell_size} not aligned with hole at {box}")


def build_initial(domain, cell_size):
    """Structured root mesh of square cells; hole cells are absent."""
    check_cell_size(domain, cell_size)

    nx = round(domain.extent[0] / cell_size)
    ny = round(domain.extent[1] / cell_size)
    ox, oy = domain.origin
    cx = ox + (np.arange(nx) + 0.5) * cell_size
    cy = oy + (np.arange(ny) + 0.5) * cell_size
    # live[j + 1, i + 1]: root cell (i, j) exists; a one-cell dead border
    live = np.zeros((ny + 2, nx + 2), dtype=bool)
    live[1:-1, 1:-1] = True
    for x0, y0, x1, y1 in domain.holes:
        live[1:-1, 1:-1] &= ~(((y0 < cy) & (cy < y1))[:, None] & ((x0 < cx) & (cx < x1))[None, :])
    j, i = np.nonzero(live[1:-1, 1:-1])
    # a face without a live neighbor is on the boundary
    open_face = np.column_stack(
        [live[j, i + 1], live[j + 1, i + 2], live[j + 2, i + 1], live[j + 1, i]]
    )
    btags = np.where(open_face, TAG_NONE, TAG_DIRICHLET)
    S = 1 << LBITS
    return Mesh(domain, cell_size, 0, np.zeros_like(i), i * S, j * S, btags)


# outward lattice step per face, and which faces each child (0,0), (1,0),
# (0,1), (1,1) shares with its parent (it inherits those tags)
_FACE_STEP = np.array([(0, -1), (1, 0), (0, 1), (-1, 0)])
_CHILD_FACES = np.array(
    [[1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0]], dtype=bool
)


def refine(mesh, marked):
    """Split the marked cells; closure keeps the mesh 1-irregular.

    A split cell forces its coarser edge neighbors to split; the split set
    is the least fixed point of that rule containing the marked cells.
    """
    if marked.generation is not None and marked.generation != mesh.generation:
        raise DwroptError(
            f"cell set of generation {marked.generation} applied to mesh "
            f"generation {mesh.generation}"
        )
    ids = np.fromiter((int(c) for c in marked), dtype=np.int64, count=len(marked))
    bad = (ids < 0) | (ids >= mesh.ncells)
    if bad.any():
        raise DwroptError(f"cell id {ids[bad][0]} outside mesh with {mesh.ncells} cells")

    s = mesh.lattice_size()
    nb = mesh.locate(
        mesh.ix[:, None] + _FACE_STEP[:, 0] * s[:, None],
        mesh.iy[:, None] + _FACE_STEP[:, 1] * s[:, None],
    )
    forces = (nb >= 0) & (mesh.btags == TAG_NONE) & (mesh.level[nb] < mesh.level[:, None])
    src, face = np.nonzero(forces)
    dst = nb[src, face]
    split = np.zeros(mesh.ncells, dtype=bool)
    split[ids] = True
    while True:
        forced = dst[split[src]]
        if split[forced].all():
            break
        split[forced] = True

    p = np.nonzero(split)[0]
    if p.size and mesh.level[p].max() >= LBITS:
        raise DwroptError(f"cannot refine below lattice depth {LBITS}")
    half = (s[p] >> 1)[:, None]
    keep = ~split
    level = np.concatenate([mesh.level[keep], np.repeat(mesh.level[p] + 1, 4)])
    ix = np.concatenate([mesh.ix[keep], (mesh.ix[p, None] + half * [0, 1, 0, 1]).ravel()])
    iy = np.concatenate([mesh.iy[keep], (mesh.iy[p, None] + half * [0, 0, 1, 1]).ravel()])
    child_tags = np.where(_CHILD_FACES, mesh.btags[p, None, :], TAG_NONE).reshape(-1, 4)
    btags = np.concatenate([mesh.btags[keep], child_tags])
    return Mesh(mesh.domain, mesh.cell_size, mesh.generation + 1, level, ix, iy, btags)


def refine_all(mesh):
    """Uniform refinement (every active cell split)."""
    return refine(mesh, CellSet(frozenset(range(mesh.ncells)), mesh.generation))


def dorfler_mark(indicators, theta, mesh=None):
    """Smallest cell set carrying a theta-fraction of the total indicator.

    Cells are taken by descending indicator rounded to 10 significant
    digits, ties by ascending cell id, so indicators of symmetric cells
    that differ only by roundoff do not decide the order.  An all-zero
    indicator field yields the empty set (nothing to refine).
    """
    eta = np.asarray(indicators, dtype=np.float64)
    if eta.ndim != 1:
        raise DwroptError("indicators must be a 1-d array")
    if not np.all(np.isfinite(eta)) or np.any(eta < 0):
        raise DwroptError("indicators must be finite and nonnegative")
    if not 0.0 < theta <= 1.0:
        raise DwroptError(f"theta must be in (0, 1], got {theta}")
    gen = mesh.generation if mesh is not None else None
    total = float(eta.sum())
    if total == 0.0:
        return CellSet(frozenset(), gen)
    m, e = np.frexp(eta)
    order = np.lexsort((np.arange(len(eta)), -np.ldexp(np.round(m, 10), e)))
    target = theta * total
    acc = 0.0
    chosen = []
    for ci in order:
        chosen.append(int(ci))
        acc += float(eta[ci])
        if acc >= target or acc >= total * (1 - 1e-14):
            break
    return CellSet(frozenset(chosen), gen)

