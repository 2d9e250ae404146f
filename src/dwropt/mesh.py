"""Quadrilateral quadtree meshes with 1-irregular hanging-node refinement.

Cells live on an integer lattice: the root grid has cells of ``cell_size``
and every refinement halves a cell, so a cell at level ``l`` spans
``2**(LBITS - l)`` lattice units.  All coordinates are exact integers,
which makes vertex identification, neighbor lookup and closure trivial.

Face numbering: 0 = bottom (y-), 1 = right (x+), 2 = top (y+), 3 = left (x-).
Corner order within a cell: (0,0), (1,0), (0,1), (1,1) in local coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DwroptError, SizingError

LBITS = 21  # maximum refinement depth below the root grid

TAG_NONE = 0
TAG_DIRICHLET = 1

_FACE_TAG_NAMES = {TAG_DIRICHLET: "dirichlet"}
_FACE_TAG_IDS = {v: k for k, v in _FACE_TAG_NAMES.items()}


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle, possibly with rectangular holes."""

    name: str
    origin: tuple[float, float]
    extent: tuple[float, float]
    holes: tuple[tuple[float, float, float, float], ...] = ()

    @property
    def area(self):
        a = self.extent[0] * self.extent[1]
        for x0, y0, x1, y1 in self.holes:
            a -= (x1 - x0) * (y1 - y0)
        return a


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


class Mesh:
    """Immutable snapshot of the active leaves of a refinement tree."""

    def __init__(self, domain, cell_size, generation, cells, btags):
        # cells: dict {(level, ix, iy): btags tuple of 4 ints} -- consumed
        self.domain = domain
        self.cell_size = cell_size
        self.generation = generation
        self.unit = cell_size / (1 << LBITS)

        keys = sorted(cells, key=lambda k: (k[2], k[1], k[0]))
        n = len(keys)
        self.level = np.empty(n, dtype=np.int64)
        self.ix = np.empty(n, dtype=np.int64)
        self.iy = np.empty(n, dtype=np.int64)
        self.btags = np.empty((n, 4), dtype=np.int8)
        for i, (l, x, y) in enumerate(keys):
            self.level[i] = l
            self.ix[i] = x
            self.iy[i] = y
            self.btags[i] = btags[(l, x, y)]
        self._active = {k: i for i, k in enumerate(keys)}

        # vertex table, sorted for determinism
        size = self.lattice_size()
        vkeys = set()
        for i in range(n):
            s = size[i]
            x, y = self.ix[i], self.iy[i]
            vkeys.update(((x, y), (x + s, y), (x, y + s), (x + s, y + s)))
        vkeys = sorted(vkeys, key=lambda k: (k[1], k[0]))
        vid = {k: i for i, k in enumerate(vkeys)}
        self.vert_ix = np.fromiter((k[0] for k in vkeys), dtype=np.int64, count=len(vkeys))
        self.vert_iy = np.fromiter((k[1] for k in vkeys), dtype=np.int64, count=len(vkeys))
        self.cell_verts = np.empty((n, 4), dtype=np.int64)
        for i in range(n):
            s = size[i]
            x, y = self.ix[i], self.iy[i]
            self.cell_verts[i, 0] = vid[(x, y)]
            self.cell_verts[i, 1] = vid[(x + s, y)]
            self.cell_verts[i, 2] = vid[(x, y + s)]
            self.cell_verts[i, 3] = vid[(x + s, y + s)]

    # -- geometry ---------------------------------------------------------

    @property
    def ncells(self):
        return len(self.level)

    @property
    def nverts(self):
        return len(self.vert_ix)

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

    def vertices(self):
        """Physical vertex coordinates, shape (nverts, 2)."""
        ox, oy = self.domain.origin
        out = np.empty((self.nverts, 2))
        out[:, 0] = ox + self.vert_ix * self.unit
        out[:, 1] = oy + self.vert_iy * self.unit
        return out

    def total_area(self):
        h = self.cell_h()
        return float(np.sum(h * h))

    # -- topology ---------------------------------------------------------

    def across(self, ci, face):
        """Active neighborhood across one face.

        Returns one of ("none", None), ("same", cj), ("coarser", cj) or
        ("finer", (cj_low, cj_high)) with the two finer cells ordered by
        ascending coordinate along the face.
        """
        l = int(self.level[ci])
        s = 1 << (LBITS - l)
        x, y = int(self.ix[ci]), int(self.iy[ci])
        if face == 0:
            nx, ny = x, y - s
        elif face == 1:
            nx, ny = x + s, y
        elif face == 2:
            nx, ny = x, y + s
        else:
            nx, ny = x - s, y
        same = self._active.get((l, nx, ny))
        if same is not None:
            return "same", same
        # coarser: align the neighbor coordinates to the coarser lattice
        if l > 0:
            m = s << 1
            ck = (l - 1, nx - (nx % m), ny - (ny % m))
            cj = self._active.get(ck)
            if cj is not None:
                return "coarser", cj
        # finer: two children share the face
        half = s >> 1
        if face in (0, 2):
            fy = ny if face == 2 else y - half
            k1 = (l + 1, x, fy)
            k2 = (l + 1, x + half, fy)
        else:
            fx = nx if face == 1 else x - half
            k1 = (l + 1, fx, y)
            k2 = (l + 1, fx, y + half)
        f1 = self._active.get(k1)
        f2 = self._active.get(k2)
        if f1 is not None and f2 is not None:
            return "finer", (f1, f2)
        return "none", None

    def max_level_gap(self):
        """Largest level difference between edge-adjacent active cells."""
        gap = 0
        for ci in range(self.ncells):
            for face in range(4):
                kind, other = self.across(ci, face)
                if kind in ("same", "coarser"):
                    gap = max(gap, abs(int(self.level[ci]) - int(self.level[other])))
                elif kind == "finer":
                    gap = max(gap, 1)
                elif kind == "none" and self.btags[ci, face] == TAG_NONE:
                    # interior face without a neighbor means the closure broke
                    raise DwroptError(f"untagged open face {face} of cell {ci}")
        return gap


def _fits(extent, cell_size):
    if not cell_size > 0:
        return False
    n = extent / cell_size
    return math.isfinite(n) and abs(n - round(n)) < 1e-9 and round(n) >= 1


def check_cell_size(domain, cell_size):
    """Raise SizingError unless square cells of this size tile the domain."""
    if not (_fits(domain.extent[0], cell_size) and _fits(domain.extent[1], cell_size)):
        raise SizingError(
            f"cell size {cell_size} does not divide domain extent {domain.extent}"
        )
    for box in domain.holes:
        for v in box:
            if not _fits(max(abs(v), cell_size), cell_size) and abs(v) > 1e-12:
                raise SizingError(f"cell size {cell_size} not aligned with hole at {box}")


def build_initial(domain, cell_size):
    """Structured root mesh of square cells; hole cells are absent."""
    if isinstance(domain, str):
        try:
            domain = DOMAINS[domain]
        except KeyError:
            raise SizingError(f"unknown domain {domain!r}")
    check_cell_size(domain, cell_size)

    nx = round(domain.extent[0] / cell_size)
    ny = round(domain.extent[1] / cell_size)
    ox, oy = domain.origin

    def in_hole(i, j):
        cx = ox + (i + 0.5) * cell_size
        cy = oy + (j + 0.5) * cell_size
        for x0, y0, x1, y1 in domain.holes:
            if x0 < cx < x1 and y0 < cy < y1:
                return True
        return False

    grid = {(i, j): not in_hole(i, j) for i in range(nx) for j in range(ny)}
    S = 1 << LBITS
    cells = {}
    btags = {}
    for (i, j), live in grid.items():
        if not live:
            continue
        key = (0, i * S, j * S)
        cells[key] = True
        tags = []
        for di, dj in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nb = grid.get((i + di, j + dj))
            tags.append(TAG_NONE if nb else TAG_DIRICHLET)
        btags[key] = tuple(tags)
    return Mesh(domain, cell_size, 0, cells, btags)


def _split_tags(tags):
    """Boundary tags of the 4 children given the parent's face tags.

    Children ordered (0,0), (1,0), (0,1), (1,1); interior child faces get
    TAG_NONE, outer child faces inherit the parent tag of the same side.
    """
    b, r, t, le = tags
    return (
        (b, TAG_NONE, TAG_NONE, le),
        (b, r, TAG_NONE, TAG_NONE),
        (TAG_NONE, TAG_NONE, t, le),
        (TAG_NONE, r, t, TAG_NONE),
    )


def refine(mesh, marked):
    """Split the marked cells; closure keeps the mesh 1-irregular."""
    if marked.generation is not None and marked.generation != mesh.generation:
        raise DwroptError(
            f"cell set of generation {marked.generation} applied to mesh "
            f"generation {mesh.generation}"
        )
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
        if face == 0:
            nx, ny = x, y - s
        elif face == 1:
            nx, ny = x + s, y
        elif face == 2:
            nx, ny = x, y + s
        else:
            nx, ny = x - s, y
        if (l, nx, ny) in work:
            return None
        m = s << 1
        ck = (l - 1, nx - (nx % m), ny - (ny % m))
        return ck if ck in work else None

    def split(key):
        if key not in work:
            return  # already split by an earlier closure cascade
        # 1-irregularity: coarser edge-neighbors must split first
        for face in range(4):
            if tags[key][face] != TAG_NONE:
                continue
            ck = neighbor_coarser(key, face)
            if ck is not None:
                split(ck)
        l, x, y = key
        s = 1 << (LBITS - l)
        half = s >> 1
        del work[key]
        child_tags = _split_tags(tags.pop(key))
        offs = ((0, 0), (half, 0), (0, half), (half, half))
        for (dx, dy), ct in zip(offs, child_tags):
            ck = (l + 1, x + dx, y + dy)
            work[ck] = True
            tags[ck] = ct

    to_split = []
    for ci in marked:
        ci = int(ci)
        if not 0 <= ci < mesh.ncells:
            raise DwroptError(f"cell id {ci} outside mesh with {mesh.ncells} cells")
        to_split.append((int(mesh.level[ci]), int(mesh.ix[ci]), int(mesh.iy[ci])))
    for key in sorted(to_split):
        split(key)

    return Mesh(mesh.domain, mesh.cell_size, mesh.generation + 1, work, tags)


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


# ---------------------------------------------------------------------------
# text dump format: "dwrmesh v1"


def dump_mesh(mesh):
    lines = ["dwrmesh v1"]
    verts = mesh.vertices()
    for x, y in verts:
        lines.append(f"v {float(x)!r} {float(y)!r}")
    for i in range(mesh.ncells):
        v = mesh.cell_verts[i]
        lines.append(f"c {mesh.level[i]} {v[0]} {v[1]} {v[2]} {v[3]}")
    for i in range(mesh.ncells):
        for face in range(4):
            t = int(mesh.btags[i, face])
            if t != TAG_NONE:
                lines.append(f"b {i} {face} {_FACE_TAG_NAMES[t]}")
    return "\n".join(lines) + "\n"


def load_mesh(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "dwrmesh v1":
        raise DwroptError("not a dwrmesh v1 dump")
    verts = []
    cells = []
    bset = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "v":
            verts.append((float(parts[1]), float(parts[2])))
        elif parts[0] == "c":
            cells.append((int(parts[1]), [int(p) for p in parts[2:6]]))
        elif parts[0] == "b":
            bset.setdefault(int(parts[1]), {})[int(parts[2])] = _FACE_TAG_IDS[parts[3]]
        else:
            raise DwroptError(f"unknown record {parts[0]!r} in mesh dump")
    if not cells:
        raise DwroptError("mesh dump has no cells")

    verts = np.asarray(verts)
    ox = verts[:, 0].min()
    oy = verts[:, 1].min()
    # recover the root cell size from any cell: h * 2**level
    lvl0, vv0 = cells[0]
    h0 = verts[vv0[1], 0] - verts[vv0[0], 0]
    cell_size = h0 * (2 ** lvl0)
    unit = cell_size / (1 << LBITS)

    cdict = {}
    tdict = {}
    for i, (lvl, vv) in enumerate(cells):
        x = round((verts[vv[0], 0] - ox) / unit)
        y = round((verts[vv[0], 1] - oy) / unit)
        key = (lvl, x, y)
        cdict[key] = True
        tags = [TAG_NONE] * 4
        for face, t in bset.get(i, {}).items():
            tags[face] = t
        tdict[key] = tuple(tags)
    extent = (verts[:, 0].max() - ox, verts[:, 1].max() - oy)
    domain = Domain("loaded", (ox, oy), extent)
    return Mesh(domain, cell_size, 0, cdict, tdict)
