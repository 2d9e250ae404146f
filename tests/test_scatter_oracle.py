"""The assembly scatter and the reference-element operators against a direct scatter.

`assemble_matrix` sends element entries to the condensed CSC matrix through
a sparse map cached on the space, `reference_matrix` builds the CSC Laplacian
stiffness from a reference element matrix, `reference_apply` applies the
stiffness, the masses and the inverse DG mass cell by cell without a
matrix, and `assemble_vector` sums element vectors per DOF with
np.bincount.  The oracles below are the paths they replaced: quadrature
element matrices built as a COO matrix, converted to CSR and condensed to
C_t^T A C_r on every call (times x, for `reference_apply`), and the element
vectors added up with np.add.at and condensed with C^T.  A vector form
restricted to a box multiplies its fields by the box's cell mask; its
oracle adds up the element vectors of the cells inside the box only.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dwropt import kernels
from dwropt.fem import (
    assemble_matrix,
    assemble_vector,
    build_space,
    reference_apply,
    reference_matrix,
    region_cell_mask,
    stiffness_fields,
    sweep,
)
from dwropt.mesh import HOLED_RECT, UNIT_SQUARE, CellSet, build_initial, refine

#: initial meshes, each with a region box along mesh lines
ROOTS = [
    (UNIT_SQUARE, 0.5, (0.0, 0.0, 0.5, 1.0)),
    (HOLED_RECT, 1.0, (4.0, -np.inf, 5.0, np.inf)),
]


def oracle_matrix(form, test, trial, coeffs=None):
    rows, cols, data = [], [], []
    for ctx in sweep(test.mesh, coeffs, (test, trial)):
        K, cf = form(ctx)
        loc = kernels.local_matrix(
            ctx.wdet, *ctx.basis(test), *ctx.basis(trial), ctx.inv_h, K, cf
        )
        dt, dr = test.cell_dofs[ctx.cells], trial.cell_dofs[ctx.cells]
        rows.append(np.repeat(dt, loc.shape[2], axis=1).ravel())
        cols.append(np.tile(dr, (1, loc.shape[1])).ravel())
        data.append(loc.ravel())
    if rows:
        A = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(test.ndofs, trial.ndofs),
        ).tocsr()
    else:
        A = sp.csr_matrix((test.ndofs, trial.ndofs))
    return (test.C.T @ A @ trial.C).tocsr()


def oracle_vector(form, test, coeffs=None, region=None):
    out = np.zeros(test.ndofs)
    inside = np.ones(test.mesh.ncells, dtype=bool)
    if region is not None:
        inside = region_cell_mask(test.mesh, region)
    for ctx in sweep(test.mesh, coeffs, (test,)):
        keep = inside[ctx.cells]
        gf, hf = form(ctx)
        loc = kernels.local_vector(ctx.wdet, *ctx.basis(test), ctx.inv_h, gf, hf)
        np.add.at(out, test.cell_dofs[ctx.cells[keep]].ravel(), loc[keep].ravel())
    return test.C.T @ out


def matrix_form(s):
    """Nonsymmetric coefficients, so a swapped test and trial side shows."""

    def form(ctx):
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        K = np.empty(ctx.x.shape[:2] + (2, 2))
        K[..., 0, 0] = 1.0 + x * x
        K[..., 0, 1] = s * y
        K[..., 1, 0] = -x
        K[..., 1, 1] = 2.0 + np.sin(s * x)
        return K, 1.0 + s * x * y

    return form


def mass_fields(ctx):
    return None, np.ones(ctx.x.shape[:2])


def vector_form(s, region=None):
    def form(ctx):
        x, y = ctx.x[..., 0], ctx.x[..., 1]
        g, h = np.cos(s * x) + y, np.stack([x * y, s - x], axis=-1)
        if region is not None:
            inside = region_cell_mask(ctx.mesh, region)[ctx.cells, None]
            g, h = g * inside, h * inside[..., None]
        return g, h

    return form


def close(new, old):
    return abs(new - old).max() <= 1e-13 * abs(old).max()


steps = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 10**6), min_size=1, max_size=4)),
    min_size=1,
    max_size=4,
)


def refined_spaces(root, seq, dirichlet):
    """CG spaces of degrees 1-3 and DG spaces of degrees 0-1 on the root
    mesh refined by the drawn steps, hanging nodes included."""
    domain, size, _ = root
    mesh = build_initial(domain, size)
    for finest, picks in seq:
        pool = np.nonzero(mesh.level == mesh.level.max())[0] if finest else np.arange(mesh.ncells)
        ids = sorted({int(pool[p % len(pool)]) for p in picks})
        mesh = refine(mesh, CellSet(frozenset(ids), mesh.generation))
    cg = [build_space(mesh, "cg", d, constrain_dirichlet=dirichlet) for d in (1, 2, 3)]
    dg = [build_space(mesh, "dg", d) for d in (0, 1)]
    return cg, dg


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(ROOTS), steps, st.booleans())
def test_cached_scatter_matches_direct_scatter(root, seq, dirichlet):
    box = root[2]
    cg, dg = refined_spaces(root, seq, dirichlet)

    for space in cg:
        before = None
        # the second call reuses the map the first one built
        for s in (1.0, 2.5):
            new = assemble_matrix(matrix_form(s), space)
            old = oracle_matrix(matrix_form(s), space, space)
            assert new.shape == old.shape == (space.nfree, space.nfree)
            # canonical CSC on the read-only pattern cached on the space
            assert new.format == "csc" and new.has_canonical_format
            assert not (new.indices.flags.writeable or new.indptr.flags.writeable)
            assert close(new, old), space.degree
            assert before is None or len(space._cache) == before
            before = len(space._cache)
        new = reference_matrix(space)
        assert new.format == "csc" and new.has_canonical_format
        assert close(new, oracle_matrix(stiffness_fields, space, space)), space.degree
    for region in (None, box):
        for test in cg + dg:
            for s in (1.0, 2.5):
                new = assemble_vector(vector_form(s, region), test)
                old = oracle_vector(vector_form(s), test, region=region)
                assert new.shape == (test.nfree,)
                # the same additions in the same order
                assert np.array_equal(new, old), (test.family, test.degree, region)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(ROOTS), steps, st.booleans(), st.integers(0, 2**32 - 1))
def test_reference_apply_matches_direct_scatter(root, seq, dirichlet, seed):
    # CG stiffness; CG x CG, CG x DG, DG x CG and DG x DG masses
    cg, dg = refined_spaces(root, seq, dirichlet)
    rng = np.random.default_rng(seed)
    pairs = [(s, None) for s in cg] + [(s, t) for s in cg for t in cg + dg]
    pairs += [(s, t) for s in dg for t in cg + [s]]
    for test, trial in pairs:
        form = stiffness_fields if trial is None else mass_fields
        x = rng.standard_normal((trial or test).nfree)
        new = reference_apply(x, test, trial)
        old = oracle_matrix(form, test, trial or test) @ x
        assert new.shape == (test.nfree,)
        assert close(new, old), (test.family, test.degree, trial and trial.family,
                                 trial and trial.degree)
    # the inverse DG mass undoes the mass
    for s in dg:
        x = rng.standard_normal(s.nfree)
        back = reference_apply(reference_apply(x, s, s), s, s, inverse=True)
        assert close(back, x), s.degree
