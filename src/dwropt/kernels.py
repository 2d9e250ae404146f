"""Hot assembly kernels (numpy).

All kernels work on one chunk of same-shaped cells:

    wdet   (nc, nq)        quadrature weight times |det J| per cell/point
    phi    (nq, nloc)      reference basis values
    gphi   (nq, nloc, 2)   reference basis gradients
    inv_h  (nc,)           1/h per cell (maps reference to physical gradients)

``local_matrix`` forms, per term, a reference tensor of basis products
over the quadrature points and applies it to the weighted per-cell
coefficients with one matmul.  The vector and gradient kernels are
matmuls too (``_per_cell``), so no call searches for a contraction order.

BLAS rounds by register block, so a row's last bits can change with the
chunk its cell falls in.  Measured with one BLAS thread and two, and
tested: chunks of whole 64-cell blocks of at least 1,024 cells, as a sweep
splits a mesh, give every kernel's rows of whole blocks on DG0 and Q1-Q3
shapes unchanged; other splits can change some rows.
"""

import numpy as np


def _per_cell(a, b):
    """a @ b for a with one row per cell, computed as (b.T @ a.T).T.

    Written so, a Q1, Q2 or DG1 cell's row is bitwise the same at an odd
    split (467 of 1,865 cells) as in one chunk, with one BLAS thread or
    two, where a @ b and einsum round some rows past a register block.
    """
    return (b.T @ a.T).T


def local_matrix(wdet, phi_t, gphi_t, phi_r, gphi_r, inv_h, K, cf):
    """Element matrices  sum_g w [ grad(test)·K·grad(trial) + c test·trial ].

    K is (nc, nq, 2, 2) or None, cf is (nc, nq) or None.  Returns
    (nc, nloc_test, nloc_trial).
    """
    nc, nq = wdet.shape
    nt = phi_t.shape[1]
    nr = phi_r.shape[1]
    out = np.zeros((nc, nt * nr))
    if K is not None:
        # G[(g, d, e), (i, j)] = gphi_t[g, i, d] * gphi_r[g, j, e]
        G = np.einsum("gid,gje->gdeij", gphi_t, gphi_r).reshape(4 * nq, nt * nr)
        Kw = K * (wdet * inv_h[:, None] ** 2)[:, :, None, None]
        out += Kw.reshape(nc, 4 * nq) @ G
    if cf is not None:
        M = (phi_t[:, :, None] * phi_r[:, None, :]).reshape(nq, nt * nr)
        out += (wdet * cf) @ M
    return out.reshape(nc, nt, nr)


def local_vector(wdet, phi_t, gphi_t, inv_h, gf, hf):
    """Element vectors  sum_g w [ g test + h·grad(test) ].

    gf is (nc, nq) or None, hf is (nc, nq, 2) or None.  Returns (nc, nloc).
    """
    nc = wdet.shape[0]
    nt = phi_t.shape[1]
    out = np.zeros((nc, nt))
    if gf is not None:
        out += _per_cell(wdet * gf, phi_t)
    if hf is not None:
        hw = hf * (wdet * inv_h[:, None])[:, :, None]
        out += _per_cell(hw.reshape(nc, -1), gphi_t.transpose(0, 2, 1).reshape(-1, nt))
    return out


def eval_values(dofs, coefs, phi):
    """Coefficient-function values at quadrature points: (nc, nq)."""
    return coefs[dofs] @ phi.T


def eval_gradients(dofs, coefs, gphi, inv_h):
    """Coefficient-function gradients at quadrature points: (nc, nq, 2)."""
    nq, nloc, _ = gphi.shape
    out = _per_cell(coefs[dofs], gphi.transpose(1, 0, 2).reshape(nloc, 2 * nq))
    out = out.reshape(-1, nq, 2)
    out *= inv_h[:, None, None]
    return out


def cell_integrals(wdet, field):
    """Per-cell integrals of a pointwise field: (nc,)."""
    return np.einsum("cg,cg->c", wdet, field)
