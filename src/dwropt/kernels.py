"""Hot assembly kernels (numpy).

All kernels work on one chunk of same-shaped cells:

    wdet   (nc, nq)        quadrature weight times |det J| per cell/point
    phi    (nq, nloc)      reference basis values
    gphi   (nq, nloc, 2)   reference basis gradients
    inv_h  (nc,)           1/h per cell (maps reference to physical gradients)

``local_matrix`` forms, per term, a reference tensor of basis products
over the quadrature points and applies it to the weighted per-cell
coefficients with one matmul.  The vector, evaluation and integration
kernels are single numpy contractions; their matmul forms measured no
faster.
"""

import numpy as np


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
        out += np.einsum("cg,gi->ci", wdet * gf, phi_t, optimize=True)
    if hf is not None:
        hw = hf * (wdet * inv_h[:, None])[:, :, None]
        out += np.einsum("cgd,gid->ci", hw, gphi_t, optimize=True)
    return out


def eval_values(dofs, coefs, phi):
    """Coefficient-function values at quadrature points: (nc, nq)."""
    return coefs[dofs] @ phi.T


def eval_gradients(dofs, coefs, gphi, inv_h):
    """Coefficient-function gradients at quadrature points: (nc, nq, 2)."""
    loc = coefs[dofs]
    out = np.einsum("cj,gjd->cgd", loc, gphi, optimize=True)
    out *= inv_h[:, None, None]
    return out


def cell_integrals(wdet, field):
    """Per-cell integrals of a pointwise field: (nc,)."""
    return np.einsum("cg,cg->c", wdet, field, optimize=True)
