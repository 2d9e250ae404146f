"""Hot assembly kernels (numpy).

All kernels work on one chunk of same-shaped cells:

    wdet   (nc, nq)        quadrature weight times |det J| per cell/point
    phi    (nq, nloc)      reference basis values
    gphi   (nq, nloc, 2)   reference basis gradients
    inv_h  (nc,)           1/h per cell (maps reference to physical gradients)
"""

import numpy as np


def local_matrix(wdet, phi_t, gphi_t, phi_r, gphi_r, inv_h, K, cf):
    """Element matrices  sum_g w [ grad(test)·K·grad(trial) + c test·trial ].

    K is (nc, nq, 2, 2) or None, cf is (nc, nq) or None.  Returns
    (nc, nloc_test, nloc_trial).
    """
    nc = wdet.shape[0]
    nt = phi_t.shape[1]
    nr = phi_r.shape[1]
    out = np.zeros((nc, nt, nr))
    if K is not None:
        Kw = K * (wdet * inv_h[:, None] ** 2)[:, :, None, None]
        tmp = np.einsum("cgde,gje->cgdj", Kw, gphi_r, optimize=True)
        out += np.einsum("gid,cgdj->cij", gphi_t, tmp, optimize=True)
    if cf is not None:
        out += np.einsum("cg,gi,gj->cij", wdet * cf, phi_t, phi_r, optimize=True)
    return out


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
