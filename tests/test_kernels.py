import numpy as np
import pytest

from dwropt import kernels


# ---------------------------------------------------------------------------
# reference loop nests: one quadrature point and one basis pair at a time


def local_matrix_loops(wdet, phi_t, gphi_t, phi_r, gphi_r, inv_h, K, cf):
    nc, nq = wdet.shape
    nt = phi_t.shape[1]
    nr = phi_r.shape[1]
    out = np.zeros((nc, nt, nr))
    for c in range(nc):
        ih2 = inv_h[c] * inv_h[c]
        for g in range(nq):
            w = wdet[c, g]
            for i in range(nt):
                for j in range(nr):
                    acc = 0.0
                    if K is not None:
                        s = 0.0
                        for d1 in range(2):
                            for d2 in range(2):
                                s += gphi_t[g, i, d1] * K[c, g, d1, d2] * gphi_r[g, j, d2]
                        acc += s * ih2
                    if cf is not None:
                        acc += cf[c, g] * phi_t[g, i] * phi_r[g, j]
                    out[c, i, j] += w * acc
    return out


def local_vector_loops(wdet, phi_t, gphi_t, inv_h, gf, hf):
    nc, nq = wdet.shape
    nt = phi_t.shape[1]
    out = np.zeros((nc, nt))
    for c in range(nc):
        ih = inv_h[c]
        for g in range(nq):
            w = wdet[c, g]
            for i in range(nt):
                acc = 0.0
                if gf is not None:
                    acc += gf[c, g] * phi_t[g, i]
                if hf is not None:
                    acc += ih * (hf[c, g, 0] * gphi_t[g, i, 0] + hf[c, g, 1] * gphi_t[g, i, 1])
                out[c, i] += w * acc
    return out


def eval_values_loops(dofs, coefs, phi):
    nc, nloc = dofs.shape
    nq = phi.shape[0]
    out = np.zeros((nc, nq))
    for c in range(nc):
        for g in range(nq):
            acc = 0.0
            for j in range(nloc):
                acc += coefs[dofs[c, j]] * phi[g, j]
            out[c, g] = acc
    return out


def eval_gradients_loops(dofs, coefs, gphi, inv_h):
    nc, nloc = dofs.shape
    nq = gphi.shape[0]
    out = np.zeros((nc, nq, 2))
    for c in range(nc):
        ih = inv_h[c]
        for g in range(nq):
            gx = 0.0
            gy = 0.0
            for j in range(nloc):
                cj = coefs[dofs[c, j]]
                gx += cj * gphi[g, j, 0]
                gy += cj * gphi[g, j, 1]
            out[c, g, 0] = gx * ih
            out[c, g, 1] = gy * ih
    return out


def cell_integrals_loops(wdet, field):
    nc, nq = wdet.shape
    out = np.zeros(nc)
    for c in range(nc):
        acc = 0.0
        for g in range(nq):
            acc += wdet[c, g] * field[c, g]
        out[c] = acc
    return out


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    nc, nq, nt, nr = 37, 9, 4, 9
    return {
        "wdet": rng.random((nc, nq)),
        "phi_t": rng.random((nq, nt)),
        "gphi_t": rng.random((nq, nt, 2)),
        "phi_r": rng.random((nq, nr)),
        "gphi_r": rng.random((nq, nr, 2)),
        "inv_h": 1.0 + rng.random(nc),
        "K": rng.random((nc, nq, 2, 2)),
        "cf": rng.random((nc, nq)),
        "gf": rng.random((nc, nq)),
        "hf": rng.random((nc, nq, 2)),
        "dofs": rng.integers(0, 50, size=(nc, nt)).astype(np.int64),
        "coefs": rng.random(50),
    }


class TestPathEquivalence:
    def test_local_matrix(self, data):
        d = data
        nq = d["wdet"].shape[1]
        # nt > nr, and nt = 1: a one-function (DG0) test space
        shapes = [(d["phi_t"], d["gphi_t"], d["phi_r"], d["gphi_r"])]
        rng = np.random.default_rng(1)
        for nt, nr in ((9, 4), (1, 4)):
            shapes.append((rng.random((nq, nt)), rng.random((nq, nt, 2)),
                           rng.random((nq, nr)), rng.random((nq, nr, 2))))
        for phi_t, gphi_t, phi_r, gphi_r in shapes:
            for K, cf in ((d["K"], d["cf"]), (d["K"], None), (None, d["cf"])):
                args = (d["wdet"], phi_t, gphi_t, phi_r, gphi_r, d["inv_h"], K, cf)
                np.testing.assert_allclose(
                    kernels.local_matrix(*args), local_matrix_loops(*args),
                    rtol=1e-13, atol=1e-14,
                )

    def test_local_vector(self, data):
        d = data
        for gf, hf in ((d["gf"], d["hf"]), (d["gf"], None), (None, d["hf"])):
            args = (d["wdet"], d["phi_t"], d["gphi_t"], d["inv_h"], gf, hf)
            np.testing.assert_allclose(
                kernels.local_vector(*args), local_vector_loops(*args),
                rtol=1e-13, atol=1e-14,
            )

    def test_eval_values_and_gradients(self, data):
        d = data
        np.testing.assert_allclose(
            kernels.eval_values(d["dofs"], d["coefs"], d["phi_t"]),
            eval_values_loops(d["dofs"], d["coefs"], d["phi_t"]),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            kernels.eval_gradients(d["dofs"], d["coefs"], d["gphi_t"], d["inv_h"]),
            eval_gradients_loops(d["dofs"], d["coefs"], d["gphi_t"], d["inv_h"]),
            rtol=1e-13,
        )

    def test_cell_integrals(self, data):
        d = data
        np.testing.assert_allclose(
            kernels.cell_integrals(d["wdet"], d["gf"]),
            cell_integrals_loops(d["wdet"], d["gf"]),
            rtol=1e-13,
        )
