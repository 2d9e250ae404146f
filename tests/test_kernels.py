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


class TestChunkIndependence:
    """A cell's row is bitwise the same whatever chunk of cells it falls in.

    Split at an odd cell and at a whole number of 64-cell blocks, on the
    shapes of Q1 and Q2 spaces swept with 3 or 4 Gauss points per direction.
    On every shape of a sweep, DG0 and Q3 included, and for all four
    kernels, splits into whole 64-cell blocks of at least 1,024 cells (the
    sweep's chunks when it splits a mesh) leave every row of an aligned
    cell count unchanged.  Other splits can change the last bits of rows:
    the last cells of a count past a whole block, a chunk of a few blocks,
    and on DG0 and Q3 shapes odd splits.
    """

    @staticmethod
    def assert_split_independent(rows):
        """rows(cells) of the cells split in two equal those of all cells at once."""
        one = rows(slice(None))
        for k in (467, 1024):
            chunks = np.concatenate([rows(slice(None, k)), rows(slice(k, None))])
            assert np.array_equal(chunks, one), k

    @staticmethod
    def random_cells(nloc, nq, nc=1865):
        rng = np.random.default_rng(2)
        return {
            "wdet": rng.random((nc, nq)),
            "phi": rng.random((nq, nloc)),
            "gphi": rng.standard_normal((nq, nloc, 2)),
            "inv_h": 1.0 + rng.random(nc),
            "gf": rng.standard_normal((nc, nq)),
            "hf": rng.standard_normal((nc, nq, 2)),
            "dofs": rng.integers(0, 4000, size=(nc, nloc)),
            "coefs": rng.standard_normal(4000),
            "K": rng.standard_normal((nc, nq, 2, 2)),
            "cf": rng.standard_normal((nc, nq)),
        }

    @pytest.mark.parametrize("nloc", [4, 9])
    @pytest.mark.parametrize("nq", [9, 16])
    def test_eval_gradients(self, nloc, nq):
        d = self.random_cells(nloc, nq)

        def rows(cells):
            return kernels.eval_gradients(d["dofs"][cells], d["coefs"], d["gphi"],
                                          d["inv_h"][cells])

        self.assert_split_independent(rows)

    @pytest.mark.parametrize("nloc", [4, 9])
    @pytest.mark.parametrize("nq", [9, 16])
    @pytest.mark.parametrize("terms", ["gf", "hf", "both"])
    def test_local_vector(self, nloc, nq, terms):
        d = self.random_cells(nloc, nq)

        def rows(cells):
            gf = d["gf"][cells] if terms != "hf" else None
            hf = d["hf"][cells] if terms != "gf" else None
            return kernels.local_vector(d["wdet"][cells], d["phi"], d["gphi"],
                                        d["inv_h"][cells], gf, hf)

        self.assert_split_independent(rows)

    @pytest.mark.parametrize("nloc, nq", [(1, 9), (4, 9), (9, 16), (16, 25)],
                             ids=["dg0", "q1", "q2", "q3"])
    @pytest.mark.parametrize("kernel", ["eval_values", "eval_gradients",
                                        "local_vector", "local_matrix"])
    def test_aligned_splits(self, kernel, nloc, nq):
        d = self.random_cells(nloc, nq, nc=70 * 64)

        def rows(cells):
            if kernel == "eval_values":
                return kernels.eval_values(d["dofs"][cells], d["coefs"], d["phi"])
            if kernel == "eval_gradients":
                return kernels.eval_gradients(d["dofs"][cells], d["coefs"], d["gphi"],
                                              d["inv_h"][cells])
            if kernel == "local_vector":
                return kernels.local_vector(d["wdet"][cells], d["phi"], d["gphi"],
                                            d["inv_h"][cells], d["gf"][cells],
                                            d["hf"][cells])
            return kernels.local_matrix(d["wdet"][cells], d["phi"], d["gphi"], d["phi"],
                                        d["gphi"], d["inv_h"][cells], d["K"][cells],
                                        d["cf"][cells])

        one = rows(slice(None))
        for k in (1088, 2048, 3456):  # chunks of 1,024 to 3,392 cells
            chunks = np.concatenate([rows(slice(None, k)), rows(slice(k, None))])
            assert np.array_equal(chunks, one), k
