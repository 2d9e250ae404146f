import platform

import numpy as np
import pytest
import sympy
from scipy.sparse import csr_matrix, issparse
from hypothesis import given, settings
from hypothesis import strategies as st

from dwropt.errors import (
    AssemblyError,
    DegreeError,
    DwroptError,
    SingularSystemError,
    UnrelatedMeshError,
)
from dwropt.fem import (
    DiscreteFunction,
    Factorization,
    assemble_matrix,
    assemble_vector,
    build_space,
    gauss_rule,
    integrate,
    interpolate,
    lagrange_1d,
    load_vector,
    reference_apply,
    reference_matrix,
    stiffness_fields,
    tabulate,
    transfer,
    zero_function,
)
from dwropt.mesh import CellSet, HOLED_RECT, UNIT_SQUARE, build_initial, refine
from dwropt.problem import _box_integral_goal, make_goals, make_plaplace_control


def mark(mesh, ids):
    return CellSet(frozenset(ids), mesh.generation)


def evaluate_at(f, points):
    """Point evaluation of a DiscreteFunction on the closed mesh.

    Cells are found half-open; a point on a grid line that no cell holds
    that way (on the right or top boundary) falls back to the cell one
    lattice unit to its left or below.
    """
    mesh = f.space.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    g = (pts - np.asarray(mesh.domain.origin)) / mesh.unit
    # far or non-finite points are clipped to a lattice point outside the mesh
    g = np.clip(np.nan_to_num(g, nan=-2.0), -2.0, 2.0**62)
    base = np.floor(g)
    on_line = g == base
    lx, ly = base.astype(np.int64).T
    ci = mesh.locate(lx, ly)
    for dx, dy in ((1, 0), (0, 1), (1, 1)):
        miss = (ci < 0) & (on_line[:, 0] | (dx == 0)) & (on_line[:, 1] | (dy == 0))
        ci[miss] = mesh.locate(lx[miss] - dx, ly[miss] - dy)
    if np.any(ci < 0):
        i = int(np.nonzero(ci < 0)[0][0])
        raise DwroptError(f"point {tuple(pts[i])} lies in no active cell")
    ref = (pts - mesh.cell_origin()[ci]) / mesh.cell_h()[ci, None]
    phi, _ = tabulate(f.space.degree, ref)
    out = np.einsum("ij,ij->i", phi, f.coefs[f.space.cell_dofs[ci]])
    return out if out.size > 1 else float(out[0])


def mass_fields(ctx):
    return None, np.ones(ctx.x.shape[:2])


def applied_mass(test, trial):
    """The mass that reference_apply applies, as a dense matrix, column by column."""
    return np.column_stack([reference_apply(e, test, trial) for e in np.eye(trial.nfree)])


def symbolic_element_matrices(degree):
    """Oracle: exact mass/stiffness on the unit cell via symbolic integration."""
    x, y = sympy.symbols("x y")
    nodes = [sympy.Rational(k, degree) for k in range(degree + 1)]

    def lag(k, t):
        out = sympy.Integer(1)
        for m in range(degree + 1):
            if m != k:
                out *= (t - nodes[m]) / (nodes[k] - nodes[m])
        return sympy.expand(out)

    basis = [lag(a, x) * lag(b, y) for b in range(degree + 1) for a in range(degree + 1)]
    n = len(basis)
    M = np.empty((n, n))
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            M[i, j] = float(sympy.integrate(basis[i] * basis[j], (x, 0, 1), (y, 0, 1)))
            kij = sympy.integrate(
                sympy.diff(basis[i], x) * sympy.diff(basis[j], x)
                + sympy.diff(basis[i], y) * sympy.diff(basis[j], y),
                (x, 0, 1),
                (y, 0, 1),
            )
            K[i, j] = float(kij)
    return M, K


class TestSpaces:
    def test_cg1_counts(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        assert s.ndofs == 9
        np.testing.assert_array_equal(s.free_dofs, np.arange(s.ndofs))
        assert s.C.nnz == s.ndofs

    def test_dg1_counts(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s = build_space(m, "dg", 1)
        assert s.ndofs == 16
        np.testing.assert_array_equal(s.free_dofs, np.arange(s.ndofs))
        assert s.C.nnz == s.ndofs

    def test_bad_degree(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        with pytest.raises(DegreeError):
            build_space(m, "cg", 4)

    def test_hanging_constraint_is_edge_mean(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        m = refine(m, mark(m, [0]))
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        hanging = np.setdiff1d(np.arange(s.ndofs), s.free_dofs)
        assert len(hanging) == 2
        for d in hanging:
            row = s.C.getrow(d)
            assert list(row.data) == pytest.approx([0.5, 0.5])
            ends = s.node_xy[s.free_dofs[row.indices]]
            np.testing.assert_allclose(s.node_xy[d], ends.mean(axis=0), atol=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_continuity_across_hanging_edge(self, degree):
        # oracle: a random constrained function is single-valued on the
        # shared edge, evaluated from both sides
        m = build_initial(UNIT_SQUARE, 0.5)
        m = refine(m, mark(m, [0]))
        s = build_space(m, "cg", degree, constrain_dirichlet=False)
        rng = np.random.default_rng(3)
        f = DiscreteFunction(s, s.distribute(rng.standard_normal(s.ndofs)))
        # hanging edge x = 0.5, y in (0, 0.5): sample strictly inside
        ys = np.linspace(0.015, 0.48, 9)
        left = [evaluate_at(f, (0.5 - 1e-11, y)) for y in ys]
        right = [evaluate_at(f, (0.5 + 1e-11, y)) for y in ys]
        scale = max(1.0, f.norm_max())
        np.testing.assert_allclose(left, right, atol=1e-10 * scale)

    def test_dirichlet_constrained_to_zero(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s = build_space(m, "cg", 1)
        assert s.nfree == 1  # only the center vertex survives
        f = DiscreteFunction(s, s.distribute(np.ones(s.ndofs)))
        on_boundary = (
            (np.abs(s.node_xy[:, 0]) < 1e-12)
            | (np.abs(s.node_xy[:, 0] - 1) < 1e-12)
            | (np.abs(s.node_xy[:, 1]) < 1e-12)
            | (np.abs(s.node_xy[:, 1] - 1) < 1e-12)
        )
        assert np.all(f.coefs[on_boundary] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_constraint_idempotence(self, seed):
        m = build_initial(UNIT_SQUARE, 0.5)
        m = refine(m, mark(m, [1]))
        s = build_space(m, "cg", 2)
        v = np.random.default_rng(seed).standard_normal(s.ndofs)
        once = s.distribute(v)
        twice = s.distribute(once)
        np.testing.assert_allclose(once, twice, rtol=0, atol=0)


class TestQuadrature:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_rule_exactness(self, degree):
        # the (r+2)^2 rule integrates degree 2r+3 per direction exactly
        n1d = degree + 2
        pts, w = gauss_rule(n1d)
        p = 2 * degree + 3
        exact = 1.0 / (p + 1) ** 2  # integral of x^p y^p over the unit cell
        got = float(np.sum(w * pts[:, 0] ** p * pts[:, 1] ** p))
        assert got == pytest.approx(exact, rel=1e-14)

    def test_lagrange_partition_of_unity(self):
        t = np.linspace(0, 1, 13)
        for r in (1, 2, 3):
            v, d = lagrange_1d(r, t)
            np.testing.assert_allclose(v.sum(axis=1), 1.0, atol=1e-13)
            np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-12)


class TestAssembly:
    def test_q1_mass_matches_printed_and_symbolic(self):
        m = build_initial(UNIT_SQUARE, 1.0)
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        expected = np.array(
            [[4, 2, 2, 1], [2, 4, 1, 2], [2, 1, 4, 2], [1, 2, 2, 4]]
        ) / 36.0
        Msym, _ = symbolic_element_matrices(1)
        for M in (assemble_matrix(mass_fields, s).toarray(), applied_mass(s, s)):
            np.testing.assert_allclose(M, expected, atol=1e-14)
            np.testing.assert_allclose(M, Msym, atol=1e-14)

    def test_q1_stiffness_matches_printed_and_symbolic(self):
        m = build_initial(UNIT_SQUARE, 1.0)
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        expected = np.array(
            [[4, -1, -1, -2], [-1, 4, -2, -1], [-1, -2, 4, -1], [-2, -1, -1, 4]]
        ) / 6.0
        _, Ksym = symbolic_element_matrices(1)
        for K in (assemble_matrix(stiffness_fields, s), reference_matrix(s)):
            np.testing.assert_allclose(K.toarray(), expected, atol=1e-14)
            np.testing.assert_allclose(K.toarray(), Ksym, atol=1e-14)

    def test_q2_mass_matches_symbolic(self):
        m = build_initial(UNIT_SQUARE, 1.0)
        s = build_space(m, "cg", 2, constrain_dirichlet=False)
        Msym, Ksym = symbolic_element_matrices(2)
        for M in (assemble_matrix(mass_fields, s).toarray(), applied_mass(s, s)):
            np.testing.assert_allclose(M, Msym, atol=1e-13)
        for K in (assemble_matrix(stiffness_fields, s), reference_matrix(s)):
            np.testing.assert_allclose(K.toarray(), Ksym, atol=1e-13)

    def test_zero_form_gives_zero_vector(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s = build_space(m, "cg", 1)

        def zform(ctx):
            return np.zeros(ctx.x.shape[:2]), None

        b = assemble_vector(zform, s)
        assert np.all(b == 0.0)

    def test_nan_names_cell(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s = build_space(m, "cg", 1)

        def bad(ctx):
            g = np.zeros(ctx.x.shape[:2])
            g[ctx.cells == 2] = np.nan
            return g, None

        with pytest.raises(Exception, match="cell 2"):
            assemble_vector(bad, s)

    def test_empty_region_gives_zeros(self):
        # a box goal over a box that holds no cell: zero derivative and value
        m0 = build_initial(UNIT_SQUARE, 0.5)
        m = refine(m0, mark(m0, [0]))
        test = build_space(m, "cg", 2)
        goal = _box_integral_goal("outside", "u", (5.0, 5.0, 6.0, 6.0), None)
        b = assemble_vector(goal.iu_fields, test)
        assert b.shape == (test.nfree,)
        assert not b.any()
        u = interpolate(test, lambda x, y: 1.0 + x * y)
        assert goal.value(u, None) == 0.0

    def test_load_vector_reads_the_data_a_sweep_cached(self):
        # a goal derivative swept over the space caches u_des at its quadrature
        # points; the load of u_des with the same rule reads them, bitwise
        from dataclasses import replace

        from dwropt.fem import gauss_points, load_vector
        from dwropt.problem import make_poisson_control

        base = make_poisson_control(alpha=0.01)
        calls = []

        def u_des(x, y):
            calls.append(x.shape)
            return base.u_des(x, y)

        problem = replace(base, u_des=u_des)
        s = build_space(build_initial(UNIT_SQUARE, 0.25), "cg", 2)
        n = gauss_points(s)
        u = interpolate(s, lambda x, y: x * y)
        assemble_vector(problem.j_u_fields, s, {"u": u}, nquad=n)
        assert calls
        calls.clear()
        b = load_vector(s, u_des, n)
        assert calls == []
        expected = assemble_vector(
            lambda ctx: (base.u_des(ctx.x[..., 0], ctx.x[..., 1]), None), s, nquad=n
        )
        np.testing.assert_array_equal(b, expected)


class TestChunking:
    """A sweep split into chunks gives the one-chunk results: assembled
    matrices, vectors and loads bitwise (each entry sums the same terms in
    the same order, and each cell's products are rounded alike), integrals
    up to the order of the chunk totals.  The mesh is small enough that
    BLAS does not split its products between threads."""

    @staticmethod
    def level():
        m0 = build_initial(HOLED_RECT, 0.25)  # aligned with example3's boxes
        mesh = refine(m0, mark(m0, range(0, m0.ncells, 5)))
        prob = make_plaplace_control(alpha=1.0, p=4.0, eps=1.0)
        state, ctrl = build_space(mesh, "cg", 2), build_space(mesh, "dg", 1)
        coeffs = {"u": interpolate(state, lambda x, y: np.sin(x) * np.cos(y) + 0.3 * x * y),
                  "q": interpolate(ctrl, lambda x, y: 1.0 + x - y)}
        return prob, state, ctrl, coeffs

    @staticmethod
    def results(prob, state, ctrl, coeffs):
        goals = make_goals("example3", prob)
        return {
            "matrix": assemble_matrix(prob.a_u_fields, state, coeffs).data,
            "residual": assemble_vector(prob.residual_fields, state, coeffs),
            "goal forms": [assemble_vector(g.iu_fields or g.iq_fields,
                                           state if g.iu_fields else ctrl, coeffs)
                           for g in goals],
            "loads": [load_vector(state, prob.u_des, 4), load_vector(ctrl, prob.q_des, 3)],
            "integrals": [integrate(lambda ctx: ctx.val("u") ** 2 * ctx.val("q"),
                                    state.mesh, coeffs)]
                         + [g.value(coeffs["u"], coeffs["q"]) for g in goals],
        }

    def test_chunked_sweeps_match_one_chunk(self, monkeypatch):
        import dwropt.fem as fem

        one = self.results(*self.level())
        prob, state, ctrl, coeffs = self.level()
        monkeypatch.setattr(fem, "_CHUNK_POINTS", 16 * 256)
        sizes = [len(ctx.cells) for ctx in fem.sweep(state.mesh, coeffs)]
        assert sizes[:-1] == [256] * 2 and 0 < sizes[-1] < 256, sizes
        many = self.results(prob, state, ctrl, coeffs)
        for key in ("matrix", "residual"):
            np.testing.assert_array_equal(many[key], one[key])
        for key in ("goal forms", "loads"):
            for got, want in zip(many[key], one[key]):
                np.testing.assert_array_equal(got, want)
        for got, want in zip(many["integrals"], one["integrals"]):
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_chunked_estimator_sweep_matches_one_chunk(self, ex1_level, monkeypatch):
        import dwropt.fem as fem
        from dwropt.estimator import localize_pu

        args = (ex1_level["combined"], (ex1_level["triple"], ex1_level["adj_low"]),
                (ex1_level["triple2"], ex1_level["adj2"]))
        one = localize_pu(*args)
        monkeypatch.setattr(fem, "_CHUNK_POINTS", 16)
        monkeypatch.setattr(fem, "_CHUNK_ALIGN", 1)
        assert len(list(fem.sweep(ex1_level["mesh"], nquad=4))) >= 3
        many = localize_pu(*args)
        scale = max(abs(x) for x in one.parts())
        for got, want in zip(many.parts(), one.parts()):
            assert abs(got - want) <= 1e-13 * scale
        scale = abs(one.vertex_values).max()
        assert abs(many.vertex_values - one.vertex_values).max() <= 1e-13 * scale


class TestSolve:
    def test_identity(self):
        import scipy.sparse as sp

        b = np.zeros(5)
        b[0] = 1.0
        x = Factorization(sp.eye(5).tocsr()).solve(b)
        np.testing.assert_allclose(x, b, atol=0)

    def test_pinned_unit_cell_matches_dense(self):
        m = build_initial(UNIT_SQUARE, 1.0)
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        K = reference_matrix(s).toarray()
        b = assemble_vector(lambda ctx: (np.ones(ctx.x.shape[:2]), None), s)
        # pin dof 0 by elimination
        Kp = K[1:, 1:]
        bp = b[1:]
        import scipy.sparse as sp

        x = Factorization(sp.csr_matrix(Kp)).solve(bp)
        xd = np.linalg.solve(Kp, bp)
        assert np.linalg.norm(x - xd) <= 1e-12 * max(1.0, np.linalg.norm(xd))

    def test_singular_raises(self):
        import scipy.sparse as sp

        A = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SingularSystemError):
            Factorization(A)

    def test_rank_one_singular_raises(self):
        import scipy.sparse as sp

        # a zero pivot appears only after elimination
        with pytest.raises(SingularSystemError):
            Factorization(sp.csr_matrix(np.ones((2, 2))))

    @pytest.mark.parametrize("root", [(UNIT_SQUARE, 0.5), (HOLED_RECT, 1.0)])
    @pytest.mark.parametrize("kind", ["cg1", "cg2", "cg3", "plaplace", "dg0", "dg1"])
    def test_solver_matrices_are_spd_and_solve_without_pivoting(self, root, kind):
        # Factorization pivots on the diagonal in a symmetric ordering; that is
        # safe only because every matrix it is given is symmetric positive
        # definite, which this checks on meshes with hanging nodes; the DG
        # masses, whose block inverse preconditions the reduced CG, are too
        mesh = build_initial(*root)
        for picks in ([0, 3], [1, 2]):
            mesh = refine(mesh, mark(mesh, [mesh.ncells - 1 - i for i in picks]))
        if kind.startswith("dg"):
            s = build_space(mesh, "dg", int(kind[2]))
            A = csr_matrix(applied_mass(s, s))
        elif kind == "plaplace":
            prob = make_plaplace_control(alpha=1.0, p=4.0, eps=1.0)
            s = build_space(mesh, "cg", 2)
            u = interpolate(s, lambda x, y: np.sin(x) * np.cos(y) + 0.3 * x * y)
            A = assemble_matrix(prob.a_u_fields, s, coeffs={"u": u})
        else:
            s = build_space(mesh, "cg", int(kind[2]))
            A = reference_matrix(s)
        assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
        dense = A.toarray()
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0
        b = np.cos(np.arange(A.shape[0]))
        x = np.linalg.solve(dense, b)
        xt = np.linalg.solve(dense.T, b)
        fac = Factorization(A)
        assert np.linalg.norm(fac.solve(b) - x) <= 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(fac.solve_transposed(b) - xt) <= 1e-12 * np.linalg.norm(xt)

    def test_csc_matrices_reach_superlu_without_a_copy(self, monkeypatch):
        import dwropt.fem as fem

        given, splu = [], fem.spla.splu

        def recording(A, **kwargs):
            given.append(A)
            return splu(A, **kwargs)

        monkeypatch.setattr(fem.spla, "splu", recording)
        mesh = build_initial(HOLED_RECT, 1.0)
        mesh = refine(mesh, mark(mesh, [0, 3]))
        prob = make_plaplace_control(alpha=1.0, p=4.0, eps=1.0)
        s = build_space(mesh, "cg", 2)
        u = interpolate(s, lambda x, y: np.sin(x) * np.cos(y))
        for A in (reference_matrix(s), assemble_matrix(prob.a_u_fields, s, coeffs={"u": u})):
            fac = Factorization(A)
            assert given.pop() is A
            assert not any(issparse(v) for v in vars(fac).values())

    def test_factorization_passes_the_superlu_options(self, monkeypatch):
        import dwropt.fem as fem

        given, splu = [], fem.spla.splu

        def recording(A, **kwargs):
            given.append(kwargs)
            return splu(A, **kwargs)

        monkeypatch.setattr(fem.spla, "splu", recording)
        Factorization(reference_matrix(build_space(build_initial(UNIT_SQUARE, 0.25), "cg", 2)))
        assert given == [dict(
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1,
            options=dict(SymmetricMode=True),
        )]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_malloc_trim_is_found_on_glibc(self):
        import dwropt.fem as fem

        assert fem._malloc_trim is not None
        assert fem._malloc_trim(0) in (0, 1)

    def test_factorization_trims_the_heap_once_before_splu(self, monkeypatch):
        import dwropt.fem as fem

        calls, splu = [], fem.spla.splu

        def recording_splu(A, **kwargs):
            calls.append("splu")
            return splu(A, **kwargs)

        monkeypatch.setattr(fem, "_malloc_trim", lambda pad: calls.append(("trim", pad)))
        monkeypatch.setattr(fem.spla, "splu", recording_splu)
        A = reference_matrix(build_space(build_initial(UNIT_SQUARE, 0.25), "cg", 2))
        for _ in range(2):
            Factorization(A)
        assert calls == [("trim", 0), "splu"] * 2

    def test_factorization_without_trim_is_bitwise_the_same(self, monkeypatch):
        import dwropt.fem as fem

        mesh = build_initial(HOLED_RECT, 1.0)
        mesh = refine(mesh, mark(mesh, [0, 3]))
        prob = make_plaplace_control(alpha=1.0, p=4.0, eps=1.0)
        s = build_space(mesh, "cg", 2)
        u = interpolate(s, lambda x, y: np.sin(x) * np.cos(y))
        b = np.cos(np.arange(s.nfree))
        mats = (reference_matrix(s), assemble_matrix(prob.a_u_fields, s, coeffs={"u": u}))

        def solves():
            facs = [Factorization(A) for A in mats]
            return [x for f in facs for x in (f.solve(b), f.solve_transposed(b))]

        trimmed = solves()
        for got, want in zip(solves(), trimmed):  # a refactorization solves alike
            assert np.array_equal(got, want)
        monkeypatch.setattr(fem, "_malloc_trim", None)
        for got, want in zip(solves(), trimmed):
            assert np.array_equal(got, want)

    def test_poisson_manufactured_convergence(self):
        # -lap(u) = f with u = sin(pi x) sin(pi y); L2 error halves ~ h^2
        errs = []
        for n, size in ((8, 0.125), (16, 0.0625)):
            m = build_initial(UNIT_SQUARE, size)
            s = build_space(m, "cg", 1)

            def load(ctx):
                x, y = ctx.x[..., 0], ctx.x[..., 1]
                return 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y), None

            A = reference_matrix(s)
            b = assemble_vector(load, s)
            u = DiscreteFunction(s, s.from_free(Factorization(A).solve(b)))

            def err_sq(ctx):
                x, y = ctx.x[..., 0], ctx.x[..., 1]
                return (ctx.val("u") - np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2

            errs.append(np.sqrt(integrate(err_sq, m, coeffs={"u": u}, nquad=5)))
        rate = np.log2(errs[0] / errs[1])
        assert 1.8 <= rate <= 2.2

    def test_galerkin_orthogonality(self):
        m = build_initial(UNIT_SQUARE, 0.25)
        m = refine(m, mark(m, [0, 5]))
        s = build_space(m, "cg", 1)

        def load(ctx):
            return np.ones(ctx.x.shape[:2]), None

        A = reference_matrix(s)
        b = assemble_vector(load, s)
        u = DiscreteFunction(s, s.from_free(Factorization(A).solve(b)))

        def residual(ctx):
            return -np.ones(ctx.x.shape[:2]), ctx.grad("u")

        r = assemble_vector(residual, s, coeffs={"u": u})
        assert np.max(np.abs(r)) <= 1e-10


class TestEvaluateAt:
    @pytest.mark.parametrize(
        "domain, points",
        [
            (UNIT_SQUARE, [(1.0, 0.3), (0.3, 1.0), (1.0, 1.0), (0.0, 0.0), (0.5, 0.25)]),
            (HOLED_RECT, [(1.0, 1.5), (1.5, 1.0), (7.0, 5.0), (2.0, 1.5), (1.5, 2.0)]),
        ],
    )
    def test_exact_on_the_closed_boundary(self, domain, points):
        # cells are half-open; points on the right or top edge of the domain
        # or on a hole's left or bottom edge still lie in the closed mesh
        m = build_initial(domain, 0.5)
        m = refine(m, mark(m, [0, 3]))
        s = build_space(m, "cg", 2, constrain_dirichlet=False)
        f = interpolate(s, lambda x, y: x + 2 * y)
        for p in points:
            assert abs(evaluate_at(f, p) - (p[0] + 2 * p[1])) <= 1e-14

    @pytest.mark.parametrize(
        "domain, point",
        [
            (UNIT_SQUARE, (1.0 + 1e-9, 0.5)),
            (UNIT_SQUARE, (0.5, -1e-9)),
            (UNIT_SQUARE, (1e300, 0.5)),
            (UNIT_SQUARE, (float("nan"), 0.5)),
            (HOLED_RECT, (1.5, 1.5)),
        ],
    )
    def test_outside_raises(self, domain, point):
        m = build_initial(domain, 0.5)
        f = zero_function(build_space(m, "cg", 1))
        with pytest.raises(DwroptError):
            evaluate_at(f, point)


class TestTransfer:
    def test_q1_to_q2_same_mesh(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s1 = build_space(m, "cg", 1, constrain_dirichlet=False)
        s2 = build_space(m, "cg", 2, constrain_dirichlet=False)
        rng = np.random.default_rng(0)
        f = DiscreteFunction(s1, s1.distribute(rng.standard_normal(s1.ndofs)))
        g = transfer(f, s2)
        pts = rng.uniform(0.05, 0.95, size=(20, 2))
        for p in pts:
            assert evaluate_at(g, p) == pytest.approx(evaluate_at(f, p), abs=1e-13)

    def test_coarse_to_fine_q1(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s1 = build_space(m, "cg", 1, constrain_dirichlet=False)
        m2 = refine(m, mark(m, range(4)))
        s2 = build_space(m2, "cg", 1, constrain_dirichlet=False)
        rng = np.random.default_rng(1)
        f = DiscreteFunction(s1, s1.distribute(rng.standard_normal(s1.ndofs)))
        g = transfer(f, s2)
        pts = rng.uniform(0.05, 0.95, size=(20, 2))
        for p in pts:
            assert evaluate_at(g, p) == pytest.approx(evaluate_at(f, p), abs=1e-13)

    def test_q2_to_q1_is_nodal_interpolant(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s2 = build_space(m, "cg", 2, constrain_dirichlet=False)
        s1 = build_space(m, "cg", 1, constrain_dirichlet=False)
        f = interpolate(s2, lambda x, y: x**2)
        g = transfer(f, s1)
        # oracle: direct nodal evaluation of x^2 at the Q1 nodes
        np.testing.assert_allclose(g.coefs, s1.node_xy[:, 0] ** 2, atol=1e-14)

    def test_unrelated_meshes_rejected(self):
        m1 = build_initial(UNIT_SQUARE, 0.5)
        m2 = build_initial(UNIT_SQUARE, 0.5)
        m2b = refine(m2, mark(m2, [0]))
        s_to = build_space(m2b, "cg", 1)
        # a refinement of the same root grid is compatible
        transfer(zero_function(build_space(m1, "cg", 1)), s_to)
        # target coarser than the source somewhere -> unrelated
        m1b = refine(m1, mark(m1, [1]))
        with pytest.raises(UnrelatedMeshError):
            transfer(zero_function(build_space(m1b, "cg", 1)), s_to)


class TestIntegrate:
    def test_holed_area(self):
        m = build_initial(HOLED_RECT, 0.5)
        got = integrate(lambda ctx: np.ones(ctx.x.shape[:2]), m)
        assert got == pytest.approx(29.0, rel=1e-13)

    def test_constant_interpolant(self):
        m = build_initial(UNIT_SQUARE, 0.5)
        s = build_space(m, "cg", 1, constrain_dirichlet=False)
        u = interpolate(s, lambda x, y: 2.0 + 0 * x)
        got = integrate(lambda ctx: ctx.val("u"), m, coeffs={"u": u})
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_strip_region_oracle(self):
        # oracle: cell-by-cell geometric enumeration of the strip [4,5] x R
        m = build_initial(HOLED_RECT, 0.5)
        org = m.cell_origin()
        h = m.cell_h()
        expected = sum(
            h[c] * h[c]
            for c in range(m.ncells)
            if org[c, 0] >= 4.0 - 1e-12 and org[c, 0] + h[c] <= 5.0 + 1e-12
        )
        (strip,) = [g for g in make_goals("example3", make_plaplace_control(1.0, 4.0, 1.0))
                    if g.name == "state_strip"]
        assert strip.region == (4.0, -np.inf, 5.0, np.inf)
        ones = interpolate(build_space(m, "cg", 1, constrain_dirichlet=False),
                           lambda x, y: np.ones_like(x))
        got = strip.value(ones, None)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(5.0, rel=1e-13)

    def test_coefficient_on_another_mesh_rejected(self):
        coarse = build_initial(UNIT_SQUARE, 0.5)
        fine = refine(coarse, mark(coarse, range(coarse.ncells)))

        def x2y(on):
            space = build_space(on, "cg", 2, constrain_dirichlet=False)
            return interpolate(space, lambda x, y: x * x * y)

        def value(ctx):
            return ctx.val("u")

        assert integrate(value, fine, coeffs={"u": x2y(fine)}) == pytest.approx(1 / 6)
        for on, over in ((fine, coarse), (coarse, fine)):
            u = x2y(on)
            s = build_space(over, "cg", 1)
            with pytest.raises(AssemblyError, match="different mesh"):
                integrate(value, over, coeffs={"u": u})
            with pytest.raises(AssemblyError, match="different mesh"):
                assemble_vector(lambda ctx: (value(ctx), None), s, coeffs={"u": u})
            with pytest.raises(AssemblyError, match="different mesh"):
                assemble_matrix(lambda ctx: (None, value(ctx)), s, coeffs={"u": u})
            with pytest.raises(AssemblyError, match="different mesh"):
                reference_apply(u.coefs[u.space.free_dofs], s, u.space)
