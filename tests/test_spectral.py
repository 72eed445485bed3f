import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sl
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectra_bochner import discretize as dz, geometry as geom
from spectra_bochner import spectral as spec
from spectra_bochner.errors import (ConfigError, NoConvergence,
                                   SchoutenUndefined)

import oracles


def eigenpair_pairing_defect(op_phi, result, op_g, mode=0):
    """Normalized defect of the discrete pairing identity.

    For an eigenpair (mu, u) of the phi-pencil, the continuum identity
    int <phi(grad f), grad(Delta f)> = -mu int |grad f|^2 discretizes to
    u^T K_phi M^{-1} K_g u = mu u^T K_g u.
    """
    u = result.eigenvectors[:, mode]
    mu = float(result.eigenvalues[mode])
    Kg, Kp, M = op_g.K, op_phi.K, op_phi.M.tocsc()
    w = spla.spsolve(M, Kg @ u)
    lhs = float((Kp @ u) @ w)
    rhs = mu * float(u @ (Kg @ u))
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


@pytest.fixture(scope="module")
def sphere_op():
    m = dz.icosphere(4)
    return dz.assemble(m, dz.metric_coefficient())


@pytest.fixture(scope="module")
def sphere_result(sphere_op):
    return spec.smallest_nonzero(sphere_op, k=4, tol=1e-9)


class TestAnalyticSpectra:
    def test_laplacian_s2(self):
        assert np.allclose(spec.analytic_sphere_spectrum(2, 1.0, modes=3),
                           [2.0, 6.0, 12.0])

    def test_schouten_s4(self):
        mu = spec.analytic_sphere_spectrum(4, 1.0, spec.OP_SCHOUTEN, 1)
        assert mu[0] == pytest.approx(4.0)

    def test_schouten_undefined_n2(self):
        with pytest.raises(SchoutenUndefined):
            spec.analytic_sphere_spectrum(2, 1.0, spec.OP_SCHOUTEN, 1)

    def test_newton_l1_unit_sphere(self):
        mu = spec.analytic_sphere_spectrum(2, 1.0, spec.OP_NEWTON_L1, 1,
                                           alpha=1.0, kappa=0.0)
        assert mu[0] == pytest.approx(2.0)

    def test_newton_l1_scaling(self):
        # (n-1) alpha k(k+n-1)(alpha^2+kappa)
        mu = spec.analytic_sphere_spectrum(3, 1.0, spec.OP_NEWTON_L1, 2,
                                           alpha=2.0, kappa=1.0)
        assert np.allclose(mu, [2 * 2 * 3 * 5, 2 * 2 * 8 * 5])


class TestSmallestNonzero:
    def test_icosphere_laplacian(self, sphere_result):
        r = sphere_result
        assert r.mu1 == pytest.approx(2.0, abs=0.02)
        # first nonzero eigenvalue has multiplicity 3
        assert r.eigenvalues[2] - r.eigenvalues[0] < 1e-6
        assert r.eigenvalues[3] > 5.5
        assert np.max(r.residuals) < 1e-8

    def test_mesh_solver_diagnostics(self, sphere_result):
        diag = sphere_result.diagnostics
        assert diag["solver"] == "lobpcg-splu"
        assert diag["fill"] > 0 and diag["solves"] > 0 and diag["shift"] > 0
        assert diag["iterations"] == len(diag["residual_history"]) > 0

    def test_m_orthonormal_eigenvectors(self, sphere_op, sphere_result):
        U = sphere_result.eigenvectors
        G = U.T @ (sphere_op.M @ U)
        assert np.max(np.abs(G - np.eye(U.shape[1]))) < 1e-10

    def test_rayleigh_quotients_match(self, sphere_op, sphere_result):
        for j, mu in enumerate(sphere_result.eigenvalues):
            u = sphere_result.eigenvectors[:, j]
            rq = float(u @ (sphere_op.K @ u)) / float(u @ (sphere_op.M @ u))
            assert rq == pytest.approx(mu, rel=1e-10)

    def test_seed_invariance(self, sphere_op, sphere_result):
        r2 = spec.smallest_nonzero(sphere_op, k=1, seed=12345)
        assert r2.mu1 == pytest.approx(sphere_result.mu1, rel=1e-10)

    def test_permutation_invariance(self, sphere_op, sphere_result):
        rng = np.random.default_rng(0)
        perm = rng.permutation(sphere_op.size)
        P = np.eye(sphere_op.size)[perm]
        import scipy.sparse as sp
        Ps = sp.csr_matrix(P)
        op2 = dz.AssembledOperator(K=Ps @ sphere_op.K @ Ps.T,
                                   M=Ps @ sphere_op.M @ Ps.T,
                                   points=sphere_op.points[perm],
                                   record={"phi": "permuted"})
        r2 = spec.smallest_nonzero(op2, k=1)
        assert r2.mu1 == pytest.approx(sphere_result.mu1, rel=1e-10)

    def test_flat_torus_grid(self):
        g = dz.PeriodicGrid(lengths=[2 * np.pi, 2 * np.pi], shape=(64, 64))
        op = dz.assemble(g, dz.metric_coefficient())
        r = spec.smallest_nonzero(op, k=2)
        assert r.mu1 == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("k,tol", [(0, 1e-9), (-1, 1e-9), (1, 0.0),
                                       (1, -1.0), (1, np.nan), (1, np.inf)])
    @pytest.mark.parametrize("grid", [False, True])
    def test_bad_k_or_tol(self, sphere_op, grid, k, tol):
        op = sphere_op
        if grid:
            g = dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(8, 8))
            op = dz.assemble(g, dz.metric_coefficient())
        what = "k must be at least 1" if k < 1 else "tol must be positive"
        with pytest.raises(ConfigError, match=what):
            spec.smallest_nonzero(op, k=k, tol=tol)

    def test_identity_pencil(self):
        g = dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(8, 8))
        op = dz.assemble(g, dz.metric_coefficient())
        trivial = dz.AssembledOperator(K=op.M.copy(), M=op.M.copy(),
                                       points=op.points,
                                       record={"phi": "identity-pencil"})
        r = spec.smallest_nonzero(trivial, k=3)
        assert np.allclose(r.eigenvalues, 1.0, atol=1e-8)

    def test_refinement_from_above(self):
        mus = []
        for sub in (2, 3, 4):
            m = dz.icosphere(sub)
            op = dz.assemble(m, dz.metric_coefficient())
            mus.append(spec.smallest_nonzero(op, k=1).mu1)
        assert mus[0] > mus[1] > mus[2] > 2.0

    def test_galerkin_h2_ratio(self):
        mus = []
        for sub in (3, 4, 5):
            m = dz.icosphere(sub)
            op = dz.assemble(m, dz.metric_coefficient())
            mus.append(spec.smallest_nonzero(op, k=1).mu1)
        r = (mus[0] - 2.0) / (mus[1] - 2.0)
        r2 = (mus[1] - 2.0) / (mus[2] - 2.0)
        assert r == pytest.approx(4.0, abs=0.3)
        assert r2 == pytest.approx(4.0, abs=0.3)


def torus_grid_op(res):
    chart = geom.parse_manifold("torus3:perturb=sin").chart()
    grid = dz.PeriodicGrid(lengths=chart.hi - chart.lo, shape=(res,) * 3,
                           metric=chart.metric.comp)
    return dz.assemble(grid, dz.grid_metric_coefficient(grid))


@pytest.fixture(scope="module")
def torus18_op():
    return torus_grid_op(18)


class TestGridSolver:
    @pytest.mark.parametrize("lengths,shape", [
        ([2 * np.pi, 3.0], (7, 5)),
        ([2 * np.pi] * 3, (6, 6, 6)),
    ])
    def test_symbols_are_flat_spectrum(self, lengths, shape):
        # a flat grid has constant coefficients, so stiffness over mass
        # symbol is the whole discrete spectrum
        op = dz.assemble(dz.PeriodicGrid(lengths=lengths, shape=shape),
                         dz.metric_coefficient())
        stiff, mass = op.symbols
        assert stiff.shape == mass.shape == shape
        dense = sl.eigh(op.K.toarray(), op.M.toarray(), eigvals_only=True)
        ratio = np.sort((stiff / mass).ravel())
        assert np.max(np.abs(ratio - dense)) <= 1e-12 * dense[-1]

    def test_meshes_carry_no_symbols(self, sphere_op):
        assert sphere_op.symbols is None

    # mu1 recorded for these grids by the shift-invert solver
    @pytest.mark.parametrize("res,recorded", [(6, 1.0867453285340072),
                                              (8, 1.0449199065803503)])
    def test_perturbed_torus_matches_dense(self, res, recorded):
        op = torus_grid_op(res)
        r = spec.smallest_nonzero(op, k=1)
        assert r.diagnostics["solver"] == "lobpcg-fft"
        dense = sl.eigh(op.K.toarray(), op.M.toarray(), eigvals_only=True)
        assert abs(dense[0]) < 1e-10
        assert r.mu1 == pytest.approx(dense[1], rel=1e-10)
        assert r.mu1 == pytest.approx(recorded, rel=1e-10)

    @pytest.mark.parametrize("op", [
        torus_grid_op(6),
        dz.assemble(dz.PeriodicGrid(lengths=[2 * np.pi] * 2, shape=(12, 10)),
                    oracles.nondivergence_free_coefficient()),
    ], ids=["torus3-sin-6", "nondivfree-12x10"])
    def test_shifted_preconditioner_is_spd(self, op):
        P, sigma, nu1, _ = spec._fft_preconditioner(op.symbols, 1)
        assert sigma == spec.LOBPCG_SHIFT * nu1 > 0.0
        D = P(np.eye(op.size))
        assert np.max(np.abs(D - D.T)) <= 1e-12 * np.max(np.abs(D))
        assert np.linalg.eigvalsh(D)[0] > 0.0

    def test_shifted_preconditioner_iterations(self, torus18_op):
        # the unshifted preconditioner took a median of 34 iterations here
        its = []
        for j in range(5):
            r = spec.smallest_nonzero(torus18_op, k=1, seed=[1000, j])
            its.append(r.diagnostics["iterations"])
            # the benchmark's recorded mu1 of the 18^3 grid
            assert abs(r.mu1 - 1.0028150121556432) <= 1e-12
        assert np.median(its) <= 22

    def test_start_iterations(self, torus18_op):
        # started from the averaged pencil's lowest modes: the random start
        # alone took 14-24 iterations on these seeds
        for s in range(10):
            r = spec.smallest_nonzero(torus18_op, k=1, seed=[0, s])
            assert r.diagnostics["iterations"] <= 12
            assert r.diagnostics["start_modes"] == 6
            assert r.mu1 == pytest.approx(1.0028150121556432, rel=1e-12)

    def test_caller_start_joins_fourier_rows(self, torus18_op):
        # on a grid the caller's rows join the averaged pencil's modes
        cold = spec.smallest_nonzero(torus18_op, seed=3)
        warm = spec.smallest_nonzero(torus18_op, seed=3,
                                     start=cold.eigenvectors.T)
        assert warm.diagnostics["start_modes"] == 7
        assert warm.diagnostics["iterations"] < cold.diagnostics["iterations"]
        assert warm.mu1 == pytest.approx(cold.mu1, rel=1e-12, abs=0.0)

    def test_start_rows_freed_before_work_buffers(self, torus18_op,
                                                  monkeypatch):
        # the traced peak of one 18^3 solve reads 1.26 MB, set by LOBPCG's
        # work buffers (the Ritz start peaks at 0.78 MB); the six Fourier
        # rows (0.28 MB) kept alive through the iteration raise it to
        # 1.54 MB
        def peak():
            tracemalloc.start()
            try:
                spec.smallest_nonzero(torus18_op, seed=[0, 0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() <= 1.46e6
        kept, rows = [], spec._fourier_rows
        monkeypatch.setattr(spec, "_fourier_rows",
                            lambda *a: kept.append(rows(*a)) or kept[-1])
        assert peak() > 1.46e6

    def test_start_modes_take_each_pair_once(self):
        # flat 7 x 5 grid of lengths (2 pi, 3): the ratios off the constant
        # mode rise through kappa = (+-1, 0), (0, +-1), (+-2, 0) and the
        # four (+-1, +-1), whose computed ratios differ by round-off only
        op = dz.assemble(dz.PeriodicGrid(lengths=[2 * np.pi, 3.0],
                                         shape=(7, 5)),
                         dz.metric_coefficient())
        for k, want in [(1, [[1, 0]]), (2, [[1, 0]]),
                        (3, [[0, 1], [1, 0]]),
                        (5, [[0, 1], [1, 0], [2, 0]]),
                        (7, [[0, 1], [1, 0], [1, 1], [1, 4], [2, 0]])]:
            modes = spec._fft_preconditioner(op.symbols, k)[3]
            assert modes.tolist() == want

    @pytest.mark.parametrize("shape,modes,rows", [
        ((4, 6), [[2, 3]], [[1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1] * 2]),
        ((4,), [[1]], [[1, 0, -1, 0], [0, 1, 0, -1]]),
    ])
    def test_fourier_rows(self, shape, modes, rows):
        got = spec._fourier_rows(np.array(modes), shape)
        assert np.allclose(got, rows, rtol=0.0, atol=1e-14)

    def test_block_too_large_for_grid(self):
        # 9 nodes carry 8 nonzero eigenvalues
        op = dz.assemble(dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(3, 3)),
                         dz.metric_coefficient())
        with pytest.raises(ConfigError, match="k = 9 .* N = 9 nodes"):
            spec.smallest_nonzero(op, k=9)


def dense_nonzero(op):
    """The pencil's nonzero eigenvalues by dense eigh, its zero dropped."""
    mu = sl.eigh(op.K.toarray(), op.M.toarray(), eigvals_only=True)
    assert abs(mu[0]) < 1e-10 * mu[-1]
    return mu[1:]


DENSE_OPS = {
    "sphere-2": lambda: dz.assemble(dz.icosphere(2), dz.metric_coefficient()),
    "sphere-3": lambda: dz.assemble(dz.icosphere(3), dz.metric_coefficient()),
    "ellipsoid-2": lambda: dz.assemble(
        dz.icosphere(2, (1.0, 1.3, 0.8)),
        dz.metric_coefficient()),
    "ellipsoid-3": lambda: dz.assemble(
        dz.icosphere(3, (1.0, 1.3, 0.8)),
        dz.metric_coefficient()),
    "nondivfree-12x10": lambda: dz.assemble(
        dz.PeriodicGrid(lengths=[2 * np.pi] * 2, shape=(12, 10)),
        oracles.nondivergence_free_coefficient()),
    "torus3-sin-8": lambda: torus_grid_op(8),
}


@pytest.fixture(scope="module")
def dense_case():
    cache = {}

    def get(name):
        if name not in cache:
            op = DENSE_OPS[name]()
            cache[name] = op, dense_nonzero(op)
        return cache[name]

    return get


class TestLobpcg:
    @pytest.mark.parametrize("seed", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 4, 6, 8])
    @pytest.mark.parametrize("name", list(DENSE_OPS))
    def test_matches_dense(self, dense_case, name, k, seed):
        # the k asked for, not the first k found: shift-inverted Lanczos
        # returned 12.06 for 6.02 at k = 6 and 8 on the unit icospheres
        op, dense = dense_case(name)
        r = spec.smallest_nonzero(op, k=k, seed=seed)
        assert np.allclose(r.eigenvalues, dense[:k], rtol=1e-8, atol=0.0)
        # the enclosure bounds each value's distance to dense
        assert np.all(np.abs(r.eigenvalues - dense[:k])
                      <= r.diagnostics["enclosure"])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.6, 0.9])
    def test_start_outside_averaged_modes(self, eps, k):
        # metric (1 + eps sin x1) I on [0, 2 pi) x [0, 0.97 2 pi): the
        # averaged pencil's lowest modes are the x1 waves, with nothing
        # along x2, while mu1 varies along x2.  K, M and the preconditioner
        # commute with x2-translations, so a start from those modes alone
        # stays in the wrong class (0.978149 for 0.933147 at eps = 0.6);
        # the random rows of the start block reach the right one
        def metric(x):
            c = 1.0 + eps * np.sin(x[..., 0])
            return c[..., None, None] * np.eye(2)

        grid = dz.PeriodicGrid(lengths=[2 * np.pi, 0.97 * 2 * np.pi],
                               shape=(24, 20), metric=metric)
        op = dz.assemble(grid, dz.grid_metric_coefficient(grid))
        dense = dense_nonzero(op)
        for seed in range(20):
            r = spec.smallest_nonzero(op, k=k, seed=seed)
            assert r.diagnostics["start_modes"] > 0
            assert np.allclose(r.eigenvalues, dense[:k], rtol=1e-8, atol=0.0)

    def test_start_outside_symmetry_class(self):
        # on the (1, 1, 1.1) spheroid mu1 = 1.8176 is the simple mode
        # symmetric about the long axis; x lies in the class of the pair
        # just above it, 1.8213, which the mirror x -> -x of the mesh keeps
        # apart.  A block of the lowest Ritz vector alone returned 1.8213
        # on every seed; the guard keeps the random row's direction
        ax = (1.0, 1.0, 1.1)
        mesh = dz.icosphere(3, ax)
        op = dz.assemble(mesh, dz.ellipsoid_newton1_coefficient(ax))
        x = mesh.vertices[:, 0]
        for seed in range(10):
            cold = spec.smallest_nonzero(op, seed=seed)
            warm = spec.smallest_nonzero(op, seed=seed, start=x)
            assert warm.diagnostics["start_modes"] == 1
            assert warm.mu1 == pytest.approx(cold.mu1, rel=1e-10, abs=0.0)
        assert cold.mu1 == pytest.approx(1.8175837, abs=1e-7)

    @pytest.mark.parametrize("op", [
        dz.assemble(dz.icosphere(0), dz.metric_coefficient()),
        dz.assemble(dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(3, 3)),
                    dz.metric_coefficient()),
    ], ids=["icosphere-0", "grid-3x3"])
    def test_every_k_below_n_with_start(self, op):
        # k + guards stays below N - 1: the guards give way as k grows
        dense = dense_nonzero(op)
        rows = np.random.default_rng(1).standard_normal((3, op.size))
        for k in range(1, op.size):
            r = spec.smallest_nonzero(op, k=k, start=rows)
            assert np.allclose(r.eigenvalues, dense[:k], rtol=1e-8, atol=0.0)

    def test_start_rows_must_span_the_nodes(self, sphere_op):
        n = sphere_op.size
        for shape in ((5, n - 1), (n, 2), (n + 1,), (1, n, 1)):
            with pytest.raises(ConfigError, match="start rows must have"):
                spec.smallest_nonzero(sphere_op, start=np.ones(shape))

    @pytest.mark.parametrize("op", [
        dz.assemble(dz.icosphere(2), dz.metric_coefficient()),
        dz.assemble(dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(8, 8)),
                    dz.metric_coefficient()),
    ], ids=["icosphere-2", "grid-8x8"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_row(self, op, bad):
        # unchecked, such rows end in a bare IndexError from _svqb on the
        # mesh and in a dsyevd NoConvergence on the grid
        rows = np.ones((3, op.size))
        rows[1, 5] = bad
        with pytest.raises(ConfigError, match="start row 1 is not finite"):
            spec.smallest_nonzero(op, start=rows)
        with pytest.raises(ConfigError, match="start row 0 is not finite"):
            spec.smallest_nonzero(op, start=np.full(op.size, bad))

    @pytest.mark.parametrize("op", [
        dz.assemble(dz.icosphere(0), dz.metric_coefficient()),
        dz.assemble(dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(3, 3)),
                    dz.metric_coefficient()),
    ], ids=["icosphere-0", "grid-3x3"])
    def test_every_k_below_n(self, op):
        dense = dense_nonzero(op)
        for k in range(1, op.size):
            r = spec.smallest_nonzero(op, k=k)
            assert np.allclose(r.eigenvalues, dense[:k], rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("op", [
        torus_grid_op(6),
        dz.assemble(dz.icosphere(2), dz.metric_coefficient()),
    ], ids=["grid", "mesh"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_planted_non_convergence(self, op, k, monkeypatch):
        # three iterations are too few, from a random block on the mesh and
        # from the averaged pencil's lowest modes on the grid, whose
        # residuals still sit near 1e-5 after three against a limit of 5e-9
        monkeypatch.setattr(spec, "LOBPCG_MAXITER", 3)
        K, M = op.K, op.M
        vol = M.sum()
        limit = 1e-9 * (abs(K).sum() / abs(M).sum()) * np.sqrt(vol / op.size)
        with pytest.raises(NoConvergence, match="in 3 iterations") as info:
            spec.smallest_nonzero(op, k=k, tol=1e-9)
        assert info.value.eigenvalues.shape == (k,)
        assert info.value.residuals.shape == (k,)
        assert np.min(info.value.residuals) > limit


class DriftingProducts:
    """K whose first ``count`` products come out scaled by 1 + eps: the
    implicitly updated products of LOBPCG then carry that drift."""

    def __init__(self, K, count=6, eps=1e-6):
        self.K, self.shape, self.left, self.eps = K, K.shape, count, eps

    def __matmul__(self, V):
        out = self.K @ V
        if self.left > 0:
            self.left -= 1
            out = out * (1.0 + self.eps)
        return out


class TestLobpcgTrust:
    # without a refresh on stall this drift took 523-634 iterations on
    # seeds 0 and 1 and raised NoConvergence after 1000 on seeds 3 and 7:
    # the residual stuck at about 2e-7 against a limit of 6e-9
    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_planted_drift_refreshes(self, seed):
        op = torus_grid_op(8)
        K, M, N = op.K, op.M, op.size
        m1 = M @ np.ones(N)
        vol = m1.sum()
        limit = 1e-9 * (abs(K).sum() / abs(M).sum()) * np.sqrt(vol / N)
        P = spec._fft_preconditioner(op.symbols, 1)[0]
        X = np.random.default_rng(seed).standard_normal((N, 1)).T
        mu, _, R, stats = spec._lobpcg(DriftingProducts(K), M, P, X, 1, limit,
                                       m1, vol)
        assert stats["iterations"] <= 60
        assert stats["refreshes"] >= 1
        assert np.linalg.norm(R) <= limit
        assert mu[0] == pytest.approx(1.0449199065803503, rel=1e-12)

    def test_no_refresh_on_benchmark_sizes(self, torus18_op):
        ops = [torus18_op] + [
            dz.assemble(dz.icosphere(sub),
                        dz.ellipsoid_newton1_coefficient((1.0, 1.0, 1.0)))
            for sub in (1, 2, 3)]
        for op in ops:
            for seed in range(3):
                r = spec.smallest_nonzero(op, k=1, seed=[0, seed])
                assert r.diagnostics["refreshes"] == 0

    def test_enclosure_of_hand_built_operator_is_none(self, sphere_op):
        op = dz.AssembledOperator(K=sphere_op.K, M=sphere_op.M,
                                  points=sphere_op.points,
                                  record={"phi": "hand-built"})
        assert spec.smallest_nonzero(op).diagnostics["enclosure"] is None

    @pytest.mark.parametrize("grid", [False, True])
    def test_enclosure_constant(self, sphere_op, grid):
        # c ||r|| in the inverse lumped-mass norm: c = 2 on P1 triangles,
        # 3^(n/2) on Q1 cells in n dimensions
        op = torus_grid_op(6) if grid else sphere_op
        r = spec.smallest_nonzero(op, k=2)
        K, M, U = op.K, op.M, r.eigenvectors
        R = K @ U - (M @ U) * r.eigenvalues
        lumped = np.sqrt(np.sum(R * R / (M @ np.ones(op.size))[:, None],
                                axis=0))
        c = 3.0 ** 1.5 if grid else 2.0
        assert np.allclose(r.diagnostics["enclosure"], c * lumped,
                           rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("info", [1, -3])
    def test_dsyevd_failure_raises(self, sphere_op, monkeypatch, info):
        dsyevd = spec.dsyevd

        def failing(a, **kwargs):
            w, v, _ = dsyevd(a, **kwargs)
            return w, v, info

        monkeypatch.setattr(spec, "dsyevd", failing)
        with pytest.raises(NoConvergence, match="dsyevd failed") as exc:
            spec.smallest_nonzero(sphere_op, k=1)
        assert exc.value.eigenvalues is None


class TestFactorInput:
    @pytest.mark.parametrize("sub,ax", [(1, 1.0), (2, 1.0), (3, 1.0),
                                        (4, 1.0), (3, (1.0, 1.3, 0.8))])
    def test_matches_scipy_chain(self, sub, ax):
        # the SuperLU input, ordered on K's pattern, bit for bit against
        # scipy's sum ordered on its own pattern, row and column indexing
        # and CSC conversion
        op = dz.assemble(dz.icosphere(sub, ax),
                         dz.ellipsoid_newton1_coefficient(
                             np.broadcast_to(ax, 3)))
        K, M = op.K, op.M
        eps = 1e-8 * abs(K).sum() / abs(M).sum()
        got = spec._factor_input(K, M, eps,
                                 spec._nested_dissection(K, op.points))
        ref = oracles.scipy_factor_input(K, M, eps, op.points)
        assert got.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))

    @pytest.mark.parametrize("plant", ["dropped-entry", "csc"])
    def test_planted_pattern_mismatch_rejected(self, sphere_op, plant):
        # M with one off-diagonal entry dropped, which scipy's sum would
        # have factored as the union of the patterns without a word, and
        # K and M converted to CSC
        K, M = sphere_op.K, sphere_op.M
        if plant == "csc":
            K, M = K.tocsc(), M.tocsc()
        else:
            M = M.tolil()
            M[0, M.rows[0][-1]] = 0.0
            M = M.tocsr()
            assert M.nnz == K.nnz - 1
        op = dz.AssembledOperator(K=K, M=M, points=sphere_op.points,
                                  record={"phi": "planted"})
        with pytest.raises(ConfigError,
                           match="^K and M must share one CSR pattern$"):
            spec.smallest_nonzero(op)


class TestNestedDissection:
    def test_order_is_permutation(self, sphere_op, torus18_op):
        for op in (sphere_op, torus18_op):
            perm = spec._nested_dissection(op.K.tocsr(), op.points)
            assert np.array_equal(np.sort(perm), np.arange(op.size))

    @staticmethod
    def reference_order(A, points):
        """The same dissection with each separator read by a sparse row
        slice of A's pattern times an indicator of the upper side."""
        pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr),
                                shape=A.shape)
        upper = np.zeros(A.shape[0])
        order, stack = [], [(np.arange(A.shape[0]), True)]
        while stack:
            idx, split = stack.pop()
            if split and idx.size > spec.ND_LEAF:
                x = points[idx]
                axis = int(np.argmax(np.ptp(x, axis=0)))
                split = np.ptp(x[:, axis]) > 0.0
            else:
                split = False
            if not split:
                order.append(idx)
                continue
            v = x[:, axis]
            median = np.partition(v, v.size // 2)[v.size // 2]
            low = v < median if (v < median).any() else v <= median
            lo, hi = idx[low], idx[~low]
            upper[hi] = 1.0
            cut = pattern[lo] @ upper > 0.0
            upper[hi] = 0.0
            stack += [(lo[cut], False), (hi, True), (lo[~cut], True)]
        return np.concatenate(order)

    def test_order_matches_reference(self, sphere_op, torus18_op):
        for op in (sphere_op, torus18_op):
            A = op.K.tocsr()
            assert np.array_equal(spec._nested_dissection(A, op.points),
                                  self.reference_order(A, op.points))

    def test_fill_below_default_order(self, torus18_op):
        # grids are solved without a factorization, so the 18^3 torus's
        # K + eps*M is ordered and factored here as the mesh path would
        K, M = torus18_op.K, torus18_op.M
        A = (K + 1e-8 * abs(K).sum() / abs(M).sum() * M).tocsr()
        perm = spec._nested_dissection(A, torus18_op.points)
        fill = spla.splu(A[perm][:, perm].tocsc(), permc_spec="NATURAL").nnz
        lu = spla.splu(A.tocsc())
        assert 0 < fill < lu.nnz


class TestEigenpairPairingDefect:
    def test_exact_for_discrete_eigenpair(self, sphere_op, sphere_result):
        d = eigenpair_pairing_defect(sphere_op, sphere_result, sphere_op)
        assert d < 1e-10

    def test_random_vector_control(self, sphere_op, sphere_result):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(sphere_op.size)
        u -= u.mean()
        fake = spec.EigenResult(eigenvalues=np.array([sphere_result.mu1]),
                                eigenvectors=u[:, None],
                                residuals=np.array([1.0]), diagnostics={})
        assert eigenpair_pairing_defect(sphere_op, fake, sphere_op) > 0.01
