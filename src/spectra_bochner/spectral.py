"""First nonzero eigenvalue of K u = mu M u, plus closed-form sphere spectra.

The pencil is singular (constants span the kernel of K).  Periodic grids are
solved by LOBPCG constrained M-orthogonal to the constants and
preconditioned through the FFT by the pencil with cell-averaged
coefficients, shifted by 0.9 times that pencil's mu1 (read off its Fourier
symbols); nothing is factored and no shift enters their mu1.  Every
other operator is solved by shift-inverted Lanczos on (K + eps*M)^{-1} M
with a tiny regularization eps and explicit M-orthogonal deflation of the
constant mode, K + eps*M factored once in a coordinate nested-dissection
order of the nodes.  Round spheres have closed-form spectra for the
Laplacian, the Schouten operator, and the linearized operator L1 of an
umbilic geodesic sphere, used as oracles.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (ConfigError, FactorizationFailure, NoConvergence,
                     SchoutenUndefined)


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray   # ascending, smallest NONZERO first
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray     # ||K u - mu M u|| / ||u||
    diagnostics: Dict[str, object]

    @property
    def mu1(self):
        return float(self.eigenvalues[0])


# nested-dissection parts of at most this many nodes are not split further
ND_LEAF = 64


def _nested_dissection(A, points):
    """Fill-reducing symmetric order of A's nodes: leaves first, separators
    last.

    Each part is split at the median of its widest coordinate.  The lower
    side's endpoints of the edges that cross the cut (read from A's
    sparsity, so a periodic grid's wrap-around plane is caught too) form the
    separator, ordered after both sides, which are split again until they
    hold at most ND_LEAF nodes.
    """
    upper = np.zeros(A.shape[0], dtype=bool)   # the upper side of a cut
    order = []
    stack = [(np.arange(A.shape[0]), True)]
    while stack:
        idx, split = stack.pop()
        split = split and idx.size > ND_LEAF
        if split:
            x = points[idx]
            extent = np.ptp(x, axis=0)
            axis = int(np.argmax(extent))
            split = extent[axis] > 0.0
        if not split:
            order.append(idx)
            continue
        v = x[:, axis]
        median = np.partition(v, v.size // 2)[v.size // 2]
        low = v < median
        if not low.any():
            low = v <= median
        lo, hi = idx[low], idx[~low]
        # a node of lo is cut if its row has an entry in hi; the rows are
        # run together (none is empty: each holds its diagonal)
        count = A.indptr[lo + 1] - A.indptr[lo]
        first = np.cumsum(count) - count
        run = np.arange(count.sum()) + np.repeat(A.indptr[lo] - first, count)
        upper[hi] = True
        cut = np.logical_or.reduceat(upper[A.indices[run]], first)
        upper[hi] = False
        # popped in reverse: lower side, upper side, then the separator
        stack += [(lo[cut], False), (hi, True), (lo[~cut], True)]
    return np.concatenate(order)


# LOBPCG iterations per run, and runs from the block the last one returned
LOBPCG_MAXITER = 1000
LOBPCG_RUNS = 4
# the grid preconditioner's shift sigma, as a fraction of the averaged
# pencil's mu1
LOBPCG_SHIFT = 0.9


def _shift_invert_lanczos(op, K, M, k, tol, rng, scale, m1, vol):
    """(mu, U, stats) from shift-inverted Lanczos on the factored K + eps*M:
    k + 2 Ritz pairs, the constant mode among them.  The start vector is
    M-orthogonal to the constants (m1 = M 1, vol = 1'M1)."""
    N = K.shape[0]
    eps = 1e-8 * scale
    v0 = rng.standard_normal(N)
    v0 -= float(m1 @ v0) / vol
    want = min(k + 2, N - 2)
    solves = 0

    def shift_invert(x):  # (K + eps*M)^{-1} x through the permuted factor
        nonlocal solves
        solves += 1
        y = np.empty(N)
        y[perm] = lu.solve(np.ravel(x)[perm])
        return y

    t0 = time.perf_counter()
    A = (K + eps * M).tocsr()
    perm = _nested_dissection(A, op.points)
    try:
        lu = spla.splu(A[perm][:, perm].tocsc(), permc_spec="NATURAL")
        factor_s = time.perf_counter() - t0
        mu, U = spla.eigsh(K, k=want, M=M, sigma=-eps, which="LM", v0=v0,
                           tol=min(tol, 1e-10), maxiter=5000,
                           OPinv=spla.LinearOperator((N, N), shift_invert,
                                                     dtype=float))
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence("Lanczos did not converge: %s" % exc,
                            eigenvalues=getattr(exc, "eigenvalues", None),
                            residuals=None) from exc
    except RuntimeError as exc:
        raise FactorizationFailure(str(exc)) from exc
    return mu, U, {"shift": eps, "fill": int(lu.nnz), "factor_s": factor_s,
                   "solves": solves}


def _fft_preconditioner(symbols):
    """(P, sigma, nu1): the inverse of the shifted cell-averaged pencil
    stiff - sigma * mass, applied through the FFT, from its Fourier symbols.

    nu1, the smallest stiff / mass ratio off the constant mode, is the
    averaged pencil's exact mu1, and sigma = LOBPCG_SHIFT * nu1 sits below
    it, so every symbol but the constant mode's is at least
    (nu1 - sigma) * mass > 0; the constant mode keeps the mass symbol.  P
    is therefore SPD, as LOBPCG requires.  Against the unshifted inverse,
    P weights a mode of symbol ratio nu by nu / (nu - sigma), 10 on the
    averaged pencil's first mode and near 1 high in the spectrum, which
    widens the relative gap between mu1 and the modes above it that sets
    LOBPCG's iteration count.
    """
    stiff, mass = symbols
    shape, N = stiff.shape, stiff.size
    ratio = stiff / mass
    ratio.flat[0] = np.inf
    nu1 = float(ratio.min())
    sigma = LOBPCG_SHIFT * nu1
    half = (stiff - sigma * mass)[..., :shape[-1] // 2 + 1]
    half.flat[0] = mass.flat[0]
    axes = tuple(range(len(shape)))

    def precondition(x):
        xg = x.reshape(shape + (-1,))
        y = np.fft.irfftn(np.fft.rfftn(xg, axes=axes) / half[..., None],
                          s=shape, axes=axes)
        return y.reshape(x.shape)

    P = spla.LinearOperator((N, N), matvec=precondition,
                            matmat=precondition, dtype=float)
    return P, sigma, nu1


def _lobpcg_fft(K, M, symbols, k, tol, rng, scale, vol):
    """(mu, U, stats) from LOBPCG on K u = mu M u, M-orthogonal to the
    constants, preconditioned by ``_fft_preconditioner``.

    Convergence asks ||K x - mu M x|| <= tol * scale * sqrt(vol / N) of
    every M-normalized column x: scale * vol / N estimates ||K|| and
    sqrt(N / vol) the 2-norm of x.  scipy locks a column once it is below
    its tolerance and does not check it again, and later Rayleigh-Ritz
    steps can lift a locked column above it (seen at k >= 2 in the 4-fold
    mu1 cluster of the perturbed 3-torus).  So the residuals are checked
    here, and a new run starts from the block the last one returned, with
    scipy's tolerance a tenth of the last run's.
    """
    N = K.shape[0]
    if 5 * k >= N:   # scipy's lobpcg would turn to a dense solver
        raise ConfigError("k = %d is too large for LOBPCG on %d nodes"
                          % (k, N))
    t0 = time.perf_counter()
    P, sigma, nu1 = _fft_preconditioner(symbols)
    X = rng.standard_normal((N, k))
    limit = tol * scale * math.sqrt(vol / N)
    setup_s = time.perf_counter() - t0
    history = []
    for run in range(LOBPCG_RUNS):
        with warnings.catch_warnings():   # unconverged runs are caught below
            warnings.simplefilter("ignore")
            mu, X, hist = spla.lobpcg(K, X, B=M, M=P, Y=np.ones((N, 1)),
                                      tol=limit * 0.1 ** run,
                                      maxiter=LOBPCG_MAXITER,
                                      largest=False,
                                      retResidualNormsHistory=True)
        history += [float(np.max(r)) for r in hist]
        res = np.linalg.norm(K @ X - (M @ X) * mu, axis=0)
        if np.max(res) <= limit:
            return mu, X, {"iterations": len(history), "setup_s": setup_s,
                           "residual_history": history,
                           "preconditioner_shift": sigma, "nu1": nu1}
    raise NoConvergence("LOBPCG did not converge in %d iterations: residuals "
                        "%s above %.3g" % (len(history), res.tolist(), limit),
                        eigenvalues=mu, residuals=res)


def smallest_nonzero(op, k=1, tol=1e-9, seed=42):
    """k smallest nonzero eigenvalues of K u = mu M u.

    K must be PSD with constants spanning its kernel and M SPD.  The solver
    follows the domain kind, named by ``diagnostics["solver"]``:
    ``"lobpcg-fft"`` on periodic grids (``op.symbols`` set), reporting
    ``iterations``, ``setup_s``, the block's largest residual per
    iteration (``residual_history``), the averaged pencil's mu1 ``nu1``
    and the preconditioner's shift sigma (``preconditioner_shift``);
    ``"splu-shift-invert"`` otherwise,
    reporting the ``shift`` eps, the ``fill`` of K + eps*M's factor (the
    nonzeros SuperLU stores for L and U, ``SuperLU.nnz``: reading ``.L``
    and ``.U`` would copy the factor), ``factor_s`` (ordering plus
    factorization) and the number of shift-invert ``solves``.  Raises
    ConfigError for k < 1 or a tol that is not positive and finite.
    """
    if k < 1:
        raise ConfigError("k must be at least 1, got %r" % (k,))
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError("tol must be positive and finite, got %r" % (tol,))
    K, M = op.K, op.M
    if op.symbols is None:   # the factorization path works in CSC
        K, M = K.tocsc(), M.tocsc()
    N = K.shape[0]
    scale = abs(K).sum() / max(1.0, abs(M).sum())

    ones = np.ones(N)
    m1 = M @ ones
    vol = float(ones @ m1)

    rng = np.random.default_rng(seed)
    if op.symbols is None:
        solver = "splu-shift-invert"
        mu, U, stats = _shift_invert_lanczos(op, K, M, k, tol, rng, scale,
                                             m1, vol)
    else:
        solver = "lobpcg-fft"
        mu, U, stats = _lobpcg_fft(K, M, op.symbols, k, tol, rng, scale, vol)
    idx = np.argsort(mu)
    mu, U = mu[idx], U[:, idx]
    # drop the constant mode: dominant M-overlap with 1, eigenvalue near 0
    overlap = np.abs(m1 @ U) / (math.sqrt(vol)
                                * np.sqrt(np.einsum("ij,ij->j", U, M @ U)))
    keep = ~((overlap > 0.9) & (np.abs(mu) < 1e-6 * max(scale, 1.0)))
    mu, U = mu[keep], U[:, keep]
    if mu.size < k:
        raise NoConvergence("only %d nonzero eigenvalues found" % mu.size,
                            eigenvalues=mu, residuals=None)
    mu, U = mu[:k], U[:, :k]

    # M-orthonormalize and measure residuals
    for j in range(k):
        u = U[:, j]
        for i in range(j):
            u = u - float(U[:, i] @ (M @ u)) * U[:, i]
        nrm = math.sqrt(float(u @ (M @ u)))
        U[:, j] = u / nrm
    res = np.array([np.linalg.norm(K @ U[:, j] - mu[j] * (M @ U[:, j]))
                    / np.linalg.norm(U[:, j]) for j in range(k)])
    # Rayleigh-quotient refinement of the reported values
    mu = np.array([float(U[:, j] @ (K @ U[:, j])) for j in range(k)])
    idx = np.argsort(mu)
    mu, U, res = mu[idx], U[:, idx], res[idx]
    diag = {"solver": solver, "k": k, "seed": seed, "size": N, **stats,
            "record": dict(op.record)}
    return EigenResult(eigenvalues=mu, eigenvectors=U, residuals=res,
                       diagnostics=diag)


OP_LAPLACIAN = "Laplacian"
OP_SCHOUTEN = "Schouten"
OP_NEWTON_L1 = "NewtonL1"


def analytic_sphere_spectrum(n, K, operator=OP_LAPLACIAN, modes=3,
                             alpha=1.0, kappa=0.0):
    """Closed-form eigenvalues (k = 1..modes) on the round sphere.

    Laplacian: k(k+n-1) K.  Schouten (n >= 3): the round-sphere Schouten
    tensor is ((n-2)K/2) g, so eigenvalues scale by that factor.  NewtonL1:
    the umbilic geodesic sphere with principal curvature alpha in the ambient
    space form of curvature kappa has P1 = (n-1) alpha I and intrinsic
    curvature alpha^2 + kappa, giving (n-1) alpha k(k+n-1)(alpha^2 + kappa).
    """
    ks = np.arange(1, modes + 1, dtype=float)
    if operator == OP_LAPLACIAN:
        return ks * (ks + n - 1) * K
    if operator == OP_SCHOUTEN:
        if n < 3:
            raise SchoutenUndefined("Schouten operator undefined for n = 2")
        return ((n - 2.0) * K / 2.0) * ks * (ks + n - 1) * K
    if operator == OP_NEWTON_L1:
        lam = ks * (ks + n - 1) * (alpha ** 2 + kappa)
        return (n - 1.0) * alpha * lam
    raise ValueError("unknown operator %r" % operator)
