"""First nonzero eigenvalue of K u = mu M u, plus closed-form sphere spectra.

The pencil is singular (constants span the kernel of K).  One block LOBPCG,
kept M-orthogonal to the constants, solves every operator; only its
preconditioner and start block follow the domain kind (``smallest_nonzero``).
Periodic grids use the FFT inverse of a shifted cell-averaged pencil and
factor nothing; every other operator uses one SuperLU factor of K + eps*M
with a tiny eps, taken in a coordinate nested-dissection order of the
nodes.  No shift enters a mu1.  Round spheres have closed-form spectra for
the Laplacian, the Schouten operator, and the linearized operator L1 of an
umbilic geodesic sphere, used as oracles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dsyevd

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


# LOBPCG iterations (residual checks) before NoConvergence
LOBPCG_MAXITER = 1000
# the grid preconditioner's shift sigma, as a fraction of the averaged
# pencil's mu1
LOBPCG_SHIFT = 0.9
# iterations without a new minimum of the largest residual after which
# LOBPCG recomputes the products of [X D] from explicit K and M products
LOBPCG_STALL = 10
# averaged-pencil modes whose ratio is within this fraction above the k-th
# smallest count as tied with it and join the grid start block
START_TIE = 1e-10
# SVQB drops the directions of a basis whose unit-diagonal Gram matrix has
# an eigenvalue below this fraction of its largest
SVQB_DROP = 1e-10


def _factor_input(K, M, eps, perm):
    """P A P' in CSC for A = K + eps*M and the order ``perm`` (row i of
    P A P' is row perm[i] of A), built on K's CSR pattern, which M shares:
    A's entries there are K.data + eps * M.data; its columns are relabelled
    by the inverse of ``perm``, its rows gathered in ``perm``'s order, and
    the CSC conversion sorts each column's rows (Davis, Direct Methods for
    Sparse Linear Systems, SIAM 2006, ch. 2)."""
    inverse = np.empty(perm.size, dtype=K.indices.dtype)
    inverse[perm] = np.arange(perm.size, dtype=inverse.dtype)
    A = sp.csr_matrix((K.data + eps * M.data, inverse[K.indices], K.indptr),
                      shape=K.shape)
    return A[perm].tocsc()


def _splu_preconditioner(points, K, M, eps):
    """(P, stats): the inverse of K + eps*M, applied through one SuperLU
    factor of ``_factor_input`` in a coordinate nested-dissection order of
    the nodes."""
    t0 = time.perf_counter()
    perm = _nested_dissection(K, points)
    try:
        lu = spla.splu(_factor_input(K, M, eps, perm), permc_spec="NATURAL")
    except RuntimeError as exc:
        raise FactorizationFailure(str(exc)) from exc
    stats = {"shift": eps, "fill": int(lu.nnz),
             "factor_s": time.perf_counter() - t0, "solves": 0}

    def precondition(x):   # one solve per row
        stats["solves"] += x.shape[0]
        y = np.empty_like(x)
        y[:, perm] = lu.solve(x[:, perm].T).T
        return y

    return precondition, stats


def _fft_preconditioner(symbols, k):
    """(P, sigma, nu1, modes): the inverse of the shifted cell-averaged
    pencil stiff - sigma * mass, applied through the FFT, from its Fourier
    symbols, and the averaged pencil's lowest modes.

    nu1, the smallest stiff / mass ratio off the constant mode, is the
    averaged pencil's exact mu1, and sigma = LOBPCG_SHIFT * nu1 sits below
    it, so every symbol but the constant mode's is at least
    (nu1 - sigma) * mass > 0; the constant mode keeps the mass symbol.  P
    is therefore SPD, as LOBPCG requires.  Against the unshifted inverse,
    P weights a mode of symbol ratio nu by nu / (nu - sigma), 10 on the
    averaged pencil's first mode and near 1 high in the spectrum, which
    widens the relative gap between mu1 and the modes above it that sets
    LOBPCG's iteration count.  P maps a block of c rows of length N to
    another.  ``modes`` (m, n) holds the wave numbers of the non-constant
    modes whose ratio is at most the k-th smallest (within START_TIE), one
    of each conjugate pair kappa, -kappa.
    """
    stiff, mass = symbols
    shape = stiff.shape
    ratio = stiff / mass
    ratio.flat[0] = np.inf
    nu1 = float(ratio.min())
    sigma = LOBPCG_SHIFT * nu1
    # the k-th smallest ratio, stepped to through the distinct values:
    # np.partition would page in 0.25 MB of sort code on the grid path
    kth = nu1
    while np.count_nonzero(ratio <= kth) < k:
        kth = ratio[ratio > kth].min()
    kappa = np.argwhere(ratio <= kth * (1.0 + START_TIE))
    # a conjugate pair spans the same cos and sin rows: keep its first
    flat = np.ravel_multi_index(kappa.T, shape)
    conj = np.ravel_multi_index((-kappa % shape).T, shape)
    modes = kappa[flat <= conj]
    half = (stiff - sigma * mass)[..., :shape[-1] // 2 + 1]
    half.flat[0] = mass.flat[0]
    inverse = 1.0 / half
    axes = tuple(range(1, len(shape) + 1))

    def precondition(x):
        y = np.fft.irfftn(np.fft.rfftn(x.reshape((-1,) + shape), axes=axes)
                          * inverse, s=shape, axes=axes)
        return y.reshape(x.shape)

    return precondition, sigma, nu1, modes


def _fourier_rows(modes, shape):
    """The real rows cos(theta.j) and sin(theta.j) over the grid's nodes j
    (C order) of each mode exp(i theta.j), theta = 2 pi kappa / shape for
    kappa in ``modes``; a self-conjugate mode (2 kappa = 0 mod shape) has
    only its cos row, its sin row being zero."""
    phase = (2 * np.pi * modes / shape) @ np.indices(shape).reshape(
        len(shape), -1)
    real = np.all(2 * modes % shape == 0, axis=1)
    return np.vstack([np.cos(phase), np.sin(phase[~real])])


def _eigh(A):
    """np.linalg.eigh(A) of a small symmetric A by one direct LAPACK dsyevd
    call on its lower triangle; NoConvergence if dsyevd fails."""
    theta, V, info = dsyevd(A, lower=1)
    if info != 0:
        raise NoConvergence("LAPACK dsyevd failed (info %d) on a %d x %d "
                            "Rayleigh-Ritz matrix" % ((info,) + A.shape))
    return theta, V


def _svqb(G):
    """Z with Z' G Z = I on the kept directions of a basis with Gram matrix
    G (SVQB, Duersch, Shao, Yang & Gu 2018): G is scaled to a unit
    diagonal and its eigen-directions below SVQB_DROP of the largest are
    dropped.  A zero column keeps the scale 1, so its zero eigenvalue drops
    it."""
    d = np.diag(G).copy()
    d[d <= 0.0] = 1.0
    d = 1.0 / np.sqrt(d)
    theta, V = _eigh(G * d * d[:, None])
    keep = theta > SVQB_DROP * theta[-1]
    return d[:, None] * (V[:, keep] / np.sqrt(theta[keep]))


def _ritz_start(K, M, S, m1, vol, keep):
    """The ``keep`` lowest Ritz vectors, as rows, of K u = mu M u on the
    span of the columns of the C-ordered S (N, c), made M-orthogonal to the
    constants in place; K and M multiply S without copying it."""
    S -= (m1 @ S) / vol
    Z = _svqb(S.T @ (M @ S))
    C = Z @ _eigh(Z.T @ (S.T @ (K @ S)) @ Z)[1][:, :keep]
    return C.T @ S.T


def _lobpcg(K, M, precondition, X, k, limit, m1, vol):
    """(mu, X, R, stats): the k smallest eigenpairs of K u = mu M u
    M-orthogonal to the constants (m1 = M 1, vol = 1'M1) and their
    residuals R = K X - mu M X, by block LOBPCG (Knyazev 2001)
    preconditioned by ``precondition``, from the first block X of b >= k
    rows: all b are iterated, and the block is accepted on its first k.

    Blocks hold their vectors as rows.  T stacks a basis S = [X D W] with
    K S and M S as T[0], T[1], T[2], in the leading rows of one of two
    (3, 3b, N) buffers: X the Ritz vectors, D the directions, W the
    preconditioned residuals of the Ritz vectors whose residual is above
    ``limit`` (a converged vector is not locked).  Each iteration applies
    K, M and the preconditioner once, to W, made M-orthogonal to [X D]
    and to the constants; the Rayleigh-Ritz step on S runs through
    ``_svqb``, and one matmul of the coefficients by T writes X, D (kept
    M-orthonormal and M-orthogonal to X) and their products into the other
    buffer, W's rows behind.  Those products are implicit, so they are
    recomputed once the largest of the first k residuals goes
    LOBPCG_STALL iterations without a new minimum (``refreshes``).  A
    block is accepted only once the first k residuals ||K x - mu M x|| from
    explicit K X and M X are within ``limit``.
    """
    def products(T):   # T[1], T[2] = K S, M S for the block of rows S = T[0]
        T[1] = (K @ T[0].T).T
        T[2] = (M @ T[0].T).T
        return T

    b = len(X)
    work = np.empty((2, 3, 3 * b, K.shape[0]))
    work[0, 0, :b] = X - (X @ m1)[:, None] / vol
    T, side = products(work[0, :, :b]), 0
    explicit, history, refreshes, best, since = True, [], 0, np.inf, 0
    while True:
        KSMS = T[0] @ T[1:].transpose(0, 2, 1)
        Z = _svqb(KSMS[1])
        lam, Y = _eigh(Z.T @ KSMS[0] @ Z)
        C = Z @ Y[:, :b]
        mu = lam[:b]
        if not explicit:   # directions: the [D W] part of the active Ritz
            Cd = C[:, active]          # vectors, M-orthonormalized against X
            Cd[:b] = 0.0
            Cd -= C @ (C.T @ (KSMS[1] @ Cd))
            C = np.hstack([C, Cd @ _svqb(Cd.T @ KSMS[1] @ Cd)])
        side = 1 - side
        XD = np.matmul(C.T, T, out=work[side, :, :C.shape[1]])
        R = XD[1, :b] - mu[:, None] * XD[2, :b]
        res = np.sqrt(np.einsum("ij,ij->i", R, R))
        history.append(float(res[:k].max()))
        if history[-1] <= limit:
            if explicit:
                return mu[:k], XD[0, :k].T.copy(), R[:k], {
                    "iterations": len(history), "residual_history": history,
                    "refreshes": refreshes}
            T = products(XD[:, :b])
            explicit = True
            continue
        if len(history) >= LOBPCG_MAXITER:
            raise NoConvergence("LOBPCG did not converge in %d iterations: "
                                "residuals %s above %.3g"
                                % (len(history), res[:k].tolist(), limit),
                                eigenvalues=mu[:k], residuals=res[:k])
        if history[-1] < best:   # a new minimum since the last refresh
            best, since = history[-1], len(history)
        elif len(history) - since >= LOBPCG_STALL:
            T = products(XD)
            best, refreshes = np.inf, refreshes + 1
            continue
        active = res > limit
        W = precondition(R[active])
        W -= (W @ XD[2].T) @ XD[0]
        W -= (W @ m1)[:, None] / vol
        T = work[side, :, :XD.shape[1] + W.shape[0]]
        T[0, XD.shape[1]:] = W
        products(T[:, XD.shape[1]:])
        explicit = False


def _abs_sum(x):
    """sum |x|, 2^15 entries at a time: no temporary the size of x."""
    chunk = 1 << 15
    return sum(float(np.abs(x[i:i + chunk]).sum())
               for i in range(0, x.size, chunk))


def smallest_nonzero(op, k=1, tol=1e-9, seed=42, start=None):
    """k smallest nonzero eigenvalues of K u = mu M u, by ``_lobpcg``.

    K must be PSD with constants spanning its kernel and M SPD, the two on
    one CSR pattern: the same ``indptr`` and ``indices``.  A block is
    accepted once each residual ||K x - mu M x|| of its M-normalized
    columns is within tol * scale * sqrt(vol / N), where scale = sum|K| /
    sum|M| makes scale * vol / N an estimate of ||K|| and sqrt(N / vol) one
    of ||x||.  The vectors are M-orthonormal, the eigenvalues their
    Rayleigh quotients and the residuals ||K u - mu M u|| / ||u||.

    The first block is k random rows drawn from ``seed``.  Extra start rows
    replace it by the k + g lowest Ritz vectors on the span of them and the
    random rows (``_ritz_start``).  The extra rows are the caller's
    ``start``, rows of length N (one vector may be passed flat) such as a
    coarser mesh's eigenvector carried to this mesh's nodes, and on a
    periodic grid the cos and sin rows of the averaged pencil's
    non-constant modes whose ratio is at most its k-th smallest
    (``_fft_preconditioner``); ``start_modes`` counts them.  The random
    rows stay because every extra row may lie in another symmetry class
    than mu1's.  g = min(len(start), N - 1 - k) guard vectors, none without
    ``start``, iterate beside the k wanted ones and are not needed for
    acceptance, so a start row from the wrong class cannot push the random
    rows' directions out of the block.

    The preconditioner follows the domain kind, named by
    ``diagnostics["solver"]``: ``"lobpcg-fft"`` on periodic grids
    (``op.symbols`` set), reporting the averaged pencil's mu1 ``nu1``, the
    shift sigma (``preconditioner_shift``) and ``setup_s``;
    ``"lobpcg-splu"`` otherwise, reporting the ``shift`` eps, the ``fill``
    of K + eps*M's factor (the nonzeros SuperLU stores for L and U,
    ``SuperLU.nnz``: reading ``.L`` and ``.U`` would copy the factor),
    ``factor_s`` (ordering, factor input and factorization) and the
    ``solves``, one per vector.  Both report the ``iterations``, the
    largest of the k wanted residuals per iteration (``residual_history``),
    the ``refreshes`` of the implicit products, and the ``enclosure``: for
    each eigenvalue, c times its residual's norm in the inverse lumped mass
    L = diag(M 1), a distance within which the pencil has an eigenvalue,
    or None when the record names no domain.  Raises ConfigError for K
    and M on different patterns, for k < 1, for k >= N (N nodes carry
    N - 1 nonzero eigenvalues), a tol that is not positive and finite, or
    start rows whose length is not N or that hold a nan or inf.
    """
    if k < 1:
        raise ConfigError("k must be at least 1, got %r" % (k,))
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError("tol must be positive and finite, got %r" % (tol,))
    K, M = op.K, op.M
    if not (K.format == M.format == "csr"
            and np.array_equal(K.indptr, M.indptr)
            and np.array_equal(K.indices, M.indices)):
        raise ConfigError("K and M must share one CSR pattern")
    N = K.shape[0]
    if k >= N:
        raise ConfigError("k = %d needs more than the %d nonzero eigenvalues "
                          "of a pencil on N = %d nodes" % (k, N - 1, N))
    scale = _abs_sum(K.data) / max(1.0, _abs_sum(M.data))
    m1 = M @ np.ones(N)
    vol = float(m1.sum())
    limit = tol * scale * math.sqrt(vol / N)

    rows, guards = [], 0
    if start is not None:
        start = np.atleast_2d(np.asarray(start, dtype=float))
        if start.ndim != 2 or start.shape[1] != N:
            raise ConfigError("start rows must have the N = %d nodes as "
                              "columns, got shape %r" % (N, start.shape))
        finite = np.isfinite(start).all(axis=1)
        if not finite.all():
            raise ConfigError("start row %d is not finite"
                              % np.argmin(finite))
        rows, guards = [start], min(len(start), N - 1 - k)
    if op.symbols is None:
        solver = "lobpcg-splu"
        precondition, stats = _splu_preconditioner(op.points, K, M,
                                                   1e-8 * scale)
    else:
        solver = "lobpcg-fft"
        t0 = time.perf_counter()
        precondition, sigma, nu1, modes = _fft_preconditioner(op.symbols, k)
        stats = {"setup_s": time.perf_counter() - t0,
                 "preconditioner_shift": sigma, "nu1": nu1}
        rows.append(_fourier_rows(modes, op.symbols[0].shape))
    X = np.random.default_rng(seed).standard_normal((N, k)).T
    start_modes = sum(map(len, rows))
    if rows:   # the random rows, then the extra ones, as columns of S
        S = np.empty((N, k + start_modes))
        S[:, :k] = X.T
        ends = np.cumsum([k] + [len(r) for r in rows])
        for a, b in zip(ends, ends[1:]):   # each block freed once copied
            S[:, a:b] = rows.pop(0).T
        X = _ritz_start(K, M, S, m1, vol, k + guards)
        del S   # freed before _lobpcg takes its work buffers
    mu, U, R, run = _lobpcg(K, M, precondition, X, k, limit, m1, vol)
    res = np.sqrt(np.einsum("ij,ij->i", R, R))
    # element masses are at least 1/c^2 of their lumped form: 1/4 on P1
    # triangles, 1/3 per axis on Q1 cells
    c = {"SurfaceMesh": 2.0, "PeriodicGrid": 3.0 ** (
        len(op.record.get("shape", ())) / 2)}.get(op.record.get("domain"))
    diag = {"solver": solver, "k": k, "seed": seed, "size": N, **stats,
            **run, "start_modes": start_modes, "record": dict(op.record),
            "enclosure": None if c is None else (
                c * np.sqrt(np.einsum("ij,ij,j->i", R, R, 1 / m1))).tolist()}
    return EigenResult(eigenvalues=mu, eigenvectors=U,
                       residuals=res / np.linalg.norm(U, axis=0),
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
