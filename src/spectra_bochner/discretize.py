"""Triangle meshes, periodic grids, and piecewise-linear assembly.

The weak form of box(f) = sum phi_ij f_ij for divergence-free phi is
int <phi(grad psi_a), grad psi_b> dM, so the generalized eigenproblem reads
K u = mu M u with K the phi-weighted stiffness and M the consistent mass.
Coefficients are taken constant per face/cell (barycentric quadrature); for
phi = g the mesh stiffness reproduces the classical cotangent weights, which
serves as an independent oracle.  Assembly is batched, and a coefficient
provider is called once per mesh or grid with whole arrays.  Neither kind
goes through COO triplets.  Meshes build the element matrices of all faces
at once and sum them into the slots of the face array's ``EdgeTable``, a
CSR pattern made once by the topology check; one routine,
``_face_geometry``, gathers the face corners as (3, F) components and forms
the edges for both the geometry check and assembly.  Periodic grids, whose
sparsity pattern is the closed-form {-1, 0, 1}^n stencil, form no element
matrices: K and M are summed straight into each node's stencil slots from
per-cell coefficients and closed-form per-corner tables.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import (ConfigError, DegenerateElement, NonSymmetricCoefficient)

MIN_ANGLE_DEG = 1.0
MIN_AREA_FRACTION = 1e-12


# ---------------------------------------------------------------------------
# surface meshes

@dataclass(frozen=True)
class EdgeTable:
    """The CSR pattern of a face array's vertex adjacency, diagonal
    included, each row's columns sorted, and where each face's 3 x 3
    element matrix lands in it: entry (i, j) of face f's at
    ``slots[f, i, j]``, and the entry at position p's transpose partner at
    ``transpose[p]``."""

    indptr: np.ndarray     # (V + 1,) int32
    indices: np.ndarray    # (nnz,) int32
    slots: np.ndarray      # (F, 3, 3) int32
    transpose: np.ndarray  # (nnz,) int32


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed orientable triangle mesh in R^3.

    Validation leaves the face array's ``EdgeTable`` in ``edges``, the
    face areas in ``areas`` and the mean edge length in ``mean_edge``.
    ``parents`` is set by ``icosphere``: for each subdivision step, the
    arrays (a, b) such that the step's i-th new vertex, numbered after the
    vertices it starts from, is the midpoint of vertices a[i] and b[i],
    projected.
    """

    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray     # (F, 3) int
    parents: Tuple[Tuple[np.ndarray, np.ndarray], ...] = field(
        default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           np.ascontiguousarray(self.vertices, dtype=float))
        object.__setattr__(self, "faces",
                           np.ascontiguousarray(self.faces, dtype=np.int64))
        self.validate()

    # -- derived quantities ------------------------------------------------
    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_faces(self):
        return self.faces.shape[0]

    @property
    def num_edges(self):
        return 3 * self.num_faces // 2

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_faces

    @property
    def genus(self):
        return (2 - self.euler_characteristic) // 2

    def total_area(self):
        return float(self.areas.sum())

    # -- validation --------------------------------------------------------
    def validate(self):
        """Every check: the face array's topology, then the geometry."""
        self._check_topology()
        self._check_geometry()

    def _check_topology(self):
        """At least one face, index triples in range, consistently oriented,
        closed, using every vertex and connected: properties of the faces
        and the vertex count.  Sets ``edges``.

        Directed edge 3f + k runs from face f's corner k to corner k + 1,
        with key a * V + b.  One sort of the keys finds a repeated
        orientation; the mesh is closed when no edge runs from a vertex to
        itself and the sorted keys of the reversed edges are the sorted
        keys, and then the reversed edge of the one at rank r in the second
        sort is the one at rank r in the first.  Rank r of the keys is CSR
        position r + a + [b > a]: r off-diagonal entries and a + [b > a]
        diagonal ones come before it.
        """
        F = self.faces
        if not F.size:
            raise DegenerateElement("mesh has no faces")
        if F.ndim != 2 or F.shape[1] != 3:
            raise DegenerateElement("faces must be index triples")
        nv = self.num_vertices
        if F.min() < 0 or F.max() >= nv:
            raise DegenerateElement("face index outside 0..%d" % (nv - 1))
        a, b = F.ravel(), F[:, [1, 2, 0]].ravel()
        key, rkey = a * nv + b, b * nv + a
        order, rorder = np.argsort(key), np.argsort(rkey)
        key, rkey = key[order], rkey[rorder]
        repeated = key[1:] == key[:-1]
        if np.any(repeated):
            e = divmod(int(key[np.argmax(repeated)]), nv)
            raise DegenerateElement(
                "edge (%d,%d) repeated with same orientation "
                "(mesh not orientable or faces duplicated)" % e)
        if not np.array_equal(key, rkey) or np.any(a == b):
            # each undirected edge then lies on one face: one orientation
            # of it has no reverse, or it runs from a vertex to itself
            rev = b * nv + a
            rank = np.minimum(np.searchsorted(key, rev), key.size - 1)
            open_ = (key[rank] != rev) | (a == b)
            e = np.min(np.minimum(a, b)[open_] * nv
                       + np.maximum(a, b)[open_])
            raise DegenerateElement("mesh not closed: edge %r on 1 face(s)"
                                    % (divmod(int(e), nv),))
        degree = np.bincount(a, minlength=nv)
        unused = np.flatnonzero(degree == 0)
        if unused.size:
            raise DegenerateElement("%d vertices in no face (first: %d)"
                                    % (unused.size, unused[0]))
        indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(degree + 1, out=indptr[1:])
        diag = indptr[:-1] + np.bincount(a[b < a], minlength=nv).astype(
            np.int32)
        ahead, bsorted = a[order], b[order]
        pos = (np.arange(a.size, dtype=np.int32) + ahead.astype(np.int32)
               + (bsorted > ahead))
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[pos] = bsorted
        indices[diag] = np.arange(nv)
        # closed, so the pattern is symmetric: connected iff one search from
        # vertex 0 reaches every vertex; components are counted on refusal
        A = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                          shape=(nv, nv))
        if breadth_first_order(A, 0, return_predecessors=False).size < nv:
            raise DegenerateElement("mesh has %d connected components"
                                    % connected_components(A)[0])
        del key, rkey, A            # before the slot arrays are allocated
        fwd, back = np.empty((2, a.size), dtype=np.int32)
        fwd[order], back[rorder] = pos, pos
        transpose = np.empty_like(indices)
        transpose[fwd], transpose[diag] = back, diag
        slots = np.empty((len(F), 3, 3), dtype=np.int32)
        k, k1 = [0, 1, 2], [1, 2, 0]
        slots[:, k, k1] = fwd.reshape(-1, 3)
        slots[:, k1, k] = back.reshape(-1, 3)
        slots[:, k, k] = diag[F]
        object.__setattr__(self, "edges",
                           EdgeTable(indptr, indices, slots, transpose))

    def _check_geometry(self):
        """Face areas and corner angles.  Both tests are negated
        comparisons, so a nan area or cosine fails them.  Sets ``areas``
        and ``mean_edge``, the mean length of the faces' edges."""
        E = _face_geometry(self)[1]
        L = np.einsum("kif,kif->kf", E, E)             # squared lengths
        areas = 0.5 * np.linalg.norm(np.cross(E[0], E[2], axis=0), axis=0)
        object.__setattr__(self, "areas", areas)
        # an absolute scale, which is 0 (and fails every area) when all
        # faces have collapsed
        object.__setattr__(self, "mean_edge", float(np.mean(np.sqrt(L))))
        min_area = float(np.min(areas))
        if not min_area > MIN_AREA_FRACTION * self.mean_edge ** 2:
            raise DegenerateElement("face area %g below %g of the squared "
                                    "mean edge length"
                                    % (min_area, MIN_AREA_FRACTION))
        # the angle at corner k lies between edge k and the reversed edge
        # k - 1; it is below MIN_ANGLE_DEG where its cosine is above
        cos = -np.array([np.einsum("if,if->f", E[k], E[k - 1])
                         for k in range(3)]) / np.sqrt(L * L[[2, 0, 1]])
        max_cos = float(np.max(cos))
        if not max_cos <= math.cos(math.radians(MIN_ANGLE_DEG)):
            angle = math.degrees(math.acos(min(max_cos, 1.0)))
            raise DegenerateElement("min triangle angle %.3f deg < %g deg"
                                    % (angle, MIN_ANGLE_DEG))


def _face_geometry(mesh):
    """Each face's corners P[k], gathered once, and its edges E[k] =
    P[k + 1 mod 3] - P[k], as (3, F) arrays of components."""
    P = np.take(mesh.vertices, mesh.faces.T, axis=0).transpose(0, 2, 1)
    E = P[[1, 2, 0]]
    E -= P
    return P, E


def icosphere(subdiv=0, radius=1.0):
    """Icosahedron subdivided ``subdiv`` times, projected to the unit sphere
    and scaled by ``radius``: one number, or the three semiaxes of an
    ellipsoid, one per axis.

    V = 10 * 4^subdiv + 2.  Each step keeps the vertices it starts from and
    appends one midpoint per edge, so level s's vertices are the first
    10 * 4^s + 2 of every finer level; ``parents`` records each step's
    midpoint parents, which carry a vertex function up the levels.

    ``subdiv`` may also be an increasing sequence of levels, a refinement
    ladder: one sweep of subdivision steps then builds the list of their
    meshes.  Each mesh is built on its scaled vertices and validated once.
    """
    levels = list(subdiv) if np.ndim(subdiv) else [subdiv]
    if not levels or levels[0] < 0:
        raise ConfigError("subdiv must be >= 0, got %r" % (subdiv,))
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("subdivisions must increase, got %r"
                          % (tuple(levels),))
    scale = np.asarray(radius, dtype=float)
    if scale.shape not in ((), (3,)):
        raise ConfigError("radius must be one number or three semiaxes, "
                          "got shape %r" % (scale.shape,))
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    parents, meshes = [], []
    for step in range(levels[-1] + 1):
        if step in levels:
            meshes.append(SurfaceMesh(vertices=verts * scale, faces=faces,
                                      parents=tuple(parents)))
        if step == levels[-1]:
            break
        # the edges ab, bc, ca of each face in turn; each undirected edge
        # gets one midpoint vertex, numbered by its first occurrence
        nv = len(verts)
        a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        _, first, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        pa, pb = a[first[order]], b[first[order]]
        parents.append((pa, pb))
        m = verts[pa] + verts[pb]
        # each norm rounded as the 1-D dot product np.linalg.norm takes
        m /= np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0])
        verts = np.concatenate([verts, m])
        ab, bc, ca = (nv + rank[inverse]).reshape(-1, 3).T
        x, y, z = faces.T
        faces = np.stack([x, ab, ca, y, bc, ab, z, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return meshes if np.ndim(subdiv) else meshes[0]


# ---------------------------------------------------------------------------
# periodic grids

@dataclass(frozen=True)
class PeriodicGrid:
    """Tensor-product periodic grid on the box prod [0, L_i).

    ``metric`` maps a stack of points (..., n) to the coordinate metrics
    (..., n, n) there (a constant may ignore the point axes); assembly calls
    it once with every cell center.  None is the flat metric.
    """

    lengths: np.ndarray            # (n,)
    shape: Tuple[int, ...]         # nodes per axis
    metric: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "lengths",
                           np.asarray(self.lengths, dtype=float))
        if len(self.shape) != self.lengths.size:
            raise ConfigError("grid shape/lengths dimension mismatch")
        if any(s < 3 for s in self.shape):
            raise ConfigError("need >= 3 nodes per axis")

    @property
    def dim(self):
        return self.lengths.size

    @property
    def steps(self):
        return self.lengths / np.asarray(self.shape, dtype=float)

    @property
    def num_nodes(self):
        return int(np.prod(self.shape))


# ---------------------------------------------------------------------------
# assembled operators

@dataclass(frozen=True)
class AssembledOperator:
    K: sp.csr_matrix
    M: sp.csr_matrix
    # icosphere meshes only: SurfaceMesh.parents, the V-cycle's levels
    parents: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()
    record: Dict[str, object] = field(default_factory=dict)
    # periodic grids only: Fourier symbols (stiffness, mass) of the pencil
    # with the cell-averaged coefficients, arrays of the grid's shape
    symbols: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def size(self):
        return self.K.shape[0]


def _check_sym_coeff(phi, shape, where):
    """Symmetric part (k, k, E) of a (E, k, k) stack; names the first
    element ``where(e)`` not finite, or asymmetric by more than 1e-10
    relative."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != shape:
        raise ConfigError("coefficient provider returned shape %r, "
                          "expected %r" % (phi.shape, shape))
    P = np.ascontiguousarray(phi.transpose(1, 2, 0))
    iu, ju = np.triu_indices(shape[-1], 1)       # each off-diagonal pair
    # max propagates nan and inf, so scale is finite iff the matrix is
    scale = np.maximum(1.0, np.max(np.abs(P), axis=(0, 1)))
    finite = np.isfinite(scale)
    if not np.all(finite):
        raise NonSymmetricCoefficient("coefficient not finite at %s"
                                      % where(int(np.argmin(finite))))
    bad = np.max(np.abs(P[iu, ju] - P[ju, iu]), axis=0,
                 initial=0.0) > 1e-10 * scale
    if np.any(bad):
        raise NonSymmetricCoefficient("coefficient not symmetric at %s"
                                      % where(int(np.argmax(bad))))
    sym = P + P.transpose(1, 0, 2)
    sym *= 0.5
    return sym


def assemble(domain, phi_provider):
    """Assemble stiffness and mass for a SurfaceMesh or PeriodicGrid.

    The provider is called once per domain with whole arrays and returns one
    symmetric coefficient matrix per element:
      mesh (F faces):  phi_provider(q[F, 3], B[F, 3, 2]) -> phi[F, 2, 2],
             q the face barycenters and B the faces' orthonormal tangent
             bases (columns in R^3); phi is in the basis B;
      grid (C cells):  phi_provider(centers[C, n], G[C, n, n]) -> phi[C, n, n],
             G the coordinate metric at the cell centers; phi holds the
             coordinate components.
    """
    if isinstance(domain, SurfaceMesh):
        return _assemble_mesh(domain, phi_provider)
    if isinstance(domain, PeriodicGrid):
        return _assemble_grid(domain, phi_provider)
    raise ConfigError("cannot assemble on %r" % type(domain).__name__)


_MASS_TRI = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mesh(mesh, phi_provider):
    """K and M by closed forms over (F,)- and (3, F)-shaped arrays.  In
    face f's basis B the corners sit at (0, 0), (l1, 0) and (x2, y2), so
    the hat gradients are gx = (-y2, y2, 0) / (l1 y2) and gy = (x2 - l1,
    -x2, l1) / (l1 y2), and Ke = area (gx, gy) phi (gx, gy)^T; each of its
    6 distinct entries is computed once, so Ke is exactly symmetric."""
    P, E = _face_geometry(mesh)
    q = P.sum(axis=0).T / 3.0                       # barycenters (F, 3)
    B = np.stack([E[0], -E[2]])     # (2, 3, F): corner 0 -> 1, 0 -> 2
    del P, E
    l1 = np.sqrt(np.einsum("if,if->f", B[0], B[0]))
    B[0] /= l1                  # t1, along corner 0 -> 1
    x2 = np.einsum("if,if->f", B[1], B[0])
    B[1] -= x2 * B[0]           # t2, completing it towards corner 2
    y2 = np.sqrt(np.einsum("if,if->f", B[1], B[1]))
    B[1] /= y2
    area, nf = mesh.areas, mesh.num_faces   # validation keeps areas above 0
    phi = _check_sym_coeff(phi_provider(q, B.transpose(2, 1, 0)),
                           (nf, 2, 2), lambda f: "face %d" % f) * area
    del q
    g = np.array([[-y2, y2, 0.0 * y2], [x2 - l1, -x2, l1]]) / (l1 * y2)
    i, j = np.triu_indices(3)
    upper = np.einsum("aif,aif->if", g[:, i],
                      np.einsum("abf,bif->aif", phi, g)[:, j])
    Ke = upper[[0, 1, 2, 1, 3, 4, 2, 4, 5]]         # (9, F), (i, j) row-major
    del B, phi, g, upper        # before the slot sums allocate theirs
    nv, table = mesh.num_vertices, mesh.edges
    # an off-diagonal entry and its transpose partner each sum the same two
    # faces' terms, so K is exactly symmetric unless a slot is wrong
    slots = table.slots.reshape(nf, 9).T.astype(np.intp, order="C").ravel()
    Kd = np.bincount(slots, Ke.ravel(), table.indices.size)
    if np.any(Kd != Kd[table.transpose]):
        raise NonSymmetricCoefficient("assembled stiffness not symmetric")
    rows = table.indptr[:-1]        # no row is empty: each has its diagonal
    _check_row_sums(np.add.reduceat(Kd, rows),
                    np.add.reduceat(np.abs(Kd), rows))
    Md = np.bincount(slots, (_MASS_TRI.reshape(9, 1) * area).ravel(),
                     table.indices.size)
    # K and M get their own index arrays: scipy sorts indices in place
    K, M = (sp.csr_matrix((d, table.indices.copy(), table.indptr.copy()),
                          shape=(nv, nv)) for d in (Kd, Md))
    rec = {"domain": "SurfaceMesh", "vertices": nv, "faces": nf,
           "phi": getattr(phi_provider, "label", "custom")}
    return AssembledOperator(K=K, M=M, parents=mesh.parents, record=rec)


def _grid_element_tensors(h):
    """Unit-coefficient element integrals of one cell, corner a at offset
    bits_a from the lower corner (the last axis fastest): T[(alpha, beta),
    a, b] = int d_alpha N_a d_beta N_b, (n*n, 2^n, 2^n), and the element
    mass matrix int N_a N_b, (2^n, 2^n).  Each is the Kronecker product of
    one 2x2 one-axis matrix per axis, taken for all (alpha, beta) at once.
    """
    n = len(h)
    D1 = np.array([[-0.5, 0.5], [-0.5, 0.5]])   # int N_i N_j' dt
    M1 = [np.array([[hk / 3.0, hk / 6.0], [hk / 6.0, hk / 3.0]]) for hk in h]
    S1 = [np.array([[1.0, -1.0], [-1.0, 1.0]]) / hk for hk in h]
    axes = np.empty((n, n, n, 2, 2))            # [alpha, beta, axis]
    for a, b, ax in itertools.product(range(n), repeat=3):
        axes[a, b, ax] = (S1[ax] if ax == a == b
                          else D1.T if ax == a   # derivative on index a
                          else D1 if ax == b     # derivative on index b
                          else M1[ax])
    T = np.ones((n, n, 1, 1))
    for ax in range(n):   # Kronecker products over the last two axes
        T = (T[:, :, :, None, :, None] * axes[:, :, ax, None, :, None, :]
             ).reshape(n, n, 2 ** (ax + 1), 2 ** (ax + 1))
    return T.reshape(n * n, 2 ** n, 2 ** n), functools.reduce(np.kron, M1)


def _grid_coefficients(grid, phi_provider):
    """Raised-index weighted coefficients W = vol G^-1 phi G^-1 (n*n, C)
    and volumes vol (C,) of a grid's cells, cell c with lower corner node
    c; G is the coordinate metric at the cell centre.  W's n x n products
    are unrolled over the rows of ``_pivots_and_inverse``'s (n, n, C)."""
    n, shape = grid.dim, grid.shape
    lower = np.indices(shape).reshape(n, -1)     # cell corners, C order
    centers = (lower.T + 0.5) * grid.steps
    G = np.broadcast_to(np.eye(n) if grid.metric is None
                        else np.asarray(grid.metric(centers), dtype=float),
                        (len(centers), n, n))
    pivots, ginv = _pivots_and_inverse(G)
    spd = np.all(pivots > 0.0, axis=1)
    if not np.all(spd):
        raise DegenerateElement("grid metric not SPD at %r"
                                % (centers[np.argmin(spd)].tolist(),))
    phi = _check_sym_coeff(phi_provider(centers, G), G.shape,
                           lambda c: "cell %r" % (lower[:, c].tolist(),))
    vol = np.sqrt(np.prod(pivots, axis=1))
    ginv = ginv.transpose(1, 2, 0)
    W = np.empty_like(ginv)
    for i, row in enumerate(ginv):   # row i of G^-1 phi, then of W
        A = sum((row[k] * phi[k] for k in range(1, n)), row[0] * phi[0])
        W[i] = sum((A[k] * ginv[k] for k in range(1, n)), A[0] * ginv[0])
    W *= vol
    return W.reshape(n * n, len(vol)), vol


def _pivots_and_inverse(G):
    """Pivots (C, n) and inverses (C, n, n) of a stack of symmetric
    matrices by Gauss-Jordan elimination without row exchanges.

    A symmetric matrix is positive definite exactly when all n pivots are
    positive, and its determinant is their product.  After a pivot that is
    not positive, that matrix's later pivots and its inverse are not
    meaningful (they may hold inf or nan).  The work array is laid out
    (n, n, C), so each row operation runs over contiguous memory, and the
    inverse is built in place: column k, once reduced to e_k, holds column
    k of the inverse.
    """
    n = G.shape[-1]
    A = np.array(G.transpose(1, 2, 0), dtype=float, order="C")
    pivots = np.empty((n, G.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            pivots[k] = A[k, k]
            A[k, k] = 1.0
            A[k] /= pivots[k]
            for i in range(n):
                if i != k:
                    f = A[i, k].copy()
                    A[i, k] = 0.0
                    A[i] -= f * A[k]
    return pivots.T, A.transpose(2, 0, 1)


# tolerance of the stiffness symmetry test on the slot sums, relative to
# their largest magnitude: the sums of a slot and of its transpose partner
# hold the same cell terms in another order, so they differ by round-off
# (at most 7e-17 on the test grids), while a wrong corner-to-slot mapping
# moves them by 1e-3 or more
SLOT_SYM_TOL = 1e-12


def _assemble_grid(grid, phi_provider):
    """Grid K and M summed straight into stencil slots, plus the Fourier
    symbols of the pencil with cell-averaged coefficients.

    With at least 3 nodes per axis, node i couples to exactly the 3^n
    distinct nodes at offsets {-1, 0, 1}^n, so the CSR pattern is known in
    closed form (``_grid_pattern``) and no per-cell element matrix is
    formed: ``_stiffness_slots`` and ``_mass_slots`` sum K and M into the
    slots, and ``_sort_rows`` puts each row in sorted column order.
    """
    n, shape, N = grid.dim, tuple(grid.shape), grid.num_nodes
    W, vol = _grid_coefficients(grid, phi_provider)
    T, Me_unit = _grid_element_tensors(grid.steps)
    # corner a of a cell sits at offset bits[a], the last axis fastest; the
    # stencil {-1, 0, 1}^n is ravelled the same way
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    d = (bits - bits[:, None] + 1) @ 3 ** np.arange(n - 1, -1, -1)
    K = _stiffness_slots(W, T, bits, shape)
    M = _mass_slots(vol, grid.steps, shape)
    _sort_rows(K, shape)
    _sort_rows(M, shape)
    indices = _grid_pattern(shape)
    indptr = np.arange(0, N * 3 ** n + 1, 3 ** n, dtype=np.int32)
    # K and M get their own index arrays: scipy sorts indices in place
    K = sp.csr_matrix((K.ravel(), indices, indptr), shape=(N, N))
    M = sp.csr_matrix((M.ravel(), indices.copy(), indptr.copy()),
                      shape=(N, N))
    rec = {"domain": "PeriodicGrid", "shape": shape,
           "phi": getattr(phi_provider, "label", "custom")}
    E0 = np.stack([np.einsum("ab,abIJ->IJ", W.mean(axis=1).reshape(n, n),
                             T.reshape((n, n) + Me_unit.shape)),
                   vol.mean() * Me_unit])
    return AssembledOperator(K=K, M=M, record=rec,
                             symbols=_grid_symbols(shape, d, E0))


def _ghost_layout(shape):
    """Padded shape, flat strides and the flat range [p0, p0 + L) of the
    nodes of a grid laid out with a ghost layer on each side of every axis:
    a shift of the nodes by o in {-1, 0, 1}^n is the flat offset o.stride."""
    padded = tuple(s + 2 for s in shape)
    stride = np.append(np.cumprod(padded[:0:-1])[::-1], 1)
    p0 = int(stride.sum())
    return padded, stride, p0, int(np.prod(padded)) - 2 * p0


def _fill_ghosts(G, n):
    """G (..., s_1 + 2, .., s_n + 2) with its ghost layers filled in place
    from the nodes across the wrap, one axis at a time."""
    for k in range(-n, 0):
        V = np.moveaxis(G, k, 0)
        V[0], V[-1] = V[-2], V[1]
    return G


def _stiffness_slots(W, T, bits, shape):
    """K's slots (N, 3^n), exactly symmetric, with vanishing row sums.

    The slot sums are taken stencil-major in the ghost layout: row a of
    cell c's element matrix, T[:, a]^T W_c, goes to the cell's corner a,
    node c + bits_a, into the slots d[a] of the offsets bits_b - bits_a,
    the box of 2^n stencil indices from 1 - bits_a on, so each corner is
    one matmul and one add over the flat range of the nodes.  Each slot
    and its transpose partner then get their mean (``_symmetrize_slots``).
    """
    n = len(shape)
    padded, stride, p0, L = _ghost_layout(shape)
    inner = (slice(1, -1),) * n
    Wg = np.empty((len(W),) + padded)
    Wg[(slice(None),) + inner] = W.reshape((-1,) + shape)
    Wg = _fill_ghosts(Wg, n).reshape(len(W), -1)
    S = np.zeros((3,) * n + (Wg.shape[-1],))
    for a, b in enumerate(bits):
        box = tuple(slice(1 - k, 3 - k) for k in b) + (slice(p0, p0 + L),)
        S[box] += (T[:, a].T @ Wg[:, _corner_cells(b, stride, p0, L)]
                   ).reshape((2,) * n + (L,))
    del Wg                               # before the output is allocated
    _fill_ghosts(S.reshape((3,) * n + padded), n)
    S = S.reshape(3 ** n, -1)
    scale = max(S.max(), -S.min())
    if _symmetrize_slots(S, shape) > SLOT_SYM_TOL * scale:
        raise NonSymmetricCoefficient("assembled stiffness not symmetric")
    sums = np.zeros((2, S.shape[1]))     # row sums and |row| sums, slot by
    for slot in S[:, p0:p0 + L]:         # slot: no (3^n, P) temporary
        sums[:, p0:p0 + L] += slot, np.abs(slot)
    _check_row_sums(*sums.reshape((2,) + padded)[(slice(None),) + inner])
    K = np.empty((int(np.prod(shape)), 3 ** n))
    K.T.reshape((-1,) + shape)[...] = S.reshape(
        (-1,) + padded)[(slice(None),) + inner]
    return K


def _corner_cells(b, stride, p0, L):
    """The flat range of the ghosted cells c whose corner at offset b is
    node c + b, for the nodes in the flat range [p0, p0 + L)."""
    start = p0 - int(np.dot(b, stride))
    return slice(start, start + L)


def _symmetrize_slots(S, shape):
    """Replace each entry (s, i) of the ghosted slot sums S (3^n, P) and its
    transpose partner (3^n - 1 - s, i + o_s), o_s the offset of stencil
    index s, by their mean over the flat range of the nodes, in place, and
    return the largest |difference| at the nodes.  Both means add the same
    two floats, so K is exactly symmetric; the centre slot is its own."""
    n = len(shape)
    padded, stride, p0, L = _ghost_layout(shape)
    half = 3 ** n // 2
    offsets = (np.indices((3,) * n).reshape(n, -1).T - 1) @ stride
    asym = np.zeros(padded)
    seen = asym.reshape(-1)[p0:p0 + L]

    def at(s, o):
        return S[s, p0 + o:p0 + o + L]

    for s in range(half):
        o = int(offsets[s])
        mine, theirs = at(s, 0), at(-1 - s, o)
        np.maximum(seen, np.abs(mine - theirs), out=seen)
        partner = at(-1 - s, 0) + at(s, -o)
        np.add(mine, theirs, out=mine)
        at(-1 - s, 0)[...] = partner
    for rows in (slice(0, half), slice(half + 1, None)):
        S[rows, p0:p0 + L] *= 0.5
    return float(asym[(slice(1, -1),) * n].max())


def _mass_slots(vol, h, shape):
    """Consistent-mass slot sums (N, 3^n).

    Node i couples to i + o with weight prod_k (h_k / 3 if o_k = 0, else
    h_k / 6) times the summed volume of the cells holding both nodes: on
    axis k the cells i_k - 1 and i_k if o_k = 0, else the one cell
    min(i_k, i_k + o_k).  The sums are taken one axis at a time, appending
    that axis's stencil axis; a slot and its transpose partner then go
    through the same additions, so M is exactly symmetric.
    """
    V = vol.reshape(shape)
    for k in range(len(shape)):
        back = np.roll(V, 1, axis=k)             # the cell i_k - 1
        V = np.stack([back, back + V, V], axis=-1)
    V *= functools.reduce(np.multiply.outer, [[hk / 6.0, hk / 3.0, hk / 6.0]
                                              for hk in h])
    return V.reshape(len(vol), -1)


def _grid_pattern(shape):
    """Column indices of a periodic grid's CSR pattern, rows sorted.

    Row i's columns are the nodes i + o, o in {-1, 0, 1}^n, wrapped per
    axis.  A column ravels its per-axis coordinates, the first axis most
    significant, so a row sorts by sorting each axis's three wrapped
    coordinates on its own.  The indices are a mixed-radix sum of one
    table per axis in the layout (i_1, .., i_n, o_1, .., o_n): a small
    (rows, stencil) table of the first n - 1, extended by the last's.
    """
    cols = np.zeros((1, 1), dtype=np.int32)
    for k, s in enumerate(shape):
        table = np.sort((np.arange(s, dtype=np.int32)[:, None]
                         + np.arange(-1, 2, dtype=np.int32)) % s, axis=1)
        table *= np.int32(np.prod(shape[k + 1:]))
        if k < len(shape) - 1:
            cols = (cols[:, None, :, None] + table[None, :, None, :]
                    ).reshape(-1, 3 * cols.shape[1])
    out = np.tile(np.repeat(cols, 3, axis=1), (1, s)).reshape(
        len(cols), s, -1)
    out += np.tile(table, cols.shape[1])
    return out.ravel()


def _sort_rows(S, shape):
    """Put each row of a slot array S (N, 3^n) in its sorted column order
    (``_grid_pattern``), in place.

    On axis k the offsets -1, 0, 1 reach the coordinates i_k - 1, i_k,
    i_k + 1, already in order, except at the first node, where they sort
    as 0, 1, -1, and at the last, where they sort as 1, -1, 0 (at least 3
    nodes keep these apart); so only those two slabs move.
    """
    n = len(shape)
    V = S.reshape(tuple(shape) + (3,) * n)
    for k in range(n):
        for i, perm in ((0, [1, 2, 0]), (-1, [2, 0, 1])):
            slab = (slice(None),) * k + (i,)
            V[slab] = V[slab].take(perm, axis=n - 1 + k)


def _grid_symbols(shape, d, E0):
    """Fourier symbols of constant-coefficient element matrices E0
    (s, 2^n, 2^n) on a periodic grid.

    The grid operator assembled from one element matrix E0 for every cell
    is a circulant whose stencil at offset o sums the E0[a, b] with
    bits_b - bits_a = o (stencil index d[a, b]).  It maps the mode
    exp(i theta.j) to lambda(theta) times itself, lambda the stencil's
    discrete Fourier transform, theta_j = 2 pi k_j / s_j in numpy.fft's
    order of k; the stencil is symmetric, so lambda is real.  Returns one
    array of the grid's shape per element matrix.
    """
    n = len(shape)
    lam = np.stack([np.bincount(d.ravel(), e.ravel(), minlength=3 ** n)
                    for e in E0]).reshape((len(E0),) + (3,) * n)
    for s in shape:   # the transform is separable: one axis at a time
        lam = np.tensordot(lam, np.exp(-2j * np.pi / s * np.outer(
            np.arange(-1, 2), np.arange(s))), axes=(1, 0))
    return tuple(lam.real)


def _check_row_sums(rs, row_abs):
    """Stiffness row sums ``rs`` must vanish relative to the rows' absolute
    sums ``row_abs``: constants span the kernel."""
    if np.max(np.abs(rs) / np.maximum(row_abs, 1e-300)) > 1e-10:
        raise DegenerateElement("stiffness row sums do not vanish")


# ---------------------------------------------------------------------------
# coefficient providers
#
# A provider maps (points[E, d], X[E, ., k]) to phi[E, k, k]: X is the face
# bases B (k = 2) on a mesh and the cell metrics G (k = n) on a grid.

def _labelled(fn, label):
    fn.label = label
    return fn


def metric_coefficient():
    """phi = I: g in any orthonormal tangent basis, and the identity
    components on a grid."""

    def provider(_q, X):
        k = X.shape[-1]
        return np.broadcast_to(np.eye(k), (len(X), k, k))

    return _labelled(provider, "metric")


def grid_metric_coefficient(grid):
    """phi = g in coordinates for a (possibly curved) grid metric: the
    provider returns the cell metrics that assembly on ``grid`` passes it."""
    return _labelled(lambda _centers, G: G, "metric")


def ellipsoid_newton1_coefficient(semiaxes):
    """Per-face P1 = H I - A of the ellipsoid, read at projected barycenters.

    A barycenter q maps to the ellipsoid along w = q / d, d the semiaxes;
    there grad = w / (|w| d), nu = grad / |grad| and, with e = 1 / d^2,
    H = (sum e - sum e_i nu_i^2) / |grad|.  With c = B^T nu, PB = B - nu c^T
    and r = sqrt(1 - |c|^2), U = PB + (PB c) c^T / (r (1 + r)) is the polar
    factor of PB, the tangent basis nearest the face basis B, and phi =
    H I - U^T diag(e) U / |grad|: closed forms over (F,)- and (3, F)-shaped
    components.  A face plane tilted 45 degrees or more from the tangent
    plane (|c|^2 >= 1/2) is refused.
    """
    d = np.asarray(semiaxes, dtype=float)
    e = 1.0 / d ** 2

    def provider(q, B):
        w = q.T / d[:, None]                         # (3, F)
        nw = np.sqrt(np.einsum("if,if->f", w, w))
        if np.any(nw == 0.0):
            raise DegenerateElement("face barycenter at the origin")
        grad = w / (nw * d[:, None])
        ng = np.sqrt(np.einsum("if,if->f", grad, grad))
        nu = grad / ng
        H = (e.sum() - e @ (nu * nu)) / ng
        t = B.transpose(2, 1, 0)                     # (2, 3, F)
        c = np.einsum("aif,if->af", t, nu)
        s = c[0] * c[0] + c[1] * c[1]
        tilted = ~(s < 0.5)
        if np.any(tilted):
            raise DegenerateElement("face %d tilted 45 deg or more from the "
                                    "tangent plane" % np.argmax(tilted))
        r = np.sqrt(1.0 - s)
        U = t - nu * c[:, None]                      # PB
        U += (U[0] * c[0] + U[1] * c[1]) * (c / (r * (1.0 + r)))[:, None]
        phi = H * np.eye(2)[:, :, None] - np.einsum(
            "aif,bif->abf", U * (e[:, None] / ng), U)
        return phi.transpose(2, 0, 1)

    return _labelled(provider, "newton1:ellipsoid:%g,%g,%g" % tuple(d))


# ---------------------------------------------------------------------------
# I/O

def read_off(path):
    """SurfaceMesh of a triangle OFF file; ConfigError naming the path if
    it cannot be read or parsed."""
    try:
        with open(path, "r") as fh:
            tokens = []
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    tokens.extend(line.split())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("%s: cannot read OFF file: %s" % (path, exc)) \
            from exc
    if not tokens or tokens[0] != "OFF":
        raise ConfigError("%s: missing OFF header" % path)
    it = iter(tokens[1:])
    try:
        nv, nf, _ne = int(next(it)), int(next(it)), int(next(it))
        verts = np.array([[float(next(it)) for _ in range(3)]
                          for _ in range(nv)])
        faces = []
        for _ in range(nf):
            cnt = int(next(it))
            if cnt != 3:
                raise ConfigError("%s: only triangle faces supported" % path)
            faces.append([int(next(it)) for _ in range(3)])
    except StopIteration:
        raise ConfigError("%s: truncated OFF file" % path)
    except ValueError as exc:
        raise ConfigError("%s: bad OFF token: %s" % (path, exc)) from exc
    return SurfaceMesh(vertices=verts, faces=np.asarray(faces))
