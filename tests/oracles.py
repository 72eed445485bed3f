"""Oracles and controls that the tests compare the package with: the
operator box applied directly, the trace-inequality defect of one pair,
the matrix Q(A), the cotangent stiffness, mesh element matrices summed
from COO triplets, the ellipsoid's P1 coefficient by matrix products, the
two-step scaled icosphere, the mean edge length and the factor input by
scipy's conversions, a non-divergence-free coefficient, and the
pointwise-vs-weak consistency of assembled operators on refinement
ladders."""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectra_bochner import boxop, discretize as dz, geometry as geom
from spectra_bochner import hypersurface as hyp, spectral as spec


def laplacian_box(m):
    return boxop.BoxOperator(phi=geom.metric_field(m), manifold=m)


def schouten_box(m):
    return boxop.BoxOperator(phi=geom.schouten_tensor_field(m), manifold=m)


def apply(box, f, p):
    """box(f)(p) = tr(phi Hess f) in the orthonormal frame, at a point or
    at each point of a (P, n) stack."""
    geo = geom.point_geometry(box.chart, p)
    _, _, fij = geom.scalar_jets(geo, f, 2)
    (phi_ij,), = geom.tensor_jets(geo, [box.phi], 0)
    return np.sum(phi_ij * fij, axis=(-2, -1))


def trace_inequality_defect(A, B):
    """Normalized defect for a single (A, B) pair (oracle for spot checks)."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    trB = float(np.trace(B))
    trAB = float(np.sum(A * B))
    return (float(np.sum((A @ A) * B)) - trAB ** 2 / trB) / trB


def q_polynomial(sd, kappa):
    """Q(A) = 2A^3 - 3H A^2 + (2H^2 - |A|^2 - kappa(n-2)) A + kappa(2n-3) H I.

    A may carry leading batch axes (..., n, n); kappa is then a scalar or an
    array over those axes.
    """
    A = np.asarray(sd.A if isinstance(sd, hyp.ShapeData) else sd, dtype=float)
    n = A.shape[-1]
    H = np.trace(A, axis1=-2, axis2=-1)[..., None, None]
    normA2 = np.sum(A * A, axis=(-2, -1))[..., None, None]
    kappa = np.asarray(kappa, dtype=float)[..., None, None]
    A2 = A @ A
    return (2.0 * A2 @ A - 3.0 * H * A2
            + (2.0 * H ** 2 - normA2 - kappa * (n - 2.0)) * A
            + kappa * (2.0 * n - 3.0) * H * np.eye(n))


def nondivergence_free_coefficient():
    """Smooth SPD phi with nonzero divergence (negative control)."""

    def provider(q, X):
        k = X.shape[-1]
        phi = np.tile(np.eye(k), (len(q), 1, 1))
        phi[:, 0, 0] += 0.5 * (1.0 + np.sin(q[:, 0]))
        if k > 1:
            phi[:, 0, 1] = phi[:, 1, 0] = 0.25 * np.cos(q[:, 0] + q[:, -1])
        return phi

    provider.label = "nondivfree"
    return provider


def cotangent_stiffness(mesh):
    """Classical cotangent-weight stiffness matrix (independent route)."""
    V, F = mesh.vertices, mesh.faces
    nv = mesh.num_vertices
    rows, cols, vals = [], [], []
    for tri in F:
        p = V[tri]
        for k in range(3):
            i, j = tri[(k + 1) % 3], tri[(k + 2) % 3]
            u = p[(k + 1) % 3] - p[k]
            v = p[(k + 2) % 3] - p[k]
            cot = float(u @ v) / np.linalg.norm(np.cross(u, v))
            w = 0.5 * cot
            rows += [i, j, i, j]
            cols += [j, i, i, j]
            vals += [-w, -w, w, w]
    return sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()


def face_bases(mesh):
    """Face barycenters (F, 3) and the assembly's tangent bases B (F, 3, 2):
    t1 along corner 0 -> 1, t2 completing it towards corner 2."""
    P = mesh.face_corners()
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    t1 = e1 / np.linalg.norm(e1, axis=1)[:, None]
    t2 = e2 - np.sum(e2 * t1, axis=1)[:, None] * t1
    t2 /= np.linalg.norm(t2, axis=1)[:, None]
    return P.mean(axis=1), np.stack([t1, t2], axis=2)


def mesh_elements(mesh, provider):
    """Element stiffness and mass matrices (F, 3, 3) of a mesh's faces.

    The provider sees the face barycenters and bases of ``face_bases``;
    the hat gradients are taken in R^3, grad psi_k = n x (p_{k+2} -
    p_{k+1}) / (2 area), and then written in B (independent route: one
    3-operand einsum per stack, each matrix symmetrized)."""
    P = mesh.face_corners()
    c = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    area = 0.5 * np.linalg.norm(c, axis=1)
    q, B = face_bases(mesh)
    nrm = c / (2.0 * area)[:, None]
    opposite = P[:, [2, 0, 1]] - P[:, [1, 2, 0]]
    grad = np.cross(nrm[:, None, :], opposite) / (2.0 * area)[:, None, None]
    g = np.einsum("fki,fia->fka", grad, B)
    phi = np.asarray(provider(q, B), dtype=float)
    phi = 0.5 * (phi + phi.transpose(0, 2, 1))
    Ke = area[:, None, None] * np.einsum("fia,fab,fjb->fij", g, phi, g)
    Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1))
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return Ke, area[:, None, None] * mass


def coo_pair(nodes, Ke, Me, n):
    """K and M (CSR) summed from COO triplets of per-element node lists
    (E, m) and element matrices (E, m, m), element by element,
    row-major."""
    m = nodes.shape[1]
    rows = np.repeat(nodes, m, axis=1).ravel()
    cols = np.tile(nodes, (1, m)).ravel()
    return [sp.coo_matrix((E.ravel(), (rows, cols)), shape=(n, n)).tocsr()
            for E in (Ke, Me)]


def ellipsoid_newton1_matmul(semiaxes):
    """Per-face P1 = H I - A of the ellipsoid by 3 x 3 and 2 x 2 products
    (the route the closed form replaced): the shape operator A3 at the
    projected barycenters, P1 restricted to the tangent basis Bs of
    ``ellipsoid_shape_operator``, then turned by the polar factor R of
    Bs^T B into the face basis B, R^T P1s R."""
    d = np.asarray(semiaxes, dtype=float)

    def provider(q, B):
        w = q / d
        nw = np.linalg.norm(w, axis=1)
        p = (w / nw[:, None]) * d
        A3, nu, Bs = hyp.ellipsoid_shape_operator(p, d)
        H = np.trace(A3, axis1=1, axis2=2)[:, None, None]
        tangent = np.eye(3) - np.einsum("fi,fj->fij", nu, nu)
        BsT = Bs.transpose(0, 2, 1)
        P1s = BsT @ (H * tangent - A3) @ Bs
        R = polar_2x2(BsT @ B)
        return R.transpose(0, 2, 1) @ P1s @ R

    return provider


def polar_2x2(X):
    """Orthogonal polar factor U Vt of a stack (F, 2, 2) of matrices
    [[a, b], [c, d]] with SVD U S Vt, in closed form.

    For det >= 0 it is the rotation [[p, q], [-q, p]] with (p, q) along
    (a + d, b - c); otherwise the reflection [[p, q], [q, -p]] with (p, q)
    along (a - d, b + c).
    """
    a, b, c, d = X[:, 0, 0], X[:, 0, 1], X[:, 1, 0], X[:, 1, 1]
    s = np.where(a * d - b * c >= 0.0, 1.0, -1.0)
    p, q = a + s * d, b - s * c
    r = np.hypot(p, q)
    p, q = p / r, q / r
    return np.stack([p, q, -s * q, s * p], axis=1).reshape(-1, 2, 2)


def two_step_icosphere(subdiv, semiaxes):
    """(vertices, faces, parents) of the unit icosphere built alone, its
    vertices then scaled per axis (the construction ``icosphere``'s one
    sweep over a ladder replaced): one np.unique of the edge keys per
    subdivision step, the midpoints numbered by first occurrence."""
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
    parents = []
    for _ in range(subdiv):
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
        m /= np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0])
        verts = np.concatenate([verts, m])
        ab, bc, ca = (nv + rank[inverse]).reshape(-1, 3).T
        x, y, z = faces.T
        faces = np.stack([x, ab, ca, y, bc, ab, z, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    # radius 1, then the per-axis scale
    return (1.0 * verts) * np.asarray(semiaxes, float), faces, parents


def mean_edge_length(mesh):
    """Mean length of the faces' edges, each face's three edges gathered
    from its corners (the route validation's recorded value replaced)."""
    P = mesh.face_corners()
    e = np.concatenate([P[:, 1] - P[:, 0], P[:, 2] - P[:, 1],
                        P[:, 0] - P[:, 2]])
    return float(np.mean(np.linalg.norm(e, axis=1)))


def scipy_factor_input(K, M, eps, points):
    """P A P' in CSC for A = K + eps*M by scipy's sum, A's nested-dissection
    order P and scipy's row and column indexing (the chain
    ``spectral._factor_input`` on K's pattern replaced)."""
    A = (K + eps * M).tocsr()
    perm = spec._nested_dissection(A, points)
    return A[perm][:, perm].tocsc()


def domain_resolution(domain):
    """Representative mesh size h."""
    if isinstance(domain, dz.SurfaceMesh):
        return domain.mean_edge
    return float(np.max(domain.steps))


def pointwise_vs_weak_consistency(domain, phi_provider, f_at, boxf_at):
    """Compare M^{-1} K f against -box(f) at the nodes.

    For divergence-free phi the weak operator is the negative of box;
    returns {'h', 'max_error', 'rel_error'}.
    """
    op = dz.assemble(domain, phi_provider)
    f = np.array([f_at(p) for p in op.points])
    b = np.array([boxf_at(p) for p in op.points])
    w = spla.spsolve(op.M.tocsc(), op.K @ f)
    e = w + b
    err = float(np.max(np.abs(e)))
    vol = float(np.ones_like(e) @ (op.M @ np.ones_like(e)))
    rms = math.sqrt(max(float(e @ (op.M @ e)), 0.0) / vol)
    scale = max(1.0, float(np.max(np.abs(b))))
    return {"h": domain_resolution(domain), "max_error": err,
            "rms_error": rms, "median_error": float(np.median(np.abs(e))),
            "rel_error": err / scale, "size": op.size}


def observed_order(reports, key="max_error"):
    """Least-squares slope of log(error) vs log(h) over refinement levels."""
    hs = np.log([r["h"] for r in reports])
    es = np.log([max(r[key], 1e-300) for r in reports])
    A = np.stack([hs, np.ones_like(hs)], axis=1)
    slope, _ = np.linalg.lstsq(A, es, rcond=None)[0]
    return float(slope)


def write_off(mesh, path):
    with open(path, "w") as fh:
        fh.write("OFF\n%d %d %d\n" % (mesh.num_vertices, mesh.num_faces,
                                        mesh.num_edges))
        for v in mesh.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(v))
        for f in mesh.faces:
            fh.write("3 %d %d %d\n" % tuple(f))
