import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from spectra_bochner import discretize as dz, geometry as geom
from spectra_bochner.errors import (ConfigError, DegenerateElement,
                                    NonSymmetricCoefficient)

import oracles


@pytest.fixture(scope="module")
def ico3():
    return dz.icosphere(3, 1.0)


def icosphere_reference(subdiv):
    """Vertices and faces of the icosphere by one dict lookup per face edge
    (independent route): each edge's midpoint is appended on first use."""
    base = dz.icosphere(0)
    verts, faces = list(base.vertices), [tuple(f) for f in base.faces]
    for _ in range(subdiv):
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts[a] + verts[b]
                m /= np.linalg.norm(m)
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.asarray(verts), np.asarray(faces)


def pillow(angle_deg):
    """Closed two-face mesh: one right triangle, front and back, whose
    smallest angle is ``angle_deg``."""
    t = np.tan(np.radians(angle_deg))
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, t, 0.0]])
    return dz.SurfaceMesh(vertices=v, faces=np.array([[0, 1, 2], [0, 2, 1]]))


class TestIcosphere:
    @pytest.mark.parametrize("sub", range(6))
    def test_matches_reference_construction(self, sub):
        m = dz.icosphere(sub)
        verts, faces = icosphere_reference(sub)
        assert np.array_equal(m.faces, faces)
        assert np.array_equal(m.vertices, verts)

    @pytest.mark.parametrize("sub", range(1, 6))
    def test_levels_nest(self, sub):
        coarse, fine = dz.icosphere(sub - 1), dz.icosphere(sub)
        assert np.array_equal(fine.vertices[:coarse.num_vertices],
                              coarse.vertices)

    @pytest.mark.parametrize("sub", range(1, 5))
    def test_parents_name_each_midpoint(self, sub):
        m = dz.icosphere(sub)
        assert len(m.parents) == sub
        start = 12
        for a, b in m.parents:
            mid = m.vertices[a] + m.vertices[b]
            mid /= np.linalg.norm(mid, axis=1)[:, None]
            new = m.vertices[start:start + len(a)]
            assert np.max(np.abs(new - mid)) <= 1e-15
            start += len(a)
        assert start == m.num_vertices

    def test_base_combinatorics(self):
        m = dz.icosphere(0)
        assert m.num_vertices == 12
        assert m.num_faces == 20
        assert m.euler_characteristic == 2

    @pytest.mark.parametrize("sub", [0, 1, 2, 3])
    def test_vertex_count_and_euler(self, sub):
        m = dz.icosphere(sub)
        assert m.num_vertices == 10 * 4 ** sub + 2
        assert m.euler_characteristic == 2
        assert m.genus == 0

    def test_area_converges(self, ico3):
        assert abs(ico3.total_area() - 4 * np.pi) / (4 * np.pi) < 0.005

    def test_radius_projection(self):
        m = dz.icosphere(2, 2.5)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), 2.5)

    @pytest.mark.parametrize("ax", [(1.0, 1.0, 1.0), (1.0, 1.0, 1.1),
                                    (1.0, 1.3, 0.8)])
    def test_ladder_matches_two_step_construction(self, ax):
        # one sweep, each level built on its scaled vertices, against the
        # unit icosphere built alone and then scaled per axis
        ladder = dz.icosphere(range(5), ax)
        assert len(ladder) == 5
        for sub, mesh in enumerate(ladder):
            verts, faces, parents = oracles.two_step_icosphere(sub, ax)
            assert np.array_equal(mesh.vertices, verts)
            assert np.array_equal(mesh.faces, faces)
            assert len(mesh.parents) == len(parents) == sub
            for (a, b), (pa, pb) in zip(mesh.parents, parents):
                assert np.array_equal(a, pa) and np.array_equal(b, pb)

    def test_ladder_levels_need_not_be_adjacent(self):
        coarse, fine = dz.icosphere((1, 3), (1.0, 1.3, 0.8))
        assert coarse.num_vertices == 42 and fine.num_vertices == 642
        assert len(fine.parents) == 3
        assert np.array_equal(fine.vertices[:42], coarse.vertices)

    @pytest.mark.parametrize("sub,ax", [(s, ax) for s in range(5) for ax in
                                        [(1.0, 1.0, 1.0), (1.0, 1.3, 0.8)]])
    def test_mean_edge_length_from_validation(self, sub, ax):
        # the value validation records, summed in another order than the
        # edges gathered from the face corners
        mesh = dz.icosphere(sub, ax)
        assert mesh.mean_edge == pytest.approx(
            oracles.mean_edge_length(mesh), rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("subdiv,radius,match", [
        (-1, 1.0, "subdiv must be >= 0"),
        ((), 1.0, "subdiv must be >= 0"),
        ((2, 2), 1.0, "subdivisions must increase"),
        ((3, 1), 1.0, "subdivisions must increase"),
        (1, (1.0, 2.0), "radius must be one number or three semiaxes"),
    ])
    def test_bad_levels_or_radius(self, subdiv, radius, match):
        with pytest.raises(ConfigError, match=match):
            dz.icosphere(subdiv, radius)


class TestMeshValidation:
    def test_open_mesh_rejected(self):
        # (0, 1) is on both faces; (0, 2) is the first edge on one
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
        with pytest.raises(DegenerateElement, match=r"^mesh not closed: "
                           r"edge \(0, 2\) on 1 face\(s\)$"):
            dz.SurfaceMesh(vertices=v, faces=np.array([[0, 1, 2], [1, 0, 3]]))

    @pytest.mark.parametrize("faces,message", [
        # a repeated corner makes an edge from a vertex to itself, which
        # is its own reverse but lies on one face
        ([[0, 0, 1]], "mesh not closed: edge (0, 0) on 1 face(s)"),
        ([[0, 1, 2], [0, 2, 1], [2, 3, 3]],
         "mesh not closed: edge (3, 3) on 1 face(s)"),
    ], ids=["self-edge", "self-edge-beside-closed"])
    def test_self_edge_message(self, faces, message):
        faces = np.array(faces)
        v = np.eye(4)[:faces.max() + 1]
        with pytest.raises(DegenerateElement) as err:
            dz.SurfaceMesh(vertices=v, faces=faces)
        assert str(err.value) == message

    @pytest.mark.parametrize("index", [42, -1])
    def test_face_index_out_of_range(self, index):
        m = dz.icosphere(1)
        f = m.faces.copy()
        f[3, 1] = index
        with pytest.raises(DegenerateElement) as err:
            dz.SurfaceMesh(vertices=m.vertices, faces=f)
        assert str(err.value) == "face index outside 0..41"

    def test_empty_mesh_rejected(self):
        # a named refusal, not numpy's error from reducing no face areas
        with pytest.raises(DegenerateElement, match="^mesh has no faces$"):
            dz.SurfaceMesh(vertices=np.zeros((0, 3)),
                           faces=np.zeros((0, 3), int))

    def test_faces_not_triples(self):
        m = dz.icosphere(1)
        with pytest.raises(DegenerateElement,
                           match="^faces must be index triples$"):
            dz.SurfaceMesh(vertices=m.vertices,
                           faces=np.hstack([m.faces, m.faces[:, :1]]))

    def test_three_faces_on_one_edge(self):
        # face 0 runs 0 -> 12; a third face on that edge repeats one of
        # its two orientations
        m = dz.icosphere(1)
        f = np.vstack([m.faces, [[0, 12, 20]]])
        with pytest.raises(DegenerateElement) as err:
            dz.SurfaceMesh(vertices=m.vertices, faces=f)
        assert str(err.value) == ("edge (0,12) repeated with same orientation "
                                  "(mesh not orientable or faces "
                                  "duplicated)")

    def test_sliver_rejected(self):
        m = dz.icosphere(1)
        v = m.vertices.copy()
        # collapse one vertex onto a neighbor to create a sliver
        tri = m.faces[0]
        v[tri[0]] = v[tri[1]] + 1e-9 * (v[tri[2]] - v[tri[1]])
        with pytest.raises(DegenerateElement):
            dz.SurfaceMesh(vertices=v, faces=m.faces)

    def test_disconnected_mesh_rejected(self):
        # two disjoint spheres: eig used to return mu = -5e-17, the
        # constant mode of the second component
        m = dz.icosphere(1)
        v = np.concatenate([m.vertices, m.vertices + [3.0, 0.0, 0.0]])
        f = np.concatenate([m.faces, m.faces + m.num_vertices])
        with pytest.raises(DegenerateElement, match="2 connected components"):
            dz.SurfaceMesh(vertices=v, faces=f)
        # three spheres, vertex 0 in the smallest: the search from it
        # reaches 42 of 366 vertices
        big = dz.icosphere(2)
        nb = big.num_vertices
        v = np.concatenate([m.vertices, big.vertices + [3.0, 0.0, 0.0],
                            big.vertices + [6.0, 0.0, 0.0]])
        f = np.concatenate([m.faces, big.faces + m.num_vertices,
                            big.faces + m.num_vertices + nb])
        with pytest.raises(DegenerateElement, match="3 connected components"):
            dz.SurfaceMesh(vertices=v, faces=f)

    def test_unreferenced_vertex_rejected(self):
        # used to surface only at factorization (FactorizationFailure)
        m = dz.icosphere(1)
        v = np.concatenate([m.vertices, [[0.0, 0.0, 0.0]]])
        with pytest.raises(DegenerateElement, match="in no face"):
            dz.SurfaceMesh(vertices=v, faces=m.faces)

    def test_duplicated_face_rejected(self):
        m = dz.icosphere(1)
        f = np.concatenate([m.faces, m.faces[:1]])
        with pytest.raises(DegenerateElement, match="same orientation"):
            dz.SurfaceMesh(vertices=m.vertices, faces=f)

    def test_min_angle_boundary(self):
        with pytest.raises(DegenerateElement,
                           match=r"min triangle angle 0\.900 deg < 1 deg"):
            pillow(0.9)
        assert pillow(1.1).num_faces == 2

    def test_collapsed_face_rejected(self):
        # one corner moved onto another: that face's area is exactly 0
        m = dz.icosphere(1)
        v = m.vertices.copy()
        v[m.faces[0, 0]] = v[m.faces[0, 1]]
        with pytest.raises(DegenerateElement, match="^face area 0 below 1e-12 "
                           "of the squared mean edge length$"):
            dz.SurfaceMesh(vertices=v, faces=m.faces)

    def test_all_faces_zero_area_rejected(self):
        # every face on three coincident points: the area scale must not be
        # relative to the (zero) mean area, and the 0/0 cosines must not be
        # reached
        v = np.ones((3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateElement, match="face area 0 below"):
                dz.SurfaceMesh(vertices=v,
                               faces=np.array([[0, 1, 2], [0, 2, 1]]))

    def test_nonfinite_vertex_rejected(self):
        m = dz.icosphere(1)
        v = m.vertices.copy()
        v[0] = np.nan
        with pytest.raises(DegenerateElement, match="face area nan"):
            dz.SurfaceMesh(vertices=v, faces=m.faces)

    def test_scaled_copy_checks_geometry(self):
        # each level is checked on its scaled vertices
        with pytest.raises(DegenerateElement, match="face area"):
            dz.icosphere((1, 2), (1.0, 1.0, 0.0))
        with pytest.raises(DegenerateElement, match="min triangle angle"):
            dz.icosphere((1, 2), (1.0, 1.0, 1e-3))

    @staticmethod
    def face_major_geometry(mesh):
        """The geometry check's areas and largest corner cosine on (F, 3, 3)
        stacks of the corners and edges, gathered face by face."""
        P = mesh.vertices[mesh.faces]
        E = P[:, [1, 2, 0]] - P
        L = np.einsum("fki,fki->fk", E, E)
        cos = -np.einsum("fki,fki->fk", E, E[:, [2, 0, 1]]) / np.sqrt(
            L * L[:, [2, 0, 1]])
        return (0.5 * np.linalg.norm(np.cross(E[:, 0], E[:, 2]), axis=1),
                float(np.max(cos)))

    def test_allocation_peak(self, monkeypatch):
        # tracemalloc peak of validating icosphere 6: 27.7 MB with (F, 3, 3)
        # corner and edge stacks and the sort keys held to the end, 19.9 MB
        # with the (3, F) face geometry; the face-major route, planted,
        # must break the bound
        mesh = dz.icosphere(6)
        areas = mesh.areas

        def peak():
            tracemalloc.start()
            try:
                mesh.validate()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() <= 22e6
        monkeypatch.setattr(dz.SurfaceMesh, "_check_geometry",
                            self.face_major_geometry)
        assert peak() > 22e6
        ref = self.face_major_geometry(mesh)[0]
        assert np.max(np.abs(areas - ref) / ref) <= 1e-15


class TestAssembly:
    def test_cotangent_oracle(self, ico3):
        op = dz.assemble(ico3, dz.metric_coefficient())
        Kc = oracles.cotangent_stiffness(ico3)
        assert abs(op.K - Kc).max() < 1e-12

    def test_stiffness_exactly_symmetric(self, ico3):
        op = dz.assemble(ico3, dz.ellipsoid_newton1_coefficient([1, 1, 1.1]))
        assert (op.K != op.K.T).nnz == 0

    def test_linearity_in_phi(self, ico3):
        op1 = dz.assemble(ico3, dz.metric_coefficient())
        op2 = dz.assemble(ico3, lambda _q, B: np.broadcast_to(
            2.0 * np.eye(2), (len(B), 2, 2)))
        assert abs(op2.K - 2 * op1.K).max() < 1e-13
        assert abs(op2.M - op1.M).max() == 0.0

    def test_newton1_equals_metric_on_unit_sphere(self, ico3):
        op_g = dz.assemble(ico3, dz.metric_coefficient())
        op_p = dz.assemble(ico3, dz.ellipsoid_newton1_coefficient([1, 1, 1]))
        assert abs(op_p.K - op_g.K).max() < 1e-9

    def test_row_sums_vanish(self, ico3):
        op = dz.assemble(ico3, dz.ellipsoid_newton1_coefficient([1, 1, 1.1]))
        ones = np.ones(op.size)
        assert np.max(np.abs(op.K @ ones)) < 1e-12 * abs(op.K).max() * op.size

    def test_mass_spd_and_total_area(self, ico3):
        op = dz.assemble(ico3, dz.metric_coefficient())
        ones = np.ones(op.size)
        assert float(ones @ (op.M @ ones)) == pytest.approx(ico3.total_area())
        w = np.linalg.eigvalsh(op.M.toarray())
        assert w[0] > 0

    def test_positive_energy_off_constants(self, ico3):
        op = dz.assemble(ico3, dz.metric_coefficient())
        rng = np.random.default_rng(3)
        ones = np.ones(op.size)
        vol = float(ones @ (op.M @ ones))
        for _ in range(10):
            u = rng.standard_normal(op.size)
            u -= (float(ones @ (op.M @ u)) / vol) * ones
            assert float(u @ (op.K @ u)) > 0

    def test_nonsymmetric_coefficient_rejected(self, ico3):
        def bad(q, _B):
            return np.tile([[1.0, 0.5], [0.0, 1.0]], (len(q), 1, 1))
        with pytest.raises(NonSymmetricCoefficient):
            dz.assemble(ico3, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        # nan fails every > test of the symmetry and row-sum checks, so it
        # must be refused before them rather than reach K
        def provider(q, _B):
            phi = np.tile(np.eye(2), (len(q), 1, 1))
            phi[7, 0, 0] = bad
            return phi
        with pytest.raises(NonSymmetricCoefficient,
                           match="coefficient not finite at face 7$"):
            dz.assemble(dz.icosphere(1), provider)

    def test_provenance_record(self, ico3):
        op = dz.assemble(ico3, dz.metric_coefficient())
        assert op.record["phi"] == "metric"
        assert op.record["vertices"] == ico3.num_vertices


NEWTON1_SEMIAXES = [(1.0, 1.0, 1.0), (1.0, 1.0, 1.1), (1.0, 1.3, 0.8),
                    (2.0, 1.0, 0.5)]


class TestEllipsoidNewton1:
    """The closed-form P1 coefficient against the matrix-product route of
    ``oracles.ellipsoid_newton1_matmul``."""

    def test_polar_factor_matches_svd(self):
        X = np.random.default_rng(5).standard_normal((1000, 2, 2))
        X[0] = [[0.0, 1.0], [1.0, 0.0]]       # a reflection, det = -1
        assert 100 < np.sum(np.linalg.det(X) < 0) < 900
        U, _, Vt = np.linalg.svd(X)
        assert np.max(np.abs(oracles.polar_2x2(X) - U @ Vt)) <= 1e-15

    @pytest.mark.parametrize("subdiv", [1, 3, 5])
    @pytest.mark.parametrize("semiaxes", NEWTON1_SEMIAXES, ids=str)
    def test_matches_matmul_route(self, semiaxes, subdiv):
        q, B = oracles.face_bases(dz.icosphere(subdiv, semiaxes))
        phi = dz.ellipsoid_newton1_coefficient(semiaxes)(q, B)
        ref = oracles.ellipsoid_newton1_matmul(semiaxes)(q, B)
        err = np.max(np.abs(phi - ref), axis=(1, 2))
        assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=(1, 2)))

    @pytest.mark.parametrize("subdiv", [1, 3, 5])
    def test_unit_sphere_gives_identity(self, subdiv):
        q, B = oracles.face_bases(dz.icosphere(subdiv))
        phi = dz.ellipsoid_newton1_coefficient((1.0, 1.0, 1.0))(q, B)
        assert np.max(np.abs(phi - np.eye(2))) <= 8 * np.spacing(1.0)

    def test_basis_holding_the_normal_refused(self):
        # on the unit sphere the normal at q is q; face 3's basis holds it,
        # face 5's is tilted just under 45 degrees, the rest are tangent
        q = np.random.default_rng(2).standard_normal((8, 3))
        q /= np.linalg.norm(q, axis=1)[:, None]
        t1 = np.cross(q, [0.0, 0.0, 1.0])
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        B = np.stack([t1, np.cross(q, t1)], axis=2)
        provider = dz.ellipsoid_newton1_coefficient((1.0, 1.0, 1.0))
        tilt = 0.99 * np.pi / 4
        B[5, :, 1] = np.cos(tilt) * B[5, :, 1] + np.sin(tilt) * q[5]
        assert np.all(np.isfinite(provider(q, B)))
        B[3, :, 1] = q[3]
        with pytest.raises(DegenerateElement, match="^face 3 tilted 45 deg"):
            provider(q, B)

    def test_mesh_of_another_surface_refused(self):
        # the unit icosphere's faces against the normals of (1, 1, 3)
        with pytest.raises(DegenerateElement, match="^face 24 tilted"):
            dz.assemble(dz.icosphere(1),
                        dz.ellipsoid_newton1_coefficient((1.0, 1.0, 3.0)))


MESH_CASES = {
    **{"icosphere-%d" % sub: (lambda sub=sub: (
        dz.icosphere(sub), dz.metric_coefficient())) for sub in range(5)},
    "newton1-1,1,1.1": lambda: (
        dz.icosphere(3, (1.0, 1.0, 1.1)),
        dz.ellipsoid_newton1_coefficient((1.0, 1.0, 1.1))),
    "newton1-1,1.3,0.8": lambda: (
        dz.icosphere(3, (1.0, 1.3, 0.8)),
        dz.ellipsoid_newton1_coefficient((1.0, 1.3, 0.8))),
    "metric*2.5-1,1.3,0.8": lambda: (
        dz.icosphere(2, (1.0, 1.3, 0.8)),
        lambda _q, B: np.broadcast_to(2.5 * np.eye(2), (len(B), 2, 2))),
}


class TestMeshSlotAssembly:
    @pytest.mark.parametrize("case", MESH_CASES)
    def test_matches_coo_reference(self, case):
        mesh, provider = MESH_CASES[case]()
        op = dz.assemble(mesh, provider)
        refs = oracles.coo_pair(mesh.faces, *oracles.mesh_elements(
            mesh, provider), mesh.num_vertices)
        for A, ref in zip((op.K, op.M), refs):
            assert np.array_equal(A.indptr, ref.indptr)
            assert np.array_equal(A.indices, ref.indices)
            assert abs(A - ref).max() <= 1e-14 * abs(ref).max()
        assert np.array_equal(op.K.data, op.K.T.tocsr().data)

    @staticmethod
    def planted(slots_edit):
        """An ellipsoid mesh whose edge table has its slots edited."""
        mesh = dz.icosphere(2, (1.0, 1.3, 0.8))
        slots = mesh.edges.slots.copy()
        slots_edit(slots)
        object.__setattr__(mesh, "edges",
                           dataclasses.replace(mesh.edges, slots=slots))
        return mesh

    def test_swapped_slot_pair_rejected(self):
        # face 7's entries (0, 1) and (0, 2) trade places, their transposes
        # stay: the row sums still vanish, but K is no longer symmetric
        def swap(slots):
            slots[7, 0, [1, 2]] = slots[7, 0, [2, 1]]
        with pytest.raises(NonSymmetricCoefficient,
                           match="^assembled stiffness not symmetric$"):
            dz.assemble(self.planted(swap), dz.metric_coefficient())

    def test_broken_row_sums_rejected(self):
        # face 7's diagonal entry at corner 0 lands on corner 1's diagonal:
        # K stays symmetric, but two rows no longer sum to zero
        def move(slots):
            slots[7, 0, 0] = slots[7, 1, 1]
        with pytest.raises(DegenerateElement,
                           match="^stiffness row sums do not vanish$"):
            dz.assemble(self.planted(move), dz.metric_coefficient())

    def test_mass_survives_stiffness_edits(self):
        # the mesh's table is shared by every assembly on its face array:
        # scipy's in-place index sorting must not reach it or M
        mesh = dz.icosphere(1)
        op = dz.assemble(mesh, dz.metric_coefficient())
        for A in (op.K, op.M):
            for name in ("indices", "indptr"):
                assert not np.shares_memory(getattr(A, name),
                                            getattr(mesh.edges, name))
        assert not np.shares_memory(op.K.indices, op.M.indices)


class TestGrid:
    def test_shapes_and_wrap(self):
        g = dz.PeriodicGrid(lengths=[2 * np.pi, 4.0], shape=(8, 4))
        assert g.num_nodes == 32
        assert oracles.node_points(g).shape == (32, 2)

    def test_grid_stiffness_flat_matches_fd_stencil(self):
        # phi = I on a square grid: stiffness row of an interior node matches
        # the standard bilinear element stencil
        n = 8
        h = 2 * np.pi / n
        g = dz.PeriodicGrid(lengths=[2 * np.pi, 2 * np.pi], shape=(n, n))
        op = dz.assemble(g, dz.metric_coefficient())
        node = lambda multi: np.ravel_multi_index(multi, g.shape, mode="wrap")
        row = op.K.getrow(node((3, 3))).toarray().ravel()
        # bilinear stencil: center 8/3, edge neighbors -1/3, corners -1/3
        assert row[node((3, 3))] == pytest.approx(8.0 / 3.0)
        assert row[node((3, 4))] == pytest.approx(-1.0 / 3.0)
        assert row[node((4, 4))] == pytest.approx(-1.0 / 3.0)

    def test_curved_metric_volume(self):
        # metric 4*I doubles lengths: mass total = volume = 4 * L^2
        g = dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(8, 8),
                            metric=lambda p: 4.0 * np.eye(2))
        op = dz.assemble(g, dz.grid_metric_coefficient(g))
        ones = np.ones(op.size)
        assert float(ones @ (op.M @ ones)) == pytest.approx(4.0)

    def test_metric_indefinite_in_one_cell_rejected(self):
        # steps 1, so cell (i, j) has centre (i + 0.5, j + 0.5)
        def metric(p):
            G = np.tile(np.eye(2), (len(p), 1, 1))
            G[np.all(p == [2.5, 1.5], axis=1)] = [[1.0, 2.0], [2.0, 1.0]]
            return G

        g = dz.PeriodicGrid(lengths=[4.0, 5.0], shape=(4, 5), metric=metric)
        with pytest.raises(DegenerateElement,
                           match=r"not SPD at \[2\.5, 1\.5\]"):
            dz.assemble(g, dz.grid_metric_coefficient(g))

    def test_first_indefinite_cell_named(self):
        # the first cell, diag(1, -1, -1), fails at its second pivot with a
        # positive determinant; a later one fails at its first pivot
        def metric(p):
            G = np.tile(np.eye(3), (len(p), 1, 1))
            G[np.all(p == [0.5, 1.5, 0.5], axis=1)] = np.diag([1, -1, -1])
            G[np.all(p == [2.5, 0.5, 0.5], axis=1), 0, 0] = 0.0
            return G

        g = dz.PeriodicGrid(lengths=[3.0, 3.0, 3.0], shape=(3, 3, 3),
                            metric=metric)
        with pytest.raises(DegenerateElement,
                           match=r"not SPD at \[0\.5, 1\.5, 0\.5\]"):
            dz.assemble(g, dz.grid_metric_coefficient(g))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        # steps 1, so cell (i, j, k) has centre (i + 0.5, j + 0.5, k + 0.5)
        def provider(centers, G):
            phi = np.array(G)
            phi[np.all(centers == [1.5, 2.5, 0.5], axis=1), 1, 2] = bad
            return phi

        g = dz.PeriodicGrid(lengths=[4.0, 4.0, 4.0], shape=(4, 4, 4))
        with pytest.raises(NonSymmetricCoefficient,
                           match=r"not finite at cell \[1, 2, 0\]$"):
            dz.assemble(g, provider)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pivots_and_inverse(self, n):
        A = np.random.default_rng(n).standard_normal((50, n, n))
        G = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(n)
        pivots, Ginv = dz._pivots_and_inverse(G)
        assert np.all(pivots > 0.0)
        assert np.allclose(np.prod(pivots, axis=1), np.linalg.det(G),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(Ginv, np.linalg.inv(G), rtol=1e-10, atol=1e-12)

    def test_bad_dimensions(self):
        with pytest.raises(ConfigError):
            dz.PeriodicGrid(lengths=[1.0], shape=(4, 4))
        with pytest.raises(ConfigError):
            dz.PeriodicGrid(lengths=[1.0, 1.0], shape=(2, 4))


def grid_element_tensors(h):
    """Per-axis 1D element matrices and their tensor products: T[a, b] is
    the (2^n, 2^n) element matrix of int d_a N_I d_b N_J over one cell
    (unit coefficient), and the element mass matrix."""
    n = len(h)
    M1 = [np.array([[hk / 3.0, hk / 6.0], [hk / 6.0, hk / 3.0]]) for hk in h]
    S1 = [np.array([[1.0, -1.0], [-1.0, 1.0]]) / hk for hk in h]
    D1 = np.array([[-0.5, 0.5], [-0.5, 0.5]])  # int N_i N_j' dt

    def tensor(mats):
        out = np.array([[1.0]])
        for m in mats:
            out = np.kron(out, m)
        return out

    T = np.empty((n, n, 2 ** n, 2 ** n))
    for a in range(n):
        for b in range(n):
            T[a, b] = tensor([S1[ax] if ax == a == b
                              else D1.T if ax == a   # derivative on index 1
                              else D1 if ax == b     # derivative on index 2
                              else M1[ax] for ax in range(n)])
    return T, tensor(M1)


def grid_elements_reference(grid, provider):
    """Element stiffness and mass matrices (C, 2^n, 2^n) of a grid's cells,
    cell c with lower corner node c (independent route: dense element
    matrices, each symmetrized)."""
    n = grid.dim
    T, Me_unit = grid_element_tensors(grid.steps)
    centers = (np.indices(grid.shape).reshape(n, -1).T + 0.5) * grid.steps
    G = np.broadcast_to(np.eye(n) if grid.metric is None
                        else np.asarray(grid.metric(centers), dtype=float),
                        (len(centers), n, n))
    pivots, ginv = dz._pivots_and_inverse(G)
    phi = dz._check_sym_coeff(provider(centers, G), G.shape,
                                 str).transpose(2, 0, 1)
    vol = np.sqrt(np.prod(pivots, axis=1))
    W = vol[:, None, None] * (ginv @ phi @ ginv)  # raised index, weighted
    Ke = (W.reshape(-1, n * n) @ T.reshape(n * n, -1)).reshape(
        (-1,) + Me_unit.shape)
    Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1))
    return Ke, vol[:, None, None] * Me_unit


def coo_reference(grid, Ke, Me):
    """K and M summed from COO triplets of the element matrices, cell c
    with lower corner node c and corner k at offset bits(k)."""
    n, N = grid.dim, grid.num_nodes
    lower = np.indices(grid.shape).reshape(n, -1)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    nodes = np.ravel_multi_index(tuple(lower[:, :, None]
                                       + bits.T[:, None, :]),
                                 grid.shape, mode="wrap")
    rows = np.repeat(nodes, 2 ** n, axis=1).ravel()
    cols = np.tile(nodes, (1, 2 ** n)).ravel()
    return [sp.coo_matrix((E.ravel(), (rows, cols)), shape=(N, N)).tocsr()
            for E in (Ke, Me)]


def torus3_grid(res):
    chart = geom.parse_manifold("torus3:perturb=sin").chart()
    return dz.PeriodicGrid(lengths=chart.hi - chart.lo, shape=(res,) * 3,
                           metric=chart.metric.comp)


def skew_metric(p):
    """A non-diagonal metric that varies along every axis, 2 pi periodic:
    1.5 I + 0.3 (s c^T + c s^T) with s = sin p, c = cos p, whose
    eigenvalues are at least 1.5 - 0.3 * 3 > 0."""
    s, c = np.sin(p), np.cos(p)
    return 1.5 * np.eye(p.shape[-1]) + 0.3 * (
        s[..., :, None] * c[..., None, :] + c[..., :, None] * s[..., None, :])


def skew_grid():
    return dz.PeriodicGrid(lengths=[2 * np.pi] * 3, shape=(6, 7, 8),
                           metric=skew_metric)


class TestGridStencilAssembly:
    @pytest.mark.parametrize("grid,provider", [
        (dz.PeriodicGrid(lengths=[2 * np.pi, 3.0], shape=(7, 5)),
         oracles.nondivergence_free_coefficient()),
        # 3 nodes on an axis: the -1 and +1 offsets wrap to the same side
        (dz.PeriodicGrid(lengths=[1.0, 2.0, 3.0], shape=(3, 4, 5)),
         oracles.nondivergence_free_coefficient()),
        (torus3_grid(18), None),
        # non-diagonal varying metric: W is not exactly symmetric here
        (skew_grid(), None),
        (skew_grid(), oracles.nondivergence_free_coefficient()),
    ], ids=["2d-7x5", "3d-3x4x5", "torus3-18", "skew-6x7x8",
            "skew-6x7x8-nondivfree"])
    def test_matches_coo_reference(self, grid, provider):
        provider = provider or dz.grid_metric_coefficient(grid)
        op = dz.assemble(grid, provider)
        Ke, Me = grid_elements_reference(grid, provider)
        stencil = 3 ** grid.dim
        for A, ref in zip((op.K, op.M), coo_reference(grid, Ke, Me)):
            assert A.has_canonical_format
            assert A.nnz == ref.nnz == stencil * grid.num_nodes
            assert np.array_equal(A.indptr, ref.indptr)
            assert np.array_equal(A.indices, ref.indices)
            assert abs(A - ref).max() <= 1e-15 * abs(ref).max()

    @pytest.mark.parametrize("grid,provider", [
        (torus3_grid(18), None),
        (skew_grid(), None),
        (skew_grid(), oracles.nondivergence_free_coefficient()),
    ], ids=["torus3-18", "skew-6x7x8", "skew-6x7x8-nondivfree"])
    def test_coefficients_match_matmul(self, grid, provider):
        # the unrolled products against the batched matmul oracle
        provider = provider or dz.grid_metric_coefficient(grid)
        W, vol = dz._grid_coefficients(grid, provider)
        n = grid.dim
        centers = (np.indices(grid.shape).reshape(n, -1).T + 0.5) * grid.steps
        G = np.asarray(grid.metric(centers), dtype=float)
        pivots, ginv = dz._pivots_and_inverse(G)
        phi = dz._check_sym_coeff(provider(centers, G), G.shape,
                                 str).transpose(2, 0, 1)
        ref = vol[:, None, None] * (ginv @ phi @ ginv)
        assert np.array_equal(vol, np.sqrt(np.prod(pivots, axis=1)))
        assert W.shape == (n * n, grid.num_nodes)
        got = W.T.reshape(ref.shape)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [torus3_grid(18), skew_grid()],
                             ids=["torus3-18", "skew-6x7x8"])
    def test_exactly_symmetric(self, grid):
        op = dz.assemble(grid, dz.grid_metric_coefficient(grid))
        for A in (op.K, op.M):
            assert (A != A.T).nnz == 0

    @pytest.mark.parametrize("plant", ["rolled-wrong-way", "rows-swapped"])
    def test_wrong_corner_mapping_rejected(self, plant, monkeypatch):
        # corner 4 sits at offset (1, 0, 0): give node i the element-matrix
        # rows of cell i + (1, 0, 0) in place of cell i - (1, 0, 0), or
        # swap the element-matrix rows of corners 0 and 4.  The torus
        # metric varies along the first axis only, so only a first-axis
        # error shows there.  The slot asymmetry then reads 1e-3 to 9e-2 of
        # the largest slot, against at most 7e-17 with the right mapping
        if plant == "rolled-wrong-way":
            cells = dz._corner_cells

            def planted(b, stride, p0, L):
                wrong = tuple(b) == (1, 0, 0)
                return cells((-1, 0, 0) if wrong else b, stride, p0, L)

            monkeypatch.setattr(dz, "_corner_cells", planted)
        else:
            tensors = dz._grid_element_tensors

            def planted(h):
                T, Me = tensors(h)
                return T[:, [4, 1, 2, 3, 0, 5, 6, 7]], Me

            monkeypatch.setattr(dz, "_grid_element_tensors", planted)
        for grid in (torus3_grid(6), skew_grid()):
            with pytest.raises(NonSymmetricCoefficient,
                               match="assembled stiffness not symmetric"):
                dz.assemble(grid, dz.grid_metric_coefficient(grid))

    def test_allocation_peak(self):
        # tracemalloc peak of one 18^3 assembly: 20.9 MB when K and M were
        # summed from per-cell element matrices; the slot sums must stay
        # at or below half of that
        grid = torus3_grid(18)
        provider = dz.grid_metric_coefficient(grid)
        dz.assemble(grid, provider)
        tracemalloc.start()
        try:
            dz.assemble(grid, provider)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20.9e6 / 2

    def test_mass_survives_stiffness_edits(self):
        # scipy sorts a CSR matrix's indices in place (K - K.T does), so K
        # and M must not share index arrays
        op = dz.assemble(dz.PeriodicGrid(lengths=[1.0, 2.0, 3.0],
                                         shape=(3, 4, 5)),
                         oracles.nondivergence_free_coefficient())
        M0 = op.M.copy()
        for a, b in ((op.K.indices, op.M.indices), (op.K.indptr, op.M.indptr)):
            assert not np.shares_memory(a, b)
        op.K.sort_indices()
        op.K - op.K.T
        assert np.array_equal(op.M.indices, M0.indices)
        assert np.array_equal(op.M.indptr, M0.indptr)
        assert np.array_equal(op.M.data, M0.data)


class TestConsistency:
    def test_grid_cosine_order_two(self):
        reports = []
        for res in (16, 32, 64):
            g = dz.PeriodicGrid(lengths=[2 * np.pi, 2 * np.pi],
                                shape=(res, res))
            reports.append(oracles.pointwise_vs_weak_consistency(
                g, dz.metric_coefficient(),
                lambda p: np.cos(p[0]), lambda p: -np.cos(p[0])))
        assert reports[-1]["max_error"] < 1e-3
        assert oracles.observed_order(reports) == pytest.approx(2.0, abs=0.3)

    def test_constant_function_exact(self):
        g = dz.PeriodicGrid(lengths=[2 * np.pi, 2 * np.pi], shape=(16, 16))
        r = oracles.pointwise_vs_weak_consistency(
            g, dz.metric_coefficient(), lambda p: 3.0, lambda p: 0.0)
        assert r["max_error"] < 1e-10

    def test_icosphere_harmonic_median_order_two(self):
        # degree-1 harmonic f = z, box f = -2 z; the typical (median) nodal
        # error decays at second order.  Max and rms norms stall: the 12
        # valence-5 vertices carry an O(1) pointwise defect, a known
        # limitation of piecewise-linear schemes at irregular vertices.
        reports = []
        for sub in (2, 3, 4):
            m = dz.icosphere(sub)
            reports.append(oracles.pointwise_vs_weak_consistency(
                m, dz.metric_coefficient(),
                lambda p: p[2], lambda p: -2.0 * p[2]))
        order = oracles.observed_order(reports, key="median_error")
        assert order == pytest.approx(2.0, abs=0.5)
        assert reports[-1]["max_error"] < 1.0  # bounded, not convergent

    def test_non_divergence_free_is_O1(self):
        errs = []
        for res in (16, 32, 64):
            g = dz.PeriodicGrid(lengths=[2 * np.pi, 2 * np.pi],
                                shape=(res, res))

            def boxf(p):
                return -(1.0 + 0.5 * (1.0 + np.sin(p[0]))) * np.cos(p[0])

            r = oracles.pointwise_vs_weak_consistency(
                g, oracles.nondivergence_free_coefficient(),
                lambda p: np.cos(p[0]), boxf)
            errs.append(r["max_error"])
        assert errs[-1] > 0.05  # the first-order defect term does not vanish


class TestIO:
    def test_off_roundtrip(self, tmp_path):
        m = dz.icosphere(1)
        path = os.path.join(tmp_path, "m.off")
        oracles.write_off(m, path)
        m2 = dz.read_off(path)
        assert np.allclose(m2.vertices, m.vertices)
        assert np.array_equal(m2.faces, m.faces)

    @pytest.mark.parametrize("text", [
        "OFF\n0 0 0\n", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"],
        ids=["no-vertices", "three-vertices"])
    def test_off_without_faces_rejected(self, tmp_path, text):
        path = os.path.join(tmp_path, "empty.off")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(DegenerateElement, match="^mesh has no faces$"):
            dz.read_off(path)

    def test_off_rejects_garbage(self, tmp_path):
        path = os.path.join(tmp_path, "bad.off")
        with open(path, "w") as fh:
            fh.write("PLY\n3 1 0\n")
        with pytest.raises(ConfigError):
            dz.read_off(path)
