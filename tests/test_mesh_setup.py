"""Mesh set-up against its per-cell loop oracles.

``sfc_coarsen``, ``build_dual`` and ``extract_lines`` are whole-array
NumPy.  The oracles below are the loop implementations they replaced,
kept verbatim in behaviour: every property requires ``np.array_equal``
results of the same dtype and shape, so every solver history built on
these meshes stays bit for bit where it was.  The count pins keep the
per-cell Python out: the calls a set-up makes must not grow with the
mesh.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.cartesian import (
    Box,
    CartesianMesh,
    Sphere,
    adapt_to_geometry,
    coarsen,
    sfc_coarsen,
)
from repro.mesh.cartesian.octree import _pack
from repro.mesh.unstructured import (
    BoundaryPatch,
    DualMesh,
    HybridMesh,
    build_dual,
    bump_channel,
    edge_coupling,
    extract_lines,
    to_prism_tet,
    wing_mesh,
    with_pyramid_band,
)


# -- oracles: the loop implementations --------------------------------------

def _ref_sfc_coarsen(mesh):
    """Oracle: the family-by-family SFC coarsening loop."""
    n = mesh.ncells
    if n == 0:
        return mesh, np.empty(0, dtype=np.int64)
    level, ijk = mesh.level, mesh.ijk
    family = 1 << mesh.dim
    parent_key = _pack(np.maximum(level - 1, 0), ijk >> 1)
    parent_key = np.where(level > 0, parent_key, -1 - np.arange(n))
    breaks = np.flatnonzero(np.diff(parent_key) != 0)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [n]])
    collapse = ((ends - starts) == family) & (level[starts] > 0)
    leaves = set(_pack(level, ijk).tolist())

    def is_finer_region(lvl, coords):
        n_at = 1 << lvl
        if (coords < 0).any() or (coords >= n_at).any():
            return False
        if int(_pack(np.array([lvl]), coords[None, :])[0]) in leaves:
            return False
        if lvl > 0 and int(
            _pack(np.array([lvl - 1]), (coords >> 1)[None, :])[0]
        ) in leaves:
            return False
        return True

    def neighbours(f):
        for axis in range(mesh.dim):
            for sign in (-1, 1):
                nbr = ijk[f].copy()
                nbr[axis] += sign
                yield nbr

    for c in np.flatnonzero(collapse):
        lvl = int(level[starts[c]])
        collapse[c] = not any(
            is_finer_region(lvl, nbr)
            for f in range(starts[c], ends[c]) for nbr in neighbours(f)
        )

    parent_of = np.empty(n, dtype=np.int64)
    coarse_level, coarse_ijk = [], []
    cid = 0
    for s, e, c in zip(starts, ends, collapse):
        if c:
            parent_of[s:e] = cid
            coarse_level.append(level[s] - 1)
            coarse_ijk.append(ijk[s] >> 1)
            cid += 1
        else:
            for f in range(s, e):
                parent_of[f] = cid
                coarse_level.append(level[f])
                coarse_ijk.append(ijk[f])
                cid += 1
    coarse = CartesianMesh(
        dim=mesh.dim, lo=mesh.lo, hi=mesh.hi,
        level=np.array(coarse_level, dtype=np.int64),
        ijk=np.array(coarse_ijk, dtype=np.int64).reshape(cid, mesh.dim),
    )
    return coarse, parent_of


def _ref_build_dual(mesh):
    """Oracle: the median dual with a face-occurrence dict and a
    boundary pass corner by corner."""
    pts = mesh.points
    npts = mesh.npoints
    edges = mesh.all_edges()
    edge_key = edges[:, 0] * npts + edges[:, 1]
    key_order = np.argsort(edge_key)
    sorted_keys = edge_key[key_order]

    def edge_ids(a, b):
        keys = np.minimum(a, b) * npts + np.maximum(a, b)
        return key_order[np.searchsorted(sorted_keys, keys)]

    face_vectors = np.zeros((len(edges), 3))
    volumes = np.zeros(npts)
    face_occurrence = {}
    for name, conn in mesh.elements.items():
        if len(conn) == 0:
            continue
        x = pts[conn]
        cc = x.mean(axis=1)
        for face in mesh.element_type(name).faces:
            fverts = np.array(face)
            fc = x[:, fverts, :].mean(axis=1)
            nf = len(face)
            for k in range(nf):
                vi, vj = face[k], face[(k + 1) % nf]
                a, b = conn[:, vi], conn[:, vj]
                em = 0.5 * (x[:, vi, :] + x[:, vj, :])
                s = 0.5 * np.cross(fc - em, cc - em)
                flip = np.sign(np.einsum("ij,ij->i", s, pts[b] - pts[a]))
                flip[flip == 0] = 1.0
                s *= flip[:, None]
                c = (em + fc + cc) / 3.0
                sign_ab = np.where(a < b, 1.0, -1.0)
                np.add.at(face_vectors, edge_ids(a, b), s * sign_ab[:, None])
                contrib = np.einsum("ij,ij->i", c, s) / 3.0
                np.add.at(volumes, a, contrib)
                np.add.at(volumes, b, -contrib)
            gf = conn[:, fverts]
            for e_idx, row in enumerate(gf.tolist()):
                key = tuple(sorted(row))
                entry = face_occurrence.get(key)
                if entry is None:
                    face_occurrence[key] = (gf[e_idx].copy(), 1)
                else:
                    face_occurrence[key] = (entry[0], entry[1] + 1)

    patch_of_face = {}
    for p_idx, patch in enumerate(mesh.patches):
        for row in patch.faces:
            patch_of_face[tuple(sorted(row[row >= 0].tolist()))] = p_idx
    b_rows = []
    for key, (fv, count) in face_occurrence.items():
        if count == 1:
            p_idx = patch_of_face.get(key)
            if p_idx is None:
                raise ValueError(
                    f"boundary face {key} not covered by any patch"
                )
            nf = len(fv)
            xf = pts[fv]
            fc = xf.mean(axis=0)
            for k in range(nf):
                v = fv[k]
                em_next = 0.5 * (xf[k] + xf[(k + 1) % nf])
                em_prev = 0.5 * (xf[(k - 1) % nf] + xf[k])
                for tri in ((xf[k], em_next, fc), (xf[k], fc, em_prev)):
                    s = 0.5 * np.cross(tri[1] - tri[0], tri[2] - tri[0])
                    c = (tri[0] + tri[1] + tri[2]) / 3.0
                    volumes[v] += float(c @ s) / 3.0
                    b_rows.append((v, p_idx, s))
        elif count > 2:
            raise ValueError(f"face {key} shared by {count} elements")

    npatch = len(mesh.patches)
    bv = np.array([r[0] for r in b_rows], dtype=np.int64)
    bp = np.array([r[1] for r in b_rows], dtype=np.int64)
    uniq, inv = np.unique(bv * (npatch + 1) + bp, return_inverse=True)
    bnormal = np.zeros((len(uniq), 3))
    np.add.at(bnormal, inv, np.array([r[2] for r in b_rows]))
    return DualMesh(
        points=pts, edges=edges, face_vectors=face_vectors, volumes=volumes,
        bvert=uniq // (npatch + 1), bnormal=bnormal,
        bpatch=uniq % (npatch + 1),
        patch_names=tuple(p.name for p in mesh.patches),
        patch_kinds=tuple(p.kind for p in mesh.patches),
    )


def _ref_vertex_median(dual):
    """Oracle: the coupling median of every vertex, one np.median each."""
    w = edge_coupling(dual)
    n = dual.npoints
    all_w = np.concatenate([w, w])
    all_v = dual.edges.T.reshape(-1)
    vorder = np.argsort(all_v, kind="stable")
    sorted_v, sorted_w = all_v[vorder], all_w[vorder]
    starts = np.searchsorted(sorted_v, np.arange(n))
    ends = np.searchsorted(sorted_v, np.arange(n) + 1)
    med = np.zeros(n)
    for v in range(n):
        if ends[v] > starts[v]:
            med[v] = np.median(sorted_w[starts[v]:ends[v]])
    return med


def _ref_extract_lines(dual, anisotropy_threshold=4.0, min_line_length=2):
    """Oracle: the line extraction over per-vertex np.median couplings."""
    w = edge_coupling(dual)
    edges = dual.edges
    med = _ref_vertex_median(dual)
    strong = w > anisotropy_threshold * np.maximum(med[edges[:, 0]],
                                                   med[edges[:, 1]])
    degree = np.zeros(dual.npoints, dtype=np.int64)
    parent = np.arange(dual.npoints, dtype=np.int64)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    adj = {}
    for e in sorted(np.flatnonzero(strong), key=lambda e: -w[e]):
        a, b = (int(v) for v in edges[e])
        if degree[a] >= 2 or degree[b] >= 2:
            continue
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        degree[a] += 1
        degree[b] += 1
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    visited, lines = set(), []
    for v in sorted(adj):
        if v in visited or len(adj[v]) != 1:
            continue
        line, prev, cur = [v], None, v
        visited.add(v)
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            line.append(cur)
            visited.add(cur)
        if len(line) >= min_line_length:
            lines.append(np.array(line, dtype=np.int64))
    return lines


def assert_same(a, b):
    """Equal values, dtype and shape."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


DUAL_FIELDS = ("points", "edges", "face_vectors", "volumes", "bvert",
               "bnormal", "bpatch", "patch_names", "patch_kinds")


# -- drawn meshes --------------------------------------------------------------

@st.composite
def adapted_meshes(draw):
    """SFC-ordered Cartesian meshes: adapted to a drawn sphere or box,
    uniform, or the bare root."""
    kind = draw(st.sampled_from(["sphere", "box", "uniform", "root"]))
    dim = draw(st.sampled_from([2, 3]))
    if kind == "root":
        return CartesianMesh.uniform(dim, 0)
    if kind == "uniform":
        mesh = CartesianMesh.uniform(dim, draw(st.integers(1, 6 - dim)))
        return mesh.reorder(mesh.sfc_order())
    centre = np.array(draw(st.lists(st.floats(0.3, 0.7), min_size=3,
                                    max_size=3)))
    size = draw(st.floats(0.08, 0.3))
    solid = (Sphere(center=centre, radius=size) if kind == "sphere"
             else Box(lo=centre - size, hi=centre + size))
    base = draw(st.integers(1, 3))
    top = draw(st.integers(base, 7 if dim == 2 else 5))
    curve = draw(st.sampled_from(["hilbert", "morton"]))
    mesh, _ = adapt_to_geometry(solid, dim=dim, base_level=base,
                                max_level=top, curve=curve)
    return mesh


@st.composite
def hybrid_meshes(draw):
    """Hex channels and wings, their prism/tet conversions and pyramid
    bands, so every element family and both face sizes meet the
    boundary pass."""
    kind = draw(st.sampled_from(["bump", "wing", "prism_tet", "pyramid"]))
    ni, nj, nk = (draw(st.integers(2, hi)) for hi in (8, 5, 7))
    if kind == "wing":
        return wing_mesh(ni=ni, nj=nj, nk=nk)
    mesh = bump_channel(ni=ni, nj=nj, nk=nk,
                        wall_spacing=draw(st.floats(1e-3, 0.1)))
    if kind == "bump":
        return mesh
    if kind == "pyramid":
        lo = draw(st.integers(0, nk - 1))
        return with_pyramid_band(mesh, lo, draw(st.integers(lo + 1, nk)),
                                 nk=nk)
    return to_prism_tet(mesh, prism_layers=draw(st.integers(0, nk)), nk=nk)


# -- properties -------------------------------------------------------------------

class TestCoarsenEqualsLoop:
    @settings(max_examples=25, deadline=None)
    @given(adapted_meshes())
    def test_coarse_chain_bit_equal(self, mesh):
        for _ in range(3):
            coarse, parent_of = sfc_coarsen(mesh)
            ref, ref_parent = _ref_sfc_coarsen(mesh)
            assert_same(coarse.level, ref.level)
            assert_same(coarse.ijk, ref.ijk)
            assert_same(parent_of, ref_parent)
            mesh = coarse


class TestDualEqualsLoop:
    @settings(max_examples=20, deadline=None)
    @given(hybrid_meshes())
    def test_every_field_bit_equal(self, mesh):
        dual, ref = build_dual(mesh), _ref_build_dual(mesh)
        for name in DUAL_FIELDS:
            assert_same(getattr(dual, name), getattr(ref, name))

    def test_face_in_two_patches_goes_to_the_last(self):
        mesh = bump_channel(ni=3, nj=2, nk=3)
        mesh.patches.append(BoundaryPatch(
            name="again", kind="farfield", faces=mesh.patches[0].faces[:1],
        ))
        dual, ref = build_dual(mesh), _ref_build_dual(mesh)
        for name in DUAL_FIELDS:
            assert_same(getattr(dual, name), getattr(ref, name))
        assert len(mesh.patches) - 1 in dual.bpatch

    def test_uncovered_face_is_named(self):
        mesh = bump_channel(ni=3, nj=2, nk=3)
        patch = mesh.patches[0]
        dropped = patch.faces[0]
        patch.faces = patch.faces[1:]
        key = tuple(sorted(dropped[dropped >= 0].tolist()))
        message = f"boundary face {key} not covered by any patch"
        with pytest.raises(ValueError) as ref:
            _ref_build_dual(mesh)
        assert str(ref.value) == message
        with pytest.raises(ValueError) as err:
            build_dual(mesh)
        assert str(err.value) == message

    def test_face_of_three_elements_is_named(self):
        mesh = bump_channel(ni=3, nj=2, nk=3)
        hexes = mesh.elements["hex"]
        # a second copy of element 0: its top face (shared with element
        # 1 above it) is the first face met three times
        planted = HybridMesh(points=mesh.points,
                             elements={"hex": np.vstack([hexes, hexes[:1]])},
                             patches=mesh.patches)
        key = tuple(sorted(hexes[0, [4, 5, 6, 7]].tolist()))
        message = f"face {key} shared by 3 elements"
        with pytest.raises(ValueError) as ref:
            _ref_build_dual(planted)
        assert str(ref.value) == message
        with pytest.raises(ValueError) as err:
            build_dual(planted)
        assert str(err.value) == message


class TestLinesEqualLoop:
    @settings(max_examples=15, deadline=None)
    @given(ni=st.integers(3, 10), nk=st.integers(3, 12),
           spacing=st.floats(1e-4, 0.05), ratio=st.floats(1.0, 1.6),
           threshold=st.floats(1.5, 8.0))
    def test_lines_bit_equal(self, ni, nk, spacing, ratio, threshold):
        dual = build_dual(bump_channel(ni=ni, nj=3, nk=nk,
                                       wall_spacing=spacing, ratio=ratio))
        lines = extract_lines(dual, anisotropy_threshold=threshold)
        ref = _ref_extract_lines(dual, anisotropy_threshold=threshold)
        assert len(lines) == len(ref)
        for line, expect in zip(lines, ref):
            assert_same(line, expect)


# -- call-count pins ------------------------------------------------------------------

class TestSetupCallsDoNotGrowWithTheMesh:
    def test_pack_calls_per_coarsening(self, count_calls):
        counts = []
        for top in (5, 7):
            mesh, _ = adapt_to_geometry(Sphere(center=[0.5] * 3, radius=0.2),
                                        dim=2, base_level=3, max_level=top)
            calls = count_calls(coarsen, "_pack")
            sfc_coarsen(mesh)
            counts.append((mesh.ncells, len(calls)))
        (small, n_small), (large, n_large) = counts
        assert large > 2 * small
        assert n_small == n_large

    def test_cross_calls_per_dual(self, count_calls):
        counts = []
        for shape in ((3, 2, 3), (12, 6, 9)):
            calls = count_calls(np, "cross")
            build_dual(bump_channel(*shape))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_no_median_calls_per_line_extraction(self, count_calls):
        dual = build_dual(bump_channel(ni=6, nj=3, nk=6, wall_spacing=1e-3))
        calls = count_calls(np, "median")
        assert extract_lines(dual)
        assert calls == []
