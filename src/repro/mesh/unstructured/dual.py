"""Median-dual control volumes for vertex-centered finite volumes.

NSU3D stores the unknowns at grid points; each point owns the *median
dual* control volume (paper fig. 2a): the polyhedron bounded by the
triangles (edge midpoint, face centroid, element centroid) of every
element touching the point.  Fluxes are computed along mesh **edges**,
each carrying the accumulated directed area of all such triangles — so
the solver's entire geometry is: edges, dual-face vectors, dual volumes,
and boundary vertex areas.

Construction here is exact and fully vectorized per element family:

* every (element, face, edge-of-face) contributes the triangle
  (edge-mid, face-centroid, cell-centroid) to that edge's dual face,
  oriented from the lower- to the higher-numbered endpoint;
* dual volumes come from the divergence theorem, ``V = (1/3) oint x.n``,
  accumulated triangle by triangle — which makes the total exactly the
  domain volume and gives a built-in closure check:
  the directed areas around any interior vertex sum to zero.

Boundary element faces (those appearing exactly once) are apportioned to
their vertices as corner quads and looked up against the mesh's named
patches to produce per-(vertex, patch) boundary normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hybridmesh import HybridMesh


@dataclass(frozen=True)
class DualMesh:
    """Edge-based dual metrics — all the solver needs.

    ``edges`` is (E, 2) with ``edges[:, 0] < edges[:, 1]``;
    ``face_vectors[e]`` is the dual-face area vector oriented from
    ``edges[e, 0]`` toward ``edges[e, 1]``.  ``bvert``/``bnormal``/
    ``bpatch`` list aggregated outward boundary areas per (vertex, patch)
    pair; ``patch_kinds[p]`` is "wall" / "farfield" / "symmetry".
    """

    points: np.ndarray
    edges: np.ndarray
    face_vectors: np.ndarray
    volumes: np.ndarray
    bvert: np.ndarray
    bnormal: np.ndarray
    bpatch: np.ndarray
    patch_names: tuple
    patch_kinds: tuple

    @property
    def npoints(self) -> int:
        return len(self.points)

    def edge_lengths(self) -> np.ndarray:
        d = self.points[self.edges[:, 1]] - self.points[self.edges[:, 0]]
        return np.linalg.norm(d, axis=1)

    def closure_error(self) -> float:
        """Max |sum of directed areas| over all control volumes; zero for
        a watertight dual (the fundamental conservation check)."""
        acc = np.zeros((self.npoints, 3))
        np.add.at(acc, self.edges[:, 0], self.face_vectors)
        np.add.at(acc, self.edges[:, 1], -self.face_vectors)
        np.add.at(acc, self.bvert, self.bnormal)
        return float(np.abs(acc).max())

    def wall_vertices(self) -> np.ndarray:
        """Unique vertex ids lying on wall patches."""
        wall = [i for i, k in enumerate(self.patch_kinds) if k == "wall"]
        sel = np.isin(self.bpatch, wall)
        return np.unique(self.bvert[sel])


def _face_nodes(face_row: np.ndarray) -> np.ndarray:
    return face_row[face_row >= 0]


def build_dual(mesh: HybridMesh) -> DualMesh:
    """Construct the median-dual metrics of a hybrid mesh."""
    pts = mesh.points
    npts = mesh.npoints

    edges = mesh.all_edges()
    nedges = len(edges)
    edge_key = edges[:, 0] * npts + edges[:, 1]
    key_order = np.argsort(edge_key)
    sorted_keys = edge_key[key_order]

    def edge_ids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = lo * npts + hi
        pos = np.searchsorted(sorted_keys, keys)
        if (pos >= nedges).any() or (sorted_keys[pos] != keys).any():
            raise RuntimeError("edge lookup failed — inconsistent mesh")
        return key_order[pos]

    face_vectors = np.zeros((nedges, 3))
    volumes = np.zeros(npts)

    # interior dual triangles: per family, per face, per edge-of-face
    boundary_tris: dict = {}  # sorted vertex tuple -> list of (corner data)
    face_occurrence: dict = {}

    for name, conn in mesh.elements.items():
        if len(conn) == 0:
            continue
        etype = mesh.element_type(name)
        x = pts[conn]  # (E, nv, 3)
        cc = x.mean(axis=1)  # element centroid
        for face in etype.faces:
            fverts = np.array(face)
            fc = x[:, fverts, :].mean(axis=1)
            nf = len(face)
            for k in range(nf):
                vi, vj = face[k], face[(k + 1) % nf]
                a = conn[:, vi]
                b = conn[:, vj]
                em = 0.5 * (x[:, vi, :] + x[:, vj, :])
                # triangle (em, fc, cc); orient along the edge a -> b
                s = 0.5 * np.cross(fc - em, cc - em)
                dx = pts[b] - pts[a]
                flip = np.sign(np.einsum("ij,ij->i", s, dx))
                flip[flip == 0] = 1.0
                s *= flip[:, None]
                c = (em + fc + cc) / 3.0
                eid = edge_ids(a, b)
                sign_ab = np.where(a < b, 1.0, -1.0)
                np.add.at(face_vectors, eid, s * sign_ab[:, None])
                # divergence-theorem volume: S outward from a into b
                contrib = np.einsum("ij,ij->i", c, s) / 3.0
                np.add.at(volumes, a, contrib)
                np.add.at(volumes, b, -contrib)
            # record face occurrences for boundary detection
            gf = conn[:, fverts]
            keys = [tuple(sorted(row)) for row in gf.tolist()]
            for e_idx, key in enumerate(keys):
                entry = face_occurrence.get(key)
                if entry is None:
                    face_occurrence[key] = (name, gf[e_idx].copy(), 1)
                else:
                    face_occurrence[key] = (entry[0], entry[1], entry[2] + 1)

    # boundary faces: seen exactly once; apportion corner quads to vertices
    patch_of_face = {}
    for p_idx, patch in enumerate(mesh.patches):
        for row in patch.faces:
            patch_of_face[tuple(sorted(_face_nodes(row).tolist()))] = p_idx

    b_rows = []  # (vertex, patch, Sx, Sy, Sz)
    for key, (name, fv, count) in face_occurrence.items():
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

    # aggregate boundary rows per (vertex, patch)
    if b_rows:
        bv = np.array([r[0] for r in b_rows], dtype=np.int64)
        bp = np.array([r[1] for r in b_rows], dtype=np.int64)
        bs = np.array([r[2] for r in b_rows])
        combo = bv * (len(mesh.patches) + 1) + bp
        uniq, inv = np.unique(combo, return_inverse=True)
        bnormal = np.zeros((len(uniq), 3))
        np.add.at(bnormal, inv, bs)
        bvert = uniq // (len(mesh.patches) + 1)
        bpatch = uniq % (len(mesh.patches) + 1)
    else:
        bvert = np.empty(0, dtype=np.int64)
        bpatch = np.empty(0, dtype=np.int64)
        bnormal = np.empty((0, 3))

    dual = DualMesh(
        points=pts,
        edges=edges,
        face_vectors=face_vectors,
        volumes=volumes,
        bvert=bvert,
        bnormal=bnormal,
        bpatch=bpatch,
        patch_names=tuple(p.name for p in mesh.patches),
        patch_kinds=tuple(p.kind for p in mesh.patches),
    )
    if (dual.volumes <= 0).any():
        raise ValueError("non-positive dual volume — tangled mesh?")
    return dual
