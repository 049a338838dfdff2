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
patches to produce per-(vertex, patch) boundary normals.  Both lookups
are one ``np.unique`` over the sorted, -1-padded vertex keys of every
element face and patch face; the corner triangles are batched per face
size and accumulated in face-first-seen, corner, triangle order.
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
    # element faces in visit order, -1-padded to 4 vertices
    faces = [np.empty((0, 4), dtype=np.int64)]

    # interior dual triangles: per family, per face, per edge-of-face
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
            faces.append(np.pad(conn[:, fverts], ((0, 0), (0, 4 - nf)),
                                constant_values=-1))

    bvert, bpatch, bnormal = _boundary(mesh, np.concatenate(faces), volumes)
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


def _boundary(mesh: HybridMesh, faces: np.ndarray, volumes: np.ndarray):
    """Boundary areas per (vertex, patch) from every element face.

    ``faces`` lists each element face as met, so a face seen once is a
    boundary face; boundary faces are taken in first-sighting order,
    which fixes the order their corner terms are summed in.  Adds each
    corner's divergence-theorem term to ``volumes`` (in place) and
    returns ``(bvert, bpatch, bnormal)``.
    """
    npatch = len(mesh.patches)
    # one key per face: its sorted vertex ids, padding (-1) first
    keys = np.sort(faces, axis=1)
    patch_rows = [np.sort(p.faces, axis=1) for p in mesh.patches]
    patch_id = np.repeat(np.arange(npatch), [len(r) for r in patch_rows])
    uniq, first, inv, count = np.unique(
        np.concatenate([keys, *patch_rows]), axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    inv = inv.reshape(-1)
    nface = len(faces)
    # a key repeated across patches belongs to the last of them
    patch_of = np.full(len(uniq), -1, dtype=np.int64)
    np.maximum.at(patch_of, inv[nface:], patch_id)
    count -= np.bincount(inv[nface:], minlength=len(uniq))

    seen = np.sort(first[first < nface])  # first sightings, in order
    g = inv[seen]
    bad = (count[g] > 2) | ((count[g] == 1) & (patch_of[g] < 0))
    if bad.any():
        u = g[np.argmax(bad)]
        key = tuple(int(v) for v in uniq[u] if v >= 0)
        if count[u] > 2:
            raise ValueError(f"face {key} shared by {count[u]} elements")
        raise ValueError(f"boundary face {key} not covered by any patch")
    bface = seen[count[g] == 1]

    # two corner triangles per (face, corner), rows in (face, corner,
    # triangle) order: face f's 2*nf rows start at offset[f]
    nverts = (faces[bface] >= 0).sum(axis=1)
    offset = np.cumsum(2 * nverts) - 2 * nverts
    nrows = int(2 * nverts.sum())
    vert = np.empty(nrows, dtype=np.int64)
    area = np.empty((nrows, 3))
    term = np.empty(nrows)
    for nf in np.unique(nverts):
        sel = nverts == nf
        fv = faces[bface[sel], :nf]
        xf = mesh.points[fv]  # (F, nf, 3)
        fc = np.broadcast_to(xf.mean(axis=1)[:, None, :], xf.shape)
        em_next = 0.5 * (xf + np.roll(xf, -1, axis=1))
        em_prev = 0.5 * (np.roll(xf, 1, axis=1) + xf)
        # (F, nf, 2, 3, 3): triangles (x, em_next, fc) and (x, fc, em_prev)
        tri = np.stack([np.stack([xf, em_next, fc], axis=2),
                        np.stack([xf, fc, em_prev], axis=2)], axis=2)
        s = 0.5 * np.cross(tri[..., 1, :] - tri[..., 0, :],
                           tri[..., 2, :] - tri[..., 0, :])
        c = (tri[..., 0, :] + tri[..., 1, :] + tri[..., 2, :]) / 3.0
        rows = (offset[sel][:, None] + np.arange(2 * nf)).reshape(-1)
        vert[rows] = np.repeat(fv, 2, axis=1).reshape(-1)
        area[rows] = s.reshape(-1, 3)
        c, s = c.reshape(-1, 1, 3), s.reshape(-1, 3, 1)
        term[rows] = np.matmul(c, s).reshape(-1) / 3.0
    np.add.at(volumes, vert, term)

    # aggregate boundary rows per (vertex, patch)
    patch = np.repeat(patch_of[inv[bface]], 2 * nverts)
    combo = vert * (npatch + 1) + patch
    uniq, inv = np.unique(combo, return_inverse=True)
    bnormal = np.zeros((len(uniq), 3))
    np.add.at(bnormal, inv, area)
    return uniq // (npatch + 1), uniq % (npatch + 1), bnormal
