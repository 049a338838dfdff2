"""Small vectorized array utilities shared by meshes, graphs and solvers."""

from __future__ import annotations

import numpy as np


def csr_from_edges(nvert: int, edges: np.ndarray, symmetric: bool = True):
    """Build a CSR adjacency structure from an edge list.

    Parameters
    ----------
    nvert:
        Number of vertices.
    edges:
        ``(E, 2)`` integer array; each row is an undirected edge.
    symmetric:
        When true (the default) each edge contributes both directions.

    Returns
    -------
    (xadj, adjncy, eind):
        ``xadj`` is the ``(nvert+1,)`` row pointer, ``adjncy`` the
        concatenated neighbor lists, and ``eind`` maps each adjacency slot
        back to the originating row of ``edges`` (useful for looking up
        per-edge data while walking neighbors).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (E, 2), got {edges.shape}")
    if edges.size and (edges.min() < 0 or edges.max() >= nvert):
        raise ValueError("edge endpoint out of range")
    if symmetric:
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        eid = np.concatenate([np.arange(len(edges)), np.arange(len(edges))])
    else:
        src, dst = edges[:, 0], edges[:, 1]
        eid = np.arange(len(edges))
    order = np.argsort(src, kind="stable")
    src, dst, eid = src[order], dst[order], eid[order]
    counts = np.bincount(src, minlength=nvert)
    xadj = np.zeros(nvert + 1, dtype=np.int64)
    np.cumsum(counts, out=xadj[1:])
    return xadj, dst.astype(np.int64), eid.astype(np.int64)


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Return ``inv`` with ``inv[perm] == arange(len(perm))``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv
