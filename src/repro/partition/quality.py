"""Partition quality metrics: cut, balance, surface-to-volume.

The paper leans on two quality statements: METIS-style partitions keep
implicit lines intact while balancing per-level work, and SFC-derived
partitions have surface-to-volume ratios that "track that of an idealized
cubic partitioner" (reference [18]).  These metrics quantify both.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def edge_cut(graph: Graph, part: np.ndarray) -> float:
    """Total weight of edges whose endpoints live in different parts."""
    part = np.asarray(part)
    edges, wgts = graph.edge_list()
    return float(wgts[part[edges[:, 0]] != part[edges[:, 1]]].sum())


def part_weights(graph: Graph, part: np.ndarray, nparts: int) -> np.ndarray:
    return np.bincount(np.asarray(part), weights=graph.vwgt, minlength=nparts)


def imbalance(graph: Graph, part: np.ndarray, nparts: int) -> float:
    """``max part weight / ideal - 1``; 0 is perfect balance."""
    w = part_weights(graph, part, nparts)
    ideal = graph.vwgt.sum() / nparts
    return float(w.max() / ideal - 1.0)


def boundary_counts(graph: Graph, part: np.ndarray, nparts: int) -> np.ndarray:
    """Per-part count of vertices adjacent to another part (halo surface)."""
    part = np.asarray(part)
    edges, _ = graph.edge_list()
    cross = part[edges[:, 0]] != part[edges[:, 1]]
    boundary_vertices = np.unique(edges[cross].ravel())
    return np.bincount(part[boundary_vertices], minlength=nparts)


def surface_to_volume(graph: Graph, part: np.ndarray, nparts: int) -> np.ndarray:
    """Per-part ratio of boundary vertices to owned vertices."""
    counts = np.bincount(np.asarray(part), minlength=nparts).astype(float)
    surf = boundary_counts(graph, part, nparts).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(counts > 0, surf / np.maximum(counts, 1), np.inf)
    return out


def ideal_cubic_surface_to_volume(cells_per_part: float) -> float:
    """S/V of an idealized cubic partition of ``cells_per_part`` cells.

    A cube of side ``s = cells**(1/3)`` has ``6 s^2`` boundary cells (one
    layer), so S/V = 6 / s.  Reference [18] uses this as the yardstick
    for SFC partitions.
    """
    if cells_per_part <= 0:
        raise ValueError("cells_per_part must be positive")
    side = cells_per_part ** (1.0 / 3.0)
    return min(6.0 / side, 1.0)
