"""Section V quality claims: SFC coarsening, partitions, meshing.

Paper: the single-pass SFC coarsener "achieves coarsening ratios in
excess of 7 on typical examples" (3-D); SFC-derived partitions'
"surface-to-volume ratio ... track that of an idealized cubic
partitioner"; the Cartesian mesh generator produces 3-5M cells/minute on
Columbia's Itanium2 (we report our pure-Python rate for the record, and
beside it the rate of one SFC coarsening pass over the same mesh).
"""

import time
import timeit

import numpy as np
from conftest import run_once, save_result

from repro.mesh.cartesian import (
    CartesianMesh,
    Sphere,
    adapt_to_geometry,
    coarsening_ratio,
    sfc_coarsen,
)
from repro.partition import (
    Graph,
    ideal_cubic_surface_to_volume,
    sfc_partition,
    surface_to_volume,
)
from repro.perf.report import format_comparison


def test_sfc_coarsening_ratio(benchmark):
    def coarsen():
        m = CartesianMesh.uniform(3, 3)
        m = m.reorder(m.sfc_order())
        coarse, _ = sfc_coarsen(m)
        return coarsening_ratio(m, coarse)

    ratio = run_once(benchmark, coarsen)
    save_result(
        "sfc_coarsen",
        format_comparison("3-D SFC coarsening ratio", "> 7", round(ratio, 2)),
    )
    assert ratio > 7.0


def test_sfc_partition_tracks_cubic(benchmark):
    def measure():
        mesh, _ = adapt_to_geometry(
            Sphere(center=[0.5, 0.5, 0.5], radius=0.25),
            dim=3, base_level=3, max_level=4,
        )
        faces = mesh.build_faces()
        g = Graph.from_edges(
            mesh.ncells, np.column_stack([faces.left, faces.right])
        )
        part = sfc_partition(np.ones(mesh.ncells), 8)
        sv = surface_to_volume(g, part, 8)
        ideal = ideal_cubic_surface_to_volume(mesh.ncells / 8)
        return float(np.median(sv)), ideal

    measured, ideal = run_once(benchmark, measure)
    save_result(
        "sfc_partition",
        format_comparison(
            "median SFC-partition S/V vs idealized cubic",
            round(ideal, 3), round(measured, 3),
        ),
    )
    # "tracks" the cubic partitioner: same order, within ~2.5x
    assert measured < 2.5 * ideal


def test_mesh_generation_rate(benchmark):
    def generate():
        t0 = time.perf_counter()
        mesh, report = adapt_to_geometry(
            Sphere(center=[0.5, 0.5, 0.5], radius=0.25),
            dim=3, base_level=3, max_level=5,
        )
        dt = time.perf_counter() - t0
        # one coarsening is milliseconds: best of five
        coarsen_s = min(timeit.repeat(lambda: sfc_coarsen(mesh), number=1,
                                      repeat=5))
        return report.ncells, report.ncells / dt * 60.0, (
            mesh.ncells / coarsen_s * 60.0
        )

    ncells, rate, coarsen_rate = run_once(benchmark, generate)
    save_result(
        "mesh_rate",
        format_comparison(
            "mesh generation rate [cells/min]",
            "3e6-5e6 (Itanium2, compiled)", round(rate),
        )
        + "\n"
        + format_comparison(
            "SFC coarsening rate [cells/min]",
            "3e6-5e6 (generation)", round(coarsen_rate),
        )
        + f"\n  (pure-Python substitution, {ncells} cells)",
    )
    assert ncells > 1000
    assert rate > 0
    assert coarsen_rate > rate  # one pass over the leaves vs. adaptation
