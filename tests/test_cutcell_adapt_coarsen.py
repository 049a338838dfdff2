"""Tests for cut-cell classification, adaptation and SFC coarsening."""

import numpy as np
import pytest

from repro.mesh.cartesian import (
    CartesianMesh,
    Sphere,
    adapt_to_geometry,
    build_cutcell_mesh,
    classify_cells,
    coarsening_ratio,
    mesh_for_configuration,
    sfc_coarsen,
    shuttle_stack,
    wing_body,
)


SPHERE = Sphere(center=[0.5, 0.5, 0.5], radius=0.25)


class TestClassification:
    def test_classes_partition_cells(self):
        m = CartesianMesh.uniform(3, 4)
        cls = classify_cells(m, SPHERE)
        c = cls.counts()
        assert c["fluid"] + c["cut"] + c["solid"] == m.ncells
        assert c["cut"] > 0 and c["solid"] > 0 and c["fluid"] > 0

    def test_solid_volume_close_to_sphere(self):
        m = CartesianMesh.uniform(3, 5)
        cls = classify_cells(m, SPHERE, nsample=3)
        closed = (m.volumes() * (1.0 - cls.volume_fraction)).sum()
        exact = 4.0 / 3.0 * np.pi * 0.25**3
        assert closed == pytest.approx(exact, rel=0.05)

    def test_fraction_bounds(self):
        m = CartesianMesh.uniform(3, 4)
        cls = classify_cells(m, SPHERE)
        assert (cls.volume_fraction >= 0).all()
        assert (cls.volume_fraction <= 1).all()
        assert (cls.volume_fraction[cls.is_solid] == 0).all()
        assert (cls.volume_fraction[cls.is_fluid] == 1).all()

    def test_2d_classification(self):
        m = CartesianMesh.uniform(2, 5)
        cls = classify_cells(m, SPHERE)
        # circle of radius .25 in the mid-plane
        solid_area = (m.volumes() * (1.0 - cls.volume_fraction)).sum()
        assert solid_area == pytest.approx(np.pi * 0.25**2, rel=0.08)

    def test_nsample_validation(self):
        with pytest.raises(ValueError):
            classify_cells(CartesianMesh.uniform(2, 2), SPHERE, nsample=1)


class TestCutCellMesh:
    def test_flow_cells_exclude_solid(self):
        m = CartesianMesh.uniform(3, 4)
        ccm = build_cutcell_mesh(m, SPHERE)
        assert not ccm.classification.is_solid[ccm.flow_cells].any()
        assert ccm.nflow == (~ccm.classification.is_solid).sum()

    def test_interior_faces_are_flow_flow(self):
        m = CartesianMesh.uniform(3, 4)
        ccm = build_cutcell_mesh(m, SPHERE)
        solid = ccm.classification.is_solid
        assert not solid[ccm.interior.left].any()
        assert not solid[ccm.interior.right].any()

    def test_wall_faces_touch_solid(self):
        m = CartesianMesh.uniform(3, 4)
        ccm = build_cutcell_mesh(m, SPHERE)
        assert len(ccm.wall_cell) > 0
        assert not ccm.classification.is_solid[ccm.wall_cell].any()

    def test_wall_area_close_to_sphere_surface(self):
        """Stairstep walls overestimate areas by a bounded factor (~1.5
        for a sphere); the check guards order-of-magnitude sanity."""
        m = CartesianMesh.uniform(3, 5)
        ccm = build_cutcell_mesh(m, SPHERE)
        exact = 4 * np.pi * 0.25**2
        assert exact < ccm.wall_area.sum() < 2.2 * exact

    def test_flow_volumes_positive(self):
        m = CartesianMesh.uniform(3, 4)
        ccm = build_cutcell_mesh(m, SPHERE)
        assert (ccm.flow_volumes() > 0).all()

    def test_cut_flags_align_with_flow_cells(self):
        m = CartesianMesh.uniform(3, 4)
        ccm = build_cutcell_mesh(m, SPHERE)
        assert len(ccm.is_cut_flow()) == ccm.nflow


class TestAdapt:
    def test_refines_near_surface_only(self):
        mesh, report = adapt_to_geometry(SPHERE, dim=2, base_level=3, max_level=6)
        assert report.nlevels >= 3
        finest = mesh.level == mesh.max_level
        centers = mesh.centers()[finest]
        pts = np.column_stack([centers, np.full(len(centers), 0.5)])
        # finest cells hug the circle
        dist = np.abs(SPHERE.sdf(pts))
        assert np.median(dist) < 0.05

    def test_graded_and_ordered(self):
        mesh, _ = adapt_to_geometry(SPHERE, dim=2, base_level=3, max_level=6)
        assert not mesh._grading_violations().any()
        keys = mesh.sfc_keys().astype(np.int64)
        assert (np.diff(keys) > 0).all()

    def test_deflection_changes_mesh(self):
        """Fig. 8: the mesh responds automatically to control-surface
        deflection — re-meshing a deflected configuration moves the
        solid/cut cells around the elevon."""
        m = CartesianMesh.uniform(3, 6)  # elevon is thin: needs 1/64 cells
        cls0 = classify_cells(m, shuttle_stack(elevon_deg=0))
        cls1 = classify_cells(m, shuttle_stack(elevon_deg=-25))
        assert not np.array_equal(cls0.kind, cls1.kind)

    def test_base_exceeding_max_rejected(self):
        with pytest.raises(ValueError):
            adapt_to_geometry(SPHERE, base_level=5, max_level=3)

    def test_full_pipeline(self):
        ccm, report = mesh_for_configuration(
            wing_body(), dim=3, base_level=3, max_level=5
        )
        assert ccm.nflow > 0
        assert report.ncells >= ccm.nflow
        assert ccm.is_cut_flow().sum() > 0


class TestCoarsen:
    def test_uniform_ratio_is_2_pow_dim(self):
        for dim, level in ((2, 4), (3, 3)):
            m = CartesianMesh.uniform(dim, level)
            m = m.reorder(m.sfc_order())
            coarse, parent = sfc_coarsen(m)
            assert coarsening_ratio(m, coarse) == pytest.approx(2**dim)

    def test_paper_ratio_exceeds_7_in_3d(self):
        """Paper section V: 'coarsening ratios in excess of 7 on typical
        examples' — holds on meshes with uniform bulk."""
        m = CartesianMesh.uniform(3, 3)
        m = m.reorder(m.sfc_order())
        coarse, _ = sfc_coarsen(m)
        assert coarsening_ratio(m, coarse) > 7.0

    def test_parent_map_conserves_volume(self):
        mesh, _ = adapt_to_geometry(SPHERE, dim=2, base_level=3, max_level=6)
        coarse, parent = sfc_coarsen(mesh)
        agg = np.zeros(coarse.ncells)
        np.add.at(agg, parent, mesh.volumes())
        assert np.allclose(agg, coarse.volumes())

    def test_coarse_mesh_is_sfc_ordered(self):
        """'the coarse mesh is automatically generated with its cells
        already ordered along the SFC'."""
        mesh, _ = adapt_to_geometry(SPHERE, dim=2, base_level=3, max_level=6)
        coarse, _ = sfc_coarsen(mesh)
        keys = coarse.sfc_keys().astype(np.int64)
        assert (np.diff(keys) > 0).all()

    def test_coarse_mesh_respects_grading(self):
        mesh, _ = adapt_to_geometry(SPHERE, dim=2, base_level=3, max_level=6)
        coarse, _ = sfc_coarsen(mesh)
        assert not coarse._grading_violations().any()

    def test_hierarchy_like_figure_11(self):
        """Fig. 11: a sequence of coarser meshes from the same SFC."""
        mesh, _ = adapt_to_geometry(SPHERE, dim=2, base_level=4, max_level=6)
        meshes, maps = [mesh], []
        for _ in range(3):
            coarse, parent = sfc_coarsen(meshes[-1])
            meshes.append(coarse)
            maps.append(parent)
        assert len(meshes) >= 3
        counts = [m.ncells for m in meshes]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert len(maps) == len(meshes) - 1
        for fine, parent, coarse in zip(meshes, maps, meshes[1:]):
            assert parent.max() == coarse.ncells - 1

    def test_empty_and_single(self):
        m = CartesianMesh.uniform(2, 0)
        coarse, parent = sfc_coarsen(m)
        assert coarse.ncells == 1  # root cannot coarsen
