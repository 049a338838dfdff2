"""SSLV elevon database fill (paper figures 8/9/12 and section IV).

Builds the Space-Shuttle-Launch-Vehicle assembly (orbiter, external
tank, twin SRBs, attach hardware, engines), deflects the elevon through
a configuration sweep, meshes each instance automatically (the mesh
responds to the deflection, fig. 8), then fills a small wind-space
database per configuration through the executing
:class:`~repro.api.FillRuntime` — cases packed onto node slots, each
mesh amortized over its wind cases.  The planner estimates the same fill
on a Columbia box.  A second identical fill is all cache hits; the
virtual database re-runs an un-stored case on demand.

Run:  python examples/shuttle_database.py
"""

import numpy as np

from repro.api import (
    Axis,
    ParameterSpace,
    StudyDefinition,
    VariableFidelityStudy,
    build_job_tree,
    fill_summary_table,
    make_cart3d_solver,
    meshing_amortization,
    schedule_fill,
    shuttle_stack,
)
from repro.partition import cell_weights, sfc_partition


def main():
    geometry = shuttle_stack()
    v, tris = geometry.triangulate(resolution=12)
    print(f"SSLV surface triangulation: {len(tris)} elements "
          f"(paper's full model: 1.7M)")

    study = StudyDefinition(
        config_space=ParameterSpace(
            axes=(Axis("elevon", (-10.0, 0.0, 10.0)),)
        ),
        wind_space=ParameterSpace(
            axes=(
                Axis("mach", (0.5, 0.7)),
                Axis("alpha", (0.0, 2.0)),
            )
        ),
    )
    tree = build_job_tree(study)
    print(f"study: {study.ncases} cases, "
          f"{meshing_amortization(tree):.0f} wind cases per mesh "
          f"(the paper's amortization)")

    plan = schedule_fill(tree, nnodes=1, cpus_per_case=32,
                         mesh_seconds_per_instance=60.0,
                         flow_seconds_per_case=600.0)
    print(f"one Columbia box would run {plan.concurrent_cases} cases "
          f"concurrently; estimated fill makespan "
          f"{plan.makespan_seconds / 60:.1f} min")

    # real (small) fill: 3-D shuttle meshes, multigrid Euler per case,
    # executed through the runtime's bounded worker pool
    runner = VariableFidelityStudy(
        geometry=geometry,
        study=study,
        dim=3,
        base_level=3,
        max_level=5,
        mg_levels=2,
        cycles=12,
    )
    db = runner.fill()
    first = runner.last_report
    print(f"filled {len(db)} cases with {runner.meshes_built} meshes "
          f"on {first.slots} node slots "
          f"(realized concurrency {first.max_concurrent})")
    params, cd = db.coefficients("cd")
    print(f"  cd range over the envelope: {np.nanmin(cd):.5f} .. "
          f"{np.nanmax(cd):.5f}")

    # identical re-fill: every case is a content-keyed cache hit
    runner.fill()
    print()
    print(fill_summary_table(
        {"fill": first.summary(), "re-fill": runner.last_report.summary()},
        title="SSLV elevon database fill (runtime event-stream summaries)",
    ))
    print()

    # mesh/partition stats for one instance (fig. 12's 2.1x cut weights)
    solver_case = runner.runner().configure({"elevon": 10.0})
    s = make_cart3d_solver(solver_case, dim=3, base_level=3, max_level=5,
                           mg_levels=1)
    level = s.levels[0]
    w = cell_weights(level.cut.is_cut_flow())
    part = sfc_partition(w, 16)
    loads = [w[part == p].sum() for p in range(16)]
    print(f"SFC 16-way decomposition of {level.nflow} cells "
          f"(cut cells weighted 2.1x): max/avg load = "
          f"{max(loads) / (sum(loads) / 16):.3f}")

    # the virtual database: a case that was never stored re-runs on demand
    wind, config = {"mach": 0.6, "alpha": 1.0}, {"elevon": 0.0}
    stored = len(db)
    rec = runner.run_case(wind, config)
    print(f"virtual re-run of {config | wind}: cd={rec.coefficients['cd']:.5f} "
          f"(database now {len(db)} cases, {len(db) - stored} re-run)")


if __name__ == "__main__":
    main()
