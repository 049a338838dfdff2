"""Regenerate EXPERIMENTS.md from benchmarks/results/*.txt.

Run ``pytest benchmarks/ --benchmark-only`` first (it refreshes the
result files), then ``python benchmarks/make_experiments_md.py``.
"""

from pathlib import Path

RESULTS = Path(__file__).parent / "results"
TARGET = Path(__file__).parent.parent / "EXPERIMENTS.md"

HEADER = """# EXPERIMENTS — paper vs. measured

Every figure and quantitative claim in the paper's evaluation (sections
VI-VII) is regenerated by a benchmark under `benchmarks/`; this file
records the comparison.  Regenerate everything with

```
pytest benchmarks/ --benchmark-only
python benchmarks/make_experiments_md.py
```

which rewrites `benchmarks/results/*.txt` (the blocks below are those
files verbatim).  Every `<figure>.txt` now has a machine-readable twin,
`benchmarks/results/<figure>.json`, carrying the same rendered lines
plus whatever structured values the bench measured (`data`: series,
paper-vs-measured pairs, `repro.telemetry.metrics` dicts) — figures and
downstream analyses consume those JSON files instead of parsing the
text tables.  The database-fill bench additionally exports its whole
campaign as a Perfetto-loadable trace
(`benchmarks/results/database_fill_trace.json`; open at
ui.perfetto.dev), and the kernel bench records the disabled-tracer
overhead bound in `kernel_overhead.json`.

The repo's *own* wall clock — seven fixed workloads, end-to-end and
per-layer metrics, compared commit to commit — is measured separately
by the perf harness in `benchmarks/perf/` (`python3
benchmarks/perf/run.py`; see `benchmarks/perf/README.md` and the root
`BENCHMARK.json`, which declares the workloads and metric bounds).

Two kinds of reproduction appear here, per DESIGN.md:

* **Real runs** — the actual solvers executing at laptop scale
  (figure 14a's multigrid convergence, the SFC/partition quality
  claims).  These demonstrate the *algorithmic* properties the paper
  relies on; the properties (multigrid level behaviour, coarsening
  ratios, partition quality) are mesh-size-independent by design.
* **Virtual runs** — the calibrated Columbia performance model replaying
  the scalability experiments at the paper's scale (72M points / 25M
  cells, up to 2016 CPUs).  Calibration anchors (31.3 s and 1.95 s per
  6-level cycle; 1.69 GFLOP/s/CPU single-grid rate; superlinear ratio
  2395/2008; figure 15's hybrid efficiencies) are marked in the tables —
  at those points agreement is by construction; everywhere else the
  model's shape is prediction.

Summary of shape checks (who wins, by what factor, where crossovers
fall):

| Claim (paper) | Reproduced? |
|---|---|
| More multigrid levels converge faster; single grid hopeless (fig 14a) | yes (real run) |
| Superlinear speedups, ordered single > 4 > 5 > 6 level (fig 14b) | yes |
| ~3 TFLOP/s vicinity at 2008 CPUs, ordered by level count (fig 14b) | yes |
| Hybrid efficiency 0.984 @2thr, 0.872 @4thr; IB pure-MPI 0.957 (fig 15) | yes (calibrated) |
| Single grid: fabrics indistinguishable (fig 16a) | yes |
| 6-level MG: dramatic IB degradation at high CPU counts (fig 16b) | yes |
| Turbulent (SA) runs decompose like laminar — fig-14/16 configs are RANS | yes (real run, all backends) |
| Gradual degradation as levels increase, visible already at 2 (figs 17-18) | yes |
| Coarse levels alone: fabrics degrade at *similar* rates (fig 19) | yes |
| Cart3D MPI near-ideal; OpenMP slope break past 128 CPUs (fig 20b) | yes |
| Cart3D single ~1900 vs MG ~1585 at 2016 CPUs; MG roll-off >~688 (fig 21) | yes |
| IB 508-CPU two-box case underperforms 496-CPU one-box (fig 22) | yes |
| IB curve capped at 1524 ranks on 4 boxes (eq. 1) | yes (exact) |
| 72M-pt solve < 30 min; 10^9-pt 4-5 h; 5-6 TFLOP/s at 4016 CPUs (sec. VI) | yes (within band) |
| SFC coarsening ratio > 7 in 3-D (sec. V) | yes (real run: 8.0) |
| SFC partitions track idealized cubic S/V (sec. V, ref 18) | yes (real run) |

"""

SECTIONS = [
    ("Figure 14(a) — NSU3D multigrid convergence (real solver runs)", "fig14a",
     "Real 6-equation RANS+SA runs on a boundary-layer-stretched mesh.  "
     "The paper converges ~6 orders in ~800 W-cycles at 72M points "
     "(~0.983/cycle); our per-cycle rates are comparable and the "
     "level-count ordering matches."),
    ("Figure 14(b) — NSU3D scalability and TFLOP/s (virtual)", "fig14b",
     "Anchors: 31.3 s and 1.95 s per 6-level cycle, 3.4 TFLOP/s and "
     "superlinearity of the single-grid run (calibrated)."),
    ("Figure 14(b) twin — turbulent distributed runs, 1/2/4 ranks "
     "(real solver runs)", "fig14b_turbulent",
     "The paper's fig-14 runs are RANS; the layout-generic runtime now "
     "decomposes the coupled 6-variable SA system, so the virtual "
     "curves get a real-run backing: serial-vs-distributed deviations "
     "at every rank count (mean flow at reassociation level; the SA "
     "column within 1e-10 absolute — near-freestream vorticity is "
     "cancellation noise, so reordered summation perturbs nu_tilde at "
     "~1e-11 regardless of decomposition) and one rank-count-"
     "independent residual history."),
    ("Figure 15 — hybrid MPI/OpenMP efficiency (virtual, calibrated)", "fig15", ""),
    ("Figure 16(a) — single grid, NUMAlink vs InfiniBand (virtual)", "fig16a", ""),
    ("Figure 16(b) — 6-level multigrid, NUMAlink vs InfiniBand (virtual)", "fig16b",
     "The InfiniBand pure-MPI entry at 2008 CPUs exceeds the eq. (1) "
     "rank limit; the model (like the machine) silently drops that "
     "configuration to 10GigE, which is why its curve collapses."),
    ("Figure 16 twin — turbulent solve across the comm backends "
     "(real solver runs)", "fig16_turbulent",
     "The fabric comparison's real-run twin: the same turbulent SA "
     "solve on SimMPI with one partition per rank, the hybrid "
     "master-thread model (4 partitions on 2 ranks) — both stepped in "
     "lockstep on one thread — and the multiprocessing worker pool "
     "with shared-memory halos — backend-independent results and one "
     "shared residual history."),
    ("Figure 17(a) — 2-level multigrid fabric comparison (virtual)", "fig17a", ""),
    ("Figure 17(b) — 3-level multigrid fabric comparison (virtual)", "fig17b", ""),
    ("Figure 18(a) — 4-level multigrid fabric comparison (virtual)", "fig18a", ""),
    ("Figure 18(b) — 5-level multigrid fabric comparison (virtual)", "fig18b", ""),
    ("Figure 19 — 2nd and 3rd multigrid levels alone (virtual)", "fig19",
     "The paper's exonerating experiment: intra-level coarse-grid "
     "communication hits both fabrics alike, so the multigrid gap must "
     "come from the inter-grid transfers."),
    ("Figure 20(b) — Cart3D OpenMP vs MPI on one box (virtual)", "fig20b", ""),
    ("Figure 21 — Cart3D multigrid vs single grid (virtual)", "fig21", ""),
    ("Figure 22 — Cart3D NUMAlink vs InfiniBand (virtual)", "fig22", ""),
    ("Equation (1) — InfiniBand MPI connection limit (exact)", "eq1", ""),
    ("Section VI — textual anchors and projections (virtual)", "text_anchors", ""),
    ("Section V — SFC coarsening ratio (real run)", "sfc_coarsen", ""),
    ("Section V — SFC partition surface-to-volume (real run)", "sfc_partition", ""),
    ("Section IV — mesh generation rate (real run, pure Python)", "mesh_rate",
     "The paper's 3-5M cells/min is compiled code on Itanium2; our rate "
     "documents the interpreted-substrate gap rather than reproducing it.  "
     "The coarsening row is one whole-array `sfc_coarsen` pass over the "
     "same mesh (best of five); the paper gives no rate for it, so it "
     "stands beside the generation figure."),
    ("Ablation — W-cycle vs V-cycle (real Cart3D runs)", "ablation_cycles",
     "Section III: the W-cycle 'has been found to produce superior "
     "convergence rates and to be more robust'."),
    ("Ablation — implicit lines on/off (real NSU3D runs)", "ablation_lines", ""),
    ("Ablation — coarse/fine partition matching (real partitioner)",
     "ablation_matching", ""),
    ("Ablation — master-thread vs thread-parallel hybrid (model)",
     "ablation_hybrid",
     "Reference [12]: thread-parallel MPI 'scales poorly due to the MPI "
     "calls locking and thus executing serially at the thread level'."),
    ("Ablation — inter-grid transfer locality (model)", "ablation_intergrid",
     "Counterfactual: NSU3D's InfiniBand multigrid with Cart3D's "
     "SFC-nested transfer locality."),
    ("Section IV — aero-database fill through the runtime (real Cart3D "
     "runs)", "database_fill",
     "The paper's automated parameter-sweep database generation, "
     "executed: 24 cases planned onto eight node slots and run on the "
     "one worker thread an in-interpreter runner is worth "
     "(`runner.max_inflight`; two solver threads in one interpreter "
     "only trade its lock), one injected transient failure retried, "
     "identical re-fill served from the content-keyed result store.  "
     "Each geometry instance is meshed *and* given its multigrid "
     "hierarchy once (`meshes built` 2), shared read-only by its twelve "
     "wind cases; the bench asserts the fill's wall is within 1.15x of "
     "the serial loop over the same cases (it was 2.3x: `wall: fill "
     "4.20s` before ISSUE 24)."),
    ("Section IV — an interrupted fill, resumed (real Cart3D runs under "
     "chaos)", "database_fill_chaos",
     "Walkthrough of a fill campaign that keeps getting killed.  A "
     "deterministic `ChaosPolicy` (10% per-attempt worker-crash rate) "
     "kills the campaign mid-run; each kill aborts with "
     "`CampaignAborted`, leaving the journal written by "
     "`CampaignCheckpoint` as the ground truth.  Each following segment "
     "constructs a fresh runtime and calls "
     "`FillRuntime.resume(checkpoint=journal)` — completed cases are "
     "restored (never recomputed), in-flight ones re-queued — until a "
     "segment finishes with no crash.  The bench asserts every case "
     "executed exactly once across all segments and that the final "
     "database is coefficient-identical to an uninterrupted fill.  The "
     "same flow works from the shell: `python -m repro.database status "
     "<journal>` then `python -m repro.database resume <journal>`."),
    ("Section IV — querying the aero-database as a service (bursty "
     "multi-tenant load)", "service_load",
     "Walkthrough of a serving session over a partially filled "
     "database.  Three tenants issue interleaved bursts of "
     "`(config, Mach, alpha)` point queries against a ~70%-filled 9x9 "
     "wind grid through `DatabaseService`: grid hits answer from the "
     "store (`exact`), off-grid points interpolate from solved "
     "neighbours with a leave-one-out error estimate (`surrogate`), "
     "duplicate in-flight points coalesce onto one solve, and true "
     "misses run on the pool behind per-tenant fair-share admission.  "
     "Mid-load the runtime is killed; a second session calls "
     "`DatabaseService.recover()` and every solve accepted before the "
     "kill comes back from the checkpoint journal — zero recomputed "
     "cases.  The bench asserts the combined exact+surrogate hit rate "
     ">= 95% and that the cached tiers' p99 stays well under one "
     "solve's cost while solves hold every runtime slot.  The same "
     "flow works from the shell: `python -m repro.service serve "
     "--store db.jsonl --journal svc.jsonl queries.jsonl` (add "
     "`--recover` after a kill), `python -m repro.service status "
     "<journal>`."),
    ("Section III — what the distributed runtime itself costs per cycle "
     "(real solver runs)", "runtime_cycle",
     "The same multigrid cycles serially, on four SimMPI partitions "
     "(blocking and overlapped exchange) and on the spawned worker "
     "pool.  The in-process columns do identical kernel work on one "
     "thread — the driver steps every rank in lockstep, and each "
     "exchange is one gather over the ranks' stacked rows with the "
     "messages it stands for charged, not sent — so parallel/serial "
     "is the stack's own overhead: 1.02x NSU3D / 1.40x Cart3D in "
     "this run, where a level's state stays one stacked array from "
     "pass to pass.  It read 2.4x / 5.1x when every rank had a thread and "
     "a blocked receive woke another one, and 1.6x / 2.7x in the last "
     "run whose lockstep exchange still traded SimMPI messages.  These "
     "are single 3-cycle shots on a shared host; the "
     "alternating-pair referees are the perf harness's `BENCH_19.json` "
     "and `BENCH_33.json`.  The exchange rows split out that last "
     "step: per level, microseconds per copy and per add of the "
     "world-row gather with its ledger replay.  The per-rank message "
     "exchange it is tested against ran 145-250 us per exchange "
     "against the gather's 30-43 us on the harness mesh when the "
     "gather replaced it; that column went with the message path, "
     "which now lives only in the tests.  The "
     "virtual columns are the simulated-Columbia ledger and did not "
     "move by a bit: who executes a rank's sends and receives, or "
     "whether they are sent at all, is not an input to it.  "
     "The proc columns are real concurrency on this container's two "
     "cores (one core per worker exists only at x1 and x2), each the "
     "median of 15 three-cycle solves on a warm pool.  Until PR 23 "
     "they rose with every worker — 0.022 / 0.031-0.042 / 0.089-0.096 "
     "s NSU3D and 0.022 / 0.066-0.101 / 0.196-0.239 s Cart3D over "
     "three runs of this recipe on the parent — because every "
     "exchange was two pool-wide `multiprocessing.Barrier` waits.  A "
     "worker now waits only for the sequence word its neighbour "
     "writes in the shared slab: x2 reads level with x1 on both "
     "solvers (NSU3D 0.021-0.027 against 0.022-0.028, Cart3D "
     "0.023-0.029 against 0.021-0.030 over three runs), which on a "
     "mesh this small — 400 points, ~140 exchanges per 20 ms cycle — "
     "means the second core pays for the synchronisation and no more; "
     "x4 is four workers on two cores and still halves (0.040-0.056 / "
     "0.069-0.085 s).  The alternating-pair referee for the same "
     "change on the harness mesh is `BENCH_23.json`.\n\n"
     "Starting the workers is a cost of its own.  A spawned worker "
     "imports 0.43-0.55 s of modules before it can build (`python -X "
     "importtime` of `repro.runtime.process`, `repro.runtime.driver` "
     "and `repro.solvers.nsu3d.parallel`, three runs): "
     "`scipy.sparse` is 0.21-0.27 s of it, 0.07-0.09 s of that "
     "`numpy.f2py`, which scipy's vendored `array_api_compat` pulls "
     "in, and numpy itself 0.10-0.12 s.  scipy.sparse backs the "
     "scatter operators, so the imports stay; instead workers are "
     "spawned once per rank count and parked when their pool closes, "
     "and the next pool of that size has them rebuild from its spec: "
     "8-13 ms for the `nsu3d_proc2` pair against 0.7-2.1 s spawned.  "
     "The spawn got faster too: a worker's spec used to travel in "
     "its spawn arguments, so each `Process.start()` blocked 0.8-0.9 "
     "s until that child had imported enough to unpickle it, and the "
     "two workers imported one after the other; the spec now follows "
     "on the pipe and they import side by side.  A `forkserver` was "
     "measured and rejected.  The perf harness's `reap()` waits up "
     "to 10 s for every child still alive, and the server exits only "
     "after the interpreter does: one `nsu3d_proc2` run went from "
     "8.4 to 16.5 s and the server outlived it.  On Python 3.11 the "
     "server also ignores the parent's runtime `sys.path`, which is "
     "how `run.py` finds `repro`, and silently drops a preload "
     "`ImportError`, so the preload did nothing until `PYTHONPATH` "
     "was forced.  Parked workers are ordinary spawn-context "
     "children: `multiprocessing.active_children()` lists them, so "
     "`reap()` kills them at once, and they are daemonic, so "
     "`multiprocessing`'s exit handler stops them.\n\n"
     "**Owned rows only.**  A stacked NSU3D level inverts the point "
     "blocks of the rows its partitions own; its ghost rows keep the "
     "state of the last copy until the next one.  On the harness mesh "
     "(`bump_channel(20, 8, 14)`, 3 levels, SA; stacked levels of 3 388 "
     "/ 1 930 / 610 rows for 2 835 / 1 350 / 336 owned, so ghost rows "
     "are 16 / 30 / 45 %) a `sim`x4 cycle handed `block_factor` 13 682 "
     "rows at partition seed 0 and 13 548 at seed 1; it now hands it "
     "9 160, serial's number (`thomas_factor`: 3 254 on every side).  "
     "In a profiled cycle `np.linalg.inv` (the Thomas factors' "
     "inverses included) took 45.8 ms against serial's 28.8 ms, on "
     "blocks nothing read: after the owner sums a ghost row's edge "
     "part is zero, and its `V/dt` is ~1e-300 (the time step of a "
     "zero spectral sum).  The other per-row passes were timed on the "
     "stacked levels (microseconds per call, levels 0 / 1 / 2, min of "
     "5 x 300) and run whole: `limit_correction` 120 / 92 / 46 over "
     "every row against 185 / 147 / 102 once per owned span; the SA "
     "source, owned-only at the parent through a row gather, 384 / 235 / 90, "
     "against 289 / 190 / 92 over every row and 503 / 333 / 219 per "
     "span, so it now runs over every row before the ghost rows are "
     "zeroed.  Cart3D's harness levels (8 768 / 3 544 / 1 640 rows, "
     "ghost 8 / 13 / 18 %) say the same: `_physical` 93 / 51 / 55 whole "
     "against 119 / 88 / 96 per span, `rk_update` 121 / 40 / 17 against "
     "138 / 52 / 32.  A partition's rows are owned first, then ghost, "
     "so a level's owned rows are one span per partition, and at these "
     "sizes a call per span or a gather costs more than the ghost rows "
     "it skips.  The ghost zeroing itself went the other way: through "
     "the row mask it took 30 / 20 / 8 (Cart3D 37 / 26 / 10), one slice "
     "per partition's ghost span takes 2-6, and that is what both "
     "solvers now write.  What is left of the tax, split by wall time "
     "(seed 0; two runs, each the median of 8 alternating 2-cycle "
     "solves against fresh serial ones): a `sim`x4 cycle of 343 / 315 "
     "ms against serial's 319 / 296 ms, of which exchanges (posts and "
     "finishes) are 17.3 / 15.9 ms, the ledger replay (`charge_sends` / "
     "`charge_receives`) 6.2 / 5.5 ms of those, and allreduces 1.4 / "
     "1.3 ms: the exchanges are most of what remains.  On the perf "
     "harness (alternating parent/change pairs, seeds 0-9) "
     "`nsu3d_dist4` `overhead_ratio` read 1.174 -> 1.132 in the median "
     "with the point factors alone (lower in 10 of 10 pairs; parent "
     "quartile spread 0.064) and 1.159 -> 1.130 with the SA source and "
     "ghost zeroing as well (8 of 10; spread 0.031): on this shared "
     "host the gain is about the size of the parent's own spread."),
    ("Section V — kernel engines, roofline (real solver runs)",
     "kernel_engines",
     "The paper's single-CPU evidence is pfmon-measured FLOP rates "
     "against the Itanium2 peak (§V); this bench replays that "
     "methodology on the reproduction's own hot path.  Both solvers run "
     "the one kernel engine, and the calibrated counters bill a fixed "
     "FLOP count per cycle, so a higher roofline fraction against one "
     "1.6 GHz Itanium2 is exactly a faster wall clock.  A second "
     "engine, `batched`, used to run beside it; once both shared the "
     "scatter operators over fixed index sets and the frozen line "
     "operator, it computed the same bits in the same time (1.00x on "
     "NSU3D and 1.04x on Cart3D in its last run) and was deleted.  "
     "Timing is min-of-rounds: noise on a shared box is one-sided, so "
     "the fastest round is the stable estimator."),
]


def main() -> None:
    parts = [HEADER]
    for title, name, note in SECTIONS:
        parts.append(f"## {title}\n")
        if note:
            parts.append(note + "\n")
        body = (RESULTS / f"{name}.txt").read_text().rstrip()
        parts.append("```\n" + body + "\n```\n")
    TARGET.write_text("\n".join(parts))
    print(f"wrote {TARGET} ({TARGET.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
