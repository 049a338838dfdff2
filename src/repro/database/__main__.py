"""CLI: ``python -m repro.database {status,resume}``.

``status <journal>`` decodes a campaign-checkpoint journal and prints
the ledger a crashed fill left behind: how many cases completed (with
surviving results), failed, or were in flight when the process died.

``resume <journal>`` picks a campaign back up.  The journal's manifest
carries the case list, solver settings, slot sizing and — when the
campaign's runner could describe itself — enough to rebuild the runner,
so completed cases restore into the result store (zero recomputation)
and only interrupted cases execute.  Point ``--store`` at the campaign's
result store to also reuse results that were persisted there.

The runner is rebuilt from the manifest's ``runner`` description; only
``type: cart3d`` with a named geometry (``wing_body``, ``shuttle_stack``)
is currently reconstructible — campaigns driven by ad-hoc callables must
resume in-process via :meth:`repro.database.FillRuntime.resume`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _load_state(journal: str):
    from .checkpoint import CampaignCheckpoint

    return CampaignCheckpoint.load(Path(journal))


def status(journal: str, echo=print) -> int:
    """Print the ledger of one campaign journal."""
    from ..perf.report import campaign_ledger_table

    state = _load_state(journal)
    echo(
        campaign_ledger_table(
            state.summary(), title=f"campaign journal: {Path(journal).name}"
        )
    )
    if state.in_flight:
        echo("")
        echo(f"in flight when the process died: {len(state.in_flight)} case(s)")
    return 0


def _rebuild_runner(manifest: dict):
    """Reconstruct the campaign's runner from its manifest description."""
    from ..errors import ConfigurationError
    from ..runtime import RuntimeConfig
    from .runtime import Cart3DCaseRunner

    described = (manifest or {}).get("runner")
    if not described or described.get("type") != "cart3d":
        raise ConfigurationError(
            "journal manifest does not describe a reconstructible runner; "
            "resume this campaign in-process with FillRuntime.resume()"
        )
    geometry_name = described.get("geometry")
    factories = _geometry_factories()
    factory = factories.get(geometry_name)
    if factory is None:
        raise ConfigurationError(
            f"unknown manifest geometry {geometry_name!r}; known: "
            f"{sorted(factories)}"
        )
    settings = {
        k: described[k]
        for k in ("dim", "base_level", "max_level", "mg_levels", "cycles")
        if k in described
    }
    # describe() journals the decomposition only when one was used; a
    # resumed case must run (and key) exactly as the interrupted one did
    execution = {
        k: described[k]
        for k in ("backend", "nranks", "overlap")
        if k in described
    }
    return Cart3DCaseRunner(
        factory(),
        geometry_name=geometry_name,
        tol_orders=described.get("tol_orders", 4.0),
        converged_orders=described.get("converged_orders", 2.0),
        config=RuntimeConfig(**execution),
        **settings,
    )


def _geometry_factories() -> dict:
    from ..mesh.cartesian import shuttle_stack, wing_body

    return {"wing_body": wing_body, "shuttle_stack": shuttle_stack}


def resume(journal: str, store: str | None = None, echo=print) -> int:
    """Resume a journaled campaign to completion."""
    from ..perf.report import fill_summary_table
    from .checkpoint import CampaignCheckpoint
    from .resultstore import ResultStore
    from .runtime import FillRuntime

    state = _load_state(journal)
    manifest = state.manifest or {}
    runner = _rebuild_runner(manifest)
    store_path = store if store is not None else manifest.get("store")
    result_store = (
        ResultStore(store_path) if store_path else ResultStore()
    )
    with FillRuntime(
        runner,
        nnodes=manifest.get("nnodes", 1),
        cpus_per_case=manifest.get("cpus_per_case", 32),
        store=result_store,
        checkpoint=CampaignCheckpoint(Path(journal)),
    ) as runtime:
        report = runtime.resume(checkpoint=state)
    echo(
        fill_summary_table(
            {"resumed": report.summary()},
            title=f"resumed campaign: {Path(journal).name}",
        )
    )
    return 0 if report.ok() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.database",
        description="campaign checkpoint inspection and resume",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_status = sub.add_parser(
        "status", help="ledger of a campaign-checkpoint journal"
    )
    p_status.add_argument("journal", help="journal written by CampaignCheckpoint")
    p_resume = sub.add_parser(
        "resume", help="resume a journaled campaign to completion"
    )
    p_resume.add_argument("journal", help="journal written by CampaignCheckpoint")
    p_resume.add_argument(
        "--store",
        default=None,
        help="result-store JSONL (defaults to the path in the manifest)",
    )
    args = parser.parse_args(argv)
    if args.command == "status":
        return status(args.journal)
    return resume(args.journal, store=args.store)


if __name__ == "__main__":
    sys.exit(main())
