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

The runner is rebuilt from the manifest's ``runner`` description by
:func:`repro.database.runner.rebuild_runner`; campaigns driven by ad-hoc
callables must resume in-process via
:meth:`repro.database.FillRuntime.resume`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def status(journal: str, echo=print) -> int:
    """Print the ledger of one campaign journal."""
    from ..perf.report import campaign_ledger_table
    from .checkpoint import CampaignCheckpoint

    state = CampaignCheckpoint.load(Path(journal))
    echo(
        campaign_ledger_table(
            state.summary(), title=f"campaign journal: {Path(journal).name}"
        )
    )
    if state.in_flight:
        echo("")
        echo(f"in flight when the process died: {len(state.in_flight)} case(s)")
    return 0


def resume(journal: str, store: str | None = None, echo=print) -> int:
    """Resume a journaled campaign to completion."""
    from ..perf.report import fill_summary_table
    from .checkpoint import CampaignCheckpoint
    from .resultstore import ResultStore
    from .runner import rebuild_runner
    from .runtime import FillRuntime

    state = CampaignCheckpoint.load(Path(journal))
    rerun = state.rerun()
    store_path = store if store is not None else rerun["store"]
    with FillRuntime(
        rebuild_runner(rerun["runner"]),
        nnodes=rerun["nnodes"],
        cpus_per_case=rerun["cpus_per_case"],
        store=ResultStore(store_path) if store_path else ResultStore(),
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
