"""CLI: ``python -m repro.service {serve,status,query}``.

``serve`` runs a query session: reads JSON-lines point queries
(``{"mach": .., "alpha": .., "config": {..}, "tenant": ..}``) from a
file, answers every one through a :class:`~repro.service.
DatabaseService` over a fill runtime, prints one JSON response per
query plus the closing status ledger.  ``--journal`` attaches a
campaign checkpoint so a killed session restarts with ``--recover``
(completed solves restore, interrupted ones re-run — nothing
recomputes); ``--store`` persists results across sessions.

``status <journal>`` decodes a service journal: accepted solve-tier
queries, completed ones, and the backlog a kill left behind.

``query`` answers one point *offline* from a persisted store — exact
when stored, surrogate-interpolated when enough neighbors exist — and
exits non-zero on a true miss (no runtime is spun up; misses are what
``serve`` is for).

The bundled :class:`SyntheticRunner` stands in for a real CFD runner:
smooth analytic coefficients over (Mach, alpha), an optional per-case
delay to emulate solver cost.  It makes the CLI (and the service tests
and load bench) runnable anywhere in milliseconds; swap in
:class:`~repro.database.runner.Cart3DCaseRunner` for real solves.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time
from pathlib import Path

from ..solvers.interface import CaseResult, CaseSpec


class SyntheticRunner:
    """Analytic stand-in runner: smooth coefficients, optional delay.

    The coefficient surfaces are deliberately gentle polynomials/
    trig in (Mach, alpha) so the surrogate tier's linear
    interpolation has realistic structure to fit — and its error
    estimates something meaningful to bound.
    """

    solver_name = "synthetic"

    def __init__(self, delay: float = 0.0):
        self.delay = delay

    def settings(self) -> dict:
        return {}

    @staticmethod
    def coefficients(mach: float, alpha: float) -> dict:
        alpha_rad = math.radians(alpha)
        cl = 2.0 * math.pi * alpha_rad * (1.0 + 0.25 * mach * mach)
        cd = 0.006 + 0.05 * cl * cl + 0.01 * mach**4
        cm = -0.25 * cl + 0.02 * mach
        return {"cl": cl, "cd": cd, "cm": cm}

    def __call__(self, spec: CaseSpec, shared=None) -> CaseResult:
        if self.delay > 0.0:
            time.sleep(self.delay)
        wind = spec.wind_params
        return CaseResult(
            spec=spec,
            coefficients=self.coefficients(
                float(wind.get("mach", 0.5)), float(wind.get("alpha", 0.0))
            ),
            residual_history=(1.0, 1.0e-6),
            converged=True,
        )


def _parse_queries(path: str) -> list:
    from .query import PointQuery

    queries = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        record = json.loads(line)
        queries.append(
            PointQuery(
                mach=float(record["mach"]),
                alpha=float(record["alpha"]),
                config=record.get("config", {}),
                beta=record.get("beta"),
                tenant=record.get("tenant", "default"),
                priority=int(record.get("priority", 0)),
            )
        )
    return queries


async def _run_session(service, queries: list) -> list:
    async def one(query):
        from ..errors import ReproError

        try:
            return await service.query(query)
        except ReproError as exc:
            return {
                "tenant": query.tenant, "wind": query.wind,
                "error": type(exc).__name__, "message": str(exc),
            }

    return list(await asyncio.gather(*(one(q) for q in queries)))


def serve(
    requests: str,
    store: str | None = None,
    journal: str | None = None,
    delay: float = 0.0,
    recover: bool = False,
    nnodes: int = 1,
    cpus_per_case: int = 128,
    echo=print,
) -> int:
    """Answer a file of queries through a synthetic-runner service."""
    from ..database.checkpoint import CampaignCheckpoint
    from ..database.resultstore import ResultStore
    from ..database.runtime import FillRuntime
    from .frontend import DatabaseService

    checkpoint = (
        CampaignCheckpoint(Path(journal)) if journal is not None else None
    )
    with FillRuntime(
        SyntheticRunner(delay=delay),
        nnodes=nnodes,
        cpus_per_case=cpus_per_case,
        store=ResultStore(store),
        durable=False if (store is None and checkpoint is None) else None,
        checkpoint=checkpoint,
    ) as runtime:
        service = DatabaseService(runtime)
        if recover:
            recovery = service.recover()
            echo(json.dumps({"recovered": recovery}))
        queries = _parse_queries(requests)
        answered = asyncio.run(_run_session(service, queries))
        errored = 0
        for answer in answered:
            if isinstance(answer, dict):  # shed or failed
                errored += 1
                echo(json.dumps(answer))
            else:
                echo(json.dumps(answer.to_json()))
        echo(json.dumps({"status": service.status()}))
    return 0 if errored == 0 else 1


def status(journal: str, echo=print) -> int:
    """Decode one service journal: accepted, completed, backlog."""
    from ..database.checkpoint import CampaignCheckpoint

    state = CampaignCheckpoint.load(Path(journal))
    accepted = set(state.queries())
    completed = state.completed
    echo(json.dumps({
        "journal": str(state.path),
        "accepted": len(accepted),
        "completed": len(completed & accepted),
        "pending": sorted(accepted - completed),
        "events": len(state.events),
    }, indent=2))
    return 0


def _parse_config(pairs: list) -> dict:
    config = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not _:
            raise SystemExit(f"--config wants name=value, got {pair!r}")
        try:
            config[name] = float(value)
        except ValueError:
            config[name] = value
    return config


def query(
    store: str,
    mach: float,
    alpha: float,
    config: dict | None = None,
    solver: str = "synthetic",
    echo=print,
) -> int:
    """Answer one point offline from a persisted store (no solves)."""
    from ..database.resultstore import ResultStore
    from .query import PointQuery, result_response
    from .surrogate import SurrogateConfig, interpolate

    point = PointQuery(mach=mach, alpha=alpha, config=config or {})
    spec = point.spec(solver=solver)
    results = ResultStore(store)
    cached = results.get(spec.key)
    if cached is not None:
        echo(json.dumps(result_response(point, cached).to_json()))
        return 0
    surrogate = SurrogateConfig()
    neighbors = results.nearest(spec, k=surrogate.k)
    if not surrogate.eligible(neighbors):
        echo(json.dumps({
            "error": "miss",
            "message": f"case {spec.key} is not stored and only "
                       f"{len(neighbors)} neighbor(s) exist; run serve "
                       f"to solve it",
        }))
        return 1
    support = surrogate.within(neighbors)
    coefficients, error = interpolate(point.wind, support)
    echo(json.dumps({
        "key": spec.key, "tenant": point.tenant, "source": "surrogate",
        "coefficients": coefficients, "error_estimate": error,
        "neighbors": len(support), "wind": point.wind,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="aero-database query service",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_serve = sub.add_parser(
        "serve", help="answer a JSONL file of point queries"
    )
    p_serve.add_argument("requests", help="JSON-lines query file")
    p_serve.add_argument("--store", default=None, help="result-store JSONL")
    p_serve.add_argument(
        "--journal", default=None, help="campaign-checkpoint journal"
    )
    p_serve.add_argument(
        "--delay", type=float, default=0.0,
        help="synthetic per-solve delay in seconds",
    )
    p_serve.add_argument(
        "--recover", action="store_true",
        help="replay the journal before serving (kill/restart path)",
    )
    p_status = sub.add_parser(
        "status", help="ledger of a service journal"
    )
    p_status.add_argument("journal", help="journal written by serve")
    p_query = sub.add_parser(
        "query", help="answer one point offline from a store"
    )
    p_query.add_argument("store", help="result-store JSONL")
    p_query.add_argument("mach", type=float)
    p_query.add_argument("alpha", type=float)
    p_query.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="configuration-space parameter (repeatable)",
    )
    p_query.add_argument("--solver", default="synthetic")
    args = parser.parse_args(argv)
    if args.command == "serve":
        return serve(
            args.requests, store=args.store, journal=args.journal,
            delay=args.delay, recover=args.recover,
        )
    if args.command == "status":
        return status(args.journal)
    return query(
        args.store, args.mach, args.alpha,
        config=_parse_config(args.config),
        solver=args.solver,
    )


if __name__ == "__main__":
    sys.exit(main())
