"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — build a world, run the inference, print the funnel
                  and headline numbers (the quickstart, as a command);
* ``infer``     — run the inference for one vantage (or all) and write
                  the prefix list to a file;
* ``funnel``    — print only the Figure-2 funnel;
* ``telescopes``— print telescope coverage (Table 4 style);
* ``ports``     — print the top targeted ports of the captured IBR;
* ``report``    — write the full markdown operator report;
* ``faults``    — run the online telescope through an injected fault
                  plan and print the degraded-operation log;
* ``scenarios`` — run the adversarial scenario catalog through both
                  engine paths and check every metric against its
                  expected-degradation envelope (``scenarios list``
                  prints the catalog; non-zero exit on violation —
                  the CI regression gate);
* ``plan``      — print the ExecutionPlan the engine would run for the
                  given views and knobs, without executing anything
                  (``infer --explain`` does the same);
* ``serve``     — run the meta-telescope-as-a-service daemon: fold days
                  through the online engine, publish immutable
                  classification snapshots behind an atomic-swap
                  handle, and answer point/range/AS/geo/diff queries
                  over HTTP/JSON (or serve a saved ``snapshot.fpk``);
                  ``--processes N`` boots an SO_REUSEPORT worker fleet
                  sharing one memory-mapped snapshot, and
                  ``--delta-archive DIR`` appends each publish to the
                  row-delta archive;
* ``query``     — query a running daemon from the command line;
* ``convert``   — convert a flow file between CSV and the flowpack
                  binary columnar archive format (format sniffed from
                  the input; no world is built).

World commands accept ``--scale {micro,small,paper,giant}``, ``--seed``,
``--days``, ``--vantage`` (an IXP code or ``All``), ``--chunk-size``
(rows per ingestion chunk, or ``auto``; classification is identical at
any value — the flag only bounds aggregation memory), ``--workers``
(threads folding the days, one day each; ``0`` = one per CPU; any
worker count folds bit-identically; ``faults`` and ``serve`` fold one
day per update and reject it), ``--capture-cache DIR``
(content-addressed cache of generated vantage-day captures: re-runs
with the same scale/seed serve days from flowpack archives instead of
regenerating them — bit-identical, just faster) and ``--trace PATH``
(append the run's structured execution events as JSONL — the engine's
observability spine).  Commands that run the pipeline print a
per-stage funnel timing table; parallel runs prepend per-day worker
and merge rows.  All of it comes from one event stream, recorded by
the :class:`~repro.core.engine.RunContext` threaded through the run.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import signal
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.analysis.ports import top_ports
from repro.core import MetaTelescope
from repro.core.engine import JsonlSink, RunContext
from repro.core.evaluation import confusion_against_truth, telescope_coverage
from repro.core.ipv6_telescope import infer_ipv6, ipv6_telescope
from repro.core.kernels import KERNEL_CHOICES
from repro.core.online import OnlineMetaTelescope, POLICIES
from repro.faults import STANDARD_FAULTS, FaultPlan, standard_injector
from repro.io import (
    FLOW_FORMATS,
    convert_flows,
    write_flows,
    write_prefix_list,
)
from repro.net.family import IPV4, IPV6
from repro.reporting.report import generate_report
from repro.reporting.tables import format_table
from repro.core.snapshot import ClassificationSnapshot
from repro.robustness import (
    EvaluationSettings,
    evaluate_catalog,
    standard_catalog,
)
from repro.core.snapshot_store import SnapshotDeltaStore
from repro.service import (
    BackgroundFolder,
    FleetSupervisor,
    MetaTelescopeService,
    QueryBudget,
    ServiceDaemon,
)
from repro.world.builder import build_world
from repro.world.capture_cache import CaptureCache
from repro.world.config import (
    giant_config,
    micro_config,
    paper_config,
    small_config,
)
from repro.world.ipv6 import (
    build_ipv6_world,
    giant_ipv6_config,
    ipv6_views,
    micro_ipv6_config,
    paper_ipv6_config,
    small_ipv6_config,
)
from repro.world.observe import Observatory

# ``giant`` (≥50 M rows/day) takes minutes to simulate and gigabytes to
# archive — pair it with ``--capture-cache`` so generation is paid once.
_CONFIGS = {
    "micro": micro_config,
    "small": small_config,
    "paper": paper_config,
    "giant": giant_config,
}
_IPV6_CONFIGS = {
    "micro": micro_ipv6_config,
    "small": small_ipv6_config,
    "paper": paper_ipv6_config,
    "giant": giant_ipv6_config,
}


def _context(args: argparse.Namespace) -> RunContext:
    """One RunContext per CLI invocation; ``--trace`` attaches a sink."""
    sinks = ()
    if getattr(args, "trace", None):
        sinks = (JsonlSink(args.trace),)
    return RunContext(sinks=sinks)


def _require_ipv4(args: argparse.Namespace) -> None:
    """Reject ``--family ipv6`` on a command that runs only the v4 world."""
    if getattr(args, "family", "ipv4") == "ipv6":
        raise SystemExit(
            f"--family ipv6 is supported by the infer and plan commands, "
            f"not {args.command}"
        )


def _build(args: argparse.Namespace):
    _require_ipv4(args)
    context = _context(args)
    world = build_world(_CONFIGS[args.scale](args.seed))
    cache = None
    if getattr(args, "capture_cache", None):
        cache = CaptureCache(args.capture_cache)
    observatory = Observatory(world, capture_cache=cache, context=context)
    return world, observatory, MetaTelescope.for_world(world), context


def _vantage(world, args: argparse.Namespace) -> str:
    """``--vantage``, checked: ``All`` or one of the world's IXP codes."""
    codes = {ixp.code for ixp in world.fabric.ixps}
    if args.vantage != "All" and args.vantage not in codes:
        raise SystemExit(
            f"unknown vantage {args.vantage!r}; choose from All, "
            + ", ".join(sorted(codes))
        )
    return args.vantage


def _views(world, observatory, args: argparse.Namespace):
    days = min(args.days, world.config.num_days)
    if _vantage(world, args) == "All":
        return observatory.all_ixp_views(num_days=days)
    return observatory.ixp_views(args.vantage, num_days=days)


def _days_folded(views) -> int:
    """Days the views span: ``--days`` clamped to the world's campaign."""
    return len({view.day for view in views})


def _infer(world, observatory, telescope, args: argparse.Namespace,
           context: RunContext | None = None):
    views = _views(world, observatory, args)
    return views, telescope.infer(
        views,
        use_spoofing_tolerance=not args.no_tolerance,
        chunk_size=args.chunk_size,
        workers=args.workers,
        kernel=args.kernel,
        context=context,
    )


def _family_views(args: argparse.Namespace):
    """``(world, views, telescope, context)`` for either address family.

    ``--family ipv6`` is the unchanged engine over the v6 world: the
    same facade class, configured by :func:`ipv6_telescope`.
    """
    if args.family != "ipv6":
        world, observatory, telescope, context = _build(args)
        return world, _views(world, observatory, args), telescope, context
    if args.vantage not in ("All", "V6IX"):
        raise SystemExit(
            f"unknown vantage {args.vantage!r}; the ipv6 world has one "
            "vantage: V6IX (or All)"
        )
    context = _context(args)
    world = build_ipv6_world(_IPV6_CONFIGS[args.scale](args.seed))
    views = ipv6_views(world, num_days=args.days)
    return world, views, ipv6_telescope(world), context


def cmd_plan(args: argparse.Namespace) -> int:
    """``plan`` (and ``infer --explain``): print the plan, execute nothing."""
    _, views, telescope, context = _family_views(args)
    plan = telescope.plan(
        views, chunk_size=args.chunk_size, workers=args.workers,
        kernel=args.kernel,
    )
    print(format_table(["field", "value"], plan.describe_rows(),
                       title="execution plan"))
    context.close()
    return 0


def _print_timings(
    context: RunContext | None, scopes: tuple[str, ...] | None = None
) -> None:
    """The timing table: one row per worker, merge and stage event of
    ``context`` (only those in ``scopes``, when given)."""
    if context is None:
        return
    rows = [
        (event.name, f"{event.seconds * 1e3:.2f}", event.rows_out)
        for event in context.events(("worker", "merge", "stage"))
        if scopes is None or event.scope in scopes
    ]
    if rows:
        print()
        print(format_table(["stage", "ms", "surviving"], rows))


def cmd_demo(args: argparse.Namespace) -> int:
    world, observatory, telescope, context = _build(args)
    views, result = _infer(world, observatory, telescope, args, context)
    print(format_table(["step", "#/24s"], result.pipeline.funnel.as_rows()))
    print(
        f"\ndark {len(result.pipeline.dark_blocks):,} / unclean "
        f"{len(result.pipeline.unclean_blocks):,} / gray "
        f"{len(result.pipeline.gray_blocks):,}"
    )
    print(f"final meta-telescope: {result.num_prefixes():,} /24 prefixes")
    confusion = confusion_against_truth(result.prefixes, world.index)
    print(
        f"ground truth: FP {confusion.false_positive_rate_of_inferred():.2%}, "
        f"recall {confusion.recall():.1%}"
    )
    _print_timings(context)
    context.close()
    return 0


def _report_ipv6(report) -> None:
    """What ``infer --family ipv6`` prints: the funnel, the candidate
    filter's drop counts and the served set scored on ground truth."""
    print(
        format_table(
            ["step", "#/48s"],
            report.result.pipeline.funnel.as_rows("/48 sites"),
        )
    )
    candidates = report.candidates
    print(
        f"\ncandidate /48 sites: {candidates.observed:,} observed -> "
        f"{len(candidates.candidate_sites):,} "
        f"(dropped {candidates.dropped_unannounced} unannounced, "
        f"{candidates.dropped_hitlist} hitlisted, "
        f"{candidates.dropped_sources} sourcing)"
    )
    coverage = report.coverage
    print(
        f"served (engine-dark candidates): {coverage.served:,} /48 sites — "
        f"ground truth recall {coverage.recall():.1%}, "
        f"precision {coverage.precision():.1%}"
    )


def cmd_infer(args: argparse.Namespace) -> int:
    if args.explain:
        return cmd_plan(args)
    world, views, telescope, context = _family_views(args)
    knobs = dict(
        chunk_size=args.chunk_size, workers=args.workers, kernel=args.kernel,
        context=context,
    )
    if args.family == "ipv6":
        family = IPV6
        report = infer_ipv6(world, views, **knobs)
        _report_ipv6(report)
        prefixes = report.served_sites
        comment = (
            f"ipv6 meta-telescope /48 sites — scale={args.scale} "
            f"seed={args.seed} days={_days_folded(views)}"
        )
    else:
        family = IPV4
        prefixes = telescope.infer(
            views, use_spoofing_tolerance=not args.no_tolerance, **knobs
        ).prefixes
        comment = (
            f"meta-telescope prefixes — scale={args.scale} seed={args.seed} "
            f"vantage={args.vantage} days={_days_folded(views)}"
        )
    write_prefix_list(
        prefixes, args.output, comment=comment, aggregate=args.aggregate,
        family=family,
    )
    print(
        f"wrote {len(prefixes):,} /{family.block_prefix_length} prefixes "
        f"to {args.output}"
    )
    if args.capture_output:
        captured = telescope.captured_traffic(views, prefixes)
        write_flows(captured, args.capture_output, format=args.format)
        print(
            f"wrote {len(captured):,} captured flow records to "
            f"{args.capture_output} ({args.format})"
        )
    context.close()
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    rows = convert_flows(
        args.input, args.output, to=args.to, chunk_rows=args.chunk_rows
    )
    print(f"converted {rows:,} flow records to {args.output} ({args.to})")
    return 0


def cmd_funnel(args: argparse.Namespace) -> int:
    world, observatory, telescope, context = _build(args)
    _, result = _infer(world, observatory, telescope, args, context)
    print(format_table(["step", "#/24s"], result.pipeline.funnel.as_rows()))
    _print_timings(context)
    context.close()
    return 0


def cmd_telescopes(args: argparse.Namespace) -> int:
    world, observatory, telescope, context = _build(args)
    _, result = _infer(world, observatory, telescope, args, context)
    rows = []
    for code, sensor in world.telescopes.items():
        row = telescope_coverage(
            result.prefixes, sensor, day=0 if args.days == 1 else None
        )
        rows.append((code, row.telescope_size, row.inferred_inside,
                     f"{row.coverage():.0%}"))
    print(format_table(["telescope", "size", "inferred", "coverage"], rows))
    context.close()
    return 0


def cmd_ports(args: argparse.Namespace) -> int:
    world, observatory, telescope, context = _build(args)
    views, result = _infer(world, observatory, telescope, args, context)
    captured = telescope.captured_traffic(views, result)
    ranked = top_ports(captured, count=args.count)
    print(
        format_table(
            ["rank", "port"], [(i + 1, port) for i, port in enumerate(ranked)]
        )
    )
    context.close()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    world, observatory, telescope, context = _build(args)
    views, result = _infer(world, observatory, telescope, args, context)
    text = generate_report(
        telescope,
        views,
        result,
        geodb=world.datasets.geodb,
        pfx2as=world.datasets.pfx2as,
        title=(
            f"Meta-telescope report — {args.vantage}, "
            f"{_days_folded(views)} day(s)"
        ),
    )
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote report to {args.output}")
    context.close()
    return 0


def _day_views(world, observatory, args: argparse.Namespace, day: int):
    observation = observatory.day(day)
    if args.vantage == "All":
        return list(observation.ixp_views.values())
    return [observation.ixp_views[args.vantage]]


def _online(
    args: argparse.Namespace, telescope, days: int, context: RunContext
) -> OnlineMetaTelescope:
    """The online engine the ``faults`` and ``serve`` commands fold into."""
    window = min(args.window, days)
    return OnlineMetaTelescope(
        telescope=telescope,
        window_days=window,
        min_stable_days=min(2, window),
        use_spoofing_tolerance=not args.no_tolerance,
        policy=args.policy,
        chunk_size=args.chunk_size,
        kernel=args.kernel,
        sinks=context.sinks,
    )


def cmd_faults(args: argparse.Namespace) -> int:
    world, observatory, telescope, context = _build(args)
    _vantage(world, args)
    days = min(args.days, world.config.num_days)
    fault_day = args.fault_day if args.fault_day is not None else days // 2
    chosen = args.fault or ["all"]
    names = list(STANDARD_FAULTS) if "all" in chosen else chosen
    plan = FaultPlan(seed=args.seed)
    for name in dict.fromkeys(names):
        if name == "none":
            continue
        plan.add(standard_injector(name, days=frozenset({fault_day})))
    telescope.replace_collector(plan.wrap_collector(telescope.collector))

    online = _online(args, telescope, days, context)
    rows = []
    events = []
    for day in range(days):
        faulted = plan.apply(day, _day_views(world, observatory, args, day))
        events.extend(faulted.events)
        update = online.update(day, list(faulted.views))
        confusion = confusion_against_truth(online.current_prefixes(), world.index)
        rows.append(
            (
                day,
                update.action,
                f"{update.quality.score:.2f}",
                len(faulted.views),
                update.serving_size,
                update.staleness,
                f"{1 - confusion.false_positive_rate_of_inferred():.1%}",
                f"{confusion.recall():.1%}",
            )
        )
    print(
        format_table(
            ["day", "action", "quality", "#views", "serving", "stale",
             "precision", "recall"],
            rows,
            title=f"degraded operation — policy={args.policy}, "
            f"faults on day {fault_day}: {', '.join(names)}",
        )
    )
    report = online.health_report()
    print(f"\n{report.summary()}")
    for record in report.records:
        for reason in record.reasons:
            print(f"  day {record.day}: {reason}")
    for event in events:
        print(f"  injected day {event.day} @ {event.vantage}: "
              f"{event.fault} ({event.detail})")
    # The latest folded day: its fold and window stages; the per-day
    # inference's rows stay trace-only.
    _print_timings(online.last_run_context(), scopes=("fold", "window"))
    context.close()
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    _require_ipv4(args)
    config = _CONFIGS[args.scale](args.seed)
    catalog = standard_catalog(config)
    if args.action == "list":
        rows = [
            (
                scenario.name,
                scenario.summary,
                "yes" if scenario.envelope.target_miss_rate else "-",
            )
            for scenario in catalog
        ]
        print(
            format_table(
                ["scenario", "summary", "targeted"],
                rows,
                title=f"adversarial scenario catalog — scale={args.scale}",
            )
        )
        return 0

    context = _context(args)
    settings = EvaluationSettings(
        days=min(args.days, config.num_days),
        workers=args.workers if args.workers is not None else 2,
        chunk_size=args.chunk_size,
        kernel=args.kernel,
        compose_faults=args.with_faults,
        fault_seed=args.seed,
        service_path=args.service_path,
    )
    # close() in a finally: the JSONL trace artifact must be complete
    # (flushed) on failure verdicts and on crashes, not only on PASS —
    # CI reads it precisely when the gate trips.
    try:
        verdict = evaluate_catalog(catalog, config, settings, context=context)
        for scenario in verdict.verdicts:
            rows = [
                (
                    check.path,
                    check.metric,
                    f"{check.value:+.3f}",
                    check.bounds.describe(),
                    "ok" if check.ok else "VIOLATION",
                )
                for check in scenario.checks
            ]
            state = "within envelope" if scenario.ok() else "ENVELOPE VIOLATED"
            print(
                format_table(
                    ["path", "metric", "value", "envelope", "verdict"],
                    rows,
                    title=f"{scenario.scenario} — {state}",
                )
            )
            print(f"  {scenario.summary}")
            print(f"  online: {scenario.online_health}\n")
        faulted = " (faults composed)" if args.with_faults else ""
        if verdict.ok():
            print(
                f"scenario gate: PASS — {len(verdict.verdicts)} scenario(s) "
                f"within their envelopes{faulted}"
            )
            return 0
        failing = [v.scenario for v in verdict.verdicts if not v.ok()]
        print(
            f"scenario gate: FAIL — envelope violations in "
            f"{', '.join(failing)}{faulted}"
        )
        return 1
    finally:
        context.close()


def _window_feed(world, observatory, args: argparse.Namespace, online, days):
    """``serve``'s feed: each day's ``(day, views)`` in order.

    Once a day is folded, the observatory keeps only the days the online
    window still holds (the window keeps accumulators, never views):
    a feed of any length then holds a window of days' views, and of a
    warm capture cache's mappings, not every day it has served.
    """
    for day in range(days):
        yield day, _day_views(world, observatory, args, day)
        observatory.retain(online.days_in_window())


def _feed_publisher(args: argparse.Namespace, make_publisher):
    """Build ``serve``'s publisher and publish what it serves at boot.

    ``make_publisher(context, **shared)`` constructs the in-process
    :class:`MetaTelescopeService` or the :class:`FleetSupervisor`;
    ``shared`` is the keywords the two take alike.  Returns
    ``(publisher, folder, context)`` — ``folder`` is None when a saved
    ``--snapshot`` is served (no world, no folding).
    """
    shared = {"max_inflight": args.max_inflight}
    if args.delta_archive:
        shared["delta_store"] = SnapshotDeltaStore(args.delta_archive)
    if args.snapshot:
        context = _context(args)
        publisher = make_publisher(context, **shared)
        snapshot = publisher.publish(ClassificationSnapshot.open(args.snapshot))
        folder = None
        print(
            f"serving {args.snapshot}: {len(snapshot):,} blocks, "
            f"day {snapshot.day}, version {snapshot.version}",
            flush=True,
        )
    else:
        world, observatory, telescope, context = _build(args)
        _vantage(world, args)
        days = min(args.days, world.config.num_days)
        online = _online(args, telescope, days, context)
        shared.update(pfx2as=world.datasets.pfx2as, geodb=world.datasets.geodb)
        publisher = make_publisher(context, **shared)
        folder = BackgroundFolder(online, publisher)
        warm = days if args.warm_days is None else min(args.warm_days, days)
        feed = _window_feed(world, observatory, args, online, days)
        for day, views in itertools.islice(feed, warm):
            snapshot = folder.fold(day, views)
            print(
                f"day {day}: published v{snapshot.version} "
                f"({len(snapshot.dark_blocks):,} dark of {len(snapshot):,})",
                flush=True,
            )
        if warm < days:
            # Remaining days fold in the background while we serve.
            folder.start(feed)
    if args.save_snapshot:
        publisher.handle.current().save(args.save_snapshot)
        print(f"wrote snapshot to {args.save_snapshot}", flush=True)
    return publisher, folder, context


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the query daemon (ROADMAP item 1's product surface)."""
    if args.processes > 1:
        return _serve_fleet(args)
    service, folder, context = _feed_publisher(
        args,
        lambda context, **shared: MetaTelescopeService(
            context=context,
            budget=QueryBudget(max_results=args.max_results),
            **shared,
        ),
    )
    daemon = ServiceDaemon(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await daemon.start()
        print(f"meta-telescope service on {daemon.base_url}", flush=True)
        if args.exit_after is not None:
            await asyncio.sleep(args.exit_after)
        else:
            await asyncio.Event().wait()
        await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        if folder is not None:
            folder.join(timeout=1.0)
        context.close()
    return 0


def _serve_fleet(args: argparse.Namespace) -> int:
    """``serve --processes N``: the SO_REUSEPORT worker fleet.

    The supervisor process never serves HTTP itself — it folds (or
    opens) snapshots, persists each one to the fleet root, and bumps
    the version sentinel; N spawned workers share the one mapped
    ``snapshot.fpk`` and one kernel-balanced port.
    """
    root = args.fleet_root or tempfile.mkdtemp(prefix="meta-telescope-fleet-")
    supervisor, folder, context = _feed_publisher(
        args,
        lambda context, **shared: FleetSupervisor(
            root,
            processes=args.processes,
            host=args.host,
            port=args.port,
            max_results=args.max_results,
            **shared,
        ),
    )
    # SIGTERM leaves the way Ctrl-C does: through the finally below.
    on_term = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        supervisor.start()
        supervisor.wait_ready()
        print(
            f"meta-telescope fleet: {args.processes} workers on "
            f"{supervisor.base_url} (root {supervisor.root})",
            flush=True,
        )
        deadline = (
            time.monotonic() + args.exit_after
            if args.exit_after is not None
            else None
        )
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.25)
            restarted = supervisor.ensure_alive()
            if restarted:
                print(f"restarted {restarted} worker(s)", flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
        signal.signal(signal.SIGTERM, on_term)
        if folder is not None:
            folder.join(timeout=1.0)
        context.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Query a running daemon (thin urllib client, JSON to stdout)."""
    paths = {
        "point": "/v1/point",
        "range": "/v1/range",
        "as": "/v1/as",
        "geo": "/v1/geo",
        "diff": "/v1/diff",
        "snapshot": "/v1/snapshot",
        "health": "/healthz",
    }
    params = {
        name: getattr(args, name)
        for name in ("prefix", "block", "start", "end", "asn", "country",
                     "since", "limit")
        if getattr(args, name, None) is not None
    }
    url = args.url.rstrip("/") + paths[args.endpoint]
    if params:
        url += "?" + urllib.parse.urlencode(params)
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            body = json.load(response)
            status = response.status
    except urllib.error.HTTPError as error:
        status = error.code
        try:
            body = json.load(error)
        except json.JSONDecodeError:
            body = {"error": str(error)}
    except urllib.error.URLError as error:
        print(f"cannot reach {args.url}: {error.reason}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(body, indent=2))
    except BrokenPipeError:  # e.g. piped through `head`
        pass
    return 0 if status == 200 else 1


def _chunk_size(value: str) -> int | str:
    """An argparse ``type``: ``auto`` or an integer of at least 1."""
    if value == "auto":
        return value
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {value!r}"
            ) from None
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {number}"
            )
        return number

    return parse


def _add_execution_options(p: argparse.ArgumentParser) -> None:
    """The engine-knob and observability flags every run-shaped command
    shares (one definition; these were copy-pasted per subcommand)."""
    p.add_argument(
        "--chunk-size", type=_chunk_size, default=None,
        help="rows per ingestion chunk, or 'auto' (bounds aggregation "
        "memory; classification is identical at any value)",
    )
    p.add_argument(
        "--workers", type=_at_least(0), default=None,
        help="threads folding the days, one day each "
        "(default: serial; 0 = one per CPU; the fold is "
        "bit-identical at any worker count)",
    )
    p.add_argument(
        "--kernel", choices=KERNEL_CHOICES, default=None,
        help="aggregation kernel backend (default: auto — native when "
        "the compiled module loads, else the numpy reference; "
        "classification is bit-identical on either backend)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append the run's structured execution events (plan, "
        "chunks, workers, stages, cache) to PATH as JSONL",
    )


def _add_world_options(p: argparse.ArgumentParser) -> None:
    """The world-selection flags, plus the shared execution flags."""
    p.add_argument("--scale", choices=sorted(_CONFIGS), default="small")
    p.add_argument(
        "--family", choices=["ipv4", "ipv6"], default="ipv4",
        help="address family to operate in (ipv6: the /48-site world "
        "and candidate filter; infer and plan commands only)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--days", type=_at_least(1), default=1)
    p.add_argument("--vantage", default="All")
    p.add_argument(
        "--no-tolerance", action="store_true",
        help="disable the spoofing tolerance",
    )
    p.add_argument(
        "--capture-cache", default=None, metavar="DIR",
        help="content-addressed capture cache directory: generated "
        "vantage-days are stored as flowpack archives and re-runs "
        "with the same world serve them from disk (bit-identical)",
    )
    _add_execution_options(p)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="operate a synthetic meta-telescope"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "demo": cmd_demo,
        "infer": cmd_infer,
        "funnel": cmd_funnel,
        "telescopes": cmd_telescopes,
        "ports": cmd_ports,
        "report": cmd_report,
        "faults": cmd_faults,
        "scenarios": cmd_scenarios,
        "plan": cmd_plan,
        "serve": cmd_serve,
    }
    for name, handler in commands.items():
        p = sub.add_parser(name)
        _add_world_options(p)
        if name == "infer":
            p.add_argument(
                "--explain", action="store_true",
                help="print the execution plan the engine would run and "
                "exit without executing (same output as the plan command)",
            )
            p.add_argument("--output", default="meta-telescope-prefixes.txt")
            p.add_argument(
                "--aggregate", action="store_true",
                help="collapse contiguous /24s into their CIDR cover",
            )
            p.add_argument(
                "--capture-output", default=None, metavar="PATH",
                help="also write the traffic captured toward the final "
                "prefixes (the paper's second data product)",
            )
            p.add_argument(
                "--format", choices=FLOW_FORMATS, default="csv",
                help="flow file format for --capture-output "
                "(default: csv)",
            )
        if name == "ports":
            p.add_argument("--count", type=int, default=10)
        if name == "report":
            p.add_argument("--output", default="meta-telescope-report.md")
        if name == "faults":
            p.set_defaults(days=5)
            p.add_argument(
                "--fault", action="append",
                choices=sorted(STANDARD_FAULTS) + ["all", "none"],
                default=None,
                help="fault class to inject (repeatable; default: all)",
            )
            p.add_argument(
                "--fault-day", type=int, default=None,
                help="day the faults strike (default: the middle day)",
            )
            p.add_argument(
                "--policy", choices=POLICIES, default="carry",
                help="missing/degraded-day policy (default: carry)",
            )
            p.add_argument(
                "--window", type=_at_least(1), default=3,
                help="rolling-window length in days",
            )
        if name == "scenarios":
            p.set_defaults(days=3)
            p.add_argument(
                "action", nargs="?", choices=("run", "list"), default="run",
                help="run the regression gate, or list the catalog",
            )
            p.add_argument(
                "--with-faults", action="store_true",
                help="compose the canonical transport-fault plan on top "
                "of every scenario (and the baseline)",
            )
            p.add_argument(
                "--service-path", action="store_true",
                help="also score the service path: the online state "
                "published as a snapshot and read back through the "
                "query service (must match the engine bit-for-bit)",
            )
        if name == "serve":
            p.set_defaults(days=3)
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=8300)
            p.add_argument(
                "--window", type=_at_least(1), default=3,
                help="online engine rolling-window length in days",
            )
            p.add_argument(
                "--policy", choices=POLICIES, default="carry",
                help="missing/degraded-day policy (default: carry)",
            )
            p.add_argument(
                "--warm-days", type=_at_least(0), default=None, metavar="N",
                help="fold only the first N days before listening; the "
                "rest fold in the background while serving (default: "
                "fold all --days up front)",
            )
            p.add_argument(
                "--snapshot", default=None, metavar="PATH",
                help="serve a saved snapshot.fpk instead of building a "
                "world and folding days",
            )
            p.add_argument(
                "--save-snapshot", default=None, metavar="PATH",
                help="also write the served snapshot to PATH as "
                "snapshot.fpk",
            )
            p.add_argument(
                "--max-results", type=int, default=1000,
                help="per-query result budget for list answers",
            )
            p.add_argument(
                "--max-inflight", type=int, default=64,
                help="concurrent queries beyond this are shed with 503",
            )
            p.add_argument(
                "--exit-after", type=float, default=None, metavar="SECONDS",
                help="stop serving after this long (CI smoke; default: "
                "serve until interrupted)",
            )
            p.add_argument(
                "--processes", type=int, default=1, metavar="N",
                help="serve from N SO_REUSEPORT worker processes sharing "
                "one memory-mapped snapshot.fpk (default: 1, in-process "
                "daemon); size to the cores you can spare",
            )
            p.add_argument(
                "--fleet-root", default=None, metavar="DIR",
                help="directory for the fleet's shared snapshot.fpk and "
                "version sentinel (default: a fresh temp dir); only "
                "used with --processes > 1",
            )
            p.add_argument(
                "--delta-archive", default=None, metavar="DIR",
                help="also append each published snapshot's delta to a "
                "flowpack delta archive at DIR (O(changed /24s) bytes "
                "per publish; auto-compacts)",
            )
        p.set_defaults(handler=handler)

    query = sub.add_parser(
        "query",
        help="query a running meta-telescope service",
        description="Thin HTTP client for the serve daemon: prints the "
        "JSON answer and exits non-zero on any non-200 response.",
    )
    query.add_argument(
        "endpoint",
        choices=("point", "range", "as", "geo", "diff", "snapshot", "health"),
    )
    query.add_argument("--url", default="http://127.0.0.1:8300")
    query.add_argument("--prefix", default=None,
                       help="CIDR (point: a /24; range: any covering prefix)")
    query.add_argument("--block", type=int, default=None,
                       help="point lookup by /24 block id")
    query.add_argument("--start", type=int, default=None)
    query.add_argument("--end", type=int, default=None)
    query.add_argument("--asn", type=int, default=None)
    query.add_argument("--country", default=None)
    query.add_argument("--since", type=int, default=None,
                       help="diff feed base snapshot version")
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--timeout", type=float, default=10.0)
    query.set_defaults(handler=cmd_query)

    convert = sub.add_parser(
        "convert",
        help="convert a flow file between csv and flowpack",
        description="Convert flow records between the CSV interchange "
        "format and the flowpack binary columnar archive.  The input "
        "format is sniffed from the file itself; conversion streams in "
        "bounded chunks, so paper-scale files never load whole.",
    )
    convert.add_argument("input", help="source flow file (csv or flowpack)")
    convert.add_argument("output", help="destination path")
    convert.add_argument(
        "--to", choices=FLOW_FORMATS, default="flowpack",
        help="target format (default: flowpack)",
    )
    convert.add_argument(
        "--chunk-rows", type=int, default=65536,
        help="rows per streamed conversion chunk (default: 65536)",
    )
    convert.set_defaults(handler=cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("faults", "serve") and args.workers is not None:
        parser.error(
            f"{args.command}: argument --workers: the online engine folds "
            "one day per update and a worker pool shares out whole days, "
            "so a pool would have nothing to share"
        )
    if args.command == "faults" and args.fault_day is not None:
        # Same clamp as cmd_faults: a day past the folded ones injects
        # nothing, so it is a usage error, not a quiet no-op.
        days = min(args.days, _CONFIGS[args.scale](args.seed).num_days)
        if not 0 <= args.fault_day < days:
            parser.error(
                f"faults: argument --fault-day: day {args.fault_day} is "
                f"outside [0, {days}), the {days} day(s) folded"
            )
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
