"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info PLAN.json`` — model statistics plus the floor-plan lint report;
* ``audit PLAN.json [--exits ID ...]`` — door-significance analysis
  (betweenness, single points of failure) and evacuation safety;
* ``doctor PLAN.json [--objects OBJ.json] [--snapshot SNAP]`` — one
  exit-code-bearing health report: floor-plan lint plus §IV index
  integrity (M_d2d symmetry, non-negativity, finiteness; DPT
  completeness); with ``--snapshot`` the checks run on a persisted
  snapshot (checksums + invariants) instead of a freshly built index;
* ``persist save PLAN.json DIR`` / ``persist load DIR`` /
  ``persist verify DIR|SNAP`` — crash-safe snapshot management: save a
  new checksummed generation, run the recovery ladder (WAL replay,
  quarantine, optional rebuild fallback), or verify checksums +
  integrity without serving;
* ``distance PLAN.json X1 Y1 X2 Y2 [--floor1 N] [--floor2 N]`` — minimum
  indoor walking distance and turn-by-turn directions between two points;
* ``render PLAN.json -o OUT.svg [--floor N]`` — draw a floor to SVG;
* ``dot PLAN.json`` — print the accessibility graph as Graphviz DOT;
* ``export-figure1 OUT.json`` — write the paper's running-example floor
  plan to a JSON file (a starting point for experiments);
* ``bench ...`` — alias for ``python -m repro.bench ...``;
* ``serve-bench`` / ``shard-bench`` / ``labels-bench`` /
  ``overload-bench`` / ``reconfig-bench`` ``[--json OUT.json] [--seed N]``
  — one subcommand per record of :data:`repro.bench.table.BENCHES`:
  measure at the ``REPRO_BENCH_SCALE`` scale (default ``quick``), print
  a summary, optionally write the result dict; exit 0 iff every hard
  check the record declares holds;
* ``bench --gate [--tolerance T]`` — regression-gate every committed
  ``BENCH_*.json`` artifact of the same table against a fresh run (exit
  non-zero on regression; see :mod:`repro.bench.gate`);
* ``chaos run [--seed N] [--duration-ops M] [--report OUT.json]
  [--shards N] [--workload mixed|flash-crowd] [--hedging]
  [--reconfig]`` — a
  deterministic fault-injection campaign (see :mod:`repro.chaos` and
  ``docs/chaos.md``): exit 0 iff the verdict is PASS; ``--shards N``
  runs it against the multi-process sharded tier with the shard fault
  plan (kill/hang/snapshot-rot); ``--workload flash-crowd`` swaps in
  the zipfian rush-hour op stream with casualties timed into the spike,
  ``--hedging`` arms the overload-control stack (hedged
  scatter-gather, retry budget, limiter) on the sharded tier, and
  ``--reconfig`` swaps in the live-reconfiguration plan (epoch-fenced
  rolling topology mutations with the reconfig crash points armed);
* ``chaos replay --report OUT.json`` — re-run a saved campaign's config
  and verify the incident digest reproduces byte-for-byte (single
  process campaigns only: shard scheduling is real concurrency and is
  not digest-stable, so shard reports are refused);
* ``doctor ... [--campaign REPORT.json]`` — additionally surface the
  verdict of the last chaos campaign in the health report.

Floor plans use the JSON format of :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.distance.point_to_point import pt2pt_path
from repro.geometry import Point
from repro.io import load_space, save_space
from repro.model.validation import validate_space


def _cmd_info(args: argparse.Namespace) -> int:
    space = load_space(args.plan)
    floors = sorted({f for p in space.partitions() for f in p.floors})
    print(f"plan:        {args.plan}")
    print(f"partitions:  {space.num_partitions}")
    print(f"doors:       {space.num_doors}")
    one_way = sum(
        1 for d in space.door_ids if space.topology.is_unidirectional(d)
    )
    print(f"one-way:     {one_way}")
    print(f"floors:      {floors}")
    connected = space.accessibility.is_strongly_connected()
    print(f"strongly connected: {'yes' if connected else 'no'}")
    issues = validate_space(space)
    if issues:
        print(f"lint: {len(issues)} issue(s)")
        for issue in issues:
            print(f"  {issue}")
        return 1
    print("lint: clean")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import critical_doors, door_betweenness
    from repro.routing import evacuation_report

    space = load_space(args.plan)
    print("door traffic (betweenness, descending):")
    for door_id, score in sorted(
        door_betweenness(space).items(), key=lambda kv: (-kv[1], kv[0])
    ):
        print(f"  {space.door(door_id).label:<8} {score:6.1%}")
    critical = critical_doors(space)
    if critical:
        print("single points of failure:")
        for door_id in critical:
            print(f"  {space.door(door_id).label}")
    else:
        print("single points of failure: none")
    if args.exits:
        report = evacuation_report(space, args.exits)
        if report.is_safe:
            print(f"evacuation via {list(args.exits)}: all partitions safe")
        else:
            print(
                f"evacuation via {list(args.exits)}: "
                f"TRAPPED partitions {list(report.trapped)}"
            )
            return 1
    return 0


def _verify_snapshot_file(path: str) -> int:
    """Checksum + integrity verification of one snapshot file; 0 = healthy."""
    from repro.exceptions import SnapshotCorruptError
    from repro.model.validation import Severity
    from repro.persist import load_snapshot
    from repro.runtime import check_index_integrity

    print(f"snapshot: {path}")
    try:
        framework, manifest = load_snapshot(path)
    except SnapshotCorruptError as exc:
        print(f"  checksum/structure: CORRUPT ({exc.section}): {exc}")
        return 1
    print(
        f"  checksum/structure: ok (format v{manifest['format_version']}, "
        f"epoch {manifest['topology_epoch']}, {manifest['doors']} doors, "
        f"{manifest['objects']} objects)"
    )
    issues = check_index_integrity(framework)
    errors = [i for i in issues if i.severity is Severity.ERROR]
    if issues:
        print("  index integrity:")
        for issue in issues:
            print(f"    {issue}")
    else:
        print("  index integrity: clean")
    return 1 if errors else 0


def _doctor_campaign(path: str) -> int:
    """Surface the last chaos campaign's verdict; 0 = PASS."""
    from repro.chaos import CampaignReport

    try:
        report = CampaignReport.load(path)
    except (OSError, KeyError, ValueError) as exc:
        print(f"chaos campaign: unreadable report {path}: {exc}")
        return 1
    counts = report.counts()
    print(
        f"chaos campaign: {report.verdict} "
        f"({report.ops_executed} ops, digest {report.digest[:12]}...)"
    )
    for name, count in sorted(counts.items()):
        if count:
            print(f"  {name}: {count}")
    for name, count in sorted(report.overload.get("counters", {}).items()):
        if count:
            print(f"  {name}: {count}")
    reconfig = report.reconfig
    if reconfig:
        print(
            f"  reconfig: epoch {reconfig.get('committed_epoch', 0)} "
            f"(fence {reconfig.get('fence_epoch', 0)})"
        )
        for key in (
            "rounds", "prepares", "prepare_failures", "commits",
            "commit_failures", "aborts", "resumes", "planned_restarts",
            "fenced_replies", "retried_replies", "replans",
        ):
            value = reconfig.get(key, 0)
            if value:
                print(f"  reconfig.{key}: {value}")
        lagging = {
            shard: skew
            for shard, skew in reconfig.get("epoch_skew", {}).items()
            if skew
        }
        if lagging:
            print(f"  reconfig epoch skew (laggards): {lagging}")
    return 0 if report.passed else 1


def _project_root() -> "Path":
    """Nearest ancestor of the cwd holding a pyproject.toml, else cwd."""
    from pathlib import Path

    current = Path.cwd()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


def _doctor_lint() -> int:
    """Fold the static-analysis report into doctor; 0 = no regressions."""
    from repro.analysis.lint import LintConfig, run_lint

    report = run_lint(LintConfig(root=_project_root()))
    print(
        f"static analysis: {report.checked_modules} modules, "
        f"{len(report.new)} new finding(s), "
        f"{len(report.baselined)} baselined, "
        f"{report.suppressed} suppressed"
    )
    for finding in report.new[:10]:
        print(f"  {finding.path}:{finding.line} {finding.rule} "
              f"{finding.message}")
    if len(report.new) > 10:
        print(f"  ... and {len(report.new) - 10} more")
    for relpath, error in sorted(report.unparsable.items()):
        print(f"  {relpath}: unparsable ({error})")
    return report.exit_code()


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.index import IndexFramework
    from repro.model.validation import Severity
    from repro.runtime import check_index_integrity

    lint_status = _doctor_lint() if args.lint else 0
    campaign_status = 0
    if args.campaign is not None:
        campaign_status = _doctor_campaign(args.campaign)
    snapshot_status = 0
    if args.snapshot is not None:
        snapshot_status = _verify_snapshot_file(args.snapshot)
    status = snapshot_status + campaign_status + lint_status
    if args.plan is None:
        if args.snapshot is None and args.campaign is None and not args.lint:
            print(
                "doctor: a PLAN.json, --snapshot, --campaign, or --lint "
                "is required"
            )
            return 2
        if status == 0:
            print("doctor: healthy")
        elif snapshot_status:
            print("doctor: snapshot corrupt")
        elif campaign_status:
            print("doctor: last campaign FAILED")
        else:
            print("doctor: static analysis regressions")
        return 1 if status else 0

    space = load_space(args.plan)
    plan_issues = validate_space(space)
    print("floor plan lint:")
    if plan_issues:
        for issue in plan_issues:
            print(f"  {issue}")
    else:
        print("  clean")

    objects = None
    if args.objects:
        from repro.io import load_objects

        objects = load_objects(args.objects)
    framework = IndexFramework.build(space, objects, args.cell_size)
    index_issues = check_index_integrity(framework)
    print("index integrity:")
    if index_issues:
        for issue in index_issues:
            print(f"  {issue}")
    else:
        print("  clean")
    report = framework.memory_report()
    print(
        f"indexes: {report['doors']} doors, "
        f"{report['matrix_bytes']} matrix bytes, "
        f"{report['dpt_bytes']} DPT bytes, "
        f"{report['objects']} objects"
    )

    errors = [
        issue
        for issue in plan_issues + index_issues
        if issue.severity is Severity.ERROR
    ]
    if errors or status:
        print(f"doctor: {len(errors) + status} error(s)")
        return 1
    print("doctor: healthy")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.lint import (
        Baseline,
        LintConfig,
        all_checkers,
        run_lint,
    )

    if args.list_rules:
        for cls in all_checkers():
            print(f"{cls.rule_id}  {cls.summary}")
        return 0

    root = Path(args.root) if args.root else _project_root()
    config = LintConfig(
        root=root,
        paths=[Path(p) for p in args.paths],
        select=set(args.select) if args.select else None,
        baseline_path=Path(args.baseline) if args.baseline else None,
        jobs=args.jobs,
    )
    report = run_lint(config)

    if args.write_baseline:
        baseline = Baseline.from_findings(report.findings)
        path = config.resolved_baseline()
        baseline.save(path)
        print(f"wrote baseline ({len(baseline)} entries) to {path}")
        return 0

    for relpath, error in sorted(report.unparsable.items()):
        print(f"{relpath}: unparsable: {error}")
    for finding in report.new:
        print(finding.render())
    if args.show_baselined:
        for finding in report.baselined:
            print(f"(baselined) {finding.render()}")
    if report.expired:
        print(
            f"baseline: {len(report.expired)} stale entries no longer "
            "match any finding — rerun with --write-baseline to prune"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    witness_failed = False
    if args.lock_graph or args.witness:
        from repro.analysis.lint.callgraph import build_graph, render_dot
        from repro.analysis.lint.engine import build_project
        from repro.analysis.witness import WitnessTrace, crosscheck

        graph = build_graph(build_project(config))
        observed = None
        if args.witness:
            try:
                trace = WitnessTrace.load(args.witness)
            except (OSError, ValueError, KeyError) as exc:
                print(f"witness: unreadable trace {args.witness}: {exc}")
                return 2
            result = crosscheck(trace, graph)
            observed = result.confirmed
            for message in result.errors:
                print(f"witness: ERROR: {message}")
            for message in result.warnings:
                print(f"witness: warning: {message}")
            print(
                f"witness: {len(trace.edges)} observed edges, "
                f"{len(result.confirmed)} confirmed static, "
                f"{len(result.errors)} errors, "
                f"{len(result.warnings)} warnings"
            )
            witness_failed = not result.ok
        if args.lock_graph:
            Path(args.lock_graph).write_text(
                render_dot(graph, observed), encoding="utf-8"
            )
            print(f"wrote lock graph to {args.lock_graph}")

    exit_code = report.exit_code(strict=args.strict) or (
        1 if witness_failed else 0
    )
    print(
        f"lint: {report.checked_modules} modules, "
        f"{len(report.rules)} rules, {len(report.new)} new, "
        f"{len(report.baselined)} baselined, "
        f"{report.suppressed} suppressed"
        + (" — FAIL" if exit_code else " — ok")
    )
    return exit_code


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.viz import to_dot

    print(to_dot(load_space(args.plan)), end="")
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    from repro.routing import directions

    space = load_space(args.plan)
    source = Point(args.x1, args.y1, args.floor1)
    target = Point(args.x2, args.y2, args.floor2)
    path = pt2pt_path(space, source, target)
    if not path.is_reachable:
        print("unreachable")
        return 1
    print(f"distance: {path.distance:.2f} m")
    for step in directions(space, path):
        print(f"  {step}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.viz import render_svg, save_svg

    space = load_space(args.plan)
    svg = render_svg(space, floor=args.floor, width=args.width)
    save_svg(svg, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_export_figure1(args: argparse.Namespace) -> int:
    from repro.model.figure1 import build_figure1

    save_space(build_figure1(), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_persist_save(args: argparse.Namespace) -> int:
    from repro.index import IndexFramework
    from repro.persist import SnapshotStore, read_manifest

    space = load_space(args.plan)
    objects = None
    if args.objects:
        from repro.io import load_objects

        objects = load_objects(args.objects)
    framework = IndexFramework.build(space, objects, args.cell_size)
    store = SnapshotStore(args.directory)
    path = store.save(framework, wal_seq=store.wal().last_seq)
    manifest = read_manifest(path)
    print(
        f"wrote {path} (generation {store.latest()}, "
        f"{manifest['doors']} doors, {manifest['objects']} objects, "
        f"epoch {manifest['topology_epoch']})"
    )
    return 0


def _cmd_persist_load(args: argparse.Namespace) -> int:
    from repro.exceptions import RecoveryError
    from repro.index import IndexFramework
    from repro.persist import RecoveryManager, SnapshotStore

    store = SnapshotStore(args.directory)
    rebuild = None
    if args.plan:
        plan_path = args.plan

        def rebuild() -> "IndexFramework":
            return IndexFramework.build(load_space(plan_path))

    manager = RecoveryManager(store, rebuild=rebuild)
    try:
        report = manager.recover()
    except RecoveryError as exc:
        print(f"recovery failed: {exc}")
        return 1
    for note in report.notes:
        print(f"  {note}")
    memory = report.framework.memory_report()
    print(
        f"recovered via {report.source.value}"
        + (f" (generation {report.generation})" if report.generation else "")
        + f": {memory['doors']} doors, {memory['objects']} objects, "
        f"epoch {report.framework.space.topology_epoch}"
    )
    if report.quarantined:
        print(f"quarantined: {[p.name for p in report.quarantined]}")
        return 1 if args.strict else 0
    return 0


def _cmd_persist_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.persist import SnapshotStore

    target = Path(args.target)
    if target.is_dir():
        store = SnapshotStore(target)
        generations = store.generations()
        if not generations:
            print(f"no snapshot generations in {target}")
            return 1
        status = 0
        for generation in generations:
            status |= _verify_snapshot_file(str(store.path_for(generation)))
        return status
    return _verify_snapshot_file(str(target))


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(args.bench_args)


def _cmd_table_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench.table import hard_checks

    spec = args.spec
    scale = spec.scale()
    print(f"# scale: {scale.name} (REPRO_BENCH_SCALE: {' | '.join(spec.scales)})")
    result = spec.measure(scale, args.seed)
    print(spec.render(result))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {args.json}")
    failed = [check for check in hard_checks(spec, result) if not check["ok"]]
    for check in failed:
        print(f"FAIL  {check['metric']}: {check['detail']}")
    return 1 if failed else 0


def _render_campaign_summary(report) -> None:
    counts = report.counts()
    print(
        f"campaign: {report.verdict} — {report.ops_executed} ops, "
        f"{len(report.incidents)} incidents, digest {report.digest[:16]}..."
    )
    for name, count in sorted(counts.items()):
        print(f"  {name}: {count}")
    for quality, stats in sorted(report.latency_ms.items()):
        print(
            f"  latency {quality}: p50={stats['p50']}ms "
            f"p90={stats['p90']}ms p99={stats['p99']}ms "
            f"(n={int(stats['count'])})"
        )
    for name, count in sorted(report.overload.get("counters", {}).items()):
        if count:
            print(f"  {name}: {count}")
    reconfig = report.reconfig
    if reconfig:
        print(
            f"  reconfig: epoch {reconfig.get('committed_epoch', 0)} "
            f"(fence {reconfig.get('fence_epoch', 0)}), "
            f"{reconfig.get('rounds', 0)} rounds, "
            f"{reconfig.get('prepares', 0)} prepares, "
            f"{reconfig.get('commits', 0)} commits, "
            f"{reconfig.get('resumes', 0)} resumes, "
            f"{reconfig.get('fenced_replies', 0)} fenced replies"
        )
        lagging = {
            shard: skew
            for shard, skew in reconfig.get("epoch_skew", {}).items()
            if skew
        }
        if lagging:
            print(f"  reconfig epoch skew: {lagging}")


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import (
        CampaignConfig,
        CampaignRunner,
        FaultPlan,
        shard_reconfig_plan,
    )

    plan = None
    if args.plan:
        try:
            with open(args.plan, encoding="utf-8") as handle:
                plan = FaultPlan.from_json_dict(json.load(handle))
        except (OSError, KeyError, ValueError) as exc:
            print(f"chaos run: unreadable plan {args.plan}: {exc}")
            return 2
    if args.reconfig:
        if args.shards <= 0:
            print("chaos run: --reconfig requires --shards N (N >= 2)")
            return 2
        if plan is not None:
            print("chaos run: --reconfig and --plan are mutually exclusive")
            return 2
        plan = shard_reconfig_plan(args.duration_ops, shards=args.shards)
    config = CampaignConfig(
        seed=args.seed,
        duration_ops=args.duration_ops,
        object_count=args.objects,
        plan=plan,
        differential=not args.no_differential,
        metamorphic=not args.no_metamorphic,
        epoch_oracle=not args.no_epoch_oracle,
        integrity_gate=not args.no_integrity_gate,
        breaker=not args.no_breaker,
        store_dir=args.store_dir,
        shards=args.shards,
        backend=args.backend,
        workload=args.workload.replace("-", "_"),
        hedging=args.hedging,
    )
    if args.witness:
        from repro.analysis.lint.callgraph import build_graph
        from repro.analysis.lint.engine import LintConfig, build_project
        from repro.analysis.witness import static_sites, witness_session

        root = _project_root()
        graph = build_graph(build_project(LintConfig(root=root)))
        with witness_session(root, static_sites(graph)) as witness:
            report = CampaignRunner(config).run()
        witness.trace().save(args.witness)
        print(f"wrote witness trace to {args.witness}")
    else:
        report = CampaignRunner(config).run()
    _render_campaign_summary(report)
    if args.report:
        report.save(args.report)
        print(f"wrote {args.report}")
    if args.bench_json:
        payload = {
            "campaign": {
                "seed": config.seed,
                "duration_ops": config.duration_ops,
                "verdict": report.verdict,
                "digest": report.digest,
            },
            "latency_ms_by_quality": report.latency_ms,
        }
        with open(args.bench_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_json}")
    return 0 if report.passed else 1


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.chaos import CampaignConfig, CampaignReport, CampaignRunner

    saved = CampaignReport.load(args.report)
    if int(saved.config.get("shards", 0)) > 0:
        print(
            "chaos replay: report is from a sharded campaign "
            f"(shards={saved.config['shards']}); shard scheduling is real "
            "concurrency, so its incident digest is not replay-stable. "
            "Re-run it with 'chaos run --shards N' instead."
        )
        return 2
    config = CampaignConfig.from_dict(saved.config)
    replayed = CampaignRunner(config).run()
    _render_campaign_summary(replayed)
    if replayed.digest == saved.digest:
        print(f"replay: digest reproduced ({saved.digest[:16]}...)")
        return 0 if replayed.passed else 1
    print(
        "replay: DIGEST MISMATCH — saved "
        f"{saved.digest[:16]}... vs replayed {replayed.digest[:16]}..."
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Indoor distance-aware query processing toolkit "
        "(Lu/Cao/Jensen, ICDE 2012 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="plan statistics + lint report")
    info.add_argument("plan", help="floor plan JSON file")
    info.set_defaults(handler=_cmd_info)

    audit = commands.add_parser(
        "audit", help="door significance + evacuation analysis"
    )
    audit.add_argument("plan")
    audit.add_argument(
        "--exits", type=int, nargs="*", default=[],
        help="exit partition ids for the evacuation check",
    )
    audit.set_defaults(handler=_cmd_audit)

    doctor = commands.add_parser(
        "doctor", help="plan lint + index integrity health report"
    )
    doctor.add_argument("plan", nargs="?", default=None)
    doctor.add_argument(
        "--objects", default=None, help="optional JSON object set to load"
    )
    doctor.add_argument(
        "--cell-size", type=float, default=2.0,
        help="grid cell edge for the object buckets (metres)",
    )
    doctor.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="verify a persisted snapshot (checksums + index integrity) "
        "instead of, or in addition to, a plan",
    )
    doctor.add_argument(
        "--campaign", default=None, metavar="REPORT.json",
        help="surface the verdict of a saved chaos-campaign report "
        "(see 'chaos run --report')",
    )
    doctor.add_argument(
        "--lint", action="store_true",
        help="fold the repro static-analysis report (REP001–REP005) "
        "into the health check",
    )
    doctor.set_defaults(handler=_cmd_doctor)

    lint = commands.add_parser(
        "lint",
        help="AST static analysis enforcing the project's concurrency, "
        "determinism, and deadline contracts (REP001–REP005)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: <root>/src)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail on new warnings and stale baseline entries",
    )
    lint.add_argument(
        "--json", default=None, metavar="OUT",
        help="write the full findings report as JSON",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: <root>/.repro-lint-baseline.json)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline and exit",
    )
    lint.add_argument(
        "--select", nargs="*", default=None, metavar="RULE",
        help="run only these rule ids (e.g. REP001 REP004)",
    )
    lint.add_argument(
        "--jobs", type=int, default=0,
        help="worker threads for parse/check (0 = auto)",
    )
    lint.add_argument(
        "--root", default=None,
        help="project root (default: nearest ancestor with pyproject.toml)",
    )
    lint.add_argument(
        "--show-baselined", action="store_true",
        help="also print findings already accepted by the baseline",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.add_argument(
        "--lock-graph", default=None, metavar="OUT.dot",
        help="write the interprocedural lock-acquisition graph as "
        "Graphviz DOT (cycle edges red; witness-confirmed edges bold)",
    )
    lint.add_argument(
        "--witness", default=None, metavar="TRACE.json",
        help="cross-check a LockWitness trace ('chaos run --witness') "
        "against the static graph: observed edges the graph lacks are "
        "call-graph holes and fail the run",
    )
    lint.set_defaults(handler=_cmd_lint)

    dot = commands.add_parser("dot", help="accessibility graph as Graphviz DOT")
    dot.add_argument("plan")
    dot.set_defaults(handler=_cmd_dot)

    distance = commands.add_parser(
        "distance", help="walking distance and directions between two points"
    )
    distance.add_argument("plan")
    distance.add_argument("x1", type=float)
    distance.add_argument("y1", type=float)
    distance.add_argument("x2", type=float)
    distance.add_argument("y2", type=float)
    distance.add_argument("--floor1", type=int, default=0)
    distance.add_argument("--floor2", type=int, default=0)
    distance.set_defaults(handler=_cmd_distance)

    render = commands.add_parser("render", help="draw a floor to SVG")
    render.add_argument("plan")
    render.add_argument("-o", "--output", required=True)
    render.add_argument("--floor", type=int, default=0)
    render.add_argument("--width", type=int, default=900)
    render.set_defaults(handler=_cmd_render)

    export = commands.add_parser(
        "export-figure1", help="write the paper's Figure-1 plan to JSON"
    )
    export.add_argument("output")
    export.set_defaults(handler=_cmd_export_figure1)

    persist = commands.add_parser(
        "persist", help="crash-safe snapshot save / load / verify"
    )
    persist_commands = persist.add_subparsers(
        dest="persist_command", required=True
    )

    persist_save = persist_commands.add_parser(
        "save", help="build the indexes for a plan and write a new generation"
    )
    persist_save.add_argument("plan", help="floor plan JSON file")
    persist_save.add_argument("directory", help="snapshot store directory")
    persist_save.add_argument(
        "--objects", default=None, help="optional JSON object set to load"
    )
    persist_save.add_argument(
        "--cell-size", type=float, default=2.0,
        help="grid cell edge for the object buckets (metres)",
    )
    persist_save.set_defaults(handler=_cmd_persist_save)

    persist_load = persist_commands.add_parser(
        "load", help="run the recovery ladder over a snapshot store"
    )
    persist_load.add_argument("directory", help="snapshot store directory")
    persist_load.add_argument(
        "--plan", default=None,
        help="floor plan JSON enabling the fresh-rebuild fallback rung",
    )
    persist_load.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when recovery had to quarantine anything",
    )
    persist_load.set_defaults(handler=_cmd_persist_load)

    persist_verify = persist_commands.add_parser(
        "verify",
        help="checksum + integrity verification of a snapshot file or store",
    )
    persist_verify.add_argument(
        "target", help="a .snap file or a snapshot store directory"
    )
    persist_verify.set_defaults(handler=_cmd_persist_verify)

    bench = commands.add_parser("bench", help="run figure benchmarks")
    bench.add_argument("bench_args", nargs=argparse.REMAINDER)
    bench.set_defaults(handler=_cmd_bench)

    from repro.bench import table

    for spec in table.BENCHES:
        table_bench = commands.add_parser(spec.name, help=spec.help)
        table_bench.add_argument(
            "--json", default=None, help="write the full result dict to this file"
        )
        table_bench.add_argument(
            "--seed", type=int, default=0, help="workload seed (default 0)"
        )
        table_bench.set_defaults(handler=_cmd_table_bench, spec=spec)

    chaos = commands.add_parser(
        "chaos", help="deterministic fault-injection campaigns"
    )
    chaos_commands = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_commands.add_parser(
        "run", help="run a seeded campaign against the Figure-1 stack"
    )
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument(
        "--duration-ops", type=int, default=200,
        help="workload length (the standard plan scales with it)",
    )
    chaos_run.add_argument(
        "--objects", type=int, default=12, help="indoor object population"
    )
    chaos_run.add_argument(
        "--plan", default=None, metavar="PLAN.json",
        help="custom fault schedule (FaultPlan JSON; default: the "
        "standard plan scaled to --duration-ops)",
    )
    chaos_run.add_argument(
        "--report", default=None, metavar="OUT.json",
        help="write the full campaign report (replayable)",
    )
    chaos_run.add_argument(
        "--bench-json", default=None, metavar="OUT.json",
        help="write per-quality-level latency percentiles",
    )
    chaos_run.add_argument(
        "--witness", default=None, metavar="TRACE.json",
        help="run with LockWitness instrumentation (observed "
        "lock-acquisition orders) and write the trace for "
        "'lint --witness'",
    )
    chaos_run.add_argument(
        "--store-dir", default=None,
        help="snapshot store directory (default: a fresh tempdir)",
    )
    chaos_run.add_argument("--no-differential", action="store_true")
    chaos_run.add_argument("--no-metamorphic", action="store_true")
    chaos_run.add_argument("--no-epoch-oracle", action="store_true")
    chaos_run.add_argument(
        "--no-integrity-gate", action="store_true",
        help="disable the pre-answer integrity checks (demonstrates the "
        "silent-wrong-answer failure mode; expect a FAIL verdict)",
    )
    chaos_run.add_argument("--no-breaker", action="store_true")
    chaos_run.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the campaign against an N-worker sharded tier with the "
        "shard fault plan (kill/hang/snapshot-rot); 0 = single-process",
    )
    chaos_run.add_argument(
        "--workload", default="mixed", choices=("mixed", "flash-crowd"),
        help="op-stream shape; flash-crowd is the zipfian rush-hour "
        "spike (with --shards, the default plan times its casualties "
        "into the spike window)",
    )
    chaos_run.add_argument(
        "--reconfig", action="store_true",
        help="swap in the live-reconfiguration fault plan: topology "
        "mutations rolled through the fleet mid-campaign, with the "
        "reconfig crash points (torn commit, kill-after-prepare) armed "
        "(requires --shards)",
    )
    chaos_run.add_argument(
        "--hedging", action="store_true",
        help="arm the overload-control stack on the sharded tier: "
        "hedged scatter-gather probes, a retry budget, and an adaptive "
        "concurrency limiter (requires --shards)",
    )
    chaos_run.add_argument(
        "--backend", default="matrix", choices=("matrix", "labels"),
        help="distance backend of the served stack; the differential "
        "oracle always judges against the dense matrix, so "
        "--backend labels proves the label index bit-identical under "
        "faults",
    )
    chaos_run.set_defaults(handler=_cmd_chaos_run)

    chaos_replay = chaos_commands.add_parser(
        "replay",
        help="re-run a saved report's config; verify the digest reproduces",
    )
    chaos_replay.add_argument(
        "--report", required=True, metavar="REPORT.json"
    )
    chaos_replay.set_defaults(handler=_cmd_chaos_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER refuses to start with an option-like token
    # (bpo-17050), which would break ``repro bench --gate``: forward the
    # bench subcommand's tail verbatim instead of parsing it here.
    if argv and argv[0] == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
