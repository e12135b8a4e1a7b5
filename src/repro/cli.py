"""Command-line interface.

Subcommands::

    repro validate SOURCE TARGET   # decide `source {~> target` in SEQ
    repro optimize PROGRAM         # run the optimizer, print the result
    repro explore PROGRAM...       # PS^na / SC behaviors of a composition
    repro litmus                   # regenerate the paper's verdict table
    repro adequacy SOURCE TARGET   # Theorem 6.2 differential check
    repro coverage                 # which operational rules ever fired
    repro explain ...              # narrate a witness / counterexample
    repro fuzz                     # differential fuzzing campaign / replay
    repro attrib                   # time attribution of a workload
    repro query ARTIFACT           # filter/aggregate trace, event,
                                   # graph, and metrics artifacts offline
    repro serve                    # run the HTTP verification service
    repro client ...               # talk to a running service
    repro top                      # live ops view of a running service

Each PROGRAM/SOURCE/TARGET argument is a path to a WHILE file, or inline
WHILE source (detected when the argument is not an existing file).

Every subcommand accepts the observability flags:

``--stats``
    print a metrics table after the run (and, for ``litmus``, a
    per-case table with game states, dedup rate, and wall time);
``--trace FILE.jsonl``
    export the run as a JSONL trace; the final event of each command is
    a ``result`` event carrying the same data the command printed;
``--profile``
    print span timings (where the wall-clock time went) plus the
    per-stack attribution hotspots (:mod:`repro.obs.attrib`);
``--folded FILE``
    export the attribution as folded stacks (``a;b;c <µs>``) for
    speedscope / ``flamegraph.pl``;
``--stream FILE|-``
    write a live ``repro-events/1`` NDJSON stream as the run happens
    (flushed per line) — crashes additionally print the flight-recorder
    tail (last events, open spans, last rule) to stderr;
``--graph FILE.json``
    record state-space graph telemetry and write a ``repro-graph/1``
    report (nodes deduped by canonical key, edges labeled with the
    ``rule.*`` that fired);
``--graph-stats``
    record graph telemetry and print the aggregate statistics table
    (plus, for ``litmus``, a timing-free per-case column block that is
    byte-identical across ``--jobs`` values).

``litmus``, ``adequacy``, ``coverage``, and ``fuzz`` additionally accept
``--jobs N`` to fan their independent cases across a process pool
(:mod:`repro.runner`); worker metrics merge back into the parent's
session, and the rendered output is byte-identical to ``--jobs 1``
modulo timing columns.  ``litmus``, ``coverage``, ``fuzz`` (campaign
*and* ``--replay``), and ``explain`` accept ``--progress`` for a
periodic stderr heartbeat (off by default; never mixed into stdout).

``repro --version`` prints the package version plus run provenance
(git SHA, creation timestamp, interpreter) and exits.

Incomplete explorations are *never* silent: when a bound truncates the
search, a warning naming the exhausted bound goes to stderr and the
printed behavior/verdict set must be read as a lower bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__, obs, runner
from .adequacy import check_adequacy
from .lang.ast import Stmt
from .lang.parser import parse
from .lang.pretty import to_source
from .litmus import ALL_TRANSFORMATION_CASES, EXTENDED_CASES, case_by_name
from .obs import coverage as obs_coverage
from .obs import explain as obs_explain
from .obs import query as obs_query
from .obs.attrib import (
    attrib_payload,
    render_attrib_table,
    write_folded,
)
from .obs.events import render_flight
from .obs.provenance import provenance_meta
from .obs.report import render_profile, render_stats_table, stats_payload
from .obs.statespace import (
    graph_payload,
    render_graph_table,
    write_graph_report,
)
from .opt import DEFAULT_PASSES, EXTENDED_PASSES, Optimizer
from .psna import PsConfig, explore, explore_sc, promise_free_config
from .seq import check_transformation


def _load(argument: str) -> Stmt:
    if os.path.exists(argument):
        with open(argument) as handle:
            return parse(handle.read())
    return parse(argument)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _warn_incomplete(what: str, reason: Optional[str], states: int) -> None:
    """Satellite requirement: truncated searches must be loud."""
    bound = reason or "bound"
    _warn(f"{what} is INCOMPLETE — {bound} exhausted after {states} states; "
          f"the reported behavior set is a lower bound, not authoritative")


def _cmd_validate(args: argparse.Namespace) -> int:
    source = _load(args.source)
    target = _load(args.target)
    verdict = check_transformation(source, target)
    if not verdict.complete:
        _warn(f"refinement game incomplete — exhausted bounds: "
              f"{', '.join(verdict.incomplete_reasons) or 'unknown'}")
    obs.event("result", command="validate", valid=verdict.valid,
              notion=verdict.notion, game_states=verdict.game_states,
              complete=verdict.complete)
    if verdict.valid:
        print(f"VALID — certified by {verdict.notion} behavioral refinement")
        return 0
    print("INVALID — no refinement notion validates this transformation")
    cex = (verdict.advanced.counterexample if verdict.advanced is not None
           else verdict.simple.counterexample)
    if cex is not None:
        print(f"  initial state : P={set(cex.initial.perms) or '{}'}, "
              f"M={cex.initial.memory}")
        print(f"  target trace  : {list(cex.trace)}")
        print(f"  obligation    : {cex.reason}")
        if cex.defaults is not None:
            print(f"  refuting oracle: {cex.defaults!r}")
    return 1


def _cmd_optimize(args: argparse.Namespace) -> int:
    program = _load(args.program)
    passes = EXTENDED_PASSES if args.extended else DEFAULT_PASSES
    optimizer = Optimizer(passes=passes, validate=args.validate)
    result = optimizer.optimize(program)
    if args.validate:
        for record in result.records:
            if record.changed:
                notion = record.verdict.notion if record.verdict else "?"
                print(f"# {record.name}: certified ({notion})",
                      file=sys.stderr)
    if args.stats:
        for record in result.records:
            if record.changed:
                print(f"# {record.name}: {record.size_before} -> "
                      f"{record.size_after} nodes "
                      f"({record.duration_s * 1e3:.2f} ms rewrite, "
                      f"{record.validation_s * 1e3:.2f} ms validation)",
                      file=sys.stderr)
    obs.event("result", command="optimize",
              optimized=to_source(result.optimized),
              changed_passes=[r.name for r in result.records if r.changed],
              validated=result.validated if args.validate else None)
    print(to_source(result.optimized))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    threads = [_load(argument) for argument in args.programs]
    config = None
    if args.machine == "sc":
        result = explore_sc(threads, max_states=args.max_states,
                            max_depth=args.max_depth)
    else:
        if args.machine == "pf":
            config = promise_free_config()
        else:
            config = PsConfig(promise_budget=args.promises)
        config = _bounded(config, args)
        result = explore(threads, config)
    _shrink_monitor_violations(threads, config)
    outcomes = sorted(result.behaviors, key=repr)
    states = result.states
    if not result.complete:
        _warn_incomplete(f"{args.machine} exploration",
                         result.incomplete_reason, states)
    print(f"machine: {args.machine}, states explored: {states}, "
          f"complete: {result.complete}")
    for outcome in outcomes:
        print(f"  {outcome!r}")
    obs.event("result", command="explore", machine=args.machine,
              states=states, complete=result.complete,
              incomplete_reason=result.incomplete_reason,
              behaviors=[repr(outcome) for outcome in outcomes])
    return 0


def _bounded(config: PsConfig, args: argparse.Namespace) -> PsConfig:
    from dataclasses import replace

    return replace(config, max_states=args.max_states,
                   max_depth=args.max_depth)


def _shrink_monitor_violations(threads: list[Stmt],
                               config: Optional[PsConfig]) -> None:
    """Feed each monitor violation through the fuzz ddmin shrinker.

    Called after an exploration: every violated invariant class yields a
    regression-corpus candidate under ``corpus/monitor/`` (injected
    canary violations shrink too — their predicate re-injects, proving
    the capture pipeline end to end).
    """
    checker = obs.monitor()
    if checker is None or not checker.total_violations():
        return
    from .obs.monitor import shrink_violation

    for invariant_id in checker.violated_ids():
        injected = bool(checker.injected.get(invariant_id))
        if config is None and not injected:
            continue  # SC exploration: no PS^na config to re-explore with
        path = shrink_violation(tuple(threads), invariant_id,
                                config=config, injected=injected)
        if path is not None:
            print(f"monitor: shrunk witness for {invariant_id} "
                  f"written to {path}", file=sys.stderr)
        else:
            print(f"monitor: violation of {invariant_id} did not "
                  f"reproduce under re-exploration; no witness written",
                  file=sys.stderr)


def _cmd_litmus(args: argparse.Namespace) -> int:
    cases = EXTENDED_CASES if args.extended else ALL_TRANSFORMATION_CASES
    as_json = getattr(args, "format", "table") == "json"
    jobs = getattr(args, "jobs", 1)
    graph_stats = getattr(args, "graph_stats", False)
    mismatches = 0
    incomplete_cases: list[tuple[str, tuple[str, ...]]] = []
    case_stats: list[tuple[str, int, float, float]] = []
    graph_rows: list[tuple[str, int, int, int, int]] = []
    registry = obs.metrics()
    rows = []
    # One worker call per case, serial or pooled; payloads and counters
    # come back in catalog order either way, so the rendered table is
    # byte-identical across --jobs values (modulo the timing column).
    heartbeat = runner.Heartbeat(
        "litmus", len(cases),
        is_failure=lambda payload: not payload["agree"],
    ) if getattr(args, "progress", False) else None
    sweep = runner.run_sweep(runner.litmus_case_worker,
                             [case.name for case in cases], jobs=jobs,
                             progress=heartbeat)
    if heartbeat is not None:
        heartbeat.finish()
    for payload, counters in sweep:
        row = {key: payload[key] for key in runner.LITMUS_ROW_KEYS}
        rows.append(row)
        mismatches += not row["agree"]
        incomplete = (",".join(row["incomplete_reasons"]) or "-"
                      if not row["complete"] else "-")
        if not as_json:
            print(f"{row['case']:36s} {row['expected']:9s} "
                  f"{row['measured']:9s} "
                  f"{'ok' if row['agree'] else 'MISMATCH':8s} {incomplete}")
        if not row["complete"]:
            incomplete_cases.append(
                (row["case"], tuple(row["incomplete_reasons"])))
        # Timing rows only under --stats: a graph-only session must not
        # pull wall-clock numbers into (byte-stable) stdout.
        if registry is not None and getattr(args, "stats", False):
            hits = counters.get("seq.game.dedup_hits", 0)
            explored = counters.get("seq.game.states", 0)
            rate = hits / (hits + explored) if hits + explored else 0.0
            case_stats.append((row["case"], row["game_states"], rate,
                               payload["time_s"]))
        if graph_stats:
            # Pure-integer counters flushed by the game's graph builder;
            # identical across --jobs values by construction, so this
            # block (unlike the timing table) is byte-stable.
            graph = (counters.get("graph.seq.game.states", 0),
                     counters.get("graph.seq.game.edges", 0),
                     counters.get("graph.seq.game.dedup_hits", 0),
                     counters.get("graph.seq.game.dedup_misses", 0))
            graph_rows.append((row["case"],) + graph)
            row["graph"] = {"states": graph[0], "edges": graph[1],
                            "dedup_hits": graph[2],
                            "dedup_misses": graph[3]}
    if as_json:
        print(json.dumps({"command": "litmus", "total": len(cases),
                          "mismatches": mismatches, "cases": rows},
                         indent=2))
    else:
        print(f"{len(cases) - mismatches}/{len(cases)} verdicts match")
    for name, reasons in incomplete_cases:
        _warn(f"case {name!r}: refinement game incomplete — exhausted "
              f"bounds: {', '.join(reasons) or 'unknown'}; its verdict "
              f"may be based on a truncated search")
    if case_stats and not as_json:
        print()
        print(f"{'case':36s} {'states':>8s} {'dedup%':>7s} {'time_ms':>9s}")
        for name, states, rate, elapsed in case_stats:
            print(f"{name:36s} {states:>8d} {rate * 100:>6.1f}% "
                  f"{elapsed * 1e3:>9.2f}")
    if graph_rows and not as_json:
        print()
        print(f"{'case':36s} {'gstates':>8s} {'gedges':>8s} "
              f"{'gdedup%':>8s}")
        totals = [0, 0, 0, 0]
        for name, states, edges, hits, misses in graph_rows:
            rate = hits / (hits + misses) if hits + misses else 0.0
            print(f"{name:36s} {states:>8d} {edges:>8d} "
                  f"{rate * 100:>7.1f}%")
            totals[0] += states
            totals[1] += edges
            totals[2] += hits
            totals[3] += misses
        total_rate = totals[2] / (totals[2] + totals[3]) \
            if totals[2] + totals[3] else 0.0
        print(f"{'TOTAL':36s} {totals[0]:>8d} {totals[1]:>8d} "
              f"{total_rate * 100:>7.1f}%")
    obs.event("result", command="litmus", cases=len(cases),
              mismatches=mismatches,
              incomplete=[name for name, _ in incomplete_cases],
              rows=rows)
    return 1 if mismatches else 0


def _cmd_adequacy(args: argparse.Namespace) -> int:
    source = _load(args.source)
    target = _load(args.target)
    config = PsConfig(allow_promises=False)
    report = check_adequacy(source, target, config=config,
                            jobs=getattr(args, "jobs", 1))
    print(f"SEQ verdict: {report.seq!r}")
    for result in report.contexts:
        status = "refines" if result.verdict.refines else "VIOLATES"
        print(f"  context {result.context.name:18s} {status}")
        if not result.verdict.complete:
            _warn(f"context {result.context.name!r}: PS^na exploration "
                  f"incomplete; its verdict is not exhaustive")
    for context in report.skipped:
        print(f"  context {context.name:18s} skipped (mixes location kinds)")
    print("adequate" if report.adequate else "ADEQUACY VIOLATION")
    obs.event("result", command="adequacy", adequate=report.adequate,
              seq_valid=report.seq.valid, seq_notion=report.seq.notion,
              contexts={r.context.name: r.verdict.refines
                        for r in report.contexts},
              skipped=[c.name for c in report.skipped])
    return 0 if report.adequate else 1


def _cmd_coverage(args: argparse.Namespace) -> int:
    """Run the coverage workload and print the per-rule firing table."""
    jobs = getattr(args, "jobs", 1)
    own_session = not obs.enabled()
    if own_session:
        obs.start()
    try:
        if jobs > 1 and args.litmus:
            # The targeted workloads are quick; the litmus catalog is the
            # bulk of the work and its cases are independent — fan them.
            obs_coverage.run_coverage_workload(litmus=False,
                                               extended=args.extended)
            cases = EXTENDED_CASES if args.extended \
                else ALL_TRANSFORMATION_CASES
            heartbeat = runner.Heartbeat("coverage", len(cases)) \
                if getattr(args, "progress", False) else None
            runner.run_sweep(runner.litmus_case_worker,
                             [case.name for case in cases], jobs=jobs,
                             progress=heartbeat)
            if heartbeat is not None:
                heartbeat.finish()
        else:
            obs_coverage.run_coverage_workload(litmus=args.litmus,
                                               extended=args.extended)
        snapshot = obs.metrics().snapshot()
    finally:
        if own_session:
            obs.stop()
    meta = {"command": "coverage", "litmus": args.litmus,
            "extended": args.extended}
    payload = obs_coverage.coverage_payload(snapshot, meta=meta)
    print(obs_coverage.render_coverage_table(payload))
    if args.json:
        obs_coverage.write_coverage_report(args.json, snapshot, meta=meta)
        print(f"coverage report written to {args.json}")
    obs.event("result", command="coverage", covered=payload["covered"],
              total=payload["total"], uncovered=payload["uncovered"])
    missing = payload["uncovered"]
    if missing:
        _warn(f"{len(missing)} rule(s) never fired: {', '.join(missing)}")
        return 1 if args.strict else 0
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Narrate a witness, a counterexample, or a recorded trace."""
    heartbeat = runner.Heartbeat("explain") \
        if getattr(args, "progress", False) else None
    if heartbeat is not None:
        # The witness search reports searched-state counts; every other
        # phase (game replay, trace rendering) has no internal hook, so
        # the ticker keeps the heartbeat alive regardless.
        heartbeat.start_ticker()
    witness_progress = heartbeat.update if heartbeat is not None else None
    try:
        if args.trace_file is not None:
            try:
                timeline = obs_explain.explain_trace(
                    args.trace_file, title=f"trace: {args.trace_file}")
            except OSError as error:
                print(f"repro: error: unreadable trace file: {error}",
                      file=sys.stderr)
                return 2
        elif args.case is not None:
            try:
                case = case_by_name(args.case)
            except KeyError:
                print(f"repro: error: unknown litmus case {args.case!r}",
                      file=sys.stderr)
                return 2
            verdict = check_transformation(case.source, case.target)
            measured = verdict.notion if verdict.valid else "invalid"
            print(f"case {case.name} ({case.paper_ref}): {measured}")
            if verdict.valid:
                timeline = obs_explain.explain_witness(
                    [case.target],
                    title=f"witness: {case.name} target-program execution",
                    progress=witness_progress)
            else:
                cex = (verdict.advanced.counterexample
                       if verdict.advanced is not None
                       else verdict.simple.counterexample)
                timeline = obs_explain.explain_counterexample(
                    case.source, case.target, cex,
                    title=f"counterexample: {case.name}")
        else:
            programs = [_load(argument) for argument in args.witness]
            timeline = obs_explain.explain_witness(
                programs, title=f"witness: {len(programs)} thread(s)",
                progress=witness_progress)
    finally:
        if heartbeat is not None:
            heartbeat.finish()
    print(obs_explain.render_text(timeline))
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(obs_explain.render_html(timeline))
        print(f"HTML page written to {args.html}")
    obs.event("result", command="explain", title=timeline.title,
              entries=len(timeline.entries))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a fuzz campaign, or replay one corpus entry."""
    from . import fuzz

    if args.replay is not None:
        return _fuzz_replay(args)
    result = fuzz.run_campaign(
        seed=args.seed, budget=args.budget, jobs=args.jobs,
        inject=args.inject_bug,
        corpus_dir=None if args.no_corpus else args.corpus,
        progress=getattr(args, "progress", False))
    print(result.summary())
    print(f"# campaign wall time: {result.elapsed_s:.1f}s", file=sys.stderr)
    obs.event("result", command="fuzz", seed=args.seed, budget=args.budget,
              inject=args.inject_bug, cases=result.cases,
              failures=len(result.failures),
              oracles=[f.oracle for f in result.failures])
    return 0 if result.ok else 1


def _fuzz_replay(args: argparse.Namespace) -> int:
    from . import fuzz

    try:
        entry = fuzz.load_entry(args.replay)
    except (OSError, ValueError) as error:
        print(f"repro: error: cannot replay: {error}", file=sys.stderr)
        return 2
    heartbeat = runner.Heartbeat(f"replay {args.replay}") \
        if getattr(args, "progress", False) else None
    if heartbeat is not None:
        # Replay runs each oracle once with no per-oracle callback; the
        # ticker still shows elapsed wall-clock for slow explorations.
        heartbeat.start_ticker()
    try:
        outcomes = fuzz.replay(entry)
        if heartbeat is not None:
            heartbeat.done = len(outcomes)
    finally:
        if heartbeat is not None:
            heartbeat.finish()
    failed = [o for o in outcomes if o.status == "fail"]
    for outcome in outcomes:
        detail = f" — {outcome.detail}" if outcome.detail else ""
        print(f"{outcome.oracle:20s} {outcome.status}{detail}")
    for outcome in outcomes:
        if outcome.status == "skip":
            _warn(f"oracle {outcome.oracle!r} skipped ({outcome.detail}); "
                  f"raise the exploration budgets to make it judge")
    verdict = "FAIL" if failed else "pass"
    print(f"replay {args.replay}: {verdict}")
    if args.explain:
        timeline = _fuzz_timeline(entry, failed)
        print()
        print(obs_explain.render_text(timeline))
    obs.event("result", command="fuzz", replay=args.replay,
              outcomes={o.oracle: o.status for o in outcomes})
    return 1 if failed else 0


def _fuzz_timeline(entry, failed):
    """An explainer timeline for a replayed corpus entry.

    A SEQ-refinement failure narrates the refinement-game
    counterexample; anything else narrates a PS^na witness execution of
    the recorded composition.
    """
    for outcome in failed:
        context = outcome.context or {}
        if context.get("counterexample") is not None:
            return obs_explain.explain_counterexample(
                context["source"], context["target"],
                context["counterexample"],
                title=f"counterexample: {entry.path} ({outcome.oracle})")
    return obs_explain.explain_witness(
        list(entry.threads),
        title=f"witness: {entry.path} ({len(entry.threads)} thread(s))")


def _cmd_attrib(args: argparse.Namespace) -> int:
    """Run a workload under attribution and print the hotspot table.

    ``main`` always opens the observability session with attribution on
    for this command, so the recorder is guaranteed here.
    """
    jobs = args.jobs
    if args.case is not None:
        try:
            case = case_by_name(args.case)
        except KeyError:
            print(f"repro: error: unknown litmus case {args.case!r}",
                  file=sys.stderr)
            return 2
        runner.run_sweep(runner.litmus_case_worker, [case.name], jobs=1)
    elif args.workload == "coverage":
        obs_coverage.run_coverage_workload(litmus=False, extended=False)
    else:
        cases = ALL_TRANSFORMATION_CASES
        runner.run_sweep(runner.litmus_case_worker,
                         [case.name for case in cases], jobs=jobs)
    recorder = obs.attribution()
    snapshot = obs.metrics().snapshot()
    payload = attrib_payload(recorder, snapshot["counters"],
                             meta={"command": "attrib",
                                   "workload": args.case or args.workload})
    print(render_attrib_table(payload, top=args.top))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"attribution payload written to {args.json}",
              file=sys.stderr)
    obs.event("result", command="attrib", frames=len(payload["frames"]),
              rules=len(payload["rules"]), total_s=payload["total_s"])
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Query a trace/event/graph artifact (see :mod:`repro.obs.query`)."""
    return obs_query.run(args)


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the persistent certification store."""
    import json as _json

    from .psna import certstore

    directory = args.dir if args.dir else certstore.resolve_dir()
    if directory is None:
        print("cert store disabled (REPRO_CACHE_DIR is off)")
        return 0 if args.action == "stats" else 2
    store = certstore.CertStore(directory)
    if args.action == "clear":
        removed = store.clear()
        print(f"cert store cleared: {removed} entries removed "
              f"from {directory}")
        return 0
    if args.action == "gc":
        result = store.gc(args.max_mb)
        print(f"cert store gc: {result['stale_segments']} stale "
              f"segment(s) reaped, {result['dropped_entries']} entries "
              f"dropped, {result['size_bytes'] / 1e6:.2f} MB on disk")
        return 0
    stats = store.stats()
    if args.json is not None:
        try:
            with open(args.json, "w") as handle:
                _json.dump(stats, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"repro: error: cannot write stats file: {error}",
                  file=sys.stderr)
            return 2
    print("-- cert store --")
    print(f"directory : {stats['directory']}")
    print(f"semantics : {stats['semantics']}")
    print(f"entries   : {stats['entries']}")
    print(f"segments  : {stats['segments']}")
    print(f"size      : {stats['size_bytes'] / 1e6:.2f} MB")
    runs = [r for r in stats["history"] if "hits" in r]
    if runs:
        last = runs[-1]
        consulted = last["hits"] + last["misses"]
        rate = last["hits"] / consulted if consulted else 0.0
        print(f"last run  : {last['hits']} hits / {last['misses']} misses "
              f"/ {last['writes']} writes ({rate * 100:.1f}% hit rate)")
    gcs = sum(1 for r in stats["history"] if r.get("event") == "gc")
    if gcs:
        print(f"gc events : {gcs}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification service until a shutdown request/signal."""
    from .serve.http import make_server, serve_forever
    from .serve.service import VerificationService

    heartbeat = runner.Heartbeat(
        "serve", is_failure=lambda status: status.get("state") == "failed",
    ) if getattr(args, "progress", False) else None
    service = VerificationService(
        jobs=args.jobs, store_dir=args.store,
        max_program_bytes=args.max_program_bytes, heartbeat=heartbeat)
    try:
        server = make_server(args.host, args.port, service,
                             verbose=getattr(args, "verbose", False))
    except OSError as error:
        service.shutdown(drain=False)
        print(f"repro: error: cannot bind {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"(jobs={service.jobs}, store="
          f"{service.store.directory if service.store else 'off'})",
          file=sys.stderr)
    if heartbeat is not None:
        # Ticker, not just per-job callbacks: an idle-but-alive service
        # must still tick on stderr like every other subcommand.
        heartbeat.start_ticker()
    serve_forever(server, ready_file=args.ready_file)
    if heartbeat is not None:
        heartbeat.finish()
    stats = service.stats()
    print(f"repro serve: drained — {stats['executed']} executed, "
          f"{stats['deduped']} deduped, {stats['failed']} failed",
          file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running service (submit / poll / stream / litmus)."""
    from .serve import client as svc

    base = args.base
    try:
        if args.action == "version":
            print(json.dumps(svc.request(base, "GET", "/v1/version"),
                             indent=2))
            return 0
        if args.action == "stats":
            path = "/v1/store/stats" if getattr(args, "store", False) \
                else "/v1/stats"
            print(json.dumps(svc.request(base, "GET", path), indent=2))
            return 0
        if args.action == "shutdown":
            svc.shutdown(base)
            print("service shutting down", file=sys.stderr)
            return 0
        if args.action == "submit":
            spec_text = args.spec
            if spec_text.startswith("@"):
                with open(spec_text[1:]) as handle:
                    spec_text = handle.read()
            try:
                spec = json.loads(spec_text)
            except ValueError as error:
                print(f"repro: error: job spec is not JSON: {error}",
                      file=sys.stderr)
                return 2
            submission = svc.submit(base, spec)
            job_id = submission["job"]
            if getattr(args, "stream_events", False):
                # The stream ran to stream-end: the job is finished.
                svc.stream_events(base, job_id)
                status = svc.request(base, "GET", f"/v1/jobs/{job_id}")
            elif getattr(args, "wait", False):
                status = svc.wait_job(base, job_id)
            else:
                print(json.dumps(submission, indent=2))
                return 0
            print(json.dumps(status, indent=2))
            return 0 if status.get("state") == "done" else 1
        if args.action == "status":
            print(json.dumps(svc.request(base, "GET",
                                         f"/v1/jobs/{args.job}"),
                             indent=2))
            return 0
        if args.action == "stream":
            svc.stream_events(base, args.job, since=args.since)
            return 0
        # litmus
        cache_stats: Optional[dict] = {} \
            if args.cache_stats_json is not None else None
        status = svc.run_litmus(base, extended=args.extended,
                                as_json=args.format == "json",
                                cache_stats=cache_stats)
        if args.cache_stats_json is not None:
            with open(args.cache_stats_json, "w") as handle:
                json.dump(cache_stats, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return status
    except svc.ServiceError as error:
        print(f"repro: service error: {error}", file=sys.stderr)
        return 2


def _cmd_top(args: argparse.Namespace) -> int:
    """Live ops view: poll ``/v1/stats`` + ``/v1/metrics`` and render a
    refreshing terminal table (curses-free — plain ANSI clear, or plain
    append when stdout is not a tty / ``--once``)."""
    from .serve import client as svc
    from .serve.metrics import render_top

    base = args.base
    iterations = 1 if args.once else args.iterations
    interval = max(0.1, args.interval)
    previous_requests: Optional[int] = None
    previous_time: Optional[float] = None
    rendered = 0
    refresh = (not args.once and sys.stdout.isatty())
    while True:
        try:
            stats = svc.request(base, "GET", "/v1/stats")
            metrics = svc.fetch_metrics(base, as_json=True)
        except svc.ServiceError as error:
            print(f"repro: service error: {error}", file=sys.stderr)
            return 2
        now = time.monotonic()
        requests = metrics.get("counters", {}).get("requests.total", 0)
        qps = None
        if previous_requests is not None and now > previous_time:
            qps = max(0.0, requests - previous_requests) \
                / (now - previous_time)
        previous_requests, previous_time = requests, now
        frame = render_top(stats, metrics, qps=qps, base=base)
        if refresh:
            # Clear screen + home, the whole curses we need.
            sys.stdout.write("\x1b[2J\x1b[H")
        sys.stdout.write(frame)
        sys.stdout.flush()
        rendered += 1
        if iterations and rendered >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


class _VersionAction(argparse.Action):
    """``--version``: package version plus run provenance, lazily.

    Provenance (git SHA, timestamp) is only computed when the flag is
    actually given — a plain ``version=`` string would shell out to git
    on every parser construction.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         help="print version and provenance, then exit")

    def __call__(self, parser, namespace, values, option_string=None):
        provenance = provenance_meta()
        print(f"repro {__version__}")
        print(f"  git sha    : {provenance.get('git_sha') or '(unknown)'}")
        print(f"  created at : {provenance.get('created_at')}")
        print(f"  python     : {provenance.get('python')}")
        print(f"  semantics  : {provenance.get('semantics')}")
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequential reasoning for optimizing compilers under "
                    "weak memory concurrency (PLDI 2022 reproduction)")
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument("--stats", action="store_true",
                       help="print a metrics table after the run")
    group.add_argument("--trace", metavar="FILE.jsonl", default=None,
                       help="export a JSONL trace of the run")
    group.add_argument("--profile", action="store_true",
                       help="print span timings and attribution hotspots "
                            "after the run")
    group.add_argument("--folded", metavar="FILE", default=None,
                       help="export attribution as folded stacks "
                            "(speedscope / flamegraph.pl input)")
    group.add_argument("--stream", metavar="FILE|-", default=None,
                       help="write a live repro-events/1 NDJSON stream "
                            "('-' for stdout); also arms the flight "
                            "recorder printed on crashes")
    group.add_argument("--graph", metavar="FILE.json", default=None,
                       help="record state-space graph telemetry and "
                            "write a repro-graph/1 report")
    group.add_argument("--graph-stats", action="store_true",
                       help="record graph telemetry and print the "
                            "aggregate statistics table")
    group.add_argument("--monitor", metavar="MODE", nargs="?",
                       const="strict", default=None,
                       help="check semantic invariants online: 'strict' "
                            "(every transition; the bare-flag default) or "
                            "'sample:N' (every Nth, and re-execute 1 in N "
                            "cache hits uncached); violations fail the "
                            "command")
    group.add_argument("--monitor-json", metavar="FILE", default=None,
                       help="write a repro-monitor/1 report "
                            "(implies --monitor strict)")
    group.add_argument("--monitor-inject", metavar="INVARIANT",
                       default=None,
                       help="inject a synthetic violation of one "
                            "invariant class — the canary proving the "
                            "detector fires (implies --monitor strict)")

    validate = sub.add_parser(
        "validate", parents=[common],
        help="check `source {~> target` in SEQ")
    validate.add_argument("source")
    validate.add_argument("target")
    validate.set_defaults(fn=_cmd_validate)

    optimize = sub.add_parser("optimize", parents=[common],
                              help="run the §4 optimizer")
    optimize.add_argument("program")
    optimize.add_argument("--validate", action="store_true",
                          help="translation-validate every pass")
    optimize.add_argument("-O2", "--extended", action="store_true",
                          help="include the extension passes")
    optimize.set_defaults(fn=_cmd_optimize)

    explore_cmd = sub.add_parser(
        "explore", parents=[common],
        help="enumerate behaviors of a parallel composition")
    explore_cmd.add_argument("programs", nargs="+")
    explore_cmd.add_argument("--machine", choices=("sc", "pf", "full"),
                             default="full")
    explore_cmd.add_argument("--promises", type=int, default=1,
                             help="promise budget per thread (full machine)")
    explore_cmd.add_argument("--max-states", type=int, default=200_000,
                             help="state bound for the exploration")
    explore_cmd.add_argument("--max-depth", type=int, default=400,
                             help="depth bound for the exploration")
    explore_cmd.set_defaults(fn=_cmd_explore)

    litmus = sub.add_parser(
        "litmus", parents=[common],
        help="regenerate the paper's verdict table")
    litmus.add_argument("--extended", action="store_true",
                        help="include the fence extension cases")
    litmus.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="table (default) or machine-readable JSON")
    litmus.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan cases across N worker processes "
                             "(1 = in-process; output is identical "
                             "modulo the timing column)")
    litmus.add_argument("--progress", action="store_true",
                        help="periodic one-line heartbeat on stderr")
    litmus.set_defaults(fn=_cmd_litmus)

    coverage = sub.add_parser(
        "coverage", parents=[common],
        help="report which operational rules the workload fired")
    coverage.add_argument("--litmus", action="store_true",
                          help="also run the transformation catalog")
    coverage.add_argument("--extended", action="store_true",
                          help="with --litmus: include the fence cases")
    coverage.add_argument("--json", metavar="FILE", default=None,
                          help="write a repro-coverage/1 report file")
    coverage.add_argument("--strict", action="store_true",
                          help="exit non-zero when any rule never fired")
    coverage.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="with --litmus: fan the catalog across N "
                               "worker processes")
    coverage.add_argument("--progress", action="store_true",
                          help="periodic one-line heartbeat on stderr "
                               "(pooled --litmus sweep only)")
    coverage.set_defaults(fn=_cmd_coverage)

    explain = sub.add_parser(
        "explain", parents=[common],
        help="narrate a witness, counterexample, or recorded trace")
    what = explain.add_mutually_exclusive_group(required=True)
    what.add_argument("--case", metavar="NAME", default=None,
                      help="explain a litmus case (witness if valid, "
                           "counterexample if not)")
    what.add_argument("--trace-file", metavar="FILE.jsonl", default=None,
                      help="render a recorded JSONL trace as a timeline")
    what.add_argument("--witness", metavar="PROGRAM", nargs="+",
                      default=None,
                      help="find and narrate a PS^na execution of the "
                           "parallel composition")
    explain.add_argument("--html", metavar="FILE.html", default=None,
                         help="also write a self-contained HTML page")
    explain.add_argument("--progress", action="store_true",
                         help="periodic one-line heartbeat on stderr "
                              "(states searched, elapsed)")
    explain.set_defaults(fn=_cmd_explain)

    adequacy = sub.add_parser(
        "adequacy", parents=[common],
        help="differentially test Theorem 6.2 on a pair")
    adequacy.add_argument("source")
    adequacy.add_argument("target")
    adequacy.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="fan the context library across N worker "
                               "processes")
    adequacy.set_defaults(fn=_cmd_adequacy)

    from .fuzz.bugs import INJECT_CHOICES
    from .fuzz.corpus import DEFAULT_CORPUS_DIR

    fuzz_cmd = sub.add_parser(
        "fuzz", parents=[common],
        help="differentially fuzz the machines, checkers, and optimizer")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="master seed of the campaign (case i runs "
                               "with seed*1000003+i)")
    fuzz_cmd.add_argument("--budget", type=int, default=100, metavar="N",
                          help="number of generated cases")
    fuzz_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="fan cases across N worker processes "
                               "(summary is identical across values)")
    fuzz_cmd.add_argument("--corpus", metavar="DIR",
                          default=DEFAULT_CORPUS_DIR,
                          help="where minimized failures are written "
                               f"(default: {DEFAULT_CORPUS_DIR})")
    fuzz_cmd.add_argument("--no-corpus", action="store_true",
                          help="do not write failure repro files")
    fuzz_cmd.add_argument("--inject-bug", choices=INJECT_CHOICES,
                          default="none",
                          help="swap a known-broken pass into the "
                               "pipeline (validates the fuzzer itself)")
    fuzz_cmd.add_argument("--replay", metavar="FILE.repro", default=None,
                          help="re-run every oracle of one corpus entry "
                               "instead of fuzzing")
    fuzz_cmd.add_argument("--explain", action="store_true",
                          help="with --replay: narrate a witness or "
                               "counterexample timeline")
    fuzz_cmd.add_argument("--progress", action="store_true",
                          help="periodic one-line heartbeat on stderr "
                               "(cases done, failures, elapsed)")
    fuzz_cmd.set_defaults(fn=_cmd_fuzz)

    attrib = sub.add_parser(
        "attrib", parents=[common],
        help="attribute wall-time to phases and semantic rules")
    what = attrib.add_mutually_exclusive_group()
    what.add_argument("--case", metavar="NAME", default=None,
                      help="attribute one litmus case by name")
    what.add_argument("--workload", choices=("litmus", "coverage"),
                      default="litmus",
                      help="attribute a whole workload (default: litmus)")
    attrib.add_argument("--top", type=int, default=20, metavar="N",
                        help="hotspot rows to print (default: 20)")
    attrib.add_argument("--json", metavar="FILE", default=None,
                        help="write the repro-attrib/1 payload")
    attrib.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the workload across N worker processes "
                             "(stack set is identical across values)")
    attrib.set_defaults(fn=_cmd_attrib)

    query = sub.add_parser(
        "query",
        help="filter/aggregate trace, event, and graph artifacts")
    query.add_argument("artifact", help="path to the artifact file")
    query.add_argument("--kind",
                       help="filter: event kind (ev field); the value "
                            "'metrics' instead forces reading the "
                            "artifact as repro-servemetrics/1 "
                            "(auto-detected otherwise)")
    query.add_argument("--span", help="filter: span/name field")
    query.add_argument("--rule", help="filter: rule id substring")
    query.add_argument("--case", type=int,
                       help="filter: sweep case index (merged streams)")
    query.add_argument("--top", type=int, metavar="N",
                       help="aggregate: N most frequent values of --by")
    query.add_argument("--by", default="rules",
                       help="aggregate field for --top (default: rules)")
    query.add_argument("--graph-name",
                       help="graph to query in a multi-graph report "
                            "(default: the only/first one)")
    query.add_argument("--path-to", metavar="SELECTOR",
                       help="extract a witness path to the first node "
                            "whose flag equals or label contains SELECTOR")
    query.add_argument("--limit", type=int, default=50,
                       help="max filtered lines to print (default: 50)")
    query.add_argument("--follow", action="store_true",
                       help="tail-follow a live repro-events/1 NDJSON "
                            "stream: print matching events as they are "
                            "appended; exits when the writer closes the "
                            "stream or it goes idle")
    query.add_argument("--poll", type=float, default=0.2, metavar="S",
                       help="with --follow: poll interval in seconds "
                            "(default: 0.2)")
    query.add_argument("--idle-timeout", type=float, default=5.0,
                       metavar="S",
                       help="with --follow: exit after S seconds without "
                            "new data (default: 5.0)")
    query.set_defaults(fn=_cmd_query)

    cache = sub.add_parser(
        "cache",
        help="inspect/maintain the persistent certification store")
    cache.add_argument("action", choices=("stats", "clear", "gc"),
                       help="stats: summary; clear: drop all entries; "
                            "gc: reap stale segments and enforce a size "
                            "cap")
    cache.add_argument("--json", metavar="FILE", default=None,
                       help="with stats: also write the summary as JSON "
                            "(repro-certstore/1)")
    cache.add_argument("--max-mb", type=float, default=64.0,
                       help="with gc: on-disk size cap in MB "
                            "(default: 64)")
    cache.add_argument("--dir", default=None,
                       help="store directory (default: REPRO_CACHE_DIR "
                            "or .repro-cache)")
    cache.set_defaults(fn=_cmd_cache)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the HTTP/JSON verification service")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8642,
                           help="bind port; 0 picks a free one "
                                "(default: 8642)")
    serve_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes draining the job queue "
                                "(1 = in-process execution)")
    serve_cmd.add_argument("--store", default=None, metavar="DIR",
                           help="verdict/cert store directory (default: "
                                "REPRO_CACHE_DIR or .repro-cache)")
    serve_cmd.add_argument("--max-program-bytes", type=int,
                           default=65536, metavar="N",
                           help="reject programs larger than N bytes "
                                "with 413 (default: 65536)")
    serve_cmd.add_argument("--ready-file", default=None, metavar="FILE",
                           help="write the bound base URL here once "
                                "listening (CI handshake)")
    serve_cmd.add_argument("--progress", action="store_true",
                           help="periodic one-line heartbeat on stderr")
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every HTTP request to stderr")
    serve_cmd.set_defaults(fn=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="talk to a running verification service")
    client.add_argument("--base", default="http://127.0.0.1:8642",
                        help="service base URL "
                             "(default: http://127.0.0.1:8642)")
    csub = client.add_subparsers(dest="action", required=True)
    csub.add_parser("version", help="GET /v1/version")
    cstats = csub.add_parser("stats", help="service (or store) stats")
    cstats.add_argument("--store", action="store_true",
                        help="the verdict store stats instead")
    csubmit = csub.add_parser("submit", help="submit one job spec")
    csubmit.add_argument("spec",
                         help="job spec as inline JSON, or @FILE")
    csubmit.add_argument("--wait", action="store_true",
                         help="block until the job ends and print the "
                              "verdict")
    # dest avoids the observability --stream FILE flag: _dispatch probes
    # args.stream for a path and a bare bool must never reach it.
    csubmit.add_argument("--stream", action="store_true",
                         dest="stream_events",
                         help="copy the job's NDJSON event stream to "
                              "stdout, then print the verdict")
    cstatus = csub.add_parser("status", help="GET /v1/jobs/<id>")
    cstatus.add_argument("job")
    cstream = csub.add_parser("stream",
                              help="copy a job's NDJSON event stream")
    cstream.add_argument("job")
    cstream.add_argument("--since", type=int, default=0,
                         help="start at event index N (default: 0)")
    clitmus = csub.add_parser(
        "litmus",
        help="the litmus table via the service (byte-identical to "
             "`repro litmus`)")
    clitmus.add_argument("--extended", action="store_true",
                         help="include the fence extension cases")
    clitmus.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="table (default) or machine-readable JSON")
    clitmus.add_argument("--cache-stats-json", default=None,
                         metavar="FILE",
                         help="write batch cache accounting (total, "
                              "cached, hit_rate) as JSON — the CI warm "
                              "gate input")
    csub.add_parser("shutdown", help="drain in-flight jobs and stop")
    client.set_defaults(fn=_cmd_client)

    top = sub.add_parser(
        "top",
        help="live ops view of a running service (QPS, hit rate, "
             "latency percentiles, queue depth)")
    top.add_argument("--base", default="http://127.0.0.1:8642",
                     help="service base URL "
                          "(default: http://127.0.0.1:8642)")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval in seconds (default: 2.0)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N frames (default: 0 = until "
                          "interrupted)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen "
                          "clearing; CI- and pipe-friendly)")
    top.set_defaults(fn=_cmd_top)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, bind the persistent cert store, dispatch, unbind.

    Every verdict-producing subcommand runs with the store bound (one
    open per process; spawn workers re-open it via the runner's pool
    initializer); ``query`` and ``cache`` manage artifacts rather than
    producing verdicts, so they run unbound — ``cache`` in particular
    must observe the store without appending a history record.
    """
    args = build_parser().parse_args(argv)
    store = None
    # `client`/`top` talk HTTP only — the *service* process owns the
    # store.
    if args.command not in ("query", "cache", "client", "top"):
        from .psna import certstore

        store = certstore.bind(certstore.open_default())
    try:
        return _dispatch(args)
    finally:
        if store is not None:
            certstore.unbind()
            store.close()


def _dispatch(args: argparse.Namespace) -> int:
    profile = getattr(args, "profile", False)
    folded = getattr(args, "folded", None)
    stats = getattr(args, "stats", False)
    trace = getattr(args, "trace", None)
    stream = getattr(args, "stream", None)
    graph_file = getattr(args, "graph", None)
    monitor_spec = getattr(args, "monitor", None)
    monitor_json = getattr(args, "monitor_json", None)
    monitor_inject = getattr(args, "monitor_inject", None)
    if monitor_spec is None and (monitor_json is not None
                                 or monitor_inject is not None):
        monitor_spec = "strict"
    checker = None
    if monitor_spec is not None:
        from .obs.monitor import INVARIANTS, Monitor

        try:
            checker = Monitor.from_spec(monitor_spec)
        except ValueError as error:
            print(f"repro: error: {error}", file=sys.stderr)
            return 2
        if monitor_inject is not None and monitor_inject not in INVARIANTS:
            print(f"repro: error: unknown invariant class "
                  f"{monitor_inject!r}; choices: "
                  + ", ".join(sorted(INVARIANTS)), file=sys.stderr)
            return 2
    wants_attrib = (profile or folded is not None
                    or args.command == "attrib")
    wants_graph = graph_file is not None \
        or getattr(args, "graph_stats", False)
    wants_obs = (stats or trace is not None or wants_attrib
                 or wants_graph or stream is not None
                 or checker is not None)
    if not wants_obs:
        return args.fn(args)
    for path, what in ((trace, "trace"), (graph_file, "graph report"),
                       (stream if stream != "-" else None, "stream"),
                       (monitor_json, "monitor report")):
        if path is None:
            continue
        try:
            open(path, "w").close()
        except OSError as error:
            print(f"repro: error: cannot write {what} file: {error}",
                  file=sys.stderr)
            return 2
    meta = {"command": args.command}
    with obs.session(trace=trace, meta=meta, attrib=wants_attrib,
                     graph=wants_graph,
                     stream=stream, monitor=checker) as session:
        try:
            if checker is not None and monitor_inject is not None:
                # Canary: inject before the command so its violation is
                # visible to the command's own shrink-on-violation hook.
                from .obs.monitor import inject_violation

                inject_violation(checker, monitor_inject)
            status = args.fn(args)
        except BaseException:
            # The flight recorder's whole point: a crashed or
            # interrupted run still says where it was.
            if session.events is not None:
                print(render_flight(session.events.flight_dump()),
                      file=sys.stderr)
            raise
        snapshot = session.metrics.snapshot()
        frames = session.attrib.frames if session.attrib else {}
        recorder = session.graph
    if stats:
        print(render_stats_table(
            stats_payload(snapshot, meta=meta),
            title=f"stats: repro {args.command}"), file=sys.stderr)
    if profile:
        print(render_profile(snapshot,
                             title=f"profile: repro {args.command}"),
              file=sys.stderr)
    if wants_attrib and (frames or folded is not None):
        payload = attrib_payload(frames, snapshot["counters"],
                                 meta=meta)
        if profile and frames:
            print(render_attrib_table(
                payload, title=f"attribution: repro {args.command}"),
                file=sys.stderr)
        if folded is not None:
            try:
                write_folded(folded, payload)
            except OSError as error:
                print(f"repro: error: cannot write folded stacks: {error}",
                      file=sys.stderr)
                return 2
            print(f"folded stacks written to {folded}",
                  file=sys.stderr)
    if recorder is not None:
        if getattr(args, "graph_stats", False):
            # Stats only (no timings, no elements): byte-identical
            # across --jobs values.
            print(render_graph_table(
                graph_payload(recorder, include_elements=False)))
        if graph_file is not None:
            try:
                write_graph_report(graph_file, recorder,
                                   meta={**meta, **provenance_meta()})
            except OSError as error:
                print(f"repro: error: cannot write graph report: {error}",
                      file=sys.stderr)
                return 2
            print(f"graph report written to {graph_file}",
                  file=sys.stderr)
    if checker is not None:
        from .obs.monitor import (
            monitor_payload,
            render_monitor_table,
            write_monitor_report,
        )

        # Counts and deterministic witness details only: byte-identical
        # across --jobs values, same discipline as --graph-stats above.
        print(render_monitor_table(monitor_payload(checker)))
        if monitor_json is not None:
            try:
                write_monitor_report(monitor_json, checker,
                                     meta={**meta, **provenance_meta()})
            except OSError as error:
                print(f"repro: error: cannot write monitor report: "
                      f"{error}", file=sys.stderr)
                return 2
            print(f"monitor report written to {monitor_json}",
                  file=sys.stderr)
        if checker.total_violations() and status == 0:
            print(f"repro: monitor: {checker.total_violations()} "
                  f"invariant violation(s) — see the table above",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
