"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — registered topologies and their parameters.
* ``build KIND --params k=v…`` — build a topology, print its summary and
  validate the structural invariants.  ``--fast`` compiles straight to
  CSR arrays through the vectorized constructors (``--memmap DIR`` backs
  them with files, ``--trace PATH`` records the build spans) — this is
  the way to summarise 10^5–10^6-server instances in seconds.
* ``route KIND --params … SRC DST`` — print the native route between two
  servers (server indexes or names).
* ``export KIND --params … --format json|graphml|dot OUT`` — serialise a
  built topology.
* ``verify FILE [--params n=…,k=…,s=…]`` — load a JSON network and check
  ABCCC conformance (parameters inferred when omitted).
* ``sweep KIND --params … [--sample N] [--workers N]`` —
  distance sweep straight on the compiled CSR graph
  (:func:`repro.metrics.engine.sweep_graph_distance_stats`): no
  ``Network`` object is ever built, so million-server instances fit.
  ``--sample N`` sweeps N sources (mean carries a 95% CI; exact when
  omitted and small).
* ``manifest KIND --params …`` — print the deployment manifest (rack
  BOMs + cable schedule).
* ``experiments`` — list the evaluation suite.
* ``run EXP_ID|all [--quick] [--out DIR] [--workers N] [--resume]
  [--timeout S] [--trace [PATH]] [--profile]`` — regenerate
  tables/figures; ``--workers`` fans sweeps out over processes,
  ``--resume`` replays the trial journal an interrupted run left
  behind, ``--timeout`` bounds each experiment's wall clock (the
  journal survives a timeout, so ``--resume`` finishes the run),
  ``--trace`` writes a JSONL span trace (``repro.obs``) and
  ``--profile`` dumps a cProfile per experiment.
* ``serve KIND --params … [--port N | --unix PATH] [--workers N]`` —
  the always-on topology query daemon: compiles the graph once and
  answers ``/route``, ``/distance`` and ``/whatif`` queries over HTTP
  until SIGTERM drains it (see docs/OPERATIONS.md).
* ``obs report TRACE… [--slowest N] [--trace-id ID]`` — per-phase
  wall-time breakdown, slowest spans, worker utilization, cache hit
  rates and peak RSS of one or more trace files; ``--trace-id``
  stitches one request's client/queue/worker spans into a tree
  (see docs/OBSERVABILITY.md).  Empty traces print ``no events``
  and exit 0.
* ``obs tail TRACE [--poll S] [--timeout S]`` — follow a live trace
  file, one rendered line per span/event (pool and serve workers'
  events included, as their tasks and replies come home).

Error handling contract: user-level mistakes — unknown topology kind,
malformed ``--param``, a ``--memmap`` path that is not a usable
directory, a missing input file — exit with status **2** and a
one-line ``repro: error: …`` message on stderr, never a traceback
(``REPRO_DEBUG=1`` re-raises for debugging).  Argparse's own usage
errors also exit 2, so scripts can treat 2 uniformly as "bad
invocation".
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.topology.registry import available, create, spec_class
from repro.topology.validate import find_problems


class CliError(Exception):
    """A user-facing CLI mistake: one-line stderr message, exit code 2."""


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"bad parameter {pair!r}; expected name=value")
        name, _, value = pair.partition("=")
        try:
            params[name] = int(value)
        except ValueError:
            raise CliError(f"parameter {name!r} must be an integer, got {value!r}")
    return params


def _cmd_list(_: argparse.Namespace) -> int:
    import inspect

    for kind in available():
        cls = spec_class(kind)
        signature = inspect.signature(cls.__init__)
        params = [p for p in signature.parameters if p != "self"]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{kind:<10} params: {', '.join(params):<12} {doc}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    spec = create(args.kind, **_parse_params(args.param))
    if getattr(args, "fast", False):
        return _build_fast(spec, args)
    net = spec.build()
    problems = find_problems(net, spec.link_policy())
    print(f"{spec.label}: {net.num_servers} servers, {net.num_switches} switches, "
          f"{net.num_links} links")
    print(f"  server ports: {spec.server_ports}, switch ports: {spec.switch_ports}")
    print(f"  diameter: {spec.diameter_server_hops} server hops / "
          f"{spec.diameter_link_hops} link hops (analytic)")
    if spec.bisection_links is not None:
        print(f"  bisection: {spec.bisection_links:g} links")
    if problems:
        print("  INVALID:")
        for problem in problems:
            print(f"    - {problem}")
        return 1
    print("  structural invariants: OK")
    return 0


#: the spans of ``spec.compiled``: a vectorized build, or an object
#: build and its compile.
_COMPILE_PHASES = ("topology.fastbuild", "topology.build", "topology.compile")


def _seconds(scope, names: Sequence[str]) -> float:
    """Total seconds of the named spans in a run scope."""
    phases = scope.phases()
    return sum(phases[name][1] for name in names if name in phases)


def _build_fast(spec, args: argparse.Namespace) -> int:
    """``build --fast``: direct-to-CSR compile, no object graph.

    Goes through the :func:`repro.topology.compiled.build_compiled`
    seam, so families without a vectorized constructor still work (the
    summary says which path ran, and the compile time includes their
    object build).  ``--memmap DIR`` backs the arrays with files there;
    ``--trace PATH`` writes the span trace.
    """
    from repro import obs
    from repro.topology.fastbuild import FastCompiledGraph, csr_nbytes

    with obs.run(args.trace, command="build", instance=spec.label) as scope:
        graph = spec.compiled(memmap_dir=args.memmap)
    path = "fastbuild" if isinstance(graph, FastCompiledGraph) else "object graph"
    switches = graph.num_nodes - graph.num_servers
    print(f"{spec.label}: {graph.num_servers} servers, {switches} switches, "
          f"{graph.num_edges} links ({path})")
    print(f"  compiled in {_seconds(scope, _COMPILE_PHASES):.3f}s, "
          f"CSR {csr_nbytes(graph) / 1e6:.1f} MB")
    rss = obs.peak_rss_mb()
    if rss is not None:
        print(f"  peak RSS: {rss:.1f} MB")
    if args.memmap:
        print(f"  arrays memory-mapped under {args.memmap}")
    if args.trace:
        print(f"  trace written to {args.trace}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``: graph-native distance stats, no ``Network`` built."""
    from repro import obs
    from repro.metrics.engine import sweep_graph_distance_stats

    spec = create(args.kind, **_parse_params(args.param))
    with obs.run(args.trace, command="sweep", instance=spec.label) as scope:
        graph = spec.compiled(memmap_dir=args.memmap)
        stats = sweep_graph_distance_stats(
            graph,
            sample_sources=args.sample,
            seed=args.seed,
            workers=args.workers,
            label=spec.label,
        )
    switches = graph.num_nodes - graph.num_servers
    print(f"{spec.label}: {graph.num_servers} servers, {switches} switches")
    mean = f"{stats.mean:.4f}"
    if not stats.exact and stats.mean_ci95:
        mean += f" ± {stats.mean_ci95:.4f} (95% CI)"
    mode = "exact" if stats.exact else "sampled"
    bound = "diameter" if stats.exact else "diameter >="
    print(f"  {bound} {stats.diameter} link hops, mean {mean} "
          f"({mode}, {stats.pairs} pairs)")
    print(f"  compile {_seconds(scope, _COMPILE_PHASES):.3f}s, "
          f"sweep {_seconds(scope, ['engine.sweep']):.3f}s")
    rss = obs.peak_rss_mb()
    if rss is not None:
        print(f"  peak RSS: {rss:.1f} MB")
    if args.trace:
        print(f"  trace written to {args.trace}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    spec = create(args.kind, **_parse_params(args.param))
    net = spec.build()
    servers = net.servers

    def resolve(token: str) -> str:
        if token in net:
            return token
        try:
            return servers[int(token)]
        except (ValueError, IndexError):
            raise CliError(f"{token!r} is neither a server name nor an index")

    src, dst = resolve(args.src), resolve(args.dst)
    route = spec.route(net, src, dst)
    route.validate(net)
    print(" -> ".join(route.nodes))
    print(f"{route.link_hops} link hops, {route.server_hops(net)} server hops")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.topology.serialize import save_graphml, save_json, to_dot

    spec = create(args.kind, **_parse_params(args.param))
    net = spec.build()
    if args.format == "json":
        save_json(net, args.out)
    elif args.format == "graphml":
        save_graphml(net, args.out)
    else:
        with open(args.out, "w") as handle:
            handle.write(to_dot(net))
    print(f"wrote {spec.label} ({len(net)} nodes, {net.num_links} links) "
          f"as {args.format} to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.address import AbcccParams
    from repro.core.conformance import conformance_problems, infer_params
    from repro.topology.serialize import load_json

    net = load_json(args.file)
    if args.param:
        params_dict = _parse_params(args.param)
        params = AbcccParams(params_dict["n"], params_dict["k"], params_dict["s"])
        problems = conformance_problems(net, params)
        if problems:
            print(f"FAIL: not ABCCC(n={params.n}, k={params.k}, s={params.s})")
            for problem in problems[:10]:
                print(f"  - {problem}")
            return 1
        print(f"OK: network conforms to ABCCC(n={params.n}, k={params.k}, s={params.s})")
        return 0
    try:
        params = infer_params(net)
    except ValueError as error:
        print(f"FAIL: {error}")
        return 1
    print(f"OK: network verified as ABCCC(n={params.n}, k={params.k}, s={params.s})")
    return 0


def _cmd_manifest(args: argparse.Namespace) -> int:
    from repro.deploy import build_manifest
    from repro.metrics.layout import LayoutConfig

    spec = create(args.kind, **_parse_params(args.param))
    net = spec.build()
    config = LayoutConfig(rack_capacity=args.rack_capacity)
    manifest = build_manifest(net, config)
    if args.json:
        import json

        print(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
    else:
        print(manifest.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import topology_report

    spec = create(args.kind, **_parse_params(args.param))
    print(topology_report(spec, max_measure_nodes=args.max_measure_nodes))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import Requirements, plan

    req = Requirements(
        min_servers=args.min_servers,
        max_servers=args.max_servers,
        max_nic_ports=args.max_nic_ports,
        switch_radix=args.switch_radix,
        min_bisection_per_server=args.min_bisection,
        max_diameter=args.max_diameter,
        expansion_headroom=args.headroom,
    )
    candidates = plan(req)
    if not candidates:
        print("no feasible ABCCC configuration for these requirements")
        return 1
    header = (
        f"{'configuration':<26} {'servers':>8} {'diam':>5} "
        f"{'bisect/srv':>11} {'$/server':>9}  pareto"
    )
    print(header)
    print("-" * len(header))
    for candidate in candidates[: args.limit]:
        bisect = (
            f"{candidate.bisection_per_server:.3f}"
            if candidate.bisection_per_server is not None
            else "-"
        )
        print(
            f"{candidate.label:<26} {candidate.servers:>8} {candidate.diameter:>5} "
            f"{bisect:>11} {candidate.capex_per_server:>9,.0f}  "
            f"{'*' if candidate.pareto else ''}"
        )
    if len(candidates) > args.limit:
        print(f"… {len(candidates) - args.limit} more (raise --limit)")
    return 0


def _cmd_experiments(_: argparse.Namespace) -> int:
    from repro.experiments import all_experiments

    for experiment in all_experiments():
        print(f"{experiment.exp_id:<4} {experiment.title}")
        print(f"     expect: {experiment.expectation}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import run_all, run_experiment

    if args.exp_id.lower() == "all":
        run_all(
            quick=args.quick,
            out_dir=args.out,
            workers=args.workers,
            resume=args.resume,
            timeout=args.timeout,
            trace=args.trace,
            profile=args.profile or None,
        )
    else:
        run_experiment(
            args.exp_id,
            quick=args.quick,
            out_dir=args.out,
            workers=args.workers,
            resume=args.resume,
            timeout=args.timeout,
            trace=args.trace,
            profile=args.profile or None,
        )
    return 0


#: matrix families accepted by ``repro traffic`` — kept in lockstep with
#: repro.traffic.MATRICES (asserted by the test suite) so building the
#: parser does not import numpy.
TRAFFIC_PATTERNS = ("all_to_all", "hot_rack", "incast", "job", "permutation", "uniform")

#: --faults classes, mapped onto random_index_failures keywords.
_FAULT_CLASSES = {
    "server": "server_fraction",
    "switch": "switch_fraction",
    "link": "link_fraction",
}


def _parse_matrix_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """``NAME=VALUE`` generator overrides; ints stay ints (counts), the
    rest must parse as floats (fractions)."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"bad matrix parameter {pair!r}; expected name=value")
        name, _, value = pair.partition("=")
        try:
            params[name] = int(value)
        except ValueError:
            try:
                params[name] = float(value)
            except ValueError:
                raise CliError(
                    f"matrix parameter {name!r} must be a number, got {value!r}"
                )
    return params


def _parse_faults(text: Optional[str]) -> Dict[str, float]:
    """``server=0.02,switch=0.01,link=0.005`` -> fault-plan fractions."""
    fractions: Dict[str, float] = {}
    if not text:
        return fractions
    for item in text.split(","):
        if "=" not in item:
            raise CliError(f"bad --faults item {item!r}; expected class=fraction")
        name, _, value = item.partition("=")
        key = _FAULT_CLASSES.get(name.strip())
        if key is None:
            raise CliError(
                f"unknown fault class {name!r}; expected one of "
                f"{', '.join(sorted(_FAULT_CLASSES))}"
            )
        try:
            fractions[key] = float(value)
        except ValueError:
            raise CliError(f"fault fraction for {name!r} must be a number, got {value!r}")
    return fractions


def _cmd_traffic(args: argparse.Namespace) -> int:
    """``traffic``: flow-level max-min engine on the compiled graph."""
    import json
    import re

    from repro import obs
    from repro.experiments.harness import write_runtimes
    from repro.faults.journal import journaled
    from repro.pool import resolve_workers
    from repro.traffic import run_traffic

    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    spec = create(args.kind, **_parse_params(args.param))
    matrix_params = _parse_matrix_params(args.matrix_param)
    fault_fractions = _parse_faults(args.faults)

    slug = re.sub(r"[^A-Za-z0-9._-]+", "", spec.label)
    journal_file = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        journal_file = os.path.join(args.out, f"traffic-{slug}.journal.jsonl")

    with journaled(journal_file, args.resume):
        with obs.run(
            args.trace, command="traffic", instance=spec.label, pattern=args.pattern
        ) as scope:
            graph = spec.compiled(memmap_dir=args.memmap)
            table = run_traffic(
                graph,
                spec.label,
                args.pattern,
                trials=args.trials,
                seed=args.seed,
                pattern_params=matrix_params,
                fault_fractions=fault_fractions,
                fault_seed=args.fault_seed,
                fct=args.fct,
                workers=args.workers,
            )
        print(table.render())
        print(f"  compile {_seconds(scope, _COMPILE_PHASES):.3f}s, "
              f"trials {_seconds(scope, ['traffic.run']):.3f}s")
        rss = obs.peak_rss_mb()
        if rss is not None:
            print(f"  peak RSS: {rss:.1f} MB")
        if args.out:
            csv_path = os.path.join(args.out, f"traffic_{slug}_{args.pattern}.csv")
            table.to_csv(csv_path)
            write_runtimes(
                args.out,
                f"traffic:{spec.label}:{args.pattern}",
                False,
                resolve_workers(args.workers),
                scope.phases(),
            )
            print(f"  rows written to {csv_path}")
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                json.dump(scope.registry.snapshot(), handle, indent=2)
            print(f"  metrics snapshot written to {args.metrics}")
        if args.trace:
            print(f"  trace written to {args.trace}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the always-on topology query daemon (docs/OPERATIONS.md)."""
    from repro import obs
    from repro.serve import Daemon, ServeConfig, TopologyService

    if args.workers < 0:
        raise CliError(f"--workers must be >= 0, got {args.workers}")
    if args.queue < 1:
        raise CliError(f"--queue must be >= 1, got {args.queue}")
    if args.deadline_ms < 1:
        raise CliError(f"--deadline-ms must be >= 1, got {args.deadline_ms}")
    if args.memmap is not None and os.path.exists(args.memmap) and not os.path.isdir(args.memmap):
        raise CliError(f"--memmap {args.memmap!r} exists and is not a directory")
    spec = create(args.kind, **_parse_params(args.param))
    config = ServeConfig(
        workers=args.workers,
        queue_bound=args.queue,
        default_deadline_s=args.deadline_ms / 1000.0,
        hang_timeout_s=args.hang_timeout,
        drain_timeout_s=args.drain_timeout,
        scenario_cache=args.scenario_cache,
    )
    with obs.run(args.trace, command="serve", instance=spec.label):
        graph = spec.compiled(memmap_dir=args.memmap)
        service = TopologyService(graph, config, label=spec.label)
        daemon = Daemon(
            service,
            host=args.host,
            port=args.port,
            unix=args.unix,
            ready_file=args.ready_file,
        )
        switches = graph.num_nodes - graph.num_servers
        print(
            f"{spec.label}: serving {graph.num_servers} servers / {switches} switches "
            f"on {daemon.front.endpoint} (pid {os.getpid()}, "
            f"{config.workers or 'inline'} workers)",
            flush=True,
        )
        code = daemon.run()
        print("drained and stopped", flush=True)
    if args.trace:
        print(f"trace written to {args.trace}", flush=True)
    return code


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_trace, report_files, report_trace_id

    # An empty or not-yet-written trace is a normal operational state
    # (the daemon just started, the run produced nothing): report it as
    # "no events", exit 0, so dashboards and scripts don't page on it.
    present = [path for path in args.trace if os.path.exists(path)]
    events = []
    for path in present:
        events.extend(load_trace(path))
    if not events:
        print("no events")
        return 0
    if args.trace_id:
        text, count = report_trace_id(args.trace, args.trace_id)
        if count == 0:
            print("no events")
            return 0
        print(text)
        return 0
    print(report_files(present, slowest=args.slowest))
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.report import follow_trace, render_tail_event

    try:
        for event in follow_trace(
            args.trace,
            poll_s=args.poll,
            timeout_s=args.timeout,
            max_events=args.max_events,
        ):
            line = render_tail_event(event)
            if line is not None:
                print(line, flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ABCCC (ICDCS 2015) reproduction: topologies, routing, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered topologies").set_defaults(fn=_cmd_list)

    build = sub.add_parser("build", help="build and summarise a topology")
    build.add_argument("kind", choices=available())
    build.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    build.add_argument(
        "--fast",
        action="store_true",
        help="compile straight to CSR arrays (vectorized, no object graph)",
    )
    build.add_argument(
        "--memmap",
        default=None,
        metavar="DIR",
        help="with --fast: back the CSR arrays with memory-mapped files in DIR",
    )
    build.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="with --fast: write a JSONL span trace of the build",
    )
    build.set_defaults(fn=_cmd_build)

    sweep = sub.add_parser(
        "sweep", help="distance sweep on the compiled graph (no Network)"
    )
    sweep.add_argument("kind", choices=available())
    sweep.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    sweep.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="sweep N sampled sources (default: exact below the auto-sample "
        "threshold, 1024 sources above)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="source-sampling seed")
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for the sweep (0 = all cores; default 1)",
    )
    sweep.add_argument(
        "--memmap",
        default=None,
        metavar="DIR",
        help="back the CSR arrays with memory-mapped files in DIR",
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span trace of compile + sweep",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    route = sub.add_parser("route", help="route between two servers")
    route.add_argument("kind", choices=available())
    route.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    route.add_argument("src", help="server name or index")
    route.add_argument("dst", help="server name or index")
    route.set_defaults(fn=_cmd_route)

    export = sub.add_parser("export", help="serialise a built topology")
    export.add_argument("kind", choices=available())
    export.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    export.add_argument("--format", "-f", choices=("json", "graphml", "dot"), default="json")
    export.add_argument("out", help="output file path")
    export.set_defaults(fn=_cmd_export)

    verify = sub.add_parser("verify", help="check a JSON network for ABCCC conformance")
    verify.add_argument("file", help="network JSON produced by export")
    verify.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    verify.set_defaults(fn=_cmd_verify)

    manifest = sub.add_parser("manifest", help="print the deployment manifest")
    manifest.add_argument("kind", choices=available())
    manifest.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    manifest.add_argument("--rack-capacity", type=int, default=40)
    manifest.add_argument("--json", action="store_true",
                          help="emit the machine-readable manifest")
    manifest.set_defaults(fn=_cmd_manifest)

    planner = sub.add_parser("plan", help="find ABCCC configs for requirements")
    planner.add_argument("--min-servers", type=int, default=1)
    planner.add_argument("--max-servers", type=int, default=None)
    planner.add_argument("--max-nic-ports", type=int, default=4)
    planner.add_argument("--switch-radix", type=int, default=48)
    planner.add_argument("--min-bisection", type=float, default=0.0)
    planner.add_argument("--max-diameter", type=int, default=None)
    planner.add_argument("--headroom", type=int, default=0,
                         help="future pure-addition growth steps required")
    planner.add_argument("--limit", type=int, default=15)
    planner.set_defaults(fn=_cmd_plan)

    report = sub.add_parser("report", help="full property/measurement report")
    report.add_argument("kind", choices=available())
    report.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    report.add_argument("--max-measure-nodes", type=int, default=2000)
    report.set_defaults(fn=_cmd_report)

    serve = sub.add_parser("serve", help="always-on topology query daemon")
    serve.add_argument("kind", choices=available())
    serve.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (default 0 = OS-assigned)"
    )
    serve.add_argument(
        "--unix", default=None, metavar="PATH", help="serve on a unix socket instead"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes answering queries (0 = inline threads)",
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=64,
        metavar="N",
        help="pending-request bound before shedding with 429",
    )
    serve.add_argument(
        "--deadline-ms",
        type=int,
        default=10_000,
        help="default per-request deadline (clients may lower it)",
    )
    serve.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="kill + restart a worker that answers nothing for S seconds",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=15.0,
        metavar="S",
        help="SIGTERM: wait up to S seconds for in-flight requests",
    )
    serve.add_argument(
        "--scenario-cache",
        type=int,
        default=64,
        metavar="N",
        help="what-if MaskedGraph LRU entries per worker",
    )
    serve.add_argument(
        "--memmap",
        default=None,
        metavar="DIR",
        help="back the CSR arrays with memory-mapped files in DIR",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write {endpoint, pid} JSON here once ready (for scripts)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span trace of the serving session",
    )
    serve.set_defaults(fn=_cmd_serve)

    traffic = sub.add_parser(
        "traffic", help="flow-level traffic engine on the compiled graph"
    )
    traffic.add_argument("kind", choices=available())
    traffic.add_argument("--param", "-p", action="append", default=[], metavar="NAME=INT")
    traffic.add_argument(
        "--pattern",
        choices=TRAFFIC_PATTERNS,
        default="permutation",
        help="traffic-matrix family (default permutation)",
    )
    traffic.add_argument(
        "--matrix-param",
        "-m",
        action="append",
        default=[],
        metavar="NAME=NUM",
        help="generator override, e.g. fan_in=128 or hot_fraction=0.8",
    )
    traffic.add_argument("--trials", type=int, default=1, help="independent matrices")
    traffic.add_argument("--seed", type=int, default=0, help="matrix seed stream")
    traffic.add_argument(
        "--faults",
        default=None,
        metavar="CLASS=FRAC,...",
        help="degrade each trial, e.g. server=0.02,switch=0.01,link=0.005",
    )
    traffic.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault draw seed stream (default: --seed)",
    )
    traffic.add_argument(
        "--fct", action="store_true", help="also compute fluid completion times"
    )
    traffic.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for multi-trial fan-out (0 = all cores; default 1)",
    )
    traffic.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write the per-trial CSV and the resumable journal here",
    )
    traffic.add_argument(
        "--resume",
        action="store_true",
        help="replay journaled trials from --out instead of recomputing",
    )
    traffic.add_argument(
        "--memmap",
        default=None,
        metavar="DIR",
        help="back the CSR arrays with memory-mapped files in DIR",
    )
    traffic.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span trace of compile + trials",
    )
    traffic.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics-registry snapshot (rate/FCT histograms and "
        "phase timings) as JSON",
    )
    traffic.set_defaults(fn=_cmd_traffic)

    sub.add_parser("experiments", help="list the evaluation suite").set_defaults(
        fn=_cmd_experiments
    )

    run = sub.add_parser("run", help="run one experiment or 'all'")
    run.add_argument("exp_id", help="experiment id (T1, F5, ...) or 'all'")
    run.add_argument("--quick", action="store_true", help="small instances/samples")
    run.add_argument("--out", default="results", help="CSV output directory")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for all-pairs sweeps (0 = all cores; default 1)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="replay the trial journal an interrupted run left in --out",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock limit (journal survives, resumable)",
    )
    run.add_argument(
        "--trace",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="write a JSONL span trace (default <out>/<exp_id>.trace.jsonl; "
        "for 'run all', PATH names a directory)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="dump a cProfile per experiment to <out>/<exp_id>.prof",
    )
    run.set_defaults(fn=_cmd_run)

    obs = sub.add_parser("obs", help="observability: trace reports and live tail")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="per-phase breakdown / utilization report of trace files"
    )
    obs_report.add_argument("trace", nargs="+", help="trace JSONL file(s)")
    obs_report.add_argument(
        "--slowest", type=int, default=10, metavar="N", help="slowest spans to list"
    )
    obs_report.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="stitch and render the spans of one request trace id "
        "(client attempt -> queue wait -> worker execution)",
    )
    obs_report.set_defaults(fn=_cmd_obs_report)

    obs_tail = obs_sub.add_parser(
        "tail", help="follow a live trace file, one line per span/event"
    )
    obs_tail.add_argument("trace", help="trace JSONL file (worker events included)")
    obs_tail.add_argument(
        "--poll", type=float, default=0.25, metavar="S", help="poll interval"
    )
    obs_tail.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="stop after S seconds (default: follow until interrupted)",
    )
    obs_tail.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="stop after N events (for scripting)",
    )
    obs_tail.set_defaults(fn=_cmd_obs_tail)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        finally:
            # Block-buffered stdout holds up to 8 KiB, argparse's help
            # included: flush here, before its SystemExit propagates, so
            # a gone reader surfaces below, not in the interpreter's
            # exit flush.
            sys.stdout.flush()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    except BrokenPipeError:
        # The reader went away (``repro … | head``): stop quietly, and
        # point stdout at devnull so the interpreter's exit flush
        # cannot raise again.  141 is the shell's status for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (CliError, ValueError, KeyError, OSError, NotImplementedError) as error:
        # User-level mistakes exit 2 with a one-line message, matching
        # argparse's own usage errors; REPRO_DEBUG=1 re-raises so
        # developers still get the traceback.
        if os.environ.get("REPRO_DEBUG"):
            raise
        message = str(error) or type(error).__name__
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
