"""annote-kb benchmark: one closed-loop client, no threads, seeded inputs.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the engine is imported from its src/
and the oracles from its tests/.  With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run, whose spans are written to perfbench/out/.
perfbench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

from spans import STORE_READS, Tracer
from workloads import CliSession, IngestMix, Op, QueryMix, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


@dataclass
class Record:
    index: int
    kind: str
    ms: float
    digest: bytes | None = None
    summary: object = None
    result: object = None
    error: str | None = None


def run_op(workload, index: int, execute=None) -> Record:
    """Time one op; the summary and digest are taken after the clock stops."""
    workload.before(index)
    op = workload.op(index)
    error = result = None
    start = time.perf_counter_ns()
    try:
        result = (execute or workload.execute)(op)
    except Exception as exc:  # a failed op is counted, the session goes on
        error = f"{type(exc).__name__}: {exc}"
    record = Record(index, op.kind, (time.perf_counter_ns() - start) / 1e6, error=error)
    if error is None:
        summary = workload.summarize(op, result)
        record.digest = digest(summary)
        if workload.keep_summaries:
            record.summary = summary
        if workload.keep(index):
            record.result = result
    return record


def run_phase(workload, seconds: float = 0.0, count: int | None = None) -> list[Record]:
    """Closed loop over the op stream from index 0, for seconds or count ops."""
    records: list[Record] = []
    deadline = time.perf_counter() + seconds
    while len(records) < count if count is not None else time.perf_counter() < deadline:
        records.append(run_op(workload, len(records)))
    return records


def run_paired(workload, tracer, seconds: float) -> tuple[list[Record], list[Record]]:
    """Untraced, then traced, passes over the same chunk of the op stream,
    alternating until seconds are up, so both see the same machine and the
    same base state."""
    plain: list[Record] = []
    traced: list[Record] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chunk = range(len(plain), len(plain) + workload.TRACE_CHUNK)
        plain += [run_op(workload, index) for index in chunk]
        tracer.start("timed")
        traced += [run_op(workload, index) for index in chunk]
        tracer.stop()
    return plain, traced


def cli_triples(cli, tracer, phase: str, seconds: float = 0.0, count: int | None = None):
    """Each cli command three ways: subprocess, in-process, in-process traced.

    Returns the subprocess records, the untraced and traced in-process wall
    times per command, and the commands whose answers differ between runs.
    """
    records, untraced, traced, problems = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(records) < count if count is not None else time.perf_counter() < deadline:
        index = len(records)
        record = run_op(cli, index)
        records.append(record)
        for sink, traced_run in ((untraced, False), (traced, True)):
            if traced_run:
                tracer.start(phase)
            again = run_op(cli, index, cli.execute_in_process)
            if traced_run:
                tracer.stop()
            sink.append(again.ms)
            if record.error is None and again.digest != record.digest:
                problems.append(f"cli op {index} ({record.kind}): in-process answer "
                                f"{'(traced) ' if traced_run else ''}differs from the subprocess")
    return records, untraced, traced, problems


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def timed_setups(workload, runs: int, tracer=None) -> tuple[list[float], object]:
    """Load the starting fact text runs times; seconds per load, last base."""
    times = []
    kb = None
    for _ in range(runs):
        kb = None
        gc.collect()
        if tracer:
            tracer.start("setup")
        start = time.perf_counter()
        kb = workload.setup()
        times.append(time.perf_counter() - start)
        if tracer:
            tracer.stop()
    gc.collect()
    return times, kb


def end_to_end(setup_times, records, peak_rss_mb) -> dict:
    """name -> (value, unit, samples)."""
    lat = [r.ms for r in records]
    query = [r.ms for r in records if r.kind == "query"]
    find = [r.ms for r in records if r.kind == "find"]
    return {
        "setup_s": (p50(setup_times), "s", len(setup_times)),
        "ops_per_s": (len(lat) * 1000 / sum(lat) if lat else 0.0, "1/s", len(lat)),
        "op_ms.p50": (p50(lat), "ms", len(lat)),
        "op_ms.p90": (p90(lat), "ms", len(lat)),
        "query_ms.p50": (p50(query), "ms", len(query)),
        "query_ms.p90": (p90(query), "ms", len(query)),
        "find_ms.p50": (p50(find), "ms", len(find)),
        "find_ms.p90": (p90(find), "ms", len(find)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def per_kind(records) -> dict:
    """Latency quantiles and sample count of every op kind in a phase."""
    out = {}
    for kind in sorted({r.kind for r in records}):
        lat = [r.ms for r in records if r.kind == kind]
        out[kind] = {"n": len(lat), "p50_ms": round(p50(lat), 4), "p90_ms": round(p90(lat), 4)}
    return out


def per_layer(tracer, overhead_ratio: float, process_ms: list[float]) -> dict:
    """name -> (value, unit, samples) from the spans of the traced phases."""
    phases = ("setup", "timed")
    spans = tracer.by_name(phases)
    every = tracer.by_name()

    def dur(name):
        return [(s[2] - s[1]) for s, _ in spans[name]]

    def own(name):
        return [o for _, o in spans[name]]

    def count(name, key):
        return [s[5][key] for s, _ in spans[name] if s[5]]

    loads = spans["factfile.load"]
    saves = tracer.by_name(("setup", "timed", "check"))["factfile.save"]
    setup_loads = [o for s, o in loads if s[4] == "setup"]
    load_self_s = sum(own("factfile.load")) / 1e9
    reads = [d for name in STORE_READS for d in dur(name)]
    cli_self = [o for _, o in every["cli.main"]]
    return {
        "factfile.load.self_ms": (p50(setup_loads) / 1e6, "ms", len(setup_loads)),
        "factfile.load.lines_per_s": (sum(count("factfile.load", "lines")) / load_self_s
                                      if load_self_s else 0.0, "1/s", len(loads)),
        "factfile.load.diagnostics": (sum(count("factfile.load", "diagnostics")), "count", len(loads)),
        "factfile.save.ms": (p50([s[2] - s[1] for s, _ in saves]) / 1e6, "ms", len(saves)),
        "factfile.save.bytes": (p50([s[5]["bytes"] for s, _ in saves]), "bytes", len(saves)),
        "store.insert.calls": (len(spans["store.insert"]), "count", 1),
        "store.insert.us_per_call": (mean(dur("store.insert")) / 1e3, "us", len(spans["store.insert"])),
        "store.read.ms": (mean(reads) / 1e6, "ms", len(reads)),
        "query.parse.us_per_call": (mean(dur("query.parse")) / 1e3, "us", len(spans["query.parse"])),
        "query.evaluate.self_ms": (mean(own("query.evaluate")) / 1e6, "ms", len(spans["query.evaluate"])),
        "query.evaluate.result_ids": (mean(count("query.evaluate", "ids")), "count",
                                      len(spans["query.evaluate"])),
        "query.rewrite.self_ms": (mean(own("query.rewrite")) / 1e6, "ms", len(spans["query.rewrite"])),
        "query.format.us_per_call": (mean(dur("query.format")) / 1e3, "us", len(spans["query.format"])),
        "inference.infer_attributes.ms_per_call": (mean(dur("inference.infer_attributes")) / 1e6, "ms",
                                                   len(spans["inference.infer_attributes"])),
        "inference.infer_attributes.calls": (len(spans["inference.infer_attributes"]), "count", 1),
        "inference.infer_attributes.candidates": (mean(count("inference.infer_attributes", "candidates")),
                                                  "count", len(spans["inference.infer_attributes"])),
        "inference.infer_values.ms_per_call": (mean(dur("inference.infer_values")) / 1e6, "ms",
                                               len(spans["inference.infer_values"])),
        "inference.explicate.self_ms": (mean(own("inference.explicate")) / 1e6, "ms",
                                        len(spans["inference.explicate"])),
        "cli.self_ms": (mean(cli_self) / 1e6, "ms", len(cli_self)),
        "cli.process_ms": (p50(process_ms), "ms", len(process_ms)),
        "gc.pause_ms": (sum(tracer.gc_pause_ns[p] for p in phases) / 1e6, "ms",
                        sum(sum(tracer.gc_collections[p]) for p in phases)),
        "gc.gen2_collections": (sum(tracer.gc_collections[p][2] for p in phases), "count", 1),
        "trace.overhead_ratio": (overhead_ratio, "ratio", 1),
    }


def write_spans(tracer, args, report: dict) -> None:
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.write(path)
    report["spans"] = len(tracer.spans)
    report["span_file"] = os.path.relpath(path, ROOT)


def make_workload(name: str, akb, oracles, seed: int, scale: float):
    if name == "query-mix":
        return QueryMix(akb, oracles, seed, scale)
    if name == "ingest-mix":
        return IngestMix(akb, oracles, seed, scale)
    return CliSession(akb, oracles, seed, OUT, ROOT, scale)


def warm_up(cli) -> None:
    """One untimed command, so byte-code compilation is not timed."""
    cli.execute(Op("stats", ()))


def measure(args, akb, oracles) -> tuple[dict, dict, list[str], int, int]:
    started = time.perf_counter()
    workload = make_workload(args.workload, akb, oracles, args.seed, args.scale)
    wall = {"generate": time.perf_counter() - started}
    is_cli = args.workload == "cli-session"
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "generator": workload.params.as_dict(),
                    "start_text_bytes": len(workload.start_text.encode("utf-8"))}
    problems: list[str] = []
    setup_times, kb = timed_setups(workload, workload.SETUP_RUNS)
    workload.begin(kb)
    if is_cli:
        warm_up(workload)

    if not args.trace:
        records = run_phase(workload, seconds=args.seconds)
        usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        metrics = end_to_end(setup_times, records, peak_rss_mb)
    else:
        tracer = Tracer(akb)
        traced_setups, kb = timed_setups(workload, workload.SETUP_RUNS, tracer)
        workload.begin(kb)
        if is_cli:
            records, untraced, traced, mismatches = cli_triples(workload, tracer, "timed",
                                                                seconds=args.seconds)
            process_ms = [r.ms - u for r, u in zip(records, untraced)]
            problems += mismatches
            overhead = sum(traced) / sum(untraced)
        else:
            records, again = run_paired(workload, tracer, args.seconds)
            overhead = sum(r.ms for r in again) / sum(r.ms for r in records)
            problems += [f"op {a.index} ({a.kind}): traced answer differs"
                         for a, r in zip(again, records) if a.digest != r.digest]
            cli = make_workload("cli-session", akb, oracles, args.seed, args.scale)
            cli.begin(cli.setup())
            warm_up(cli)
            probe, untraced, _, mismatches = cli_triples(cli, tracer, "probe", count=len(cli.TOUR))
            process_ms = [r.ms - u for r, u in zip(probe, untraced)]
            problems += mismatches + cli.check(probe)
        setup_spans = tracer.by_name(("setup",))
        report["setup_accounting_s"] = {
            "untraced_setup": p50(setup_times),
            "traced_setup": p50(traced_setups),
            "load_self": p50([o for _, o in setup_spans["factfile.load"]]) / 1e9,
            "insert_per_load": sum(s[2] - s[1] for s, _ in setup_spans["store.insert"])
            / len(traced_setups) / 1e9,
        }

    wall["measure"] = time.perf_counter() - started - wall["generate"]
    if args.trace:
        tracer.start("check")  # the saves of the fixpoint checks feed factfile.save
    checked, results_digest = workload.verify(records)
    if args.trace:
        tracer.stop()
        metrics = per_layer(tracer, overhead, process_ms)
        write_spans(tracer, args, report)
    problems += checked
    errors = [f"op {r.index} ({r.kind}): {r.error}" for r in records if r.error]
    problems = errors + problems
    attempted = len(records)
    failed = min(attempted, len(problems))
    wall["check"] = time.perf_counter() - started - wall["generate"] - wall["measure"]
    report["wall_s"] = {k: round(v, 3) for k, v in wall.items()}
    report["ops"] = per_kind(records)
    report["failed_op_ratio"] = failed / attempted if attempted else 1.0
    report["results_digest"] = results_digest.hex()
    return metrics, report, problems, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query-mix", "ingest-mix", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every generated size (the smoke test uses a tiny one)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    for needed in (os.path.join(src, "annote_kb", "__init__.py"), os.path.join(tests, "oracles.py")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run inside an annote-kb checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [src, tests]
    import annote_kb as akb
    import oracles

    os.makedirs(OUT, exist_ok=True)
    metrics, report, problems, attempted, failed = measure(args, akb, oracles)

    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit:6s} n={samples}")
    print("report: " + json.dumps(report, ensure_ascii=False, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
