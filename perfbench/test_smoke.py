"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed by each workload,
traced and untraced, and that the checkers flag deliberately wrong answers.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import annote_kb as akb  # noqa: E402
import oracles  # noqa: E402
from run import OUT, run_phase  # noqa: E402
from workloads import CliSession, IngestMix, QueryMix  # noqa: E402

SCALE = 0.02

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def run_benchmark(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed(workload, trace):
    result, stdout = run_benchmark(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"  {metric['name']} " in stdout  # listed with its sample count


def test_same_seed_same_digest():
    digests = set()
    for _ in range(2):
        _, stdout = run_benchmark("query-mix", 0)
        report = json.loads(next(line for line in stdout.splitlines() if line.startswith("report: "))[8:])
        digests.add(report["results_digest"])
    assert len(digests) == 1


def corrupt_first(records, kind, change):
    record = next(r for r in records if r.kind == kind and r.result is not None)
    record.result = change(record.result)


def test_query_mix_checker_flags_corrupted_results():
    workload = QueryMix(akb, oracles, seed=5, scale=SCALE)
    workload.begin(workload.setup())
    records = run_phase(workload, count=QueryMix.N_REF)
    assert workload.verify(records)[0] == []
    corrupt_first(records, "query", lambda r: (r[0], r[1][1:] + ["n999999"], r[2]))
    problems, _ = workload.verify(records)
    assert any("naive_eval" in p for p in problems)


def test_query_mix_checker_flags_corrupted_find():
    workload = QueryMix(akb, oracles, seed=5, scale=SCALE)
    workload.begin(workload.setup())
    records = run_phase(workload, count=QueryMix.N_REF)
    corrupt_first(records, "find", lambda r: r[:-1])
    problems, _ = workload.verify(records)
    assert any("find results differ" in p for p in problems)


def test_ingest_mix_checker_flags_a_wrong_answer():
    workload = IngestMix(akb, oracles, seed=5, scale=SCALE)
    workload.begin(workload.setup())
    records = run_phase(workload, count=2 * workload.cycle_len)
    assert workload.verify(records)[0] == []
    records[1] = dataclasses.replace(records[1], digest=b"corrupted")
    problems, _ = workload.verify(records)
    assert any("unlike the checked replay" in p for p in problems)


def test_cli_checker_flags_a_wrong_answer():
    workload = CliSession(akb, oracles, seed=5, workdir=OUT, root=ROOT, scale=SCALE)
    workload.begin(workload.setup())
    records = run_phase(workload, count=2)
    assert workload.check(records) == []
    code, answer = records[0].summary
    records[0].summary = (code, answer[1:] if answer else ("n999999",))
    assert workload.check(records)
