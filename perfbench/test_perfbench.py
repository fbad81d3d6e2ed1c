"""Tests of the benchmark harness itself (not part of the program's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from tracer import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
workloads.load_program(ROOT)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_perturbed_chsh_fails_every_operation():
    proc = bench(ROOT, "--workload", "verify-suite", "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--perturb-chsh", "1e-3")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    assert "fail_frac    1 " in proc.stdout


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "born-batch", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def region(tmp_path):
    export = workloads.RegionExport(tmp_path, samples=200)
    _, _, first = workloads.timed_op(export, 1, 0)
    assert first.problems == []
    return export


def _rewrite_boundary(result, edit):
    path = result.payload[1] / "boundary.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + ",-9"] + lines[6:], "below chsh+kcbs=-5"),
        (lambda lines: lines[:5] + [lines[5].replace("1", "2", 1)] + lines[6:], "differ from the first"),
        (lambda lines: lines[:-1], "rows, expected"),
    ],
)
def test_corrupted_region_csv_is_caught(region, edit, message):
    result = region.run(1, 1)
    _rewrite_boundary(result, edit)
    region.check(result)
    assert any(message in p for p in result.problems), result.problems


def test_born_batch_checks_catch_a_wrong_witness(tmp_path):
    born = workloads.BornBatch(tmp_path, states=20)
    result = born.run(3, 0)
    rows, kcbs_ref, chsh_ref = result.payload
    behavior, loaded, violations, kcbs, chsh = rows[7]
    rows[7] = (behavior, loaded, violations, kcbs, chsh + 1e-8)
    born.check(result)
    assert len(result.problems) == 1 and result.problems[0].startswith("state 7: witness gap")


def test_bounds_table_check_catches_a_wrong_entry():
    table = workloads.paper_bounds_table()
    code, text = workloads.run_cli(["bounds", "--format", "json"])
    assert code == 0 and workloads.check_bounds_json(text, table) == []
    rows = json.loads(text)
    rows[0]["nd_min"] = -4.9
    assert workloads.check_bounds_json(json.dumps(rows), table) != []


def test_seeds_reach_the_program_and_repeat():
    assert workloads.op_seed(1, 0) == workloads.op_seed(1, 0)
    assert len({workloads.op_seed(s, k) for s in (1, 2) for k in range(50)}) == 100
    np.testing.assert_array_equal(workloads.random_states(4, 2, 5), workloads.random_states(4, 2, 5))
    assert not np.allclose(workloads.random_states(4, 2, 5), workloads.random_states(4, 3, 5))
    summary = json.dumps({"samples": 10, "seed": 7, "passed": True, "checks": []})
    assert any("header" in p for p in workloads.check_verify_json(summary, 10, 8))


def _traced_born_op(tmp_path, seed):
    born = workloads.BornBatch(tmp_path, states=30)
    born.warm()
    tracer = Tracer().install()
    try:
        tracer.start_op(0)
        _, _, result = workloads.timed_op(born, seed, 0)
        tracer.end_op(result.out_bytes)
    finally:
        tracer.uninstall()
    assert result.problems == []
    return tracer


def test_trace_counts_repeat_and_self_time_excludes_children(tmp_path):
    from ndmonogamy import quantum, scenario

    original = (scenario.correlator, scenario.Behavior.from_json, quantum.behavior_from_state)
    first = _traced_born_op(tmp_path, 9)
    second = _traced_born_op(tmp_path, 9)
    assert (scenario.correlator, scenario.Behavior.from_json, quantum.behavior_from_state) == original

    a, b = first.per_layer(), second.per_layer()
    assert set(a) == set(per_layer_metrics())
    counts = [name for name in a if not name.endswith("_s")]
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert a["quantum.born.calls"] == 30 and a["scenario.correlator.calls"] == 30 * 9
    assert a["quantum.expectation.states"] == 60

    spans = {sid: (parent, name, end - start) for sid, parent, _, name, start, end in first.spans}
    child = {}
    for parent, _, duration in spans.values():
        child[parent] = child.get(parent, 0.0) + duration
    self_total = sum(d - child.get(sid, 0.0) for sid, (_, name, d) in spans.items() if name == "scenario.witness")
    assert a["scenario.witness.self_s"] == pytest.approx(self_total)


def test_a_missing_traced_function_fails_the_install(monkeypatch):
    from ndmonogamy import nodisturbance, scenario

    original = scenario.correlator
    monkeypatch.delattr(nodisturbance, "fine_join_c1")
    with pytest.raises(LookupError, match="nodisturbance.fine_join_c1"):
        Tracer().install()
    assert scenario.correlator is original
