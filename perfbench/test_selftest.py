"""Self-test of the benchmark harness (not part of the library's test suite).

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import tempfile
from itertools import islice
from pathlib import Path

import pytest

import run
import workloads


@pytest.fixture
def workdir():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        yield Path(tmp)


def _faulty(index: int, fault: str):
    """``workloads.execute`` with one op's output corrupted or replaced by
    an exception."""

    def execute(op, workdir):
        raw = workloads.execute(op, workdir)
        if op.index != index:
            return raw
        if fault == "raise":
            raise RuntimeError("injected")
        first = dataclasses.replace(raw[0], negativity_after=raw[0].negativity_after + 1e-6)
        return [first, *raw[1:]]

    return execute


@pytest.mark.parametrize("fault", ["wrong value", "raise"])
def test_injected_fault_is_one_failed_op(workdir, fault):
    tally = run.timed_loop("staircase", 3, 0.0, workdir, _faulty(1, fault), min_ops=6)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert tally.problems[0].startswith("op 1 ")


def test_clean_run_has_no_failures(workdir):
    tally = run.timed_loop("staircase", 3, 0.0, workdir, min_ops=6)
    assert (tally.attempted, tally.failed, tally.evals) == (6, 0, 6 * workloads.STAIRCASE_STEPS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload):
    def first(seed):
        return list(islice(workloads.op_stream(workload, seed), 9))

    assert first(5) == first(5)
    assert first(5) != first(6)


@pytest.mark.parametrize("workload, n_ops", [("sweep", 3), ("search", 2), ("staircase", 6)])
def test_traced_run_matches_plain_run(workdir, workload, n_ops):
    traced = run.traced_loop(workload, 4, n_ops, workdir)
    assert traced.mismatches == []
    assert traced.plain.failed == traced.traced.failed == 0
    assert run.premise_problems(workload, traced) == []


def test_premise_check_catches_wrong_counts(workdir):
    traced = run.traced_loop("staircase", 4, 3, workdir)
    traced.op_kinds[1] = "pure_reset"  # op 1 is a mixed op: one full_evolution, not STEPS
    assert run.premise_problems("staircase", traced)


def test_metric_names_match_benchmark_json(workdir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tally = run.timed_loop("staircase", 3, 0.0, workdir, min_ops=3)
    assert list(run.end_to_end(tally, [1.0])) == [m["name"] for m in spec["end_to_end"]]
    layers = run.per_layer(run.traced_loop("staircase", 4, 3, workdir))
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**run.end_to_end(tally, [1.0]), **layers}.items():
        assert units[name] == unit, name
