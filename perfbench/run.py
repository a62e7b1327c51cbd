"""Closed-loop benchmark of the spin-transfer library.

One client sends one op at a time and waits for it (closed loop), with BLAS
pinned to one thread.  Every op's output is checked against an independent
route outside the timed region.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, summary table

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of ops twice each, plain and traced, and reports the per-layer
metrics and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import islice  # noqa: E402
from typing import Any, Callable  # noqa: E402

try:
    import numpy as np
    import spin_transfer
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}")
if Path(spin_transfer.__file__).resolve().parent != ROOT / "src" / "spin_transfer":
    sys.exit(f"perfbench: spin_transfer came from {spin_transfer.__file__}, not {ROOT / 'src'}")

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

#: Each timed run has at least this many ops, so its 90th percentile has at
#: least ten samples beyond it.
MIN_OPS = 100
#: A timed run stops taking new ops this long after --seconds even if it has
#: fewer than MIN_OPS, so that it always ends.
GRACE_S = 90.0
#: Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 9
#: Ops in a traced run.  Fixed, so that every call count repeats exactly.
TRACE_OPS = {"sweep": 30, "search": 60, "staircase": 300}
#: Share of sweep op time that evolve_reduced plus negativity must cover.
SWEEP_PIPELINE_SHARE = 0.5
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Tally:
    """Latencies, evals and failures of a sequence of ops."""

    latencies: list[float] = field(default_factory=list)
    evals: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, op: workloads.Op, latency: float, out: dict | None, problems: list[str]) -> None:
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {op.index} ({op.kind}): {'; '.join(problems[:3])}")
        else:
            self.evals += out["evals"]


def run_op(
    op: workloads.Op, workdir: Path, execute: Callable = workloads.execute
) -> tuple[float, dict | None, list[str]]:
    """Time one op, then observe and check its output.  An exception in the
    op or in its check is a failure of the op."""
    start = time.perf_counter()
    try:
        raw = execute(op, workdir)
    except Exception as exc:
        return time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    try:
        out = workloads.observe(op, raw, workdir)
        return latency, out, workloads.check(op, out)
    except Exception as exc:
        return latency, None, [f"check raised {type(exc).__name__}: {exc}"]


def timed_loop(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    execute: Callable = workloads.execute,
    min_ops: int = MIN_OPS,
) -> Tally:
    """Ops back to back until ``seconds`` have passed and ``min_ops`` ran."""
    tally = Tally()
    ops = workloads.op_stream(workload, seed)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and tally.attempted >= min_ops) or elapsed >= seconds + GRACE_S:
            return tally
        op = next(ops)
        tally.add(op, *run_op(op, workdir, execute))


def setup_seconds(workload: str) -> list[float]:
    """Import plus lazy set-up, each timed in its own fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(tally: Tally, setups: list[float]) -> dict[str, tuple[float, str]]:
    latencies_ms = [x * 1e3 for x in tally.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(latencies_ms, 90)), "ms"),
        "evals_per_s": (tally.evals / sum(tally.latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


@dataclass
class TracedRun:
    plain: Tally
    traced: Tally
    tracer: tracing.Tracer
    op_kinds: dict[int, str]
    mismatches: list[int]


def traced_loop(workload: str, seed: int, n_ops: int, workdir: Path) -> TracedRun:
    """Set up under tracing, then run each of ``n_ops`` ops twice: plain,
    then traced.  The two outputs of each op must be identical."""
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op = tracing.SETUP_OP
        workloads.setup(workload)
        tracer.op = None

    def traced_execute(op: workloads.Op, wd: Path) -> Any:
        tracer.op = op.index
        try:
            return workloads.execute(op, wd)
        finally:
            tracer.op = None

    run = TracedRun(Tally(), Tally(), tracer, {}, [])
    for op in islice(workloads.op_stream(workload, seed), n_ops):
        run.op_kinds[op.index] = op.kind
        latency, plain_out, problems = run_op(op, workdir)
        run.plain.add(op, latency, plain_out, problems)
        with tracer.installed():
            latency, traced_out, problems = run_op(op, workdir, traced_execute)
        run.traced.add(op, latency, traced_out, problems)
        if plain_out is None or traced_out is None or not workloads.same_output(
            plain_out, traced_out
        ):
            run.mismatches.append(op.index)
    return run


def premise_problems(workload: str, run: TracedRun) -> list[str]:
    """The reason each workload was chosen, checked on exact span counts."""
    spans = run.tracer.spans
    ops = set(run.op_kinds)
    evolution = tracing.calls_per_op(spans, "model.full_evolution")
    if workload == "sweep":
        names = {"transfer.evolve_reduced", "entanglement.negativity"}
        share = tracing.top_level_time(spans, names, ops) / sum(run.traced.latencies)
        if share <= SWEEP_PIPELINE_SHARE:
            return [f"sweep: evolve_reduced + negativity cover {share:.1%} of op time"]
    elif workload == "search":
        in_ops = sum(evolution.get(i, 0) for i in ops)
        if in_ops:
            return [f"search: full_evolution ran {in_ops} times in ops, not only in set-up"]
    elif workload == "staircase":
        want = {"pure_reset": workloads.STAIRCASE_STEPS, "mixed": 1}
        wrong = [i for i, kind in run.op_kinds.items() if evolution.get(i, 0) != want[kind]]
        if wrong:
            return [f"staircase: full_evolution count off in ops {wrong[:5]}"]
    return []


def per_layer(run: TracedRun) -> dict[str, tuple[float, str]]:
    stats = tracing.aggregate(run.tracer.spans, set(run.op_kinds))
    n_ops = len(run.op_kinds)
    get = stats.get
    empty = tracing.LayerStats()
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, fields: tuple[str, ...]) -> None:
        entry = get(name, empty)
        for f in fields:
            value = entry.calls if f == "calls" else getattr(entry, f)
            metrics[f"{name}.{f}"] = (value, "count" if f == "calls" else "s")

    put("cli.main", ("calls", "self_s"))
    put("cli.write_table", ("calls", "s"))
    put("transfer.evolve_reduced", ("calls", "s", "self_s"))
    put("transfer.entanglement_curve", ("self_s",))
    put("model.TransferModel.for_source_dim", ("calls", "s"))
    put("model.full_evolution", ("calls", "s", "self_s"))
    evolution = get("model.full_evolution", empty)
    distinct = len(set(evolution.work)) / evolution.calls if evolution.calls else 0.0
    metrics["model.full_evolution.distinct_ratio"] = (distinct, "ratio")
    for name in ("qla.propagator", "qla.embed_on_subsystems", "qla.partial_trace", "qla.kron"):
        put(name, ("calls", "s"))
    put("entanglement.negativity", ("calls", "s"))
    put("entanglement.XStateCoeffs.from_operator", ("calls", "s"))
    put("entanglement.xstate_negativity_raw", ("calls", "s"))
    raw = get("entanglement.xstate_negativity_raw", empty)
    metrics["entanglement.xstate_negativity_raw.elements"] = (sum(raw.work), "count")
    kernel_name = "qutritmax.negativity_at_half_period"
    put(kernel_name, ("calls", "s"))
    kernel = get(kernel_name, empty)
    columns = sum(kernel.work)
    metrics[f"{kernel_name}.columns"] = (columns, "count")
    metrics[f"{kernel_name}.columns_per_s"] = (columns / kernel.s if kernel.s else 0.0, "1/s")
    metrics[f"{kernel_name}.computed_flops_per_column"] = (
        tracing.KERNEL_FLOPS_PER_COLUMN if columns else 0,
        "flop",
    )
    metrics[f"{kernel_name}.computed_bytes_per_column"] = (
        tracing.kernel_bytes_per_column(columns / kernel.calls) if columns else 0.0,
        "B",
    )
    put("qutritmax.maximize_E12_half_period", ("self_s",))
    put("qutritmax.invariants", ("calls", "s"))
    metrics["qutritmax.evals_per_op"] = (columns / n_ops, "count")
    put("protocol.iterate_transfer.pure_reset", ("calls", "self_s"))
    put("protocol.iterate_transfer.mixed", ("calls", "self_s"))
    plain_s, traced_s = sum(run.plain.latencies), sum(run.traced.latencies)
    metrics["trace.plain_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return metrics


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, ops: int, trace: bool) -> dict[str, Any]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spin_transfer": spin_transfer.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": blas_threads(),
        "git_commit": git_commit(),
        "kernel_flops_and_bytes": "computed from array shapes, not measured",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run; returns the result object and writes it, with the
    environment and (when traced) the spans, under .perfbench_out/."""
    OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if trace:
            run = traced_loop(workload, seed, TRACE_OPS[workload], workdir)
            tallies = [run.plain, run.traced]
            metrics = per_layer(run)
            problems += premise_problems(workload, run)
            if run.mismatches:
                problems.append(f"traced output differs from plain in ops {run.mismatches[:5]}")
        else:
            workloads.setup(workload)
            setups = setup_seconds(workload)
            tally = timed_loop(workload, seed, seconds, workdir)
            tallies = [tally]
            metrics = end_to_end(tally, setups)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems] + problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "env": environment(workload, seed, attempted, trace),
        "problems": problems,
        "ops_failed_frac": failed / attempted,
        "latencies_ms": [round(x * 1e3, 4) for t in tallies for x in t.latencies],
        "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    print("env " + json.dumps(record["env"]))
    if trace:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for s in run.tracer.spans:
                fh.write(json.dumps([s.name, s.op, s.parent, s.start, s.end]) + "\n")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return result


def summary_lines(workload: str, result: dict[str, Any]) -> list[str]:
    lines = [
        f"{workload} {name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()
    ]
    frac = result["failed"] / result["attempted"]
    lines.append(
        f"{workload} ops_failed_frac {frac:.6g} ratio ({result['failed']}/{result['attempted']})"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # each workload in its own process, so peak_rss_mb is its own
        results = {}
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
            print("\n".join(summary_lines(name, results[name])), flush=True)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(args.workload, result)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
