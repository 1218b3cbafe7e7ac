"""circleact benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, measured with
tracing off; with ``--trace 1`` they are the per-layer ones, from an
untraced and a traced half of the run plus fixed-input microbenchmarks.
Lines before it, starting with ``#``, record the environment and the
op counts.  One process, one closed-loop client: each op starts when the
previous one has been checked.  BLAS threading is left at the library
default and recorded, never pinned.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPS = 5
MIN_OPS = 100  # p90 then has at least ten samples beyond it


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _load_library():
    """Import circleact from this checkout's ``src`` and the bench modules."""
    if not (SRC / "circleact" / "__init__.py").is_file():
        raise FileNotFoundError(f"no circleact package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import circleact

    if not Path(circleact.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"circleact imported from {circleact.__file__}, not {SRC}")
    import micro
    import tracing
    import workloads

    return micro, tracing, workloads


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "seed": seed,
    }


def _timed_child(argv) -> float:
    """Wall time of a fresh interpreter running ``argv``, start to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def import_seconds() -> float:
    """Wall time of a fresh interpreter running ``import circleact.cli``."""
    return _timed_child(["-c", "import circleact.cli"])


def set_up_here(name, seed, workdir, tiny) -> None:
    """One set-up in this interpreter: library import, inputs, warm-up."""
    _, _, workloads = _load_library()
    workload = workloads.build(name, tiny)
    workload.generate(Path(workdir), seed)
    workload.warm_up()


_SET_UP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.set_up_here(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5] == '1')"
)


def setup_seconds(name, seed, tiny, reps) -> float:
    """Median over ``reps`` cold set-ups, each in a fresh interpreter.

    One set-up is the interpreter's start, the import of the library,
    the generation of the run's inputs and the warm-up, timed end to end
    from outside, so that work moved from import to first use still
    counts.
    """
    times = []
    for rep in range(reps):
        workdir = OUT / f"setup-{name}-{os.getpid()}-{rep}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            argv = ["-c", _SET_UP_CHILD, str(BENCH_DIR), name, str(seed), str(workdir), str(int(tiny))]
            times.append(_timed_child(argv))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


@dataclass
class Phase:
    """What one timed phase saw."""

    latencies: list = field(default_factory=list)  # seconds, one per op
    by_class: dict = field(default_factory=lambda: defaultdict(list))  # label -> op seconds
    attempted: int = 0
    failed: int = 0
    iterations: list = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0
    elapsed: float = 0.0
    cycles: int = 0

    def ops_per_s(self) -> float:
        """Ops completed over the elapsed time of the whole cycles run."""
        return self.attempted / self.elapsed

    def latency_ms(self) -> tuple[float, float]:
        """p50 and p90 of the ops' own latencies."""
        ms = [1000.0 * t for t in self.latencies]
        if len(ms) < 2:
            return ms[0], ms[0]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        return statistics.median(ms), deciles[8]


def run_phase(workload, seconds, min_ops, tracer=None) -> Phase:
    """Whole cycles until ``seconds`` have passed and ``min_ops`` ops ran.

    Stops regardless after three times ``seconds``.
    """
    span = tracer.span if tracer else (lambda _name: nullcontext())
    phase = Phase()
    start = time.perf_counter()
    while True:
        for item in workload.cycle(phase.cycles):
            if tracer:
                tracer.op += 1
            t0 = time.perf_counter()
            with span("op"):
                result = workload.run(item, span)
            dt = time.perf_counter() - t0
            phase.latencies.append(dt)
            phase.by_class[item.label].append(dt)
            phase.attempted += 1
            phase.bytes_in += item.bytes_in
            phase.failed += workload.check(item, result, phase)
        phase.cycles += 1
        phase.elapsed = time.perf_counter() - start
        if phase.elapsed >= 3 * seconds or (
            phase.elapsed >= seconds and phase.attempted >= min_ops
        ):
            return phase


def end_to_end(workload, seed, seconds, min_ops, setup_reps, workdir, tiny) -> tuple[dict, list]:
    setup_s = setup_seconds(workload.name, seed, tiny, setup_reps)
    workload.generate(workdir, seed)
    workload.warm_up()
    phase = run_phase(workload, seconds, min_ops)
    p50, p90 = phase.latency_ms()
    metrics = {"setup_s": setup_s, "ops_per_s": phase.ops_per_s(), "op_p50_ms": p50, "op_p90_ms": p90}
    return metrics, [phase]


def per_layer(workload, seed, seconds, setup_reps, micro_reps, workdir) -> tuple[dict, list]:
    micro, tracing, _ = _load_library()
    imports = [import_seconds() for _ in range(setup_reps)]
    workload.generate(workdir, seed)
    workload.warm_up()
    metrics = micro.measure(seed, *micro_reps)
    plain = run_phase(workload, seconds / 2, 0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as skipped:
        traced = run_phase(workload, seconds / 2, 0, tracer)
    if skipped:
        print(f"# trace: bindings not found, reported as 0: {', '.join(skipped)}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")

    ops = traced.attempted
    metrics.update(tracing.layer_metrics(tracer.spans, ops))
    its = traced.iterations
    # Line-search trials, and the residual+gradient evaluations made at
    # the start and after each accepted step.
    trials = metrics["solver.residual.calls"] * ops
    evals = trials + metrics["solver.residual_gradient.calls"] * ops
    metrics.update(
        {
            "solver.iterations": sum(its) / max(len(its), 1),
            "solver.iters_p50": statistics.median(its) if its else 0,
            "solver.iters_max": max(its, default=0),
            "solver.evals_per_iter": evals / max(sum(its), 1),
            "solver.step_accept_ratio": sum(its) / trials if trials else 0.0,
            "linalg.codec.bytes_in": traced.bytes_in / ops,
            "linalg.codec.bytes_out": traced.bytes_out / ops,
            "cli.startup_ms": 1000.0 * statistics.median(imports),
            "trace.overhead_frac": plain.ops_per_s() / traced.ops_per_s() - 1.0,
        }
    )
    for n in (1, 2, 3, 4):
        times = plain.by_class.get(f"n{n}", [])
        metrics[f"solver.restarts_per_s.n{n}"] = len(times) / sum(times) if times else 0.0
    return metrics, [plain, traced]


def execute(name, seed, seconds, trace, *, tiny=False) -> dict:
    """One run; returns the result object printed as the last line."""
    _, _, workloads = _load_library()
    workload = workloads.build(name, tiny)
    # micro_reps: (seconds, calls) each microbenchmark takes at least.
    setup_reps, min_ops, micro_reps = (1, 1, (0.0, 1)) if tiny else (SETUP_REPS, MIN_OPS, (0.2, 3))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        print(f"# env {json.dumps(environment(seed), sort_keys=True)}")
        if trace:
            values, phases = per_layer(workload, seed, seconds, setup_reps, micro_reps, workdir)
            wanted = spec()["per_layer"]
        else:
            values, phases = end_to_end(workload, seed, seconds, min_ops, setup_reps, workdir, tiny)
            wanted = spec()["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for label, p in zip(("untraced", "traced") if trace else ("timed",), phases):
        print(
            f"# {workload.name} {label}: {p.attempted} ops attempted, {p.failed} failed "
            f"(failed_frac {p.failed / p.attempted:.4g}); latency percentiles from "
            f"{len(p.latencies)} ops; {p.cycles} cycles in {p.elapsed:.2f} s"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("search", "certify", "fuse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = execute(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
