"""Compare two sets of benchmark results, pair by pair.

Collect alternated pairs from two checkouts (each a tree with ``src/``,
``BENCHMARK.json`` and an identical ``perfbench/``), then report:

    python3 perfbench/compare.py collect --base ../parent --change . \\
        --out /tmp/cmp --pairs 10
    python3 perfbench/compare.py report /tmp/cmp-base.jsonl /tmp/cmp-change.jsonl

``collect`` runs, for pair i with seed ``FIRST_SEED + i``, every workload
on both sides for ``run_seconds`` of ``BENCHMARK.json``, the base first
on even i and the change first on odd i, and appends one record per run to ``<out>-base.jsonl`` and
``<out>-change.jsonl``.  ``report`` prints, for every (workload, metric)
in the records, each side's median and quartiles and the pairs won; an
``end_to_end`` metric also gets its bound and a verdict (per-layer
metrics, from ``--trace 1`` runs, have no bound and get none):

improved    over at least ten pairs, the change wins at least nine tenths
            (ties count for neither), its median is better by more than
            the base's quartile distance, and it fails no more ops than
            the base;
worse       its median is worse than the base's by more than the bound;
unresolved  the base's quartile distance exceeds the bound and not every
            change run beats every base run;
no worse    otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FIRST_SEED = 1000


def _bench_files(root: Path):
    return sorted(p.name for p in (root / "perfbench").glob("*.py"))


def collect(args) -> int:
    base, change = Path(args.base).resolve(), Path(args.change).resolve()
    names = _bench_files(change)
    _, mismatch, errors = filecmp.cmpfiles(
        base / "perfbench", change / "perfbench", names, shallow=False
    )
    if names != _bench_files(base) or mismatch or errors:
        print("error: the two checkouts carry different perfbench/ code", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"base": base, "change": change}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(argv, cwd=sides[side], capture_output=True, text=True,
                                      timeout=600, check=True)
                lines = proc.stdout.splitlines()
                record = {
                    "workload": workload,
                    "seed": seed,
                    "pair": i,
                    "first": side == order[0],
                    "env": next((json.loads(l[6:]) for l in lines if l.startswith("# env ")), None),
                    "result": json.loads(lines[-1]),
                }
                with open(f"{args.out}-{side}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"pair {i} {workload} {side} done", flush=True)
    return 0


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, pairs, higher, bound, base_failed, change_failed) -> tuple[str, int]:
    """Verdict for one metric; ``pairs`` holds (base, change) per seed."""
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    q1, med_b, q3 = _quartiles(base)
    med_c = statistics.median(change)
    wins = sum(better(c, b) for b, c in pairs)
    worse_by = (med_b - med_c if higher else med_c - med_b) / abs(med_b)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and better(med_c, med_b)
        and abs(med_c - med_b) > q3 - q1
        and change_failed <= base_failed
    ):
        return "improved", wins
    if (q3 - q1) / abs(med_b) > bound and not all(better(c, b) for c in change for b in base):
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    return "no worse", wins


def report(args) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    base, change = _load(args.base), _load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    print(f"{'workload':9} {'metric':{width}} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'bound':>6} {'wins':>6}  verdict")
    for workload in workloads:
        b_runs = {r["seed"]: r["result"] for r in base if r["workload"] == workload}
        c_runs = {r["seed"]: r["result"] for r in change if r["workload"] == workload}
        if not b_runs or not c_runs:
            continue
        seeds = sorted(b_runs.keys() & c_runs.keys())
        b_failed = sum(r["failed"] for r in b_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        for m in spec["end_to_end"] + spec["per_layer"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in b_runs.values() if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs.values() if name in r["metrics"]]
            if not b or not c:
                continue
            pairs = [(b_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds if name in b_runs[s]["metrics"]]
            higher = m["better"] == "higher"
            if "bound" in m:
                word, wins = verdict(b, c, pairs, higher, m["bound"], b_failed, c_failed)
                bound = f"{m['bound']:.2f}"
            else:
                better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
                word, wins, bound = "-", sum(better(y, x) for x, y in pairs), "-"
            bq, cq = _quartiles(b), _quartiles(c)
            print(f"{workload:9} {name:{width}} {bq[1]:>12.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                  f"{cq[1]:>12.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {bound:>6} "
                  f"{wins:>2}/{len(pairs):<3}  {word}")
        b_att = sum(r["attempted"] for r in b_runs.values())
        c_att = sum(r["attempted"] for r in c_runs.values())
        print(f"{workload:9} failed ops: base {b_failed} of {b_att}, change {c_failed} of {c_att}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run alternated pairs on two checkouts")
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True, help="prefix of the two .jsonl files written")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="print medians, quartiles and verdicts")
    p.add_argument("base", help="base .jsonl")
    p.add_argument("change", help="change .jsonl")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
