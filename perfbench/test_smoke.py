"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import math
from pathlib import Path

import pytest

import run

SPEC = run.spec()


def _tiny(name):
    _, _, workloads = run._load_library()
    return workloads.build(name, tiny=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = run.execute(name, 3, 0.05, trace, tiny=True)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0
    assert "# env " in capsys.readouterr().out


def test_wrong_expected_verdict_counts_as_failed(tmp_path):
    workload = _tiny("certify")
    workload.generate(Path(tmp_path), seed=5)
    valid = next(item for item in workload.items if item.label.startswith("valid"))
    valid.expect = (1, None)  # a valid pair exits 0, so this verdict is wrong
    phase = run.run_phase(workload, 0.0, 0)
    assert phase.attempted == len(workload.items)
    assert phase.failed == 1
    assert phase.failed / phase.attempted > 0


def test_search_counts_unconverged_restarts_as_failed():
    workload = _tiny("search")
    from circleact.solver import SolverConfig, solve

    workload.generate(None, seed=5)
    item = next(item for item in workload.cycle(0) if item.args[0] == 2)
    stalled = solve(SolverConfig(n=2, restarts=1, max_iters=1, seed=item.args[1]))
    assert workload.check(item, (stalled, [None]), run.Phase()) == 1


def test_runs_nowhere_without_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "fuse", "--seed", "1", "--seconds", "1"]) == 2
