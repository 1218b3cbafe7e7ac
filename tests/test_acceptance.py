"""Acceptance gate: the seven package-level criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 1 and 2 share one set of solver runs via a module
fixture; everything else is self-contained and seeded.  Criterion 7 is
the negative control of criterion 1: without the duality equations the
same search must find counterexamples.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from circleact import cli, solver
from circleact.category import check_snake, decompose, direct_sum, tensor_product
from circleact.certify import certify_commutativity, certify_duality, classical_form, is_partial_isometry, polar_data
from circleact.coaction import (
    _CONSTRAINTS,
    ConjugatePair,
    LinearObject,
    check_conjugate_matrix,
    check_conjugate_raw,
    kac_vector,
    reflection,
    rotation,
)
from circleact.linalg import adjoint, frobenius, hermitian_eig
from circleact.solver import SolverConfig, gradient_check, sample_classical, solve
from oracles import compose_image, generator_image

GOLDEN = Path(__file__).parent / "golden"

# Matrix-route duality check name -> raw-route check name, per equation.
ROUTE_PAIRING = {
    "CAt+D*Bt-I": "raw[gen,s,deg+1]",
    "DAt+C*Bt": "raw[gen,s,deg-1]",
    "C*Abar+DBbar-I": "raw[gen*,s,deg-1]",
    "D*Abar+CBbar": "raw[gen*,s,deg+1]",
    "ACt+B*Dt-I": "raw[gen,t,deg+1]",
    "BCt+A*Dt": "raw[gen,t,deg-1]",
    "A*Cbar+BDbar-I": "raw[gen*,t,deg-1]",
    "B*Cbar+ADbar": "raw[gen*,t,deg+1]",
}


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def theorem_runs():
    """Four 200-restart searches (n = 1..4) plus their total wall time."""
    start = time.monotonic()
    runs = {
        n: solve(SolverConfig(n=n, restarts=200, residual_tol=1e-10, seed=0))
        for n in (1, 2, 3, 4)
    }
    elapsed = time.monotonic() - start
    return runs, elapsed


def test_criterion_1_theorem_experiment(theorem_runs):
    runs, elapsed = theorem_runs
    ok = elapsed < 120.0
    min_converged = None
    worst_comm = 0.0
    worst_rigidity = 0.0
    for n, run in runs.items():
        converged = [o for o in run.outcomes if o.converged]
        count = len(converged)
        min_converged = count if min_converged is None else min(min_converged, count)
        if count < 50:
            ok = False
        for o in converged:
            comm = certify_commutativity(o.pair.object, tol=1e-6)
            worst_comm = max(worst_comm, comm.max_residual())
            if not comm.overall_pass:
                ok = False
            rigidity = max(
                frobenius(o.pair.object.A - o.pair.C.conj()),
                frobenius(o.pair.object.B - o.pair.D.T),
            )
            worst_rigidity = max(worst_rigidity, rigidity)
            if rigidity > 1e-5:
                ok = False
    _report(
        1,
        "theorem experiment",
        ok,
        f"min converged per n: {min_converged}/200, worst commutativity "
        f"{worst_comm:.2e} (<=1e-6), worst rigidity {worst_rigidity:.2e} "
        f"(<=1e-5), solver wall time {elapsed:.1f}s (<120s)",
    )


def test_criterion_2_classification_experiment(theorem_runs):
    runs, _ = theorem_runs
    ok = True
    n_forms = 0
    worst = 0.0
    for n, run in runs.items():
        for o in run.outcomes:
            if not o.converged:
                continue
            try:
                decomp = classical_form(o.pair.object, tol=1e-6, seed=o.start_index)
            except Exception:
                ok = False
                continue
            n_forms += 1
            W = decomp.W
            Ad = adjoint(W) @ o.pair.object.A @ W
            Bd = adjoint(W) @ o.pair.object.B @ W
            for i in range(n):
                a, b = abs(Ad[i, i]), abs(Bd[i, i])
                dichotomy = max(min(a, b), abs(max(a, b) - 1.0))
                worst = max(worst, dichotomy)
                if dichotomy > 1e-6:
                    ok = False
    _report(
        2,
        "classification experiment",
        ok,
        f"classical_form succeeded on {n_forms} converged outcomes, worst "
        f"slot dichotomy residual {worst:.2e} (<=1e-6)",
    )


def test_criterion_3_oracle_equivalence():
    ok = True
    worst_ratio = 0.0
    floor = 1e-12
    for case in range(200):
        n = case % 4 + 1
        pair = sample_classical(n, seed=case)
        if case % 2 == 1:
            rng = np.random.default_rng(10_000 + case)
            eps = 1e-3
            noise = lambda: eps * (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            pair = ConjugatePair(
                LinearObject(n, pair.object.A + noise(), pair.object.B + noise()),
                pair.C + noise(),
                pair.D + noise(),
            )
        matrix_report = check_conjugate_matrix(pair)
        raw_report = check_conjugate_raw(pair)
        matrix_res = {c.name: c for c in matrix_report.checks}
        raw_res = {c.name: c for c in raw_report.checks}
        duality_verdict = all(matrix_res[m].passed for m in ROUTE_PAIRING)
        if raw_report.overall_pass != duality_verdict:
            ok = False
        for mname, rname in ROUTE_PAIRING.items():
            # clamp at the floor so vanishing residuals compare as equal,
            # and allow rounding slack on the bound: at n=1 the bound is
            # exactly 1 and unreachable in floats without it
            a = max(matrix_res[mname].residual, floor)
            b = max(raw_res[rname].residual, floor)
            ratio = max(a / b, b / a)
            worst_ratio = max(worst_ratio, ratio)
            if ratio > n + 1e-9:
                ok = False
    _report(
        3,
        "oracle equivalence",
        ok,
        f"200 valid+perturbed pairs (n<=4): verdicts agree, worst per-equation "
        f"residual ratio {worst_ratio:.6f} (bounded by n)",
    )


def test_criterion_4_derivation_chain():
    ok = True
    worst_iso = 0.0
    worst_polar = 0.0
    worst_duality = 0.0
    for case in range(100):
        n = case % 4 + 1
        pair = sample_classical(n, seed=case)
        for M in (pair.object.A, pair.object.B, pair.C, pair.D):
            _, res = is_partial_isometry(M, tol=1e-10)
            worst_iso = max(worst_iso, res)
            if res > 1e-10:
                ok = False
        polar = polar_data(pair, tol=1e-10)
        worst_polar = max(worst_polar, polar.report.max_residual())
        if polar.report.max_residual() > 1e-10:
            ok = False
        duality = certify_duality(pair, tol=1e-12)
        worst_duality = max(worst_duality, duality.max_residual())
        if duality.max_residual() > 1e-12:
            ok = False
    _report(
        4,
        "derivation-chain certificates",
        ok,
        f"100 sampled pairs (n<=4): worst partial-isometry residual "
        f"{worst_iso:.2e} (<=1e-10), worst polar invariant {worst_polar:.2e} "
        f"(<=1e-10), worst duality residual {worst_duality:.2e} (<=1e-12)",
    )


def test_criterion_5_category_suite():
    ok = True

    # tensor closed form vs symbolic composition oracle
    worst_tensor = 0.0
    rng = np.random.default_rng(50)
    for trial in range(50):
        X = sample_classical(int(rng.integers(1, 4)), seed=trial).object
        Y = sample_classical(int(rng.integers(1, 4)), seed=500 + trial).object
        Z = tensor_product(X, Y)
        symbolic = compose_image(X, generator_image(Y))
        dev = max(
            frobenius(Z.A - symbolic.get(+1, 0)), frobenius(Z.B - symbolic.get(-1, 0))
        )
        worst_tensor = max(worst_tensor, dev)
        if dev > 1e-12:
            ok = False

    # character fusion reproduces the composition table
    fusion_ok = True
    rng = np.random.default_rng(51)
    for _ in range(30):
        lam = np.exp(2j * np.pi * rng.random())
        mu = np.exp(2j * np.pi * rng.random())
        kinds = rng.integers(0, 2, size=2)
        X = rotation(lam) if kinds[0] == 0 else reflection(lam)
        Y = rotation(mu) if kinds[1] == 0 else reflection(mu)
        Z = tensor_product(X, Y)
        a, b = complex(Z.A[0, 0]), complex(Z.B[0, 0])
        if (kinds[0], kinds[1]) == (0, 0):
            expected = ("rotation", lam * mu)
        elif (kinds[0], kinds[1]) == (1, 1):
            expected = ("rotation", np.conj(lam) * mu)
        elif (kinds[0], kinds[1]) == (0, 1):
            expected = ("reflection", np.conj(lam) * mu)
        else:
            expected = ("reflection", lam * mu)
        got = ("rotation", a) if abs(a) > abs(b) else ("reflection", b)
        if got[0] != expected[0] or abs(got[1] - expected[1]) > 1e-12:
            fusion_ok = False
    ok = ok and fusion_ok

    # decompose yields only 1-dimensional summands on valid commutative objects
    decompose_ok = True
    tested = 0
    objects = [sample_classical(n, seed=s).object for n in (1, 2, 3, 4) for s in range(4)]
    lam1, lam2 = np.exp(0.3j), np.exp(1.7j)
    objects.append(direct_sum(rotation(lam1), rotation(lam1)))  # repeated character
    objects.append(direct_sum(direct_sum(rotation(lam1), reflection(lam2)), rotation(lam2)))
    objects.append(tensor_product(sample_classical(2, seed=7).object,
                                  sample_classical(2, seed=8).object))
    for k, X in enumerate(objects):
        decomp = decompose(X, seed=k)
        tested += 1
        if not all(leaf.n == 1 for leaf, _ in decomp.summands):
            decompose_ok = False
    ok = ok and decompose_ok

    # snake conditions: standard vectors pass n <= 6, scaled vectors fail
    snake_ok = all(
        check_snake(kac_vector(n), kac_vector(n), n).overall_pass for n in range(1, 7)
    ) and not check_snake(2.0 * kac_vector(3), kac_vector(3), 3).overall_pass
    ok = ok and snake_ok

    _report(
        5,
        "category suite",
        ok,
        f"tensor oracle worst deviation {worst_tensor:.2e} (<=1e-12) on 50 pairs, "
        f"fusion table {'ok' if fusion_ok else 'BROKEN'} on 30 cases, decompose "
        f"all-1-dim on {tested} objects: {'ok' if decompose_ok else 'BROKEN'}, "
        f"snake standard-pass/scaled-fail: {'ok' if snake_ok else 'BROKEN'}",
    )


def test_criterion_6_numerical_hygiene():
    ok = True

    # analytic gradient vs central differences
    worst_grad = 0.0
    rng = np.random.default_rng(60)
    for point in range(20):
        n = point % 3 + 1
        mats = tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(4)
        )
        err = gradient_check(mats, seed=point)
        worst_grad = max(worst_grad, err)
        if err > 1e-4:
            ok = False

    # eigensolver reconstruction
    worst_eig = 0.0
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = R + adjoint(R)
        w, U = hermitian_eig(H)
        dev = frobenius(U @ np.diag(w) @ adjoint(U) - H)
        worst_eig = max(worst_eig, dev)
        if dev > 1e-10:
            ok = False

    # CLI golden files byte-stable under --reproducible
    golden_ok = True
    identity = str(GOLDEN / "identity_object.json")
    diagonal = [str(GOLDEN / f"diagonal_n{n}.json") for n in (3, 2)]
    conjugated = (GOLDEN / "conjugate_identity.json").read_text(encoding="utf-8")
    commands = {  # golden file: (argv, text piped to stdin)
        "check_identity.json": (["check", "--input", identity], None),
        "snake_n2.json": (["snake", "--n", "2"], None),
        "conjugate_identity.json": (["conjugate", "--input", identity], None),
        "certify_identity.json": (["certify"], conjugated),
        "fuse_identity.json": (["fuse", identity, identity], None),
        "fuse_diagonal.json": (["fuse", *diagonal], None),
    }
    for fname, (argv, stdin) in commands.items():
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "circleact.cli", *argv, "--reproducible"],
                input=stdin,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                golden_ok = False
            outs.append(proc.stdout)
        committed = (GOLDEN / fname).read_text(encoding="utf-8")
        if outs[0] != outs[1] or outs[0] != committed:
            golden_ok = False
    ok = ok and golden_ok

    _report(
        6,
        "numerical hygiene",
        ok,
        f"worst gradient deviation {worst_grad:.2e} (<=1e-4) at 20 points, worst "
        f"eigen reconstruction {worst_eig:.2e} (<=1e-10) on 100 matrices, CLI "
        f"golden files byte-stable: {'ok' if golden_ok else 'BROKEN'}",
    )


def test_criterion_7_negative_control(monkeypatch, tmp_path):
    # Rows 0-11 are the homomorphism equations of (A, B) and (C, D);
    # dropping the eight duality rows admits non-commutative solutions.
    monkeypatch.setattr(solver, "_CONSTRAINTS", _CONSTRAINTS[:12])
    ok = True
    found = {}
    for n in (2, 3, 4):
        out = tmp_path / f"solve_n{n}.json"
        code = cli.main([
            "solve", "--n", str(n), "--restarts", "8", "--seed", "0",
            "--reproducible", "--output", str(out),
        ])
        counterexamples = json.loads(out.read_text(encoding="utf-8"))["counterexamples"]
        found[n] = len(counterexamples)
        if code != 1 or not counterexamples:
            ok = False
    _report(
        7,
        "negative control",
        ok,
        "homomorphism-only search (no duality rows), 8 restarts, seed 0: "
        + ", ".join(f"n={n}: {k}/8 counterexamples" for n, k in found.items())
        + " (each run must exit 1 with at least one)",
    )
