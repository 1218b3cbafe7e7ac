"""Solver tests: penalty, analytic gradient, restarts, sampling, determinism."""

import json
import re

import numpy as np
import pytest

from circleact.certify import certify_commutativity, classical_form
from circleact.coaction import (
    ConjugatePair,
    LinearObject,
    check_conjugate_matrix,
    check_conjugate_raw,
    check_homomorphism,
)
from circleact import solver
from circleact.linalg import _seeded_rng, frobenius
from circleact.solver import (
    SOLVE_MAX_N,
    SolverConfig,
    SolverRun,
    gradient_check,
    residual,
    sample_classical,
    solve,
)
from circleact.solver import _minimize


def one_dim(a, b, c, d):
    return tuple(np.array([[z]], dtype=complex) for z in (a, b, c, d))


class TestPenalty:
    def test_zero_at_trivial_solution(self):
        assert residual(*one_dim(1, 0, 1, 0)) == 0.0

    def test_value_at_origin(self):
        # at zero every identity-bearing constraint contributes 1; there
        # are eight of them (four homomorphism, four duality)
        assert residual(*one_dim(0, 0, 0, 0)) == pytest.approx(8.0)

    def test_zero_on_classical_samples(self):
        for seed in range(5):
            pair = sample_classical(3, seed=seed)
            f = residual(pair.object.A, pair.object.B, pair.C, pair.D)
            assert f <= 1e-24

    def test_positive_off_solution(self):
        assert residual(*one_dim(1, 0.5, 1, 0)) > 0.1

    def test_penalty_matches_certifier_residuals(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 5):
            mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(4)]
            pair = ConjugatePair(LinearObject(n, mats[0], mats[1]), mats[2], mats[3])
            expected = (
                sum(c.residual ** 2 for c in check_homomorphism(pair.object).checks)
                + sum(c.residual ** 2 for c in check_conjugate_matrix(pair).checks)
            )
            assert residual(*mats) == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def test_vanishes_at_solution(self):
        pair = sample_classical(2, seed=0)
        err = gradient_check((pair.object.A, pair.object.B, pair.C, pair.D))
        assert err <= 1e-8

    def test_zero_point(self):
        n = 2
        Z = np.zeros((n, n), dtype=complex)
        assert gradient_check((Z, Z, Z, Z)) <= 1e-8

    def test_random_points(self):
        rng = np.random.default_rng(3)
        for trial in range(24):
            n = int(rng.integers(1, 4)) if trial < 20 else 5
            mats = tuple(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(4)
            )
            assert gradient_check(mats, seed=trial) <= 1e-4

    @pytest.mark.parametrize("seed", [-1, True, 1.0], ids=["negative", "bool", "float"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        pair = sample_classical(2, seed=0)
        with pytest.raises(ValueError, match=f"^seed: expected a non-negative integer, got {seed!r}$"):
            gradient_check((pair.object.A, pair.object.B, pair.C, pair.D), seed=seed)

    def test_error_below_one_is_absolute(self, monkeypatch):
        # At a solution every derivative is 0.  Shifting the analytic entry
        # of the first pick to 0.5 must read back an error of
        # |0 - 0.5| / max(1, 0.5) = 0.5: a larger floor would shrink it.
        pair = sample_classical(2, seed=0)
        size = 4 * 2 * 2 * 2  # float64 view of the (4, 2, 2) complex stack
        j = _seeded_rng(0, 2, size).integers(0, size, size=32)[0]
        exact = solver._Workspace.gradient

        def shifted(w, s):
            g = exact(w, s).copy()
            g[j] += 0.25  # the real gradient is 2G
            return g

        monkeypatch.setattr(solver._Workspace, "gradient", shifted)
        err = gradient_check((pair.object.A, pair.object.B, pair.C, pair.D), seed=0)
        assert abs(err - 0.5) <= 1e-6


class TestConstraintSubset:
    def test_homomorphism_rows_alone(self, monkeypatch):
        # The twelve homomorphism rows compile to a kernel of their own:
        # its penalty is the sum of those rows' squared certifier
        # residuals, and its gradient matches central differences.
        monkeypatch.setattr(solver, "_CONSTRAINTS", solver._CONSTRAINTS[:12])
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5):
            mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(4)]
            expected = sum(
                c.residual ** 2
                for A, B in (mats[:2], mats[2:])
                for c in check_homomorphism(LinearObject(n, A, B)).checks
            )
            assert residual(*mats) == pytest.approx(expected, rel=1e-12)
            assert gradient_check(mats, seed=n) <= 1e-4


class TestMinimize:
    def test_solution_is_fixed_point(self):
        pair = sample_classical(2, seed=4)
        X0 = np.array([pair.object.A, pair.object.B, pair.C, pair.D])
        X, f, iters, reason = _minimize(X0, 100, 1e-20, 1e-12, 1.0)
        assert (iters, reason) == (0, "converged")
        assert f <= 1e-24
        assert np.array_equal(X, X0) and X is not X0

    def test_descends_from_noise(self):
        rng = np.random.default_rng(5)
        pair = sample_classical(1, seed=6)
        noise = 1e-2 * rng.standard_normal((4, 2, 1, 1))
        X0 = np.array([pair.object.A, pair.object.B, pair.C, pair.D])
        X0 += noise[:, 0] + 1j * noise[:, 1]
        f0 = residual(*X0)
        _, f, _, _ = _minimize(X0, 2000, 1e-20, 1e-12, 1.0)
        assert f < f0 * 1e-10

    def test_first_trial_is_steepest_descent_at_step_init(self, monkeypatch):
        # Before any curvature pair is stored the L-BFGS direction is the
        # plain gradient, scaled by step_init, so the first trial point is
        # x - step_init * g with the real gradient g = 2G.
        penalty = solver._Workspace.penalty
        points = []

        def recorded_penalty(w, s):
            points.append(w.X[s].copy())
            return penalty(w, s)

        monkeypatch.setattr(solver._Workspace, "penalty", recorded_penalty)
        draw = 1e-2 * np.random.default_rng(0).standard_normal((4, 2, 2, 2))
        _minimize(draw[:, 0] + 1j * draw[:, 1], 1, 1e-20, 1e-12, 0.25)
        G0 = np.array(solver.gradient(*points[0]))
        np.testing.assert_allclose(points[1], points[0] - 0.25 * 2.0 * G0, rtol=1e-15, atol=0)

    def test_stop_reason_line_search(self, monkeypatch):
        # A penalty that rises at every trial point halves the step below
        # 1e-18 without accepting it, and no gradient is formed at a
        # rejected trial.
        penalty, grad = solver._Workspace.penalty, solver._Workspace.gradient
        calls = []

        def rising(w, s):
            calls.append("p")
            penalty(w, s)
            return float(calls.count("p"))

        def counted_gradient(w, s):
            calls.append("g")
            return grad(w, s)

        monkeypatch.setattr(solver._Workspace, "penalty", rising)
        monkeypatch.setattr(solver._Workspace, "gradient", counted_gradient)
        draw = np.random.default_rng(1).standard_normal((4, 2, 1, 1))
        _, f, iters, reason = _minimize(draw[:, 0] + 1j * draw[:, 1], 100, 1e-20, 1e-12, 1.0)
        assert (f, iters, reason) == (1.0, 0, "line_search")
        assert calls == ["p", "g"] + ["p"] * 60  # the start, then trials at 2**-k for k < 60


class TestSolve:
    def test_all_restarts_converge_n1(self):
        run = solve(SolverConfig(n=1, restarts=50, seed=0))
        assert len(run.outcomes) == 50
        assert all(o.converged for o in run.outcomes)
        for o in run.outcomes:
            assert o.residual <= 1e-10
            assert o.commutativity <= 1e-8
            assert o.duality <= 1e-6

    def test_converged_points_are_characters(self):
        run = solve(SolverConfig(n=1, restarts=10, seed=1))
        for o in run.outcomes:
            a = complex(o.pair.object.A[0, 0])
            b = complex(o.pair.object.B[0, 0])
            # one coefficient is a unit phase, the other vanishes
            assert min(abs(a), abs(b)) <= 1e-5
            assert abs(max(abs(a), abs(b)) - 1.0) <= 1e-5

    def test_n2_outcomes_certify_and_classicalize(self):
        run = solve(SolverConfig(n=2, restarts=8, seed=2))
        converged = [o for o in run.outcomes if o.converged]
        assert converged
        for o in converged:
            assert check_conjugate_raw(o.pair).overall_pass
            decomp = classical_form(o.pair.object, tol=1e-6)
            assert len(decomp.characters) == 2

    def test_deterministic(self):
        r1 = solve(SolverConfig(n=2, restarts=4, seed=7))
        r2 = solve(SolverConfig(n=2, restarts=4, seed=7))
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
            r2.to_json(), sort_keys=True
        )

    def test_start_is_the_named_seed_draw_scaled_by_one_over_sqrt_2n(self, monkeypatch):
        # Restart k starts from the (4, 2, n, n) normal draw of
        # _seeded_rng(seed, k), real then imaginary parts, each scaled so an
        # entry has mean square 1/n.
        starts = []
        minimize = solver._minimize

        def capture(X0, *args):
            starts.append(X0)
            return minimize(X0, *args)

        monkeypatch.setattr(solver, "_minimize", capture)
        n, seed = 3, 5
        solve(SolverConfig(n=n, restarts=2, max_iters=1, seed=seed))
        assert len(starts) == 2
        for k, X0 in enumerate(starts):
            Z = _seeded_rng(seed, k).standard_normal((4, 2, n, n)) / np.sqrt(2 * n)
            assert np.allclose(X0, Z[:, 0] + 1j * Z[:, 1], rtol=1e-14, atol=0)

    def test_seed_changes_outcomes(self):
        r1 = solve(SolverConfig(n=1, restarts=2, seed=0))
        r2 = solve(SolverConfig(n=1, restarts=2, seed=999))
        a1 = complex(r1.outcomes[0].pair.object.A[0, 0])
        a2 = complex(r2.outcomes[0].pair.object.A[0, 0])
        assert a1 != a2

    def test_stall_classification(self):
        run = solve(SolverConfig(n=2, restarts=3, max_iters=1, seed=0))
        assert all(not o.converged for o in run.outcomes)
        summary = run.summary()
        assert summary["stalled"] == 3
        assert summary["converged"] == 0
        assert summary["stop_reasons"] == {"max_iters": 3}
        assert all(o.stop_reason == "max_iters" for o in run.outcomes)
        assert "worst_commutativity" not in summary

    def test_huge_grad_tol_stops_at_the_start(self):
        run = solve(SolverConfig(n=1, restarts=2, grad_tol=1e6, seed=0))
        assert [(o.iterations, o.stop_reason, o.converged) for o in run.outcomes] == [
            (0, "grad_tol", False)
        ] * 2
        assert run.summary()["stop_reasons"] == {"grad_tol": 2}

    def test_no_restart_tail(self):
        # Gradient descent took 2339 iterations from this start.
        (outcome,) = solve(SolverConfig(n=2, restarts=1, seed=2)).outcomes
        assert outcome.converged and outcome.stop_reason == "converged"
        assert outcome.iterations <= 100

    def test_restart_outcomes_do_not_depend_on_restart_count(self):
        few = solve(SolverConfig(n=2, restarts=3, seed=5)).to_json()["outcomes"]
        many = solve(SolverConfig(n=2, restarts=6, seed=5)).to_json()["outcomes"]
        assert json.dumps(few, sort_keys=True) == json.dumps(many[:3], sort_keys=True)

    def test_outcomes_ordered_by_start_index(self):
        run = solve(SolverConfig(n=1, restarts=5, seed=3))
        assert [o.start_index for o in run.outcomes] == list(range(5))

    def test_run_json_shape(self):
        run = solve(SolverConfig(n=1, restarts=2, seed=4))
        payload = run.to_json()
        assert payload["algorithm"] == "L-BFGS (memory 4) with Armijo backtracking"
        assert payload["rng"] == "numpy PCG64"
        assert payload["summary"]["restarts"] == 2
        assert payload["summary"]["stop_reasons"] == {"converged": 2}
        assert all(o["stop_reason"] == "converged" for o in payload["outcomes"])
        assert len(payload["outcomes"]) == 2
        json.dumps(payload)  # must be serializable as-is


class TestSampleClassical:
    def test_satisfies_all_constraints_to_rounding(self):
        for n in (1, 2, 3, 4, 6):
            for seed in range(5):
                pair = sample_classical(n, seed=seed)
                f = residual(pair.object.A, pair.object.B, pair.C, pair.D)
                assert f <= 1e-24

    def test_commutative(self):
        for seed in range(5):
            report = certify_commutativity(sample_classical(4, seed=seed).object)
            assert report.max_residual() <= 1e-13

    def test_deterministic(self):
        p1 = sample_classical(3, seed=9)
        p2 = sample_classical(3, seed=9)
        assert np.array_equal(p1.object.A, p2.object.A)
        assert np.array_equal(p1.D, p2.D)

    @pytest.mark.parametrize("seed", [-1, True, 1.0], ids=["negative", "bool", "float"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # A bool is refused, not read as seed 1.
        with pytest.raises(ValueError, match=f"^seed: expected a non-negative integer, got {seed!r}$"):
            sample_classical(3, seed=seed)

    def test_distinct_seeds_distinct_samples(self):
        p1 = sample_classical(2, seed=0)
        p2 = sample_classical(2, seed=1)
        assert frobenius(p1.object.A - p2.object.A) + frobenius(
            p1.object.B - p2.object.B
        ) > 1e-3


class TestConfigValidation:
    def test_seed_defaults_to_zero(self):
        assert SolverConfig(n=2) == SolverConfig(n=2, seed=0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            SolverConfig(n=0)

    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            SolverConfig(n=1, restarts=0)

    def test_bad_max_iters(self):
        with pytest.raises(ValueError):
            SolverConfig(n=1, max_iters=0)

    def test_unresolvable_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(n=1, residual_tol=1e-15)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            SolverConfig(n=1, step_init=0.0)

    @pytest.mark.parametrize("value", [2.0, True, "2", None, np.int64(2)])
    @pytest.mark.parametrize("field", ["n", "restarts", "max_iters", "seed"])
    def test_non_int_integer_field(self, field, value):
        # Refused here, a float n cannot reach solve, whose TypeError would
        # name no field.
        rule = {"n": f"an integer from 1 to {SOLVE_MAX_N}", "seed": "a non-negative integer"}
        message = f"^{field}: expected {rule.get(field, 'a positive integer')}, got "
        with pytest.raises(ValueError, match=message + re.escape(repr(value)) + "$"):
            SolverConfig(**{"n": 2, "restarts": 1, field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("field", ["residual_tol", "grad_tol", "step_init"])
    def test_non_finite_or_non_positive_float(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(n=1, **{field: value})
