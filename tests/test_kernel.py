"""The solver kernel and minimizer against their oracles, and the isolation
of the kernel's workspaces.

The kernel's oracle is the plain kernel: the occurrence stack built with
``concatenate``, factors gathered by fancy indexing and laid side by side
with a transpose and reshape.  The compiled kernel in ``circleact.solver``
gathers into preallocated buffers; its operands have the same values,
shapes and contiguity, so every bit of F, G and the penalty must agree.

The minimizer's oracle is the L-BFGS loop that evaluates penalty and
gradient together at every trial point and keeps numpy scalars in the
two-loop.  ``circleact.solver._minimize`` forms the gradient only at
accepted points and keeps the two-loop's scalars in Python floats; it
performs the same floating-point operations in the same order, so every
outcome must agree bit for bit.
"""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from circleact import solver
from circleact.coaction import _CONSTRAINTS
from circleact.solver import (
    _MEMORY,
    SolverConfig,
    _minimize,
    _pack,
    _unpack,
    gradient,
    residual,
    solve,
)

NS = [1, 2, 3, 4, 5, 8, 16, 33]


def _oriented(M):
    """The four orientations of a stack of matrices, code-major: matrix v
    under occurrence code c is entry 4 * c + v."""
    Mc = M.conj()
    return np.concatenate((M, Mc, M.transpose(0, 2, 1), Mc.transpose(0, 2, 1)))


def _sum_of_products(S, index):
    """Row k: sum over j of S[left[k, j]] @ S[right[k, j]], as one matmul
    of the left factors side by side with the right factors stacked."""
    left, right = index
    rows, width = left.shape
    n = S.shape[1]
    L = S[left].transpose(0, 2, 1, 3).reshape(rows, n, width * n)
    return L @ S[right].reshape(rows, width * n, n)


def oracle(mats):
    """Penalty, gradient and constraints at a point, under the solver's
    current table."""
    X = np.asarray(mats, dtype=complex)
    n = X.shape[1]
    O = np.concatenate((_oriented(X), np.zeros((1, n, n))))
    F = _sum_of_products(O, solver._TERMS)
    F[solver._IDENTITY] -= np.eye(n)
    G = _sum_of_products(np.concatenate((O, _oriented(F))), solver._PIECES)
    return float(np.vdot(F, F).real), G, F


def oracle_minimize(x0, n, max_iters, stop_f, grad_tol, step_init):
    """L-BFGS with Armijo backtracking, evaluating penalty and gradient
    together at every trial point."""
    x = _unpack(x0, n).reshape(-1).view(np.float64)
    xn, g, gn, q, t = np.empty((5, x.size))
    f, G = solver._residual_and_gradient(x.view(complex).reshape(4, n, n))
    np.multiply(2.0, G.reshape(-1).view(np.float64), out=g)
    S, Y = np.zeros((2, _MEMORY + 1, x.size))
    rho, a = np.zeros((2, _MEMORY + 1))
    slots, spare = [], 0  # rows holding (s, y) pairs, oldest first, and the row for the next
    gamma = step_init  # the initial inverse Hessian is gamma * I
    for iters in range(max_iters + 1):
        reason = ("converged" if f <= stop_f else "grad_tol" if math.sqrt(g @ g) <= grad_tol
                  else "max_iters" if iters == max_iters else None)
        if reason:
            break
        np.copyto(q, g)  # two-loop recursion: q becomes H g
        for i in reversed(slots):
            a[i] = rho[i] * (S[i] @ q)
            q -= np.multiply(a[i], Y[i], out=t)
        q *= gamma
        for i in slots:
            q += np.multiply(a[i] - rho[i] * (Y[i] @ q), S[i], out=t)
        slope = g @ q
        alpha = 1.0
        while alpha >= 1e-18:
            np.subtract(x, np.multiply(alpha, q, out=xn), out=xn)
            fn, Gn = solver._residual_and_gradient(xn.view(complex).reshape(4, n, n))
            if fn <= f - 1e-4 * alpha * slope:
                break
            alpha /= 2.0
        else:
            reason = "line_search"
            break
        np.multiply(2.0, Gn.reshape(-1).view(np.float64), out=gn)
        s, y = np.subtract(xn, x, out=S[spare]), np.subtract(gn, g, out=Y[spare])
        sy = s @ y
        if sy > 0:  # curvature condition; otherwise the pair is skipped
            rho[spare] = 1.0 / sy
            slots.append(spare)
            spare = slots.pop(0) if len(slots) > _MEMORY else len(slots)
            gamma = sy / (y @ y)
        x, xn, f, g, gn = xn, x, fn, gn, g
    return _pack(x.view(complex).reshape(4, n, n)), f, iters, reason


def point(n, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    return rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))


def assert_kernel_matches_oracle(X):
    f, G, F = oracle(X)
    assert np.array_equal(solver._penalty(X)[1].F, F)
    assert residual(*X) == f
    f_new, G_new = solver._residual_and_gradient(X)
    assert f_new == f
    assert np.array_equal(G_new, G)
    assert all(np.array_equal(a, b) for a, b in zip(gradient(*X), G))


def run_bytes(config):
    return json.dumps(solve(config).to_json(), sort_keys=True)


def counted_kernel(mp):
    """Count penalty and gradient evaluations, in the order they happen."""
    penalty, grad, events = solver._penalty, solver._gradient, []

    def counted_penalty(mats):
        events.append("p")
        return penalty(mats)

    def counted_gradient(w):
        events.append("g")
        return grad(w)

    mp.setattr(solver, "_penalty", counted_penalty)
    mp.setattr(solver, "_gradient", counted_gradient)
    return events


def use_table(mp, terms, pieces, identity):
    mp.setattr(solver, "_TERMS", terms)
    mp.setattr(solver, "_PIECES", pieces)
    mp.setattr(solver, "_IDENTITY", identity)


class TestOracle:
    @pytest.mark.parametrize("n", NS)
    def test_full_table(self, n):
        for seed in range(3):
            assert_kernel_matches_oracle(point(n, seed))

    @pytest.mark.parametrize("n", NS)
    def test_homomorphism_rows(self, n, monkeypatch):
        use_table(monkeypatch, *solver._kernel_indices(_CONSTRAINTS[:12]))
        for seed in range(3):
            assert_kernel_matches_oracle(point(n, seed))

    def test_scaled_and_degenerate_points(self):
        for n in (1, 3):
            for X in (np.zeros((4, n, n)), 1e60 * point(n, 7), 1e-160 * point(n, 8)):
                assert_kernel_matches_oracle(X.astype(complex))

    def test_search_pool_bytes(self, monkeypatch):
        # Restarts n = 1..4, seeds 0-7 of the search workload's pool: the
        # whole trajectory, iteration counts and stop reasons included.
        configs = [SolverConfig(n=n, restarts=1, seed=s) for s in range(8) for n in (1, 2, 3, 4)]
        compiled = [run_bytes(c) for c in configs]
        calls = []

        def penalty(mats):  # the oracle's workspace is the point itself
            calls.append("p")
            return oracle(mats)[0], mats

        def grad(mats):
            calls.append("g")
            return oracle(mats)[1]

        monkeypatch.setattr(solver, "_penalty", penalty)
        monkeypatch.setattr(solver, "_gradient", grad)
        assert [run_bytes(c) for c in configs] == compiled
        assert set(calls) == {"p", "g"}


# The search workload's pool: seeds 0-31 at n = 1..4, one restart each.
POOL = [SolverConfig(n=n, restarts=1, seed=s) for s in range(32) for n in (1, 2, 3, 4)]


@pytest.fixture(scope="module")
def pool_runs():
    """Each restart of the pool under the minimizer and under its oracle:
    the outcome bytes, the accepted steps and the evaluations made."""
    runs = {}
    for name, minimize in (("lean", _minimize), ("oracle", oracle_minimize)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_minimize", minimize)
            events = counted_kernel(mp)
            runs[name] = []
            for config in POOL:
                events.clear()
                run = solve(config)
                runs[name].append((json.dumps(run.to_json(), sort_keys=True),
                                   run.outcomes[0].iterations, "".join(events)))
    return runs


class TestMinimizerOracle:
    @staticmethod
    def assert_same_bytes(monkeypatch, configs):
        lean = [run_bytes(c) for c in configs]
        monkeypatch.setattr(solver, "_minimize", oracle_minimize)
        assert [run_bytes(c) for c in configs] == lean
        return lean

    def test_search_pool_bytes(self, pool_runs):
        lean, oracle_ = ([b for b, _, _ in pool_runs[k]] for k in ("lean", "oracle"))
        assert lean == oracle_

    def test_search_pool_evaluations(self, pool_runs):
        # The oracle evaluates penalty and gradient at the start and at every
        # trial point.  The minimizer evaluates the same penalties, and a
        # gradient at the start and after each accepted step only, right
        # after that step's penalty: never at a rejected trial.
        rejected = 0
        for (_, iters, lean), (_, _, oracle_) in zip(pool_runs["lean"], pool_runs["oracle"]):
            trials = oracle_.count("p")
            assert oracle_ == "pg" * trials
            assert lean.count("p") == trials and lean.count("g") == iters + 1
            assert lean.startswith("pg") and "gg" not in lean
            rejected += trials - iters - 1
        assert rejected > 0

    @pytest.mark.parametrize("n, restarts", [(8, 3), (16, 2), (32, 1)])
    def test_larger_n(self, monkeypatch, n, restarts):
        self.assert_same_bytes(monkeypatch, [SolverConfig(n=n, restarts=restarts)])

    @pytest.mark.parametrize("reason, config", [
        ("max_iters", SolverConfig(n=3, restarts=3, max_iters=7)),
        ("grad_tol", SolverConfig(n=2, restarts=3, residual_tol=1e-14, grad_tol=1e-6)),
        ("line_search", SolverConfig(n=2, restarts=2, step_init=1e30)),  # every trial overshoots
    ])
    def test_stop_reasons(self, monkeypatch, reason, config):
        (run,) = self.assert_same_bytes(monkeypatch, [config])
        assert {o["stop_reason"] for o in json.loads(run)["outcomes"]} == {reason}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 2])
    def test_line_search_below_the_normal_range(self, seed):
        # With no penalty target the search runs on until f is subnormal,
        # the curvature scalars overflow and the line search gives up.
        x0 = np.random.default_rng(seed).standard_normal(8) / np.sqrt(2.0)
        lean, oracle_ = (minimize(x0, 1, 5000, 0.0, 1e-300, 1.0)
                         for minimize in (_minimize, oracle_minimize))
        assert lean[0].tobytes() == oracle_[0].tobytes() and lean[1:] == oracle_[1:]
        assert lean[3] == "line_search" and 0 < lean[1] < 1e-300


class TestWorkspaces:
    def test_other_n_in_between(self):
        first = run_bytes(SolverConfig(n=2, restarts=3, seed=1))
        solve(SolverConfig(n=3, restarts=1, seed=1))
        assert run_bytes(SolverConfig(n=2, restarts=3, seed=1)) == first
        for n in (3, 4, 5, 6, 7):  # more n than are kept: n = 2 is rebuilt
            solve(SolverConfig(n=n, restarts=1, max_iters=2, seed=1))
        assert len(solver._local.spaces) <= 4
        assert run_bytes(SolverConfig(n=2, restarts=3, seed=1)) == first

    @pytest.mark.parametrize("name", ["_TERMS", "_PIECES", "_IDENTITY"])
    def test_table_replaced_and_restored(self, name, monkeypatch):
        # Each variant is a consistent table whose kernel differs, so a
        # workspace compiled from the old table would be caught.
        X = point(3, 4)
        before = (residual(*X), [g.tobytes() for g in gradient(*X)])
        terms, pieces, identity = solver._TERMS, solver._PIECES, solver._IDENTITY
        left = terms[0].copy()
        left[0, 0] = 16  # the zero: row 0 loses a term
        variant = {"_TERMS": (left, terms[1]),
                   "_PIECES": (pieces[0][::-1], pieces[1][::-1]),  # G_A, ..., G_D reversed
                   "_IDENTITY": identity[:4]}[name]
        with monkeypatch.context() as mp:
            mp.setattr(solver, name, variant)
            assert_kernel_matches_oracle(X)
            assert (residual(*X), [g.tobytes() for g in gradient(*X)]) != before
        assert (residual(*X), [g.tobytes() for g in gradient(*X)]) == before

    def test_public_gradient_is_not_overwritten(self):
        G1 = gradient(*point(3, 1))
        kept = [g.copy() for g in G1]
        gradient(*point(3, 2))
        solve(SolverConfig(n=3, restarts=1, seed=0))
        assert all(np.array_equal(g, k) for g, k in zip(G1, kept))

    def test_two_threads(self):
        # Both threads solve at n = 2 and at n = 3, so the same n is in
        # flight in both at once.
        configs = [[SolverConfig(n=n, restarts=3, seed=k) for n in (2, 3)] for k in range(2)]
        sequential = [[run_bytes(c) for c in cs] for cs in configs]
        results = [None, None]

        def work(k):
            results[k] = [run_bytes(c) for c in configs[k]]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == sequential


class TestAllocation:
    LIMIT = 128 * 1024  # bytes; the plain kernel takes more than 1 MB per call at n = 32

    @pytest.mark.parametrize("n", [32, 64])
    def test_kernel_call(self, n):
        X = point(n, 0)
        solver._residual_and_gradient(X)  # compiles the workspace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver._residual_and_gradient(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < self.LIMIT

    def test_iterations(self, monkeypatch):
        # From one penalty evaluation to the next, _minimize at n = 64
        # allocates nothing above the limit: its vectors are updated in place.
        n = 64
        evaluate = solver._penalty
        marks = []

        def traced(mats):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return evaluate(mats)

        solver._residual_and_gradient(point(n, 0))
        monkeypatch.setattr(solver, "_penalty", traced)
        x0 = np.random.default_rng(0).standard_normal(8 * n * n) / np.sqrt(2.0 * n)
        tracemalloc.start()
        try:
            _, _, iters, _ = _minimize(x0, n, 3, 1e-20, 1e-12, 1.0)
        finally:
            tracemalloc.stop()
        # The first interval holds the L-BFGS memory, allocated once.
        extra = [peak - start for (start, _), (_, peak) in zip(marks[1:], marks[2:])]
        assert iters == 3 and len(extra) >= 2
        assert max(extra) < self.LIMIT, extra
