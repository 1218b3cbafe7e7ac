"""The solver kernel against its oracle, and the isolation of its workspaces.

The oracle is the plain kernel: the occurrence stack built with
``concatenate``, factors gathered by fancy indexing and laid side by side
with a transpose and reshape.  The compiled kernel in ``circleact.solver``
gathers into preallocated buffers; its operands have the same values,
shapes and contiguity, so every bit of F, G and the penalty must agree.
"""

import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from circleact import solver
from circleact.coaction import _CONSTRAINTS
from circleact.solver import SolverConfig, _minimize, gradient, residual, solve

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


def point(n, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    return rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))


def assert_kernel_matches_oracle(X):
    f, G, F = oracle(X)
    assert np.array_equal(solver._constraints(X).F, F)
    assert residual(*X) == f
    f_new, G_new = solver._residual_and_gradient(X)
    assert f_new == f
    assert np.array_equal(G_new, G)
    assert all(np.array_equal(a, b) for a, b in zip(gradient(*X), G))


def run_bytes(config):
    return json.dumps(solve(config).to_json(), sort_keys=True)


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
        monkeypatch.setattr(solver, "_residual_and_gradient", lambda mats: oracle(mats)[:2])
        assert [run_bytes(c) for c in configs] == compiled


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
        # From one kernel call to the next, _minimize at n = 64 allocates
        # nothing above the limit: its vectors are updated in place.
        n = 64
        evaluate = solver._residual_and_gradient
        marks = []

        def traced(mats):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return evaluate(mats)

        evaluate(point(n, 0))
        monkeypatch.setattr(solver, "_residual_and_gradient", traced)
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
