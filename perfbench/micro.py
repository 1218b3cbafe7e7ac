"""Fixed-input microbenchmarks of single public functions.

Each figure is the median time of repeated calls on one input made from
the run's seed, taken after the workload's warm-up.  They pin the cost
of one call of the kernels the workloads spend their time in, so that a
change to a kernel can be read apart from changes in how often it runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from circleact import category, coaction, linalg, solver


def per_call_s(fn, *args, min_time=0.2, min_reps=3) -> float:
    """Median seconds of ``fn(*args)`` over at least ``min_time``."""
    fn(*args)
    times = []
    deadline = time.perf_counter() + min_time
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _random_matrix(rng, n) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0 * n)


def intertwiner_matrix(obj) -> np.ndarray:
    """The 2m^2 x m^2 system ``morphism_space(obj, obj)`` takes the nullspace of."""
    eye = np.eye(obj.n, dtype=complex)
    return np.vstack(
        [
            np.kron(eye, obj.A.T) - np.kron(obj.A, eye),
            np.kron(eye, obj.B.T) - np.kron(obj.B, eye),
        ]
    )


def measure(seed: int, min_time: float = 0.2, min_reps: int = 3) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 6)))
    out = {}

    def time_it(fn, *args):
        return per_call_s(fn, *args, min_time=min_time, min_reps=min_reps)

    for n in (1, 2, 4, 16):
        point = [_random_matrix(rng, n) for _ in range(4)]
        out[f"solver.residual.us_n{n}"] = 1e6 * time_it(solver.residual, *point)
        out[f"solver.gradient.us_n{n}"] = 1e6 * time_it(solver.gradient, *point)
    for n in (8, 16):
        G = _random_matrix(rng, n)
        out[f"linalg.eig.us_n{n}"] = 1e6 * time_it(linalg.hermitian_eig, G + G.conj().T)
    for n in (4, 8, 12, 16):
        pair = solver.sample_classical(n, seed=int(rng.integers(2**31)))
        out[f"coaction.conj_raw.us_n{n}"] = 1e6 * time_it(coaction.check_conjugate_raw, pair)
    for a, b in ((4, 4), (5, 5)):
        x, y = (solver.sample_classical(m, seed=int(rng.integers(2**31))).object for m in (a, b))
        M = intertwiner_matrix(category.tensor_product(x, y))
        out[f"linalg.nullspace.ms_m{a * b}"] = 1e3 * time_it(linalg.nullspace_basis, M)
    return out
