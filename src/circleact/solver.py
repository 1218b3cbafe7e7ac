"""Numerical search for conjugate pairs from random starts.

The twenty constraint matrices (six homomorphism equations for each of
the two candidates, eight duality equations coupling them) are stacked
into a single penalty: the sum of squared Frobenius norms.  L-BFGS
(Liu & Nocedal 1989) with a short memory and Armijo backtracking drives
the penalty to zero from seeded random starts; a trial point costs a
penalty, an accepted one also a gradient, and no Jacobian is formed.
The analytic gradient follows the product rule through each constraint
term (plain, adjoint, transpose, or conjugate occurrence of a variable
pulls the factor out in a different orientation) and is validated
against finite differences by ``gradient_check``.  Per n, the
evaluation is compiled on first use into index arrays that gather into
preallocated buffers, so an iteration allocates no n^2-sized array.
Its bits, and every trajectory's, equal those of the plain kernel and
minimizer that the tests keep as oracles.

The point of the experiment: every converged pair turns out to be
commutative and splits into rotation and reflection characters.  The
solver never assumes this; it measures it and reports per-outcome
commutativity residuals so a counterexample would surface immediately.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from .linalg import adjoint
from .coaction import (
    _ADJ,
    _CONSTRAINTS,
    _TRANS,
    ConjugatePair,
    LinearObject,
    check_conjugate_matrix,
)
from .certify import certify_commutativity

# L-BFGS memory: (s, y) pairs kept.  At n <= 4 a two-loop over 8 pairs
# costs more than the kernel evaluation it saves.
_MEMORY = 4

# Largest fiber dimension SolverConfig admits.  A restart's working set
# grows as n^2 (~22 MB at n = 64) and an iteration as n^3 (~25 ms at
# n = 64 on a 2-vCPU VM), so a larger n is a typo, not a search.
SOLVE_MAX_N = 64

ALGORITHM = f"L-BFGS (memory {_MEMORY}) with Armijo backtracking"
RNG_FAMILY = "numpy PCG64"

def _kernel_indices(cons):
    """Index arrays of the stacked kernel, built once from a constraint table.

    Each output matrix is a row of (left, right) index pairs into a
    stack, summing their products.  The stack holds the 16 occurrences,
    a zero matrix that pads short rows and, for the gradient, op(F_c) at
    17 + len(cons) * code + c.  Constraint c has one pair per term.  The
    gradient of variable v has one pair per occurrence: a term M1 @ M2
    of constraint F sends F @ M2^H to its left factor and M1^H @ F to
    its right one, and a factor op(v) pulls that back to v through op,
    which acts on both factors and swaps them when it transposes.
    """
    zero, phi, m = 16, 17, len(cons)
    terms, pieces = [], [[] for _ in range(4)]
    for c, (ts, _) in enumerate(cons):
        terms.append([(4 * o1 + i1, 4 * o2 + i2) for i1, o1, i2, o2 in ts])
        for i1, o1, i2, o2 in ts:
            k = o1 ^ o2 ^ _ADJ  # the code of op1(M2^H) and of op2(M1^H)
            for v, o, pair in ((i1, o1, (phi + m * o1 + c, 4 * k + i2)),
                               (i2, o2, (4 * k + i1, phi + m * o2 + c))):
                pieces[v].append(pair[::-1] if o & _TRANS else pair)

    def padded(rows):
        width = max(map(len, rows))
        arr = np.array([row + [(zero, zero)] * (width - len(row)) for row in rows])
        return arr[..., 0], arr[..., 1]

    identity = [c for c, (_, has_identity) in enumerate(cons) if has_identity]
    return padded(terms), padded(pieces), np.array(identity)


_TERMS, _PIECES, _IDENTITY = _kernel_indices(_CONSTRAINTS)
_local = threading.local()  # this thread's workspaces, least recently used first


class _Workspace:
    """The kernel at one n and one constraint table.  A stack holds every
    matrix an index pair names: X, conj X, X^T, X^H, the zero, then F,
    conj F, F^T, F^H.  Each sum of products gathers matrix rows of it into
    left factors side by side and right factors stacked, then matmuls them
    into F's place in the stack or into G."""

    def __init__(self, n, tables):
        self.tables = terms, pieces, identity = tables
        m, i = len(terms[0]), np.arange(n)
        self.stack = np.zeros((17 + 4 * m, n, n), dtype=complex)
        self.X = self.stack[:16].reshape(2, 2, 4, n, n)  # [transposed, conjugated]
        self.Fs = self.stack[17:].reshape(2, 2, m, n, n)
        self.F, self.G = self.Fs[0, 0], np.empty((4, n, n), dtype=complex)
        self.flat, rows = self.stack.reshape(-1), self.stack.reshape((17 + 4 * m) * n, n)
        self.diagonal = ((17 + identity[:, None]) * n * n + (n + 1) * i).ravel()  # F_c with -I
        self.products = []
        for (left, right), out in ((terms, self.F), (pieces, self.G)):
            k, wn = len(left), left.shape[1] * n
            L, R = np.empty((k, n, wn), dtype=complex), np.empty((k, wn, n), dtype=complex)
            # L[k, i, j*n:(j+1)*n] is row i of S[left[k, j]]; R[k, j*n + i] that of S[right[k, j]].
            self.products.append((rows.take, (n * left[:, None, :] + i[:, None]).ravel(),
                                  (n * right[:, :, None] + i).ravel(), L.reshape(k * wn, n),
                                  R.reshape(k * wn, n), L, R, out))

    @staticmethod
    def multiply(take, left, right, L_rows, R_rows, L, R, out):
        take(left, 0, L_rows, "clip")  # under the default mode "raise", numpy buffers the output
        take(right, 0, R_rows, "clip")
        np.matmul(L, R, out=out)


def _penalty(mats):
    """Penalty at a point, and this thread's workspace at its n filled up to
    the 20 constraints F there.  The workspace is rebuilt when the table is
    replaced; four n are kept (~20 MB at n = 64)."""
    X = np.asarray(mats, dtype=complex)
    n, spaces = X.shape[1], _local.__dict__.setdefault("spaces", {})
    w = spaces.pop(n, None)
    if w is None or any(map(operator.is_not, w.tables, (_TERMS, _PIECES, _IDENTITY))):
        w = _Workspace(n, (_TERMS, _PIECES, _IDENTITY))
    spaces[n] = w
    if len(spaces) > 4:
        del spaces[next(iter(spaces))]
    np.copyto(w.X[0, 0], X)
    np.conjugate(X, out=w.X[0, 1])
    np.copyto(w.X[1], w.X[0].transpose(0, 1, 3, 2))
    w.multiply(*w.products[0])
    w.flat[w.diagonal] -= 1
    return float(np.vdot(w.F, w.F).real), w


def _gradient(w):
    """Gradient stack (4, n, n) from a workspace's constraints F, in a buffer
    that the next call at the same n in this thread overwrites."""
    np.conjugate(w.F, out=w.Fs[0, 1])
    np.copyto(w.Fs[1], w.Fs[0].transpose(0, 1, 3, 2))
    w.multiply(*w.products[1])
    return w.G


def residual(A, B, C, D) -> float:
    """Penalty at a point: sum of squared Frobenius norms, 20 terms."""
    return _penalty((A, B, C, D))[0]


def gradient(A, B, C, D):
    """Analytic penalty gradient, one conjugate-sense matrix per variable.

    Returned as (G_A, G_B, G_C, G_D); the derivative of the penalty
    along a real coordinate is 2*Re(G) for real parts and 2*Im(G) for
    imaginary parts.
    """
    _, G = _residual_and_gradient((A, B, C, D))
    return tuple(G.copy())


def _residual_and_gradient(mats):
    """Penalty and gradient stack (4, n, n) at a point."""
    f, w = _penalty(mats)
    return f, _gradient(w)


def _pack(mats) -> np.ndarray:
    """Real coordinates of a point: real then imaginary part, per variable."""
    X = np.asarray(mats, dtype=complex)
    return np.stack((X.real, X.imag), axis=1).ravel()


def _unpack(x: np.ndarray, n: int) -> np.ndarray:
    """The (4, n, n) complex stack of a packed point."""
    parts = x.reshape(4, 2, n, n)
    return parts[:, 0] + 1j * parts[:, 1]


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters; residual_tol is the convergence threshold."""

    n: int
    restarts: int = 20
    max_iters: int = 5000
    residual_tol: float = 1e-10
    grad_tol: float = 1e-12
    step_init: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "restarts", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n > SOLVE_MAX_N:
            raise ValueError(f"n must be at most {SOLVE_MAX_N}")
        for name in ("residual_tol", "grad_tol", "step_init"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.residual_tol < 1e-14:
            raise ValueError("residual_tol below 1e-14 is not resolvable")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolverOutcome:
    """One restart: where it stopped and what the stopping point is."""

    start_index: int
    converged: bool
    residual: float
    iterations: int
    stop_reason: str  # converged, grad_tol, line_search or max_iters
    commutativity: float
    duality: float
    pair: ConjugatePair

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"pair": self.pair.to_json()}


@dataclass(frozen=True)
class SolverRun:
    """All outcomes of a multi-restart search, ordered by start index."""

    config: SolverConfig
    outcomes: tuple

    def summary(self) -> dict:
        converged = [o for o in self.outcomes if o.converged]
        out = {
            "restarts": len(self.outcomes),
            "converged": len(converged),
            "stalled": len(self.outcomes) - len(converged),
            "stop_reasons": dict(Counter(o.stop_reason for o in self.outcomes)),
            "best_residual": min((o.residual for o in self.outcomes), default=None),
        }
        if converged:
            out["worst_commutativity"] = max(o.commutativity for o in converged)
            out["worst_duality"] = max(o.duality for o in converged)
        return out

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "algorithm": ALGORITHM,
            "rng": RNG_FAMILY,
            "outcomes": [o.to_json() for o in self.outcomes],
            "summary": self.summary(),
        }


def _minimize(x0, n, max_iters, stop_f, grad_tol, step_init):
    """L-BFGS with Armijo backtracking from the packed point x0.

    Iterates on the complex stack viewed as a flat float64 vector, where a
    plain dot product is Re vdot and the real gradient is 2G.  A gradient is
    formed only at accepted points.  Returns the packed point, its penalty,
    the accepted steps and the stop reason.
    """
    x = _unpack(x0, n).reshape(-1).view(np.float64)
    xn, g, gn, q, t = np.empty((5, x.size))
    f, w = _penalty(x.view(complex).reshape(4, n, n))
    np.multiply(2.0, _gradient(w).reshape(-1).view(np.float64), out=g)
    S, Y = (list(rows) for rows in np.zeros((2, _MEMORY + 1, x.size)))
    rho, a = [0.0] * (_MEMORY + 1), [0.0] * (_MEMORY + 1)
    slots, spare = [], 0  # rows holding (s, y) pairs, oldest first, and the row for the next
    gamma = step_init  # the initial inverse Hessian is gamma * I
    for iters in range(max_iters + 1):
        reason = ("converged" if f <= stop_f else "grad_tol" if math.sqrt(g.dot(g)) <= grad_tol
                  else "max_iters" if iters == max_iters else None)
        if reason:
            break
        np.copyto(q, g)  # two-loop recursion: q becomes H g
        for i in reversed(slots):
            a[i] = rho[i] * float(S[i].dot(q))
            q -= np.multiply(a[i], Y[i], out=t)
        q *= gamma
        for i in slots:
            q += np.multiply(a[i] - rho[i] * float(Y[i].dot(q)), S[i], out=t)
        slope = float(g.dot(q))
        alpha = 1.0
        while alpha >= 1e-18:
            np.subtract(x, np.multiply(alpha, q, out=xn), out=xn)
            fn, w = _penalty(xn.view(complex).reshape(4, n, n))
            if fn <= f - 1e-4 * alpha * slope:
                break
            alpha /= 2.0
        else:
            reason = "line_search"
            break
        np.multiply(2.0, _gradient(w).reshape(-1).view(np.float64), out=gn)
        s, y = np.subtract(xn, x, out=S[spare]), np.subtract(gn, g, out=Y[spare])
        sy = float(s.dot(y))
        if sy > 0:  # curvature condition; otherwise the pair is skipped
            rho[spare] = 1.0 / sy
            slots.append(spare)
            spare = slots.pop(0) if len(slots) > _MEMORY else len(slots)
            gamma = sy / y.dot(y)  # numpy division: y.y can underflow to 0
        x, xn, f, g, gn = xn, x, fn, gn, g
    return _pack(x.view(complex).reshape(4, n, n)), f, iters, reason


def solve(config: SolverConfig) -> SolverRun:
    """Run the multi-restart search described by the config.

    Restarts are independent: restart k draws its start from a PCG64
    generator seeded by (config.seed, k), so runs are reproducible and
    insensitive to execution order.  Iteration drives the penalty to
    residual_tol squared so that converged outcomes meet residual_tol
    in the root-sum-square sense as well; the converged classification
    itself is penalty <= residual_tol.
    """
    n = config.n
    outcomes = []
    for idx in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, idx)))
        # The packed start: real then imaginary parts of A, B, C, D in turn.
        x0 = (1.0 / np.sqrt(2.0 * n)) * rng.standard_normal(8 * n * n)
        x, f, iters, stop_reason = _minimize(
            x0, n, config.max_iters, config.residual_tol ** 2, config.grad_tol, config.step_init
        )
        A, B, C, D = _unpack(x, n)
        pair = ConjugatePair(LinearObject(n, A, B), C, D)
        commutativity = certify_commutativity(pair.object).max_residual()
        duality = check_conjugate_matrix(pair).max_residual()
        outcomes.append(SolverOutcome(
            start_index=idx, converged=f <= config.residual_tol, residual=f, iterations=iters,
            stop_reason=stop_reason, commutativity=commutativity, duality=duality, pair=pair))
    return SolverRun(config, tuple(outcomes))


def sample_classical(n: int, seed: int = 0) -> ConjugatePair:
    """A known-good pair: commuting unitary conjugated character mix.

    Draw a Haar-ish unitary W (QR of a complex Gaussian with phase
    fixed R diagonal), unit phases u_i, and a subset assignment; put
    the phases of the subset into the +1 coefficient and the rest into
    the -1 coefficient, conjugate by W, and take the canonical dual.
    Satisfies all twenty constraints to rounding error, which makes it
    both a solver fixed point and an oracle for the certifiers.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(raw)
    d = np.diag(R).copy()
    d[np.abs(d) == 0] = 1.0
    W = Q * (d / np.abs(d))
    u = np.exp(2j * np.pi * rng.random(n))
    mask = rng.integers(0, 2, n).astype(bool)
    a = np.where(mask, u, 0.0)
    b = np.where(mask, 0.0, u)
    A = W @ np.diag(a) @ adjoint(W)
    B = W @ np.diag(b) @ adjoint(W)
    return ConjugatePair(LinearObject(n, A, B), A.conj(), B.T)


def gradient_check(point, seed: int = 0) -> float:
    """Compare the analytic gradient with central differences.

    Perturbs 32 seeded random real coordinates of the packed point by
    steps of 1e-6 and returns the worst deviation, relative where the
    analytic entry is large and absolute where it is small.
    """
    step = 1e-6
    n = np.shape(point[0])[0]
    x = _pack(point)
    _, G = _residual_and_gradient(point)
    g = _pack(2.0 * G)
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, x.size)))
    picks = rng.integers(0, x.size, size=32)
    worst = 0.0
    for j in picks:
        e = np.zeros_like(x)
        e[j] = 1.0
        fd = (residual(*_unpack(x + step * e, n)) - residual(*_unpack(x - step * e, n))) / (
            2.0 * step
        )
        err = abs(fd - g[j]) / max(1.0, abs(g[j]))
        worst = max(worst, float(err))
    return worst
