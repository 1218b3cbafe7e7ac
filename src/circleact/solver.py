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
against finite differences by ``gradient_check``.  Per n and thread,
the evaluation is compiled on first use into a workspace: index arrays
that gather into preallocated buffers, and two point slots.  A restart
iterates inside them, the trial point written into one slot while the
current point sits in the other, so an iteration neither allocates an
n^2-sized array nor copies a point.  A dot product of more than 10,000
entries is summed in fixed blocks, so no result depends on the BLAS
thread count.  Its bits, and every trajectory's, equal those of the plain
kernel and minimizer that the tests keep as oracles.

The point of the experiment: every converged pair turns out to be
commutative and splits into rotation and reflection characters.  The
solver never assumes this; it measures it and reports per-outcome
commutativity residuals so a counterexample would surface immediately.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from .linalg import _require_int, _require_positive, _seeded_rng, adjoint
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
# grows as n^2 (~25 MB at n = 64, 21.5 MB of it the kept workspace) and an
# iteration as n^3 (~6 ms at n = 64 on a 2-vCPU VM), so a larger n is a
# typo, not a search.
SOLVE_MAX_N = 64

ALGORITHM = f"L-BFGS (memory {_MEMORY}) with Armijo backtracking"
RNG_FAMILY = "numpy PCG64"

def _kernel_indices(cons):
    """Index arrays of the stacked kernel, built from a constraint table.

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
    return padded(terms), padded(pieces), np.array(identity, dtype=np.intp)


# OpenBLAS splits a dot product of more than this many entries across its
# threads, in an order that depends on their count.
_BLOCK = 10_000


def _blocked(dot, size):
    """dot(a, b) over vectors of size entries, independent of the BLAS thread
    count: one plain call up to _BLOCK entries, else one call per block of
    _BLOCK entries (the last one shorter), summed from the first block on."""
    if size <= _BLOCK:
        return dot
    cuts = range(_BLOCK, size, _BLOCK)

    def blocked(a, b):
        total = dot(a[:_BLOCK], b[:_BLOCK])
        for k in cuts:
            total = total + dot(a[k:k + _BLOCK], b[k:k + _BLOCK])
        return total

    return blocked


def _multiply(take, left, right, L_rows, R_rows, L, R, out):
    take(left, 0, L_rows, "clip")  # under the default mode "raise", numpy buffers the output
    take(right, 0, R_rows, "clip")
    np.matmul(L, R, out=out)


class _Workspace:
    """The kernel at one n, compiled from the constraint table cons, with
    two point slots that a restart iterates between.  A stack holds every
    matrix an index pair names: per slot X, conj X, X^T and X^H, then the
    zero, then F, conj F, F^T and F^H.  A slot's X is a (4, n, n) point
    whose float64 view, in ``points``, is the vector L-BFGS iterates on.
    Each sum of products gathers matrix rows of the stack into left factors
    side by side and right factors stacked, then matmuls them into F's place
    in the stack or into G.  Each slot has its own gather indices; F, G and
    the factor buffers are shared, so a gradient is taken at the slot whose
    penalty was evaluated last."""

    def __init__(self, n, cons):
        self.cons = cons
        terms, pieces, identity = _kernel_indices(cons)
        m, i = len(terms[0]), np.arange(n)
        self.stack = np.zeros((33 + 4 * m, n, n), dtype=complex)
        X = self.stack[:32].reshape(2, 2, 2, 4, n, n)  # [slot, transposed, conjugated]
        Fs = self.stack[33:].reshape(2, 2, m, n, n)
        self.X, self.F, self.G = X[:, 0, 0], Fs[0, 0], np.empty((4, n, n), dtype=complex)
        self.points = [self.X[s].reshape(-1).view(np.float64) for s in (0, 1)]
        self.g = self.G.reshape(-1).view(np.float64)
        self.F_orient = (Fs[0, 0], Fs[0, 1], Fs[1], Fs[0].transpose(0, 1, 3, 2))
        self.flat, rows = self.stack.reshape(-1), self.stack.reshape(-1, n)
        self.diagonal = ((33 + identity[:, None]) * n * n + (n + 1) * i).ravel()  # F_c with -I
        self.F_flat = self.F.reshape(-1)
        self.vdot = _blocked(np.vdot, self.F_flat.size)
        self.dot = _blocked(np.ndarray.dot, 8 * n * n)
        buffers = []
        for left, _ in (terms, pieces):
            # L[k, i, j*n:(j+1)*n] is row i of S[left[k, j]]; R[k, j*n + i] that of S[right[k, j]].
            k, wn = len(left), left.shape[1] * n
            L, R = np.empty((k, n, wn), dtype=complex), np.empty((k, wn, n), dtype=complex)
            buffers.append((L.reshape(k * wn, n), R.reshape(k * wn, n), L, R))
        self.slots = []
        for s in (0, 1):
            # Stack row of each number _kernel_indices uses: slot s's 16
            # occurrences, then the zero and F's orientations, which both share.
            where = np.concatenate((16 * s + np.arange(16), 32 + np.arange(1 + 4 * m)))
            products = [(rows.take, (n * where[left][:, None, :] + i[:, None]).ravel(),
                         (n * where[right][:, :, None] + i).ravel(), *buf, out)
                        for (left, right), buf, out in zip((terms, pieces), buffers, (self.F, self.G))]
            self.slots.append((X[s, 0, 0], X[s, 0, 1], X[s, 1], X[s, 0].transpose(0, 1, 3, 2),
                               *products))

    def penalty(self, s):
        """Penalty at the point in slot s, leaving its constraints F in place."""
        X, conj_X, XT, X_transposed, terms, _ = self.slots[s]
        np.conjugate(X, out=conj_X)
        np.copyto(XT, X_transposed)
        _multiply(*terms)
        self.flat[self.diagonal] -= 1
        return float(self.vdot(self.F_flat, self.F_flat).real)

    def gradient(self, s):
        """Float64 view of the gradient stack G at the point in slot s, formed
        from the constraints F that the penalty there left; the next call
        overwrites it."""
        F, conj_F, FT, F_transposed = self.F_orient
        np.conjugate(F, out=conj_F)
        np.copyto(FT, F_transposed)
        _multiply(*self.slots[s][5])
        return self.g


_local = threading.local()  # this thread's workspaces, least recently used first


def _workspace(n):
    """This thread's workspace at n, rebuilt when _CONSTRAINTS is replaced.
    Four n are kept (21.5 MB at n = 64)."""
    spaces = _local.__dict__.setdefault("spaces", {})
    w = spaces.pop(n, None)
    if w is None or w.cons is not _CONSTRAINTS:
        w = _Workspace(n, _CONSTRAINTS)
    spaces[n] = w
    if len(spaces) > 4:
        del spaces[next(iter(spaces))]
    return w


def _load(mats):
    """This thread's workspace at the point's n, with the point in slot 0."""
    X = np.asarray(mats, dtype=complex)
    w = _workspace(X.shape[1])
    np.copyto(w.X[0], X)
    return w


def residual(A, B, C, D) -> float:
    """Penalty at a point: sum of squared Frobenius norms, 20 terms."""
    return _load((A, B, C, D)).penalty(0)


def gradient(A, B, C, D):
    """Analytic penalty gradient, one conjugate-sense matrix per variable.

    Returned as (G_A, G_B, G_C, G_D); the derivative of the penalty
    along a real coordinate is 2*Re(G) for real parts and 2*Im(G) for
    imaginary parts.
    """
    w = _load((A, B, C, D))
    w.penalty(0)
    return tuple(w.gradient(0).view(complex).reshape(w.G.shape).copy())


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters; residual_tol is the convergence threshold.  The
    counts are ints (n at most SOLVE_MAX_N), the floats finite and positive."""

    n: int
    restarts: int = 20
    max_iters: int = 5000
    residual_tol: float = 1e-10
    grad_tol: float = 1e-12
    step_init: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("restarts", 1), ("max_iters", 1), ("seed", 0)):
            _require_int(getattr(self, name), name, least, SOLVE_MAX_N if name == "n" else None)
        for name in ("residual_tol", "grad_tol", "step_init"):
            _require_positive(getattr(self, name), name)
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


def _minimize(X0, max_iters, stop_f, grad_tol, step_init):
    """L-BFGS with Armijo backtracking from the (4, n, n) stack X0.

    Iterates in this thread's workspace at n on the flat float64 views of
    its two point slots, where a plain dot product is Re vdot and the real
    gradient is 2G.  The current point sits in one slot; each trial point
    is written into the other, and an accepted step swaps their roles.  A
    gradient is formed only at accepted points.  Returns a copy of the stack
    where it stopped, its penalty, the accepted steps and the stop reason.
    """
    w = _workspace(np.shape(X0)[1])
    penalty, gradient, dot, multiply = w.penalty, w.gradient, w.dot, np.multiply
    cur, trial = 0, 1
    x, xn = w.points
    np.copyto(w.X[cur], X0)
    g, gn, q, t = np.empty((4, x.size))
    f = penalty(cur)
    multiply(2.0, gradient(cur), out=g)
    S, Y = (list(rows) for rows in np.zeros((2, _MEMORY + 1, x.size)))
    rho, a = [0.0] * (_MEMORY + 1), [0.0] * (_MEMORY + 1)
    pairs, spare = [], 0  # rows holding (s, y) pairs, oldest first, and the row for the next
    gamma = step_init  # the initial inverse Hessian is gamma * I
    for iters in range(max_iters + 1):
        reason = ("converged" if f <= stop_f else "grad_tol" if math.sqrt(dot(g, g)) <= grad_tol
                  else "max_iters" if iters == max_iters else None)
        if reason:
            break
        np.copyto(q, g)  # two-loop recursion: q becomes H g
        for i in reversed(pairs):
            a[i] = rho[i] * float(dot(S[i], q))
            q -= multiply(a[i], Y[i], out=t)
        q *= gamma
        for i in pairs:
            q += multiply(a[i] - rho[i] * float(dot(Y[i], q)), S[i], out=t)
        slope = float(dot(g, q))
        alpha = 1.0
        while alpha >= 1e-18:
            np.subtract(x, multiply(alpha, q, out=xn), out=xn)
            fn = penalty(trial)
            if fn <= f - 1e-4 * alpha * slope:
                break
            alpha /= 2.0
        else:
            reason = "line_search"
            break
        multiply(2.0, gradient(trial), out=gn)
        s, y = np.subtract(xn, x, out=S[spare]), np.subtract(gn, g, out=Y[spare])
        sy = float(dot(s, y))
        if sy > 0:  # curvature condition; otherwise the pair is skipped
            rho[spare] = 1.0 / sy
            pairs.append(spare)
            spare = pairs.pop(0) if len(pairs) > _MEMORY else len(pairs)
            gamma = sy / dot(y, y)  # numpy division: y.y can underflow to 0
        x, xn, f, g, gn, cur, trial = xn, x, fn, gn, g, trial, cur
    return w.X[cur].copy(), f, iters, reason


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
        rng = _seeded_rng(config.seed, idx)
        # The start draws real then imaginary parts of A, B, C, D in turn.
        Z = (1.0 / np.sqrt(2.0 * n)) * rng.standard_normal((4, 2, n, n))
        X, f, iters, stop_reason = _minimize(
            Z[:, 0] + 1j * Z[:, 1], config.max_iters, config.residual_tol ** 2, config.grad_tol,
            config.step_init,
        )
        pair = ConjugatePair(LinearObject(n, X[0], X[1]), X[2], X[3])
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
    both a solver fixed point and an oracle for the certifiers.  An n or
    a seed that fails its count rule in ``linalg`` raises ValueError.
    """
    rng = _seeded_rng(seed, _require_int(n, "n", least=1))
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

    Perturbs 32 seeded random real coordinates of the point, in the
    float64 view of its complex stack that ``_minimize`` iterates on, by
    steps of 1e-6 and returns the worst deviation, relative where the
    analytic entry is large and absolute where it is small.  A seed that
    is not a non-negative int raises ValueError.
    """
    step = 1e-6
    X = np.array(point, dtype=complex, order="C")
    x = X.reshape(-1).view(np.float64)
    rng = _seeded_rng(seed, X.shape[1], x.size)
    w = _load(X)
    w.penalty(0)
    g = 2.0 * w.gradient(0)
    picks = rng.integers(0, x.size, size=32)
    worst = 0.0
    for j in picks:
        e = np.zeros_like(x)
        e[j] = 1.0
        np.add(x, step * e, out=w.points[0])
        up = w.penalty(0)
        np.subtract(x, step * e, out=w.points[0])
        fd = (up - w.penalty(0)) / (2.0 * step)
        err = abs(fd - g[j]) / max(1.0, abs(g[j]))
        worst = max(worst, float(err))
    return worst
