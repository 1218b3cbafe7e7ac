"""Linear coactions of the circle algebra on finite dimensional spaces.

A coaction candidate on an n dimensional space is a pair of n x n
matrices (A, B): the generator of the circle algebra is sent to
deg(+1) x A + deg(-1) x B, where deg(k) denotes the k-th power of the
generator.  A candidate is an actual coaction exactly when six matrix
equations hold; ``check_homomorphism`` certifies them.

A conjugate pair adds a second candidate (C, D) on the same space
together with two pairing vectors s, t of length n^2.  Compatibility of
the two candidates can be certified along two independent routes:

* ``check_conjugate_matrix`` evaluates fourteen matrix equations
  directly (eight duality equations plus the six equations making
  (C, D) a coaction candidate in its own right);
* ``check_conjugate_raw`` expands both composite coactions degree by
  degree on the n^2 dimensional pairing space and applies them to s and
  t, without ever forming the matrix equations; each Kronecker term is
  applied as vec(G S M^T), so the route costs O(n^3).  The coaction is
  linear, so the expansion needs only the images of the generator and
  of its adjoint, {+1: A, -1: B} and {-1: A*, +1: B*}, held as plain
  {degree: matrix} dicts.

For the standard pairing vectors the two routes agree exactly; keeping
both guards against errors in either derivation.  The twenty matrix
equations are written once, in the constraint table below, which the
matrix-level certifiers evaluate and the solver compiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatch,
    SchemaError,
    _fields,
    _matrix_to_json,
    _require_int,
    _require_positive,
    adjoint,
    as_matrix,
    as_vector,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    unvec,
    vec,
    vector_from_json,
    vector_to_json,
)

def kac_vector(n: int) -> np.ndarray:
    """The standard pairing vector of a positive int n: 1 at the flat indices i*n+i, else 0."""
    return np.eye(_require_int(n, "n", least=1), dtype=complex).ravel()


def _as_pairing(v, n: int, key: str) -> np.ndarray:
    """Validate and convert the pairing vector ``key``: a vector of length n^2."""
    v = as_vector(v, path=key)
    if v.size != n * n:
        raise DimensionMismatch(f"{key}: expected length {n * n}, got {v.size}")
    return v


def _store_square(obj, n: int, keys: tuple) -> None:
    """Validate the two matrices obj.<keys> as n x n and store them as arrays."""
    X, Y = (as_matrix(getattr(obj, key), path=key) for key in keys)
    if X.shape != (n, n) or Y.shape != (n, n):
        raise DimensionMismatch(f"expected two {n}x{n} matrices, got {X.shape} and {Y.shape}")
    for key, M in zip(keys, (X, Y)):
        object.__setattr__(obj, key, M)


@dataclass(frozen=True, eq=False)
class LinearObject:
    """A coaction candidate (A, B) on an n dimensional space; n is a positive int."""

    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        _require_int(self.n, "n", least=1)
        _store_square(self, self.n, ("A", "B"))

    def to_json(self) -> dict:
        return _object_json(self.A, self.B)

    @classmethod
    def from_json(cls, obj, *, path: str = "object") -> "LinearObject":
        n, *mats = _fields(obj, ("n", "A", "B"), path)
        n = _require_int(n, f"{path}.n", least=1, error=SchemaError)
        A, B = (matrix_from_json(M, path=f"{path}.{key}") for key, M in zip("AB", mats))
        try:
            return cls(n, A, B)
        except DimensionMismatch as exc:
            raise SchemaError(f"{path}: {exc}") from exc


def _object_json(A: np.ndarray, B: np.ndarray) -> dict:
    """The {n, A, B} document of a candidate given as two validated n x n arrays."""
    return {"n": A.shape[0], "A": _matrix_to_json(A), "B": _matrix_to_json(B)}


def rotation(phase: complex) -> LinearObject:
    """One dimensional object sending the generator to deg(+1) x phase."""
    return LinearObject(1, np.array([[phase]], dtype=complex), np.zeros((1, 1), complex))


def reflection(phase: complex) -> LinearObject:
    """One dimensional object sending the generator to deg(-1) x phase."""
    return LinearObject(1, np.zeros((1, 1), complex), np.array([[phase]], dtype=complex))


@dataclass(frozen=True, eq=False)
class ConjugatePair:
    """A candidate (A, B) with a candidate dual (C, D) and pairing vectors."""

    object: LinearObject
    C: np.ndarray
    D: np.ndarray
    s: np.ndarray = None
    t: np.ndarray = None

    def __post_init__(self):
        n = self.object.n
        _store_square(self, n, ("C", "D"))
        for key in ("s", "t"):
            v = getattr(self, key)
            v = kac_vector(n) if v is None else _as_pairing(v, n, key)
            object.__setattr__(self, key, v)

    @property
    def dual_object(self) -> LinearObject:
        """The candidate (C, D) viewed as a coaction candidate itself."""
        return LinearObject(self.object.n, self.C, self.D)

    def to_json(self) -> dict:
        out = self.object.to_json()
        out["C"] = matrix_to_json(self.C)
        out["D"] = matrix_to_json(self.D)
        out["s"] = vector_to_json(self.s)
        out["t"] = vector_to_json(self.t)
        return out

    @classmethod
    def from_json(cls, obj, *, path: str = "pair") -> "ConjugatePair":
        base = LinearObject.from_json(obj, path=path)
        mats = _fields(obj, ("C", "D"), path)
        C, D = (matrix_from_json(M, path=f"{path}.{key}") for key, M in zip("CD", mats))
        s, t = (
            vector_from_json(obj[key], path=f"{path}.{key}") if key in obj else None
            for key in ("s", "t")
        )
        try:
            return cls(base, C, D, s, t)
        except DimensionMismatch as exc:
            raise SchemaError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class CheckResult:
    """A single named residual with its threshold."""

    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.threshold)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "threshold": float(self.threshold),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a batch of residual checks at a finite positive base tolerance."""

    tolerance: float
    checks: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _require_positive(self.tolerance, "tol")

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def require(self, what: str, error: type[Exception]) -> None:
        """Raise error, naming the failed checks and the max residual,
        unless every check passed."""
        if not self.overall_pass:
            failed = ", ".join(c.name for c in self.checks if not c.passed)
            raise error(f"{what} {failed} (max residual {self.max_residual():.3e})")

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "checks": [c.to_json() for c in self.checks],
            "overall_pass": self.overall_pass,
        }


# Variable indices into the quadruple (A, B, C, D).
_A, _B, _C, _D = 0, 1, 2, 3

# Occurrence codes: how a variable enters a constraint term, numbered
# 2 * transposed + conjugated so that doing one after another is the XOR
# of their codes.
_PLAIN, _CONJ, _TRANS, _ADJ = 0, 1, 2, 3


def _constraint_table():
    """The twenty constraints as (terms, has_identity) records.

    Rows 0-5 make (A, B) a coaction candidate, rows 6-11 do the same for
    (C, D), and rows 12-19 are the eight duality equations.  Each term
    (i, op_i, j, op_j) stands for op_i(M_i) @ op_j(M_j); a constraint is
    the sum of its terms minus the identity when flagged.  This is the
    only statement of the system: the certifiers below evaluate it
    equation by equation, and the solver compiles it into its kernel.
    """
    cons = []
    for x, y in ((_A, _B), (_C, _D)):
        cons.append(([(x, _PLAIN, x, _ADJ), (y, _PLAIN, y, _ADJ)], True))
        cons.append(([(x, _PLAIN, y, _ADJ)], False))
        cons.append(([(y, _PLAIN, x, _ADJ)], False))
        cons.append(([(x, _ADJ, x, _PLAIN), (y, _ADJ, y, _PLAIN)], True))
        cons.append(([(y, _ADJ, x, _PLAIN)], False))
        cons.append(([(x, _ADJ, y, _PLAIN)], False))
    cons.append(([(_C, _PLAIN, _A, _TRANS), (_D, _ADJ, _B, _TRANS)], True))
    cons.append(([(_D, _PLAIN, _A, _TRANS), (_C, _ADJ, _B, _TRANS)], False))
    cons.append(([(_C, _ADJ, _A, _CONJ), (_D, _PLAIN, _B, _CONJ)], True))
    cons.append(([(_D, _ADJ, _A, _CONJ), (_C, _PLAIN, _B, _CONJ)], False))
    cons.append(([(_A, _PLAIN, _C, _TRANS), (_B, _ADJ, _D, _TRANS)], True))
    cons.append(([(_B, _PLAIN, _C, _TRANS), (_A, _ADJ, _D, _TRANS)], False))
    cons.append(([(_A, _ADJ, _C, _CONJ), (_B, _PLAIN, _D, _CONJ)], True))
    cons.append(([(_B, _ADJ, _C, _CONJ), (_A, _PLAIN, _D, _CONJ)], False))
    return tuple(cons)


def _constraint_name(terms, has_identity) -> str:
    """The check name of a constraint, e.g. "CAt+D*Bt-I"."""
    mark = ("", "bar", "t", "*")
    name = "+".join("ABCD"[i] + mark[p] + "ABCD"[j] + mark[q] for i, p, j, q in terms)
    return name + "-I" if has_identity else name


_CONSTRAINTS = _constraint_table()
_NAMES = tuple(_constraint_name(*c) for c in _CONSTRAINTS)


def _report(mats, rows, tol: float) -> CertificateReport:
    """One check per constraint row, evaluated at mats = (A, B[, C, D]).

    The operand forms M, conj(M), M^T and M^H are built once; each
    residual is the Frobenius norm of the first product, plus each
    further one, minus the identity when flagged.
    """
    forms = []
    for M in mats:
        Mc = M.conj()
        forms.append((M, Mc, M.T, Mc.T))
    I = np.eye(mats[0].shape[0], dtype=complex)
    checks = []
    for r in rows:
        terms, has_identity = _CONSTRAINTS[r]
        (i, p, j, q), *rest = terms
        F = forms[i][p] @ forms[j][q]
        for i, p, j, q in rest:
            F = F + forms[i][p] @ forms[j][q]
        checks.append(CheckResult(_NAMES[r], frobenius(F - I if has_identity else F), tol))
    return CertificateReport(tol, tuple(checks))


def check_homomorphism(obj: LinearObject, tol: float = 1e-9) -> CertificateReport:
    """Certify the six equations making (A, B) a coaction.

    The equations say that A + B is unitary and that A and B are
    supported on complementary ranges: A A* + B B* = I, A B* = 0,
    B A* = 0, A* A + B* B = I, B* A = 0, A* B = 0.
    """
    return _report((obj.A, obj.B), range(6), tol)


def check_conjugate_matrix(pair: ConjugatePair, tol: float = 1e-9) -> CertificateReport:
    """Certify duality of (A, B) and (C, D) at the matrix level.

    Fourteen residuals: eight duality equations coupling the two
    candidates, plus the six homomorphism equations for (C, D).  The
    homomorphism equations for (A, B) are the business of
    ``check_homomorphism`` and are not repeated here.
    """
    mats = (pair.object.A, pair.object.B, pair.C, pair.D)
    return _report(mats, (*range(12, 20), *range(6, 12)), tol)


def _generator_images(obj: LinearObject) -> tuple:
    """The coaction's images of the generator and of its adjoint, as
    {degree: coefficient}: {+1: A, -1: B} and {-1: A*, +1: B*}."""
    return {1: obj.A, -1: obj.B}, {-1: adjoint(obj.A), 1: adjoint(obj.B)}


def composite_on_vector(outer: LinearObject, inners, v: np.ndarray) -> list:
    """The outer coaction applied to each inner expression's circle leg,
    then to v, degree by degree.

    Each inner is a dict {+1: M, -1: M'} standing for deg(+1) x M +
    deg(-1) x M'; another degree raises KeyError.  The outer coaction
    sends deg(+1) and deg(-1) to its ``_generator_images``, so the
    composite is a sum of terms deg(d) x kron(G, M).  Each term is applied
    to v = vec(S) as vec(G S M^T) (see ``linalg.kron``): O(n^3), and no
    n^2 x n^2 matrix is formed.  Returns one {+1: vector, -1: vector} per
    inner; a coefficient that is exactly zero adds exact zeros.
    """
    S = unvec(v, outer.n, len(v) // outer.n)
    images = dict(zip((1, -1), _generator_images(outer)))
    out = []
    for inner in inners:
        terms: dict = {}
        for k, M in inner.items():
            for d, G in images[k].items():
                terms[d] = terms.get(d, 0) + G @ S @ M.T
        out.append({d: vec(T) for d, T in terms.items()})
    return out


def check_conjugate_raw(pair: ConjugatePair, tol: float = 1e-9) -> CertificateReport:
    """Certify duality by expanding composites on the pairing space.

    Both composite coactions are expanded degree by degree over the n^2
    dimensional product space and applied to the pairing vectors: the
    dual-after-primal composite must fix s on the generator (degree +1
    slot) and on its adjoint (degree -1 slot) while the other degree
    annihilates s, and symmetrically for the primal-after-dual composite
    on t.  Eight residuals; no matrix equation is formed anywhere, and
    ``composite_on_vector`` applies each composite in O(n^3).
    """
    obj, dual = pair.object, pair.dual_object
    checks = []
    # Dual composite applied to s, then primal composite applied to t.
    for label, outer, inner, vecv in (("s", dual, obj, pair.s), ("t", obj, dual, pair.t)):
        on_gen, on_adj = composite_on_vector(outer, _generator_images(inner), vecv)
        for gen_label, vecs, fix_deg in ((f"gen,{label}", on_gen, +1), (f"gen*,{label}", on_adj, -1)):
            for d in (-1, +1):
                residual = frobenius(vecs[d] - (vecv if d == fix_deg else 0.0))
                checks.append(CheckResult(f"raw[{gen_label},deg{d:+d}]", residual, tol))
    return CertificateReport(tol, tuple(checks))
