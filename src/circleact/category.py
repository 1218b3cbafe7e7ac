"""Monoidal structure on coaction candidates.

Objects are the (A, B) candidates of the coaction layer; morphisms
X -> Y are matrices T intertwining the two candidates on the circle
generator: T A_X = A_Y T and T B_X = B_Y T.  Direct sums, tensor
products, conjugates, morphism spaces, irreducibility tests, and a
seeded decomposition into irreducible summands all live here, together
with the pairing-vector sanity check for conjugation.

The tensor product is implemented in closed form; applying the left
factor's coaction on top of the right factor's generator image gives an
independent symbolic route to the same coefficients, and the test suite
holds the two routes against each other.
"""

from __future__ import annotations

import numpy as np

from .linalg import adjoint, frobenius, kron, nullspace_basis, unvec
from .linalg import _require_int, _require_positive
from .coaction import CertificateReport, CheckResult, LinearObject, check_homomorphism
from .coaction import _as_pairing
from .certify import Decomposition, DecompositionFailure, _certified_decomposition
from .certify import _classical_split, _seeded_split, certify_commutativity


def direct_sum(X: LinearObject, Y: LinearObject) -> LinearObject:
    """Block diagonal sum of two candidates."""

    def block_diag(P, Q):
        return np.block([[P, np.zeros((X.n, Y.n))], [np.zeros((Y.n, X.n)), Q]])

    return LinearObject(X.n + Y.n, block_diag(X.A, Y.A), block_diag(X.B, Y.B))


def tensor_product(X: LinearObject, Y: LinearObject) -> LinearObject:
    """Tensor product candidate on the Kronecker product space.

    Closed form: the degree +1 coefficient is
    kron(A_X, A_Y) + kron(adjoint(B_X), B_Y) and the degree -1
    coefficient is kron(B_X, A_Y) + kron(adjoint(A_X), B_Y), the left
    factor occupying the left Kronecker slot.
    """
    A = kron(X.A, Y.A) + kron(adjoint(X.B), Y.B)
    B = kron(X.B, Y.A) + kron(adjoint(X.A), Y.B)
    return LinearObject(X.n * Y.n, A, B)


def conjugate_object(X: LinearObject) -> LinearObject:
    """The conjugate candidate: entrywise conjugate of A, transpose of B.

    Meaningful for valid commutative candidates; involutive on the nose
    for every input.
    """
    return LinearObject(X.n, X.A.conj(), X.B.T)


def morphism_space(X: LinearObject, Y: LinearObject, tol: float = 1e-9) -> np.ndarray:
    """Solve the intertwiner equations T A_X = A_Y T, T B_X = B_Y T.

    Both equations are imposed on the generator only.  Returns a
    (k, n_Y, n_X) array: the nullspace basis of the two linearized
    equations, reshaped once, an orthonormal basis of the morphisms
    X -> Y in the Frobenius inner product.  tol is finite and positive.
    """
    _require_positive(tol, "tol")  # before the two m^2 x m^2 blocks
    nx, ny = X.n, Y.n
    Iy = np.eye(ny, dtype=complex)
    Ix = np.eye(nx, dtype=complex)
    KA = kron(Iy, X.A.T) - kron(Y.A, Ix)
    KB = kron(Iy, X.B.T) - kron(Y.B, Ix)
    return nullspace_basis(np.vstack([KA, KB]), tol).reshape(-1, ny, nx)


def is_irreducible(X: LinearObject, tol: float = 1e-9) -> bool:
    """Whether the self morphism space is spanned by the identity."""
    return len(morphism_space(X, X, tol)) == 1


def decompose(X: LinearObject, tol: float = 1e-9, seed: int = 0) -> Decomposition:
    """Split a candidate into irreducible summands.

    Checks run in this order:

    1. The homomorphism equations.  An input failing them raises
       DecompositionFailure naming the failed equations.  One passing
       them has a *-closed End(X), since every intertwiner commutes
       with the unitary U = A + B and the projection P = A*A.
    2. The classical route, taken when ``certify_commutativity`` passes:
       ``_classical_split``, the call ``classical_form`` makes, splits
       [A, B] into a common eigenbasis W and certifies W cut into its n
       columns, each an isometry onto a one dimensional summand.
    3. The commutant route, taken when the commutativity residuals fail
       or the certifier refuses the classical split:
       ``_decompose_commutant`` splits End(X) instead.

    Each route hands its W to ``_certified_decomposition``, the one place
    that forms W* A W and W* B W and judges a split, the off-diagonal mass
    of all summands included; its certified arrays are the Decomposition.
    Any failure raises DecompositionFailure; nothing is certified by
    construction.  A seed that is not a non-negative int raises ValueError
    before any splitting word or End(X) is computed, and so does a tol
    that is not finite and positive.

    Deterministic for fixed (X, tol, seed); summands come out ordered by
    the eigenvalue clusters of the random words.
    """
    check_homomorphism(X, tol).require(
        "object fails the homomorphism equations", DecompositionFailure
    )
    if not certify_commutativity(X, tol).overall_pass:
        return _decompose_commutant(X, tol, seed)
    try:
        return _classical_split(X, tol, seed)
    except DecompositionFailure:
        return _decompose_commutant(X, tol, seed)


def _decompose_commutant(X: LinearObject, tol: float, seed: int) -> Decomposition:
    """Split X along its self morphism space End(X).

    End(X) is computed once and its basis array split by ``_seeded_split``:
    for a projection P in End(X) the commutant of the compressed candidate
    is P End(X) P (Murota, Kanno, Kojima & Kojima, JJIAM 27, 2010), so no
    node or leaf recomputes a morphism space.  An empty End(X) means tol is
    below the noise floor (the identity always intertwines) and raises
    DecompositionFailure.  Once the split is certified, a leaf V whose
    stack V* End(X) V has a traceless part above tol*sqrt(n) is reducible
    and raises DecompositionFailure.  This route needs no commutativity;
    it is the independent oracle for the classical route.
    """
    _require_int(seed, "seed")  # before End(X), the O(m^6) step
    mor = morphism_space(X, X, tol)
    if len(mor) == 0:
        raise DecompositionFailure(
            f"the self morphism space is empty at tol={tol:g}; the identity always "
            "intertwines, so the tolerance is below the numerical noise floor"
        )
    W, widths = _seeded_split(mor, tol, seed)
    decomp = _certified_decomposition(X, W, widths, tol, seed)
    for _, _, V in decomp._blocks():
        # V* End(X) V spans the leaf's own End; a leaf of width 1 has no traceless part.
        d = V.shape[1]
        C = adjoint(V) @ mor @ V
        traceless = C - C.trace(axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
        if not frobenius(traceless) <= tol * np.sqrt(X.n):
            raise DecompositionFailure("no splitting word found for a reducible candidate")
    return decomp


def check_snake(s, t, n: int, tol: float = 1e-9) -> CertificateReport:
    """Certify the conjugation pairing conditions for vectors s, t.

    Folding s and t to n x n matrices S and T by flat row-major index,
    the two composite pairings must both be the identity:
    transpose(conj(T) @ S) and transpose(conj(S) @ T).  The standard
    vectors pass exactly; any rescaling fails, which is the point of the
    normalization.  n is a positive int and tol finite and positive.
    """
    _require_int(n, "n", least=1)
    s = _as_pairing(s, n, "s")
    t = _as_pairing(t, n, "t")
    S = unvec(s, n, n)
    T = unvec(t, n, n)
    I = np.eye(n, dtype=complex)
    M1 = (T.conj() @ S).T
    M2 = (S.conj() @ T).T
    checks = (
        CheckResult("pairing[t*,s]-I", frobenius(M1 - I), tol),
        CheckResult("pairing[s*,t]-I", frobenius(M2 - I), tol),
    )
    return CertificateReport(tol, checks)
