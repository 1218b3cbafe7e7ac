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

from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, frobenius, kron, matrix_to_json, nullspace_basis, unvec
from .coaction import CertificateReport, CheckResult, LinearObject, _as_pairing, check_homomorphism
from .certify import (
    AmbiguousSlot,
    NotSimultaneouslyDiagonalizable,
    _classical_form,
    certify_commutativity,
    split_hermitian,
)


class DecompositionFailure(RuntimeError):
    """Decomposition into irreducible summands did not certify."""


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


@dataclass(frozen=True)
class MorphismBasis:
    """Orthonormal basis (Frobenius inner product) of morphisms X -> Y."""

    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def morphism_space(X: LinearObject, Y: LinearObject, tol: float = 1e-9) -> MorphismBasis:
    """Solve the intertwiner equations T A_X = A_Y T, T B_X = B_Y T.

    Both equations are imposed on the generator only; a basis of the
    joint nullspace of the two linearized equations is returned, each
    vector reshaped to an n_Y x n_X matrix.
    """
    nx, ny = X.n, Y.n
    Iy = np.eye(ny, dtype=complex)
    Ix = np.eye(nx, dtype=complex)
    KA = kron(Iy, X.A.T) - kron(Y.A, Ix)
    KB = kron(Iy, X.B.T) - kron(Y.B, Ix)
    M = np.vstack([KA, KB])
    vectors = nullspace_basis(M, tol)
    basis = tuple(unvec(v, ny, nx) for v in vectors)
    return MorphismBasis(basis)


def is_irreducible(X: LinearObject, tol: float = 1e-9) -> bool:
    """Whether the self morphism space is spanned by the identity."""
    return morphism_space(X, X, tol).dim == 1


@dataclass(frozen=True)
class Decomposition:
    """Parent object split into summands via orthonormal isometries."""

    parent: LinearObject
    summands: tuple
    seed: int

    def to_json(self) -> dict:
        return {
            "summands": [
                {"object": obj.to_json(), "isometry": matrix_to_json(V)}
                for obj, V in self.summands
            ],
            "seed": self.seed,
        }


def decompose(X: LinearObject, tol: float = 1e-9, seed: int = 0) -> Decomposition:
    """Split a candidate into irreducible summands.

    Checks run in this order:

    1. The homomorphism equations.  An input failing them raises
       DecompositionFailure naming the failed equations.  One passing
       them has a *-closed End(X), since every intertwiner commutes
       with the unitary U = A + B and the projection P = A*A.
    2. The classical route, taken when ``certify_commutativity`` passes:
       the common eigenbasis W of ``classical_form``'s core.  Each column
       of W is an isometry onto a one dimensional summand, whose
       coefficients are the diagonal entries of W* A W and W* B W.
    3. The commutant route, taken when the commutativity residuals fail
       or the core raises NotSimultaneouslyDiagonalizable or
       AmbiguousSlot: ``_decompose_commutant`` splits End(X).

    Whichever route ran, the summands are then certified (orthonormal
    columns, complete, intertwining within tol*sqrt(n)); any failure
    raises DecompositionFailure.  Nothing is certified by construction.

    Deterministic for fixed (X, tol, seed); summands come out ordered by
    the eigenvalue clusters of the random words.
    """
    check_homomorphism(X, tol).require(
        "object fails the homomorphism equations", DecompositionFailure
    )
    if not certify_commutativity(X, tol).overall_pass:
        return _decompose_commutant(X, tol, seed)
    try:
        W = _classical_form(X, tol, seed).W
    except (NotSimultaneouslyDiagonalizable, AmbiguousSlot):
        return _decompose_commutant(X, tol, seed)
    Ad = adjoint(W) @ X.A @ W
    Bd = adjoint(W) @ X.B @ W
    summands = [
        (LinearObject(1, Ad[i : i + 1, i : i + 1], Bd[i : i + 1, i : i + 1]), W[:, i : i + 1])
        for i in range(X.n)
    ]
    return _certified_decomposition(X, summands, tol, seed)


def _decompose_commutant(X: LinearObject, tol: float, seed: int) -> Decomposition:
    """Split X along its self morphism space End(X).

    End(X) is computed once, and the Hermitian parts of its basis are
    handed to the shared splitter ``split_hermitian``.  For a projection
    P in End(X) the commutant of the compressed candidate is P End(X) P,
    so compressing the root basis stands in for recomputing a morphism
    space at every node.  End(X) always contains the identity, so an
    empty one means tol is below the noise floor and raises
    DecompositionFailure.  A leaf of dimension > 1 must have a one
    dimensional self morphism space; when nothing splits, the leaf is X
    and that space is End(X), which is not computed again.  This route
    needs no commutativity, and it is the independent oracle for the
    classical route.
    """
    mor = morphism_space(X, X, tol)
    if mor.dim == 0:
        raise DecompositionFailure(
            f"the self morphism space is empty at tol={tol:g}; the identity always "
            "intertwines, so the tolerance is below the numerical noise floor"
        )
    basis = np.stack(mor.basis)
    basis_h = basis.conj().transpose(0, 2, 1)
    family = np.concatenate([basis + basis_h, 1j * (basis - basis_h)]) / 2.0
    rng = np.random.default_rng(np.random.SeedSequence((seed, X.n)))
    summands = []
    blocks = split_hermitian(family, tol, rng)
    for V in blocks:
        leaf = LinearObject(V.shape[1], adjoint(V) @ X.A @ V, adjoint(V) @ X.B @ V)
        if leaf.n > 1:
            # An unsplit block is X itself, whose self morphism space is mor.
            end = mor if len(blocks) == 1 else morphism_space(leaf, leaf, tol)
            if end.dim != 1:
                raise DecompositionFailure("no splitting word found for a reducible candidate")
        summands.append((leaf, V))
    return _certified_decomposition(X, summands, tol, seed)


def _certified_decomposition(
    X: LinearObject, summands: list, tol: float, seed: int
) -> Decomposition:
    """Check the summands of X at tol*sqrt(n) and wrap them up."""
    n = X.n
    check_tol = tol * np.sqrt(n)
    total = np.zeros((n, n), dtype=complex)
    for leaf, V in summands:
        total = total + V @ adjoint(V)
        if frobenius(adjoint(V) @ V - np.eye(leaf.n)) > check_tol:
            raise DecompositionFailure("summand isometry is not orthonormal")
        if frobenius(X.A @ V - V @ leaf.A) > check_tol:
            raise DecompositionFailure("summand does not intertwine the +1 coefficient")
        if frobenius(X.B @ V - V @ leaf.B) > check_tol:
            raise DecompositionFailure("summand does not intertwine the -1 coefficient")
    if frobenius(total - np.eye(n)) > check_tol:
        raise DecompositionFailure("summand isometries do not resolve the identity")
    return Decomposition(X, tuple(summands), seed)


def check_snake(s, t, n: int, tol: float = 1e-9) -> CertificateReport:
    """Certify the conjugation pairing conditions for vectors s, t.

    Folding s and t to n x n matrices S and T by flat row-major index,
    the two composite pairings must both be the identity:
    transpose(conj(T) @ S) and transpose(conj(S) @ T).  The standard
    vectors pass exactly; any rescaling fails, which is the point of the
    normalization.
    """
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
