"""The seeded splitter against its oracle.

The oracle is the splitter that recursed into every eigenvalue cluster,
a single eigenvalue included, only to find such a block final there.
``circleact.certify.split_hermitian`` appends a one-eigenvalue cluster
S as S @ I at once, all of a level's columns formed in one product.
The recursion returned the 1 x 1 identity before drawing from the
generator, and S @ I is the product it appended, so the blocks must
agree bit for bit (signed zeros included) and the generator must be
left in the same state.
"""

import numpy as np
import pytest

from circleact import certify
from circleact.category import conjugate_object, direct_sum, morphism_space, tensor_product
from circleact.certify import _seeded_split, split_hermitian
from circleact.coaction import LinearObject
from circleact.linalg import adjoint, hermitian_eig, split_by_gaps
from circleact.solver import sample_classical


def oracle_split(family, tol, rng):
    """Split a Hermitian family into joint blocks, recursing into every cluster."""
    m = family.shape[-1]
    gap_tol = max(1e-7, 100.0 * tol)
    means = np.trace(family, axis1=1, axis2=2)[:, None, None] / m
    if m == 1 or np.all(np.linalg.norm(family - means * np.eye(m), axis=(1, 2)) <= gap_tol):
        return [np.eye(m, dtype=complex)]
    for _ in range(6):
        H = np.tensordot(rng.standard_normal(len(family)), family, axes=1)
        w, U = hermitian_eig(H)
        scale = max(1.0, float(np.max(np.abs(w))))
        clusters = split_by_gaps(w, gap_tol * scale)
        if len(clusters) > 1:
            blocks = []
            for cl in clusters:
                S = U[:, cl]
                blocks += [S @ V for V in oracle_split(adjoint(S) @ family @ S, tol, rng)]
            return blocks
    return [np.eye(m, dtype=complex)]


def hermitian_parts(mats):
    """The shared family convention: T + T*, i(T - T*) for each member T in turn."""
    return np.stack([H for T in mats for H in (T + adjoint(T), 1j * (T - adjoint(T)))])


def generators(X):
    """The classical route's stack: A and B."""
    return np.stack([X.A, X.B])


def commutant(X):
    """The commutant route's stack: a basis of End(X)."""
    return morphism_space(X, X)


def seeded(seed, n):
    return np.random.default_rng(np.random.SeedSequence((seed, n)))


def assert_same_split(stack, seed, tol=1e-9):
    family = hermitian_parts(stack)
    n = family.shape[-1]
    rng, oracle_rng = seeded(seed, n), seeded(seed, n)
    got = split_hermitian(family, tol, rng)
    want = oracle_split(family, tol, oracle_rng)
    assert [V.shape for V in got] == [V.shape for V in want]
    assert [V.tobytes() for V in got] == [V.tobytes() for V in want]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # Both routes split through _seeded_split, which must build the same family
    # and return the oracle's blocks stacked, with their widths.
    W, widths = _seeded_split(stack, tol, seed)
    assert W.shape == (n, n) and W.tobytes() == np.hstack(want).tobytes()
    assert widths == [V.shape[1] for V in want]
    return got


@pytest.mark.parametrize("n", range(1, 17))
def test_sampled_generators(n):
    for seed in range(3):
        assert_same_split(generators(sample_classical(n, seed=seed).object), seed)


FACTORS = [(a, b) for a in range(1, 7) for b in range(1, 7)]


@pytest.mark.parametrize("a, b", FACTORS, ids=[f"{a}x{b}" for a, b in FACTORS])
def test_fused_generators(a, b):
    Z = tensor_product(sample_classical(a, seed=a).object, sample_classical(b, seed=10 + b).object)
    assert_same_split(generators(Z), a * b)


def _rotation_times_projection(m, seed):
    # A = UP and B = U(I - P): valid, not normal.
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    P = np.diag([1.0] * (m // 2) + [0.0] * (m - m // 2))
    return LinearObject(m, U @ P, U @ (np.eye(m) - P))


NON_COMMUTATIVE = {
    "X3_conjX3": lambda s: tensor_product(
        sample_classical(3, seed=s).object, conjugate_object(sample_classical(3, seed=s).object)
    ),
    "X4_conjX4": lambda s: tensor_product(
        sample_classical(4, seed=s).object, conjugate_object(sample_classical(4, seed=s).object)
    ),
    "X3_sum_X3": lambda s: direct_sum(sample_classical(3, seed=s).object,
                                      sample_classical(3, seed=s).object),
    "X8_sum_X8": lambda s: direct_sum(sample_classical(8, seed=s).object,
                                      sample_classical(8, seed=s).object),
    "UP_2": lambda s: _rotation_times_projection(2, s),
    "UP_9": lambda s: _rotation_times_projection(9, s),
    "UP_2_sum_X3": lambda s: direct_sum(_rotation_times_projection(2, s),
                                        sample_classical(3, seed=s).object),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", NON_COMMUTATIVE.values(), ids=NON_COMMUTATIVE.keys())
def test_commutant_families(build, seed):
    assert_same_split(commutant(build(seed)), seed)


@pytest.mark.parametrize("n", [3, 4])
def test_signed_zeros_of_eigh_are_normalized_as_before(n):
    # The first word has a one-eigenvalue cluster whose eigenvector carries
    # a -0.0 imaginary part.  The recursion appended it as S @ I, which
    # can turn -0.0 into +0.0; appending S bare would change output bytes.
    stack = generators(sample_classical(n, seed=1).object)
    family = hermitian_parts(stack)
    H = np.tensordot(seeded(0, n).standard_normal(len(family)), family, axes=1)
    w, U = hermitian_eig(H)
    singles = [cl[0] for cl in split_by_gaps(w, 1e-7 * max(1.0, np.abs(w).max())) if len(cl) == 1]
    assert (np.signbit(U[:, singles].imag) & (U[:, singles].imag == 0)).any()
    assert_same_split(stack, 0)


KINDS = ["complex", "real", "sparse"]


def hermitian_matrix(kind, m):
    """A complex Hermitian, real symmetric or sparse m x m matrix with m distinct eigenvalues."""
    rng = np.random.default_rng(m)
    if kind == "complex":
        R = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return R + adjoint(R)
    if kind == "real":
        R = rng.standard_normal((m, m))
        return (R + R.T).astype(complex)
    # Blocks of one and two coordinates: eigh's eigenvectors hold exact zeros.
    H = np.diag(rng.standard_normal(m)).astype(complex)
    for i in range(0, m - 1, 3):
        H[i, i + 1] = rng.standard_normal() + 1j * rng.standard_normal()
        H[i + 1, i] = H[i, i + 1].conjugate()
    return H


def first_word_eigenvectors(family, rng):
    return hermitian_eig(np.tensordot(rng.standard_normal(len(family)), family, axes=1))[1]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", range(2, 41))
def test_one_eigenvalue_blocks_are_the_per_column_products(kind, m):
    # Every cluster of the first word holds one eigenvalue: split_hermitian
    # forms all m final columns in one product, which must give the bytes
    # of each column S = U[:, [i]] times the 1 x 1 identity.
    family = hermitian_matrix(kind, m)[None]
    blocks = split_hermitian(family, 1e-9, seeded(0, m))
    U = first_word_eigenvectors(family, seeded(0, m))
    assert [V.shape for V in blocks] == [(m, 1)] * m
    one = np.eye(1, dtype=complex)
    assert [V.tobytes() for V in blocks] == [(U[:, [i]] @ one).tobytes() for i in range(m)]


@pytest.mark.parametrize("kind", KINDS)
def test_the_eigenvectors_above_hold_signed_or_exact_zeros(kind):
    # -0.0 imaginary parts in the dense kinds, exact zeros in the sparse one.
    found = 0
    for m in range(2, 41):
        U = first_word_eigenvectors(hermitian_matrix(kind, m)[None], seeded(0, m))
        zeros = (U == 0) if kind == "sparse" else np.signbit(U.imag) & (U.imag == 0)
        found += zeros.sum()
    assert found > 0


class FirstWord(Exception):
    """Raised by a stand-in eigensolver once it has been handed a word."""


@pytest.mark.parametrize("k", range(1, 9))
def test_the_word_is_np_tensordot_bit_for_bit(k, monkeypatch):
    # split_hermitian forms its word as np.tensordot does, without the
    # wrapper: the (1, k) coefficients times the (k, m * m) family.  Its
    # bytes must be np.tensordot's at every size; a 1 x 1 family is final
    # before any word is drawn.
    words = []

    def first(H):
        words.append(H)
        raise FirstWord

    monkeypatch.setattr(certify, "hermitian_eig", first)
    for m in range(1, 41):
        rng = np.random.default_rng((k, m))
        R = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
        family = R + R.conj().transpose(0, 2, 1)
        drawn = seeded(k, m)
        if m == 1:
            assert len(split_hermitian(family, 1e-9, drawn)) == 1
            assert drawn.bit_generator.state == seeded(k, m).bit_generator.state
            continue
        with pytest.raises(FirstWord):
            split_hermitian(family, 1e-9, drawn)
        want = np.tensordot(seeded(k, m).standard_normal(k), family, axes=1)
        assert words[-1].shape == (m, m) and words[-1].tobytes() == want.tobytes()
