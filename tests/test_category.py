"""Monoidal layer tests: sums, tensors, conjugates, morphisms, decomposition."""

import re

import numpy as np
import pytest

from circleact.category import (
    DecompositionFailure,
    _certified_decomposition,
    _decompose_commutant,
    check_snake,
    conjugate_object,
    decompose,
    direct_sum,
    is_irreducible,
    morphism_space,
    tensor_product,
)
from circleact.certify import (
    _seeded_split,
    canonical_dual,
    certify_commutativity,
    classical_form,
    split_hermitian,
)
from circleact import coaction
from circleact.coaction import (
    ConjugatePair,
    LinearObject,
    check_homomorphism,
    kac_vector,
    reflection,
    rotation,
)
from circleact.linalg import DimensionMismatch, adjoint, frobenius
from circleact.solver import sample_classical
from oracles import compose_image, generator_image


def phases(decomp_obj, kind):
    """Phases of the 1-dim summands of a Decomposition with the given kind."""
    out = []
    for leaf, _ in decomp_obj.summands:
        assert leaf.n == 1
        a, b = leaf.A[0, 0], leaf.B[0, 0]
        if kind == "rotation" and abs(a) > abs(b):
            out.append(complex(a))
        elif kind == "reflection" and abs(b) > abs(a):
            out.append(complex(b))
    return out


def kind_phase_multiset(decomp):
    """Sorted (kind, phase) of the 1-dim summands of a Decomposition."""
    out = []
    for leaf, _ in decomp.summands:
        assert leaf.n == 1
        a, b = complex(leaf.A[0, 0]), complex(leaf.B[0, 0])
        out.append(("rotation", a) if abs(a) >= abs(b) else ("reflection", b))
    return sorted(out, key=lambda kz: (kz[0], round(kz[1].real, 6), round(kz[1].imag, 6)))


def _with_irreducible_block():
    """A 2 x 2 irreducible block (A = UP, B = U(I - P)) beside three characters."""
    c, s = np.cos(0.7), np.sin(0.7)
    U, P = np.array([[c, -s], [s, c]]), np.diag([1.0, 0.0])
    return direct_sum(LinearObject(2, U @ P, U @ (np.eye(2) - P)), sample_classical(3, seed=7).object)


class TestDirectSum:
    def test_block_structure(self):
        X = rotation(np.exp(0.4j))
        Y = reflection(np.exp(-0.9j))
        Z = direct_sum(X, Y)
        assert Z.n == 2
        assert Z.A[0, 0] == X.A[0, 0] and Z.A[1, 1] == 0.0
        assert Z.B[1, 1] == Y.B[0, 0] and Z.B[0, 0] == 0.0
        assert Z.A[0, 1] == Z.A[1, 0] == 0.0

    def test_validity_preserved(self):
        X = sample_classical(2, seed=1).object
        Y = sample_classical(3, seed=2).object
        assert check_homomorphism(direct_sum(X, Y)).overall_pass

    def test_kac_vector_embeds_blockwise(self):
        # the standard pairing vector of the sum restricts to the blocks
        nX, nY = 2, 3
        v = kac_vector(nX + nY)
        M = v.reshape(nX + nY, nX + nY)
        assert np.array_equal(M[:nX, :nX].reshape(-1), kac_vector(nX))
        assert np.array_equal(M[nX:, nX:].reshape(-1), kac_vector(nY))
        assert np.all(M[:nX, nX:] == 0) and np.all(M[nX:, :nX] == 0)


class TestTensorProduct:
    def test_fusion_rotation_rotation(self):
        lam, mu = np.exp(0.7j), np.exp(-0.2j)
        Z = tensor_product(rotation(lam), rotation(mu))
        assert np.isclose(Z.A[0, 0], lam * mu)
        assert Z.B[0, 0] == 0.0

    def test_fusion_reflection_reflection(self):
        b1, b2 = np.exp(0.5j), np.exp(1.3j)
        Z = tensor_product(reflection(b1), reflection(b2))
        assert np.isclose(Z.A[0, 0], np.conj(b1) * b2)
        assert Z.B[0, 0] == 0.0

    def test_fusion_rotation_reflection(self):
        lam, b = np.exp(0.7j), np.exp(0.1j)
        Z = tensor_product(rotation(lam), reflection(b))
        assert Z.A[0, 0] == 0.0
        assert np.isclose(Z.B[0, 0], np.conj(lam) * b)

    def test_fusion_reflection_rotation(self):
        b, lam = np.exp(0.9j), np.exp(-0.4j)
        Z = tensor_product(reflection(b), rotation(lam))
        assert Z.A[0, 0] == 0.0
        assert np.isclose(Z.B[0, 0], b * lam)

    def test_validity_preserved(self):
        X = sample_classical(2, seed=3).object
        Y = sample_classical(2, seed=4).object
        assert check_homomorphism(tensor_product(X, Y)).overall_pass

    def test_closed_form_matches_symbolic_route(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            X = sample_classical(int(rng.integers(1, 4)), seed=trial).object
            Y = sample_classical(int(rng.integers(1, 4)), seed=1000 + trial).object
            Z = tensor_product(X, Y)
            symbolic = compose_image(X, generator_image(Y))
            assert frobenius(Z.A - symbolic.get(+1, 0)) <= 1e-12
            assert frobenius(Z.B - symbolic.get(-1, 0)) <= 1e-12
            assert all(abs(d) == 1 for d in symbolic)

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (3, 1), (2, 3), (5, 4)])
    def test_matches_the_kron_formula_bit_for_bit(self, nx, ny):
        rng = np.random.default_rng(10 * nx + ny)

        def factor(n):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M[rng.random((n, n)) < 0.2] = 0.0
            M.real[rng.random((n, n)) < 0.3] = -0.0
            M.imag[rng.random((n, n)) < 0.3] = -0.0
            M.real.flat[0] = M.imag.flat[-1] = -0.0  # a 1 x 1 factor too
            return M

        X, Y = (LinearObject(n, factor(n), factor(n)) for n in (nx, ny))
        Z = tensor_product(X, Y)
        A = np.kron(X.A, Y.A) + np.kron(adjoint(X.B), Y.B)
        B = np.kron(X.B, Y.A) + np.kron(adjoint(X.A), Y.B)
        assert (Z.A.tobytes(), Z.B.tobytes()) == (A.tobytes(), B.tobytes())

    def test_unit_object_both_sides(self):
        unit = rotation(1.0)
        X = sample_classical(3, seed=8).object
        left = tensor_product(unit, X)
        right = tensor_product(X, unit)
        assert frobenius(left.A - X.A) == 0.0 and frobenius(left.B - X.B) == 0.0
        assert frobenius(right.A - X.A) == 0.0 and frobenius(right.B - X.B) == 0.0


class TestConjugate:
    def test_involution_exact(self):
        X = sample_classical(3, seed=6).object
        back = conjugate_object(conjugate_object(X))
        assert np.array_equal(back.A, X.A)
        assert np.array_equal(back.B, X.B)

    def test_rotation_conjugates_to_inverse(self):
        lam = np.exp(0.8j)
        Xbar = conjugate_object(rotation(lam))
        assert np.isclose(Xbar.A[0, 0], np.conj(lam))

    def test_matches_canonical_dual(self):
        X = sample_classical(3, seed=7).object
        pair = canonical_dual(X)
        Xbar = conjugate_object(X)
        assert np.array_equal(Xbar.A, pair.C)
        assert np.array_equal(Xbar.B, pair.D)

    def test_frobenius_reciprocity_unit_in_product(self):
        # X tensor conj(X) contains the unit at least once
        for seed in range(4):
            X = sample_classical(2, seed=seed).object
            prod = tensor_product(X, conjugate_object(X))
            mor = morphism_space(rotation(1.0), prod)
            assert len(mor) >= 1


class TestMorphismSpace:
    def test_self_space_of_rotation(self):
        assert len(morphism_space(rotation(np.exp(0.3j)), rotation(np.exp(0.3j)))) == 1

    def test_distinct_rotations_disjoint(self):
        assert len(morphism_space(rotation(np.exp(0.3j)), rotation(np.exp(0.4j)))) == 0

    def test_rotation_vs_reflection_disjoint(self):
        assert len(morphism_space(rotation(1.0), reflection(1.0))) == 0

    def test_additivity_over_direct_sum(self):
        lam = np.exp(0.6j)
        X = rotation(lam)
        Y = direct_sum(direct_sum(X, X), reflection(0.2j / abs(0.2j)))
        assert len(morphism_space(X, Y)) == 2
        assert len(morphism_space(Y, Y)) == 5  # 2x2 block plus 1 scalar

    def test_basis_is_orthonormal_and_intertwines(self):
        X = sample_classical(3, seed=10).object
        mor = morphism_space(X, X)
        for i, T in enumerate(mor):
            for j, S in enumerate(mor):
                ip = np.trace(adjoint(T) @ S)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10
            assert frobenius(T @ X.A - X.A @ T) < 1e-9
            assert frobenius(T @ X.B - X.B @ T) < 1e-9

    def test_irreducibility_predicate(self):
        assert is_irreducible(rotation(np.exp(1.0j)))
        assert not is_irreducible(direct_sum(rotation(1.0), rotation(1.0)))


class TestDecompose:
    def test_single_rotation_is_already_irreducible(self):
        lam = np.exp(0.45j)
        decomp = decompose(rotation(lam))
        assert len(decomp.summands) == 1
        leaf, V = decomp.summands[0]
        assert np.isclose(leaf.A[0, 0], lam)
        assert np.array_equal(V, np.eye(1, dtype=complex))

    def test_rank_one_projection_splits(self):
        P = np.full((2, 2), 0.5)
        X = LinearObject(2, P, np.eye(2) - P)
        decomp = decompose(X)
        assert len(decomp.summands) == 2
        assert sorted(len(phases(decomp, k)) for k in ("rotation", "reflection")) == [1, 1]

    def test_three_distinct_characters(self):
        lams = [np.exp(0.3j), np.exp(1.1j)]
        X = direct_sum(direct_sum(rotation(lams[0]), rotation(lams[1])),
                       reflection(np.exp(0.2j)))
        decomp = decompose(X)
        assert len(decomp.summands) == 3
        rots = phases(decomp, "rotation")
        assert sorted(np.angle(r) for r in rots) == pytest.approx(sorted([0.3, 1.1]))

    def test_reconstruction(self):
        X = sample_classical(4, seed=12).object
        decomp = decompose(X, seed=12)
        A_rebuilt = np.zeros((4, 4), dtype=complex)
        B_rebuilt = np.zeros((4, 4), dtype=complex)
        for leaf, V in decomp.summands:
            A_rebuilt += V @ leaf.A @ adjoint(V)
            B_rebuilt += V @ leaf.B @ adjoint(V)
        assert frobenius(A_rebuilt - X.A) <= 1e-9
        assert frobenius(B_rebuilt - X.B) <= 1e-9

    def test_deterministic(self):
        X = sample_classical(3, seed=13).object
        d1 = decompose(X, seed=3)
        d2 = decompose(X, seed=3)
        assert len(d1.summands) == len(d2.summands)
        for (l1, V1), (l2, V2) in zip(d1.summands, d2.summands):
            assert np.array_equal(V1, V2)
            assert np.array_equal(l1.A, l2.A)

    def test_fused_reflections_stay_irreducible(self):
        b1, b2 = np.exp(0.4j), np.exp(-1.0j)
        Z = tensor_product(reflection(b1), reflection(b2))
        decomp = decompose(Z)
        assert len(decomp.summands) == 1
        leaf = decomp.summands[0][0]
        assert np.isclose(leaf.A[0, 0], np.conj(b1) * b2)

    def test_sampled_objects_split_to_characters(self):
        for seed in range(5):
            X = sample_classical(3, seed=seed).object
            decomp = decompose(X, seed=seed)
            assert all(leaf.n == 1 for leaf, _ in decomp.summands)

    def test_agrees_with_classical_form_multiset(self):
        # decompose's classical route splits [A, B] as classical_form does,
        # so the End(X) route is the independent side of this comparison.
        X = sample_classical(4, seed=14).object
        decomp = _decompose_commutant(X, 1e-9, 14)
        cf = classical_form(X, seed=14)
        key = lambda z: (z.real, z.imag)
        dec_phases = sorted(
            (complex(leaf.A[0, 0] + leaf.B[0, 0]) for leaf, _ in decomp.summands), key=key
        )
        cf_phases = sorted((complex(c.phase) for c in cf.characters), key=key)
        assert np.allclose(dec_phases, cf_phases, atol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "build, k",
        [
            (lambda X: direct_sum(X, X), 2),
            (lambda X: tensor_product(X, conjugate_object(X)), 3),
        ],
        ids=["sum_XX", "tensor_X_conjX"],
    )
    def test_multiplicities_split_to_characters(self, build, k, seed):
        # Repeated characters make the commutant non-commutative, which
        # random-phase fusion never produces.
        n = 3
        Y = build(sample_classical(n, seed=seed).object)
        decomp = _decompose_commutant(Y, 1e-9, seed)
        assert len(decomp.summands) == n * k
        assert all(leaf.n == 1 for leaf, _ in decomp.summands)
        cf = classical_form(Y, seed=seed)
        got = kind_phase_multiset(decomp)
        want = sorted(
            ((c.kind, complex(c.phase)) for c in cf.characters),
            key=lambda kz: (kz[0], round(kz[1].real, 6), round(kz[1].imag, 6)),
        )
        assert [kind for kind, _ in got] == [kind for kind, _ in want]
        assert np.allclose([z for _, z in got], [z for _, z in want], atol=1e-6)


def refuse_commutant_route(monkeypatch):
    def refuse(*_args):
        raise AssertionError("decompose took the End(X) route")

    monkeypatch.setattr("circleact.category._decompose_commutant", refuse)


class TestDecomposeRoutes:
    def test_non_homomorphism_rejected_naming_equations(self):
        # The nilpotent shift has a commutant that is not *-closed; it must
        # be refused for what it is, not for a failed intertwining check.
        shift = LinearObject(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(DecompositionFailure, match=r"homomorphism equations .*AA\*\+BB\*-I"):
            decompose(shift)

    def test_commutant_route_rejects_empty_self_morphism_space(self):
        # End(X) always holds the identity; empty means tol is below the
        # noise floor, which must not read as "irreducible".
        X = sample_classical(3, seed=1).object
        with pytest.raises(DecompositionFailure, match="self morphism space is empty"):
            _decompose_commutant(X, 1e-30, 0)

    def test_classical_split_refusal_falls_back_to_commutant_route(self, monkeypatch):
        # Commutativity passes, so only the certifier's refusal of the split
        # sends X to End(X): the classical split returns a unitary that
        # diagonalizes neither A nor B, and the End(X) split is the real one.
        X = sample_classical(3, seed=1).object
        assert certify_commutativity(X).overall_pass
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)) + 0j)
        with pytest.raises(DecompositionFailure):
            _certified_decomposition(X, Q, [1, 1, 1], 1e-9, 2)
        splits, calls = [], []

        def split(mats, *args):
            splits.append(len(mats))
            return (Q, [3]) if len(splits) == 1 else _seeded_split(mats, *args)

        def counted(*args):
            calls.append(args)
            return morphism_space(*args)

        monkeypatch.setattr("circleact.certify._seeded_split", split)
        monkeypatch.setattr("circleact.category.morphism_space", counted)
        decomp = decompose(X, seed=2)
        assert splits[0] == 2 and len(calls) == 1
        assert [leaf.n for leaf, _ in decomp.summands] == [1, 1, 1]

    @pytest.mark.parametrize("identity_first", [False, True], ids=["svd_basis", "identity_first"])
    @pytest.mark.parametrize("widths", [[4], [1, 3]])
    def test_commutant_route_refuses_an_unsplit_reducible_leaf(self, monkeypatch, widths,
                                                                identity_first):
        # Four distinct rotations: End(X) is the diagonal algebra, so every
        # leaf wider than 1 is reducible.  A split that stops short is
        # refused, whether it leaves X whole or a smaller leaf, and whichever
        # orthonormal basis End(X) comes in: with I/2 first, only the later
        # members are not scalar on the leaf.
        X = LinearObject(4, np.diag(np.exp(1j * np.arange(4.0))), np.zeros((4, 4)))
        if identity_first:
            signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
            basis = np.array([np.diag(r) / 2 for r in signs], dtype=complex)
            assert np.allclose(np.einsum("kij,lij->kl", basis.conj(), basis), np.eye(4))
            monkeypatch.setattr("circleact.category.morphism_space", lambda *_args: basis)
        monkeypatch.setattr("circleact.category._seeded_split",
                            lambda *_args: (np.eye(4, dtype=complex), widths))
        with pytest.raises(DecompositionFailure, match="^no splitting word found"):
            _decompose_commutant(X, 1e-9, 0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0], ids=["negative", "bool", "float"])
    @pytest.mark.parametrize("route", [decompose, _decompose_commutant])
    @pytest.mark.parametrize("build", [lambda: sample_classical(3, seed=1).object,
                                       _with_irreducible_block], ids=["classical", "commutant"])
    def test_seed_must_be_a_non_negative_int(self, monkeypatch, route, build, seed):
        # Refused before any work: End(X) is an O(m^6) step.
        X = build()

        def refuse(*args):
            raise AssertionError("End(X) computed for a refused seed")

        monkeypatch.setattr("circleact.category.morphism_space", refuse)
        message = f"^seed: expected a non-negative integer, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            route(X, 1e-9, seed)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "build",
        [
            lambda s: tensor_product(sample_classical(2, seed=s).object,
                                     sample_classical(3, seed=s + 10).object),
            lambda s: tensor_product(sample_classical(4, seed=s).object,
                                     sample_classical(4, seed=s + 10).object),
            lambda s: tensor_product(sample_classical(8, seed=s).object,
                                     sample_classical(2, seed=s + 10).object),
            lambda s: tensor_product(sample_classical(3, seed=s).object,
                                     conjugate_object(sample_classical(3, seed=s).object)),
            lambda s: tensor_product(sample_classical(4, seed=s).object,
                                     conjugate_object(sample_classical(4, seed=s).object)),
            lambda s: direct_sum(sample_classical(4, seed=s).object,
                                 sample_classical(4, seed=s).object),
            lambda s: direct_sum(sample_classical(8, seed=s).object,
                                 sample_classical(8, seed=s).object),
        ],
        ids=["X2_Y3", "X4_Y4", "X8_Y2", "X3_conjX3", "X4_conjX4", "X4_sum_X4", "X8_sum_X8"],
    )
    def test_classical_route_agrees_with_commutant_route(self, monkeypatch, build, seed):
        Z = build(seed)
        assert Z.n <= 16
        oracle = _decompose_commutant(Z, 1e-9, seed)
        refuse_commutant_route(monkeypatch)
        fast = decompose(Z, seed=seed)
        assert len(fast.summands) == len(oracle.summands) == Z.n
        got, want = kind_phase_multiset(fast), kind_phase_multiset(oracle)
        assert [k for k, _ in got] == [k for k, _ in want]
        assert np.allclose([z for _, z in got], [z for _, z in want], atol=1e-6)

    def test_non_commutative_object_takes_commutant_route(self, monkeypatch):
        # U a real rotation, P = diag(1, 0): the homomorphism equations
        # hold but A = UP is not normal, so classical_form refuses and the
        # End(X) route finds U and P irreducible together.
        c, s = np.cos(0.7), np.sin(0.7)
        U = np.array([[c, -s], [s, c]])
        P = np.diag([1.0, 0.0])
        X = LinearObject(2, U @ P, U @ (np.eye(2) - P))
        assert check_homomorphism(X).overall_pass
        calls = []

        def spy(*args):
            calls.append(args)
            return _decompose_commutant(*args)

        monkeypatch.setattr("circleact.category._decompose_commutant", spy)
        decomp = decompose(X, seed=4)
        assert len(calls) == 1
        assert [leaf.n for leaf, _ in decomp.summands] == [2]

    @pytest.mark.parametrize("sizes", [(9,), (16,), (25,), (3, 3), (2, 5), (8, 16)],
                             ids=["9", "16", "25", "3+3", "2+5", "8+16"])
    def test_commutant_route_computes_its_commutant_once(self, monkeypatch, sizes):
        # Block i of size m: A = UP, B = U(I - P) with U a random unitary
        # (seed m + 100 i) and P a projection of rank m // 2: valid, not
        # normal, and irreducible, and two such blocks are not isomorphic.
        # One block does not split and two split into their blocks; either
        # way each leaf is judged from the End(X) already computed.
        blocks = []
        for i, m in enumerate(sizes):
            rng = np.random.default_rng(m + 100 * i)
            U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            P = np.diag([1.0] * (m // 2) + [0.0] * (m - m // 2))
            blocks.append(LinearObject(m, U @ P, U @ (np.eye(m) - P)))
        X = blocks[0] if len(blocks) == 1 else direct_sum(*blocks)
        calls = []

        def counted(*args):
            calls.append(args)
            return morphism_space(*args)

        monkeypatch.setattr("circleact.category.morphism_space", counted)
        decomp = decompose(X, seed=0)
        assert sorted(leaf.n for leaf, _ in decomp.summands) == sorted(sizes)
        assert len(calls) == 1

    def test_classical_route_deterministic_at_size_64(self, monkeypatch):
        Z = tensor_product(sample_classical(8, seed=1).object, sample_classical(8, seed=2).object)
        refuse_commutant_route(monkeypatch)
        d1, d2 = decompose(Z, seed=5), decompose(Z, seed=5)
        assert len(d1.summands) == 64
        for (l1, V1), (l2, V2) in zip(d1.summands, d2.summands):
            assert np.array_equal(V1, V2)
            assert np.array_equal(l1.A, l2.A) and np.array_equal(l1.B, l2.B)


FACTORS = [(a, b) for a in range(1, 7) for b in range(1, 7)]


@pytest.mark.parametrize(
    "x, y", [*FACTORS, (8, 8)], ids=[f"{a}x{b}" for a, b in FACTORS] + ["8x8"]
)
def test_classical_route_keeps_the_bits_of_the_joint_diagonal(monkeypatch, x, y):
    # The leaves are the diagonals of W* A W and W* B W for classical_form's
    # common eigenbasis W, and the isometries the columns of W, bit for bit:
    # the fuse output bytes rest on this.
    Z = tensor_product(sample_classical(x, seed=x).object, sample_classical(y, seed=10 + y).object)
    W = classical_form(Z, seed=3).W
    Ad, Bd = adjoint(W) @ Z.A @ W, adjoint(W) @ Z.B @ W
    refuse_commutant_route(monkeypatch)
    summands = decompose(Z, seed=3).summands
    assert [leaf.n for leaf, _ in summands] == [1] * Z.n
    assert np.array([leaf.A[0, 0] for leaf, _ in summands]).tobytes() == np.diag(Ad).tobytes()
    assert np.array([leaf.B[0, 0] for leaf, _ in summands]).tobytes() == np.diag(Bd).tobytes()
    assert np.hstack([V for _, V in summands]).tobytes() == W.tobytes()


def test_classical_route_hands_the_split_to_the_certifier(monkeypatch):
    # The W of the one classical split reaches the certifier, cut into n
    # columns, and is the very array the Decomposition holds.
    Z = tensor_product(sample_classical(2, seed=2).object, sample_classical(3, seed=13).object)
    returned, handed = [], []

    def split(*args):
        returned.append(_seeded_split(*args))
        return returned[-1]

    def certifier(*args):
        handed.append(args)
        return _certified_decomposition(*args)

    monkeypatch.setattr("circleact.certify._seeded_split", split)
    monkeypatch.setattr("circleact.certify._certified_decomposition", certifier)
    decomp = decompose(Z, seed=3)
    [(W, _)], [args] = returned, handed
    assert args[1] is W and args[2] == [1] * Z.n
    assert decomp.W is W


def test_fuse_path_builds_no_summand_object(monkeypatch):
    # decompose and to_json work on the certified arrays; a LinearObject
    # per summand (and its validation) is built only when summands is read.
    Z = tensor_product(sample_classical(2, seed=2).object, sample_classical(3, seed=13).object)
    built = []
    store = coaction._store_square
    monkeypatch.setattr(coaction, "_store_square", lambda *args: built.append(args) or store(*args))
    decomp = decompose(Z, seed=3)
    decomp.to_json()
    assert built == []
    assert len(decomp.summands) == Z.n and len(built) == Z.n


def oracle_certify(X, W, dims, tol):
    """The per-summand loop that the stacked check replaced, on the leaves
    V* A V and V* B V of each block V of W, then the aggregate off-diagonal
    mass and completeness: the message of the first failure, or None."""
    n = X.n
    check_tol = tol * np.sqrt(n)
    bound = f"exceeds {check_tol:.3e}"
    total = np.zeros((n, n), dtype=complex)
    mass = 0.0
    for k, (i, d) in enumerate(zip(np.cumsum([0, *dims[:-1]]), dims)):
        V = W[:, i : i + d]
        total = total + V @ adjoint(V)
        ortho = frobenius(adjoint(V) @ V - np.eye(d))
        plus = frobenius(X.A @ V - V @ (adjoint(V) @ X.A @ V))
        minus = frobenius(X.B @ V - V @ (adjoint(V) @ X.B @ V))
        for what, residual in (("isometry is not orthonormal", ortho),
                               ("does not intertwine the +1 coefficient", plus),
                               ("does not intertwine the -1 coefficient", minus)):
            if residual > check_tol:
                return f"summand {k} {what}: {residual:.3e} {bound}"
        mass += plus**2 + minus**2
    if np.sqrt(mass) > check_tol:
        return f"off-diagonal mass {np.sqrt(mass):.3e} {bound}"
    drift = frobenius(total - np.eye(n))
    if drift > check_tol:
        return f"summand isometries do not resolve the identity: |WW*-I| = {drift:.3e} {bound}"
    return None


def failure_kind(message):
    """A certifier message without its summand index and its numbers."""
    return message and re.sub(r"^summand \d+ |:? \S+ exceeds \S+$", "", message)


def scaled(W, k, factor=1.5):
    """W with column k scaled: that column is no longer a unit vector."""
    W = W.copy()
    W[:, k] *= factor
    return W


def mixed(W, i, j, angle=0.6):
    """W with columns i and j rotated into each other: W stays unitary, but
    summands holding different characters no longer intertwine."""
    W = W.copy()
    c, s = np.cos(angle), np.sin(angle)
    W[:, [i, j]] = W[:, [i, j]] @ np.array([[c, -s], [s, c]])
    return W


def dropped(W, dims, k):
    """W and dims without summand k: the rest no longer resolves the identity."""
    i = sum(dims[:k])
    return np.delete(W, np.s_[i : i + dims[k]], axis=1), dims[:k] + dims[k + 1 :]


class TestCertifiedDecomposition:
    """Each check of ``_certified_decomposition`` on isometries W crafted
    from a valid one, the order in which failures are reported, and the
    loop it replaced."""

    EXCEEDS = r"(nan|inf|\d\.\d{3}e[+-]\d\d) exceeds \d\.\d{3}e-09$"  # residual, bound
    ORTHONORMAL = r"^summand \d+ isometry is not orthonormal: " + EXCEEDS
    PLUS = r"^summand \d+ does not intertwine the \+1 coefficient: " + EXCEEDS
    MINUS = r"^summand \d+ does not intertwine the -1 coefficient: " + EXCEEDS
    COMPLETE = r"^summand isometries do not resolve the identity: \|WW\*-I\| = " + EXCEEDS

    X = sample_classical(3, seed=8).object  # a reflection, a rotation, a reflection
    Y = _with_irreducible_block()  # blocks of two sizes

    @staticmethod
    def split(Z, seed=0):
        """The stacked isometry W and the block widths that decompose certified."""
        decomp = decompose(Z, seed=seed)
        return decomp.W, list(decomp.widths)

    @staticmethod
    def certify(Z, W, dims):
        """``_certified_decomposition`` of W at tol 1e-9."""
        return _certified_decomposition(Z, W, dims, 1e-9, 0)

    @staticmethod
    def columns(Z, W, dims):
        """Per column: its summand, and whether A or B moves it (a rotation
        column, or the first column of the 2 x 2 block, carries A)."""
        block = np.repeat(np.arange(len(dims)), dims)
        carries_a = np.linalg.norm(Z.A @ W, axis=0) > 0.5
        reflection = ~carries_a & np.isin(block, np.flatnonzero(np.array(dims) == 1))
        return block, carries_a, reflection

    def crafted(self, Z, change):
        """Every crafted W for one kind of change, with the dims it keeps."""
        W, dims = self.split(Z)
        block, carries_a, reflection = self.columns(Z, W, dims)
        pairs = [(i, j) for i in range(Z.n) for j in range(i + 1, Z.n) if block[i] != block[j]]
        if change == "orthonormal":
            return [scaled(W, k) for k in range(Z.n)]
        if change == "plus":  # a column A moves, mixed with one it does not
            return [mixed(W, i, j) for i, j in pairs if carries_a[i] != carries_a[j]]
        # Two reflections of different phases: A is 0 on both, B is not scalar.
        return [mixed(W, i, j) for i, j in pairs if reflection[i] and reflection[j]]

    def test_valid_summands_pass(self):
        for Z in (self.X, self.Y):
            want = decompose(Z).summands
            got = self.certify(Z, *self.split(Z)).summands
            assert [(l.n, l.A.tobytes(), l.B.tobytes(), V.tobytes()) for l, V in got] == [
                (l.n, l.A.tobytes(), l.B.tobytes(), V.tobytes()) for l, V in want
            ]
        assert sorted(self.split(self.Y)[1]) == [1, 1, 1, 2]

    @pytest.mark.parametrize(
        "change, message",
        [("orthonormal", ORTHONORMAL), ("plus", PLUS), ("minus", MINUS)],
        ids=["orthonormal", "plus", "minus"],
    )
    @pytest.mark.parametrize("which", ["X", "Y"])
    def test_each_summand_check(self, change, message, which):
        Z = getattr(self, which)
        dims = self.split(Z)[1]
        cases = self.crafted(Z, change)
        assert cases
        for W in cases:
            with pytest.raises(DecompositionFailure, match=message):
                self.certify(Z, W, dims)

    @pytest.mark.parametrize("which", ["X", "Y"])
    def test_dropped_summand_is_incomplete(self, which):
        Z = getattr(self, which)
        W, dims = self.split(Z)
        for k in range(len(dims)):
            with pytest.raises(DecompositionFailure, match=self.COMPLETE):
                self.certify(Z, *dropped(W, dims, k))

    @pytest.mark.parametrize("which", ["X", "Y"])
    def test_agrees_with_the_per_summand_loop(self, which):
        Z = getattr(self, which)
        W0, dims0 = self.split(Z)
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(60):
            W, dims = W0, dims0
            if rng.random() < 0.4:
                W = mixed(W, *rng.choice(Z.n, 2, replace=False), rng.uniform(0.3, 1.2))
            if rng.random() < 0.3:
                W = scaled(W, rng.integers(Z.n))
            if rng.random() < 0.2:
                W, dims = dropped(W, dims, rng.integers(len(dims)))
            try:
                self.certify(Z, W, dims)
                got = None
            except DecompositionFailure as exc:
                got = str(exc)
            assert got == oracle_certify(Z, W, dims, 1e-9)
            outcomes.add(failure_kind(got))
        assert len(outcomes) == 5  # a pass and each of the four failures

    def test_first_failing_summand_is_reported(self):
        # The two reflections of X fail the -1 check once mixed; scaling the
        # later one makes its summand fail orthonormality first.
        W, dims = self.split(self.X)
        i, j = np.flatnonzero(self.columns(self.X, W, dims)[2])
        with pytest.raises(DecompositionFailure, match=self.MINUS):
            self.certify(self.X, scaled(mixed(W, i, j), j), dims)

    def test_first_failing_check_of_a_summand_is_reported(self):
        # A rotation mixed with a reflection fails the +1 and -1 checks, and
        # scaled it fails all three: orthonormality is reported, then +1
        # before -1; a summand failure comes before completeness.
        W, dims = self.split(self.X)
        _, carries_a, reflection = self.columns(self.X, W, dims)
        (r,), (f, g) = np.flatnonzero(carries_a), np.flatnonzero(reflection)
        assert dims == [1, 1, 1]  # so column r is summand r
        with pytest.raises(DecompositionFailure, match=self.ORTHONORMAL):
            self.certify(self.X, scaled(mixed(W, r, f), min(r, f)), dims)
        with pytest.raises(DecompositionFailure, match=self.PLUS):
            self.certify(self.X, mixed(W, r, f), dims)
        with pytest.raises(DecompositionFailure, match=self.MINUS):
            self.certify(self.X, *dropped(mixed(W, f, g), dims, r))


class TestSplitHermitian:
    def test_degenerate_joint_spectrum(self):
        # Joint eigenvalues (1, 0), (1, 0), (1, 5), (-2, 5): the first two
        # slots coincide, so they must stay together in one block.
        rng = np.random.default_rng(21)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        family = np.stack(
            [Q @ np.diag(d).astype(complex) @ adjoint(Q) for d in ([1, 1, 1, -2], [0, 0, 5, 5])]
        )
        blocks = split_hermitian(family, 1e-9, np.random.default_rng(0))
        assert sorted(V.shape[1] for V in blocks) == [1, 1, 2]
        W = np.hstack(blocks)
        assert frobenius(adjoint(W) @ W - np.eye(4)) <= 1e-12
        for V in blocks:
            d = V.shape[1]
            for F in family:
                C = adjoint(V) @ F @ V
                assert frobenius(C - np.trace(C) / d * np.eye(d)) <= 1e-12
                # V's range is invariant: F V = V (V* F V)
                assert frobenius(F @ V - V @ C) <= 1e-12

    def test_gives_up_after_six_words(self):
        # On the family {F, -F}, a generator drawing equal weights makes every
        # word F - F = 0, which never splits: after six words the whole space
        # comes back as one block, for the caller's checks to judge.
        class EqualWeights:
            draws = 0

            def standard_normal(self, size):
                self.draws += 1
                return np.ones(size)

        F = np.diag([0.0, 1.0]).astype(complex)
        rng = EqualWeights()
        blocks = split_hermitian(np.stack([F, -F]), 1e-9, rng)
        assert rng.draws == 6
        assert len(blocks) == 1 and np.array_equal(blocks[0], np.eye(2))


class TestCheckSnake:
    def test_standard_vectors_pass(self):
        for n in range(1, 7):
            report = check_snake(kac_vector(n), kac_vector(n), n)
            assert report.overall_pass
            assert report.max_residual() == 0.0

    def test_scaled_vectors_fail(self):
        report = check_snake(2.0 * kac_vector(3), kac_vector(3), 3)
        assert not report.overall_pass
        assert report.residual("pairing[t*,s]-I") == pytest.approx(np.sqrt(3))

    def test_both_scaled_fail_both_ways(self):
        s = 0.5 * kac_vector(2)
        report = check_snake(s, s, 2)
        assert not report.overall_pass
        assert all(not c.passed for c in report.checks)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            check_snake(kac_vector(2), kac_vector(3), 3)

    def test_wrong_length_message_is_the_pairs(self):
        # check_snake and ConjugatePair state the pairing-vector rule once.
        message = "^t: expected length 1, got 4$"
        with pytest.raises(DimensionMismatch, match=message):
            check_snake(kac_vector(1), kac_vector(2), 1)
        with pytest.raises(DimensionMismatch, match=message):
            ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)), t=kac_vector(2))
