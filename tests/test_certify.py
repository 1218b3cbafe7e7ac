"""Certification chain tests: partial isometries, polar data, duality, classical form."""

import json
import re

import numpy as np
import pytest

from circleact import certify
from circleact.cli import main
from circleact.certify import (
    AmbiguousSlot,
    Character,
    ConstraintViolation,
    NotSimultaneouslyDiagonalizable,
    canonical_dual,
    certify_commutativity,
    certify_duality,
    classical_form,
    is_partial_isometry,
    polar_data,
)
from circleact.coaction import ConjugatePair, LinearObject, reflection, rotation
from circleact.linalg import adjoint, frobenius
from circleact.solver import sample_classical

SHIFT = LinearObject(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def character_multiset(decomp):
    return sorted((c.kind, complex(round(c.phase.real, 6), round(c.phase.imag, 6)))
                  for c in decomp.characters)


def perturbed_pair(pair, rng, eps=1e-3):
    n = pair.object.n
    noise = lambda: eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ConjugatePair(
        LinearObject(n, pair.object.A + noise(), pair.object.B + noise()),
        pair.C + noise(),
        pair.D + noise(),
    )


class TestPartialIsometry:
    def test_unitary_is_partial_isometry(self):
        theta = 0.6
        U = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        ok, residual = is_partial_isometry(U)
        assert ok
        assert residual < 1e-14

    def test_projection_is_partial_isometry(self):
        ok, _ = is_partial_isometry(np.diag([1.0, 0.0]))
        assert ok

    def test_nonisometry_detected(self):
        ok, residual = is_partial_isometry(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert not ok
        assert residual > 0.5


class TestPolarData:
    def test_diagonal_example(self):
        lam, mu = np.exp(0.4j), np.exp(-0.8j)
        obj = LinearObject(2, np.diag([lam, 0.0]), np.diag([0.0, mu]))
        data = polar_data(canonical_dual(obj))
        assert data.report.overall_pass
        assert np.allclose(data.U, np.diag([lam, mu]))
        assert np.allclose(data.P, np.diag([1.0, 0.0]))
        assert np.allclose(data.Q, np.diag([1.0, 0.0]))

    def test_classical_samples_certify_tightly(self):
        for seed in range(10):
            pair = sample_classical(3, seed=seed)
            data = polar_data(pair)
            assert data.report.max_residual() <= 1e-12

    def test_unitary_commutes_with_projection(self):
        # U P = A = P' U only needs UP = PU when the ranges align, which
        # the homomorphism equations force; certify it numerically.
        for seed in range(5):
            data = polar_data(sample_classical(3, seed=seed))
            assert frobenius(data.U @ data.P - data.P @ data.U) <= 1e-12

    def test_perturbed_pairs_rejected(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            bad = perturbed_pair(sample_classical(2, seed=seed), rng)
            with pytest.raises(ConstraintViolation):
                polar_data(bad)


class TestCertifyDuality:
    def test_canonical_duals_pass(self):
        for seed in range(5):
            report = certify_duality(sample_classical(3, seed=seed))
            assert report.overall_pass
            assert report.max_residual() <= 1e-12

    def test_phase_twisted_dual_rejected_upstream(self):
        lam, mu = np.exp(0.3j), np.exp(1.1j)
        obj = LinearObject(2, np.diag([lam, mu]), np.zeros((2, 2)))
        twisted = ConjugatePair(obj, np.exp(0.1j) * obj.A.conj(), np.zeros((2, 2)))
        message = (
            "pair fails the matrix level duality equations CAt+D*Bt-I, C*Abar+DBbar-I, "
            "ACt+B*Dt-I, A*Cbar+BDbar-I (max residual 1.414e-01)"
        )
        with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
            certify_duality(twisted)

    def test_phase_twist_residual_value(self):
        from circleact.coaction import check_conjugate_matrix

        theta = 0.1
        lam, mu = np.exp(0.3j), np.exp(1.1j)
        obj = LinearObject(2, np.diag([lam, mu]), np.zeros((2, 2)))
        twisted = ConjugatePair(obj, np.exp(1j * theta) * obj.A.conj(), np.zeros((2, 2)))
        report = check_conjugate_matrix(twisted)
        expected = abs(np.exp(1j * theta) - 1) * np.sqrt(2)
        assert report.residual("CAt+D*Bt-I") == pytest.approx(expected)

    def test_nonstandard_pairing_rejected(self):
        pair = sample_classical(2, seed=3)
        scaled = ConjugatePair(pair.object, pair.C, pair.D, s=2.0 * pair.s, t=pair.t)
        with pytest.raises(ConstraintViolation, match="standard pairing"):
            certify_duality(scaled)


class TestCanonicalDual:
    def test_diagonal_example(self):
        obj = LinearObject(2, np.diag([1j, 0.0]), np.diag([0.0, 1.0]))
        pair = canonical_dual(obj)
        assert np.array_equal(pair.C, np.diag([-1j, 0.0]))
        assert np.array_equal(pair.D, np.diag([0.0, 1.0]))

    def test_matches_sampled_duals(self):
        for seed in range(5):
            pair = sample_classical(3, seed=seed)
            canon = canonical_dual(pair.object)
            assert frobenius(canon.C - pair.C) == 0.0
            assert frobenius(canon.D - pair.D) == 0.0

    def test_invalid_object_rejected(self):
        message = (
            "object fails the homomorphism equations AA*+BB*-I, A*A+B*B-I (max residual 1.000e+00)"
        )
        with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
            canonical_dual(SHIFT)

    def test_result_passes_both_checkers(self):
        from circleact.coaction import check_conjugate_matrix, check_conjugate_raw

        pair = canonical_dual(sample_classical(4, seed=9).object)
        assert check_conjugate_matrix(pair).overall_pass
        assert check_conjugate_raw(pair).overall_pass


class TestCommutativity:
    def test_classical_samples_commute(self):
        for seed in range(5):
            report = certify_commutativity(sample_classical(3, seed=seed).object)
            assert report.overall_pass

    def test_shift_object_fails_with_sqrt2(self):
        report = certify_commutativity(SHIFT)
        assert not report.overall_pass
        assert report.residual("AA*-A*A") == pytest.approx(np.sqrt(2))

    def test_swap_times_projection_fails(self):
        # hom-valid but non-commutative: A = U P, B = U (I - P) with
        # U the swap and P = diag(1, 0)
        U = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = np.diag([1.0, 0.0])
        obj = LinearObject(2, U @ P, U @ (np.eye(2) - P))
        from circleact.coaction import check_homomorphism

        assert check_homomorphism(obj).overall_pass
        report = certify_commutativity(obj)
        assert not report.overall_pass
        assert report.residual("AB-BA") == pytest.approx(np.sqrt(2))


BROKEN_SPLITS = {
    "nan_blocks": (lambda V: np.full_like(V, np.nan),
                   r"^summand 0 isometry is not orthonormal: nan exceeds 1\.732e-09$"),
    "doubled_blocks": (lambda V: 2 * V,
                       r"^summand 0 isometry is not orthonormal: 3\.000e\+00 exceeds 1\.732e-09$"),
}


@pytest.fixture(params=BROKEN_SPLITS.values(), ids=BROKEN_SPLITS.keys())
def broken_split(request, monkeypatch):
    """A splitter whose blocks are NaN, or twice an isometry; the message
    that refuses its basis."""
    mutant, message = request.param
    split = certify.split_hermitian
    monkeypatch.setattr(
        certify, "split_hermitian", lambda *args: [mutant(V) for V in split(*args)]
    )
    return message


class TestBrokenSplitter:
    """Every character must come from a basis that was measured: a broken
    splitter is refused by classical_form and by ``circleact certify``."""

    def test_classical_form_refuses(self, broken_split):
        with pytest.raises(NotSimultaneouslyDiagonalizable, match=broken_split):
            classical_form(sample_classical(3, seed=3).object)

    def test_certify_exits_one_with_an_error(self, broken_split, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(sample_classical(3, seed=3).to_json()), encoding="utf-8")
        code = main(["certify", "--input", str(path), "--reproducible"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["report"]["overall_pass"] and "classical" not in payload
        assert re.match(broken_split, payload["error"])


def rotations(n):
    """n rotation characters of distinct phases, on the diagonal."""
    return LinearObject(n, np.diag(np.exp(1j * np.arange(n))), np.zeros((n, n)))


def pair_mixed(n, share, tol=1e-9):
    """The identity with columns 2k, 2k+1 rotated into each other, by the
    angle at which each column's +1 intertwining residual is share of
    tol*sqrt(n); the -1 residual and W*W - I vanish."""
    phases, W = np.exp(1j * np.arange(n)), np.eye(n, dtype=complex)
    for i in range(0, n - 1, 2):
        # A column mixed at angle t has residual |cos t sin t| |phase_i - phase_j|.
        t = np.arcsin(2 * share * tol * np.sqrt(n) / abs(phases[i] - phases[i + 1])) / 2
        c, s = np.cos(t), np.sin(t)
        W[:, [i, i + 1]] = W[:, [i, i + 1]] @ np.array([[c, -s], [s, c]])
    return W


class TestOneJudge:
    """``classical_form`` and ``decompose``'s classical route share one
    split-and-certify call, whose bounds are the tightest either had."""

    N, SHARE = 8, 0.6  # the aggregate is 0.6 * sqrt(8) = 1.7 times the bound

    @pytest.fixture
    def spread_split(self, monkeypatch):
        """A splitter whose columns each pass the per-summand checks, while
        their off-diagonal mass together exceeds tol*sqrt(n)."""
        X, W = rotations(self.N), pair_mixed(self.N, self.SHARE)
        bound = 1e-9 * np.sqrt(self.N)
        per_column = np.linalg.norm(X.A @ W - W @ np.diag(np.diag(adjoint(W) @ X.A @ W)), axis=0)
        assert np.all(per_column <= bound) and np.linalg.norm(per_column) > 1.5 * bound
        assert frobenius(adjoint(W) @ W - np.eye(self.N)) <= 1e-15
        monkeypatch.setattr(certify, "_seeded_split", lambda *_args: (W, [self.N]))
        return X

    MASS = r"^off-diagonal mass 4\.8\d\de-09 exceeds 2\.828e-09$"

    def test_classical_form_bounds_the_aggregate(self, spread_split):
        with pytest.raises(NotSimultaneouslyDiagonalizable, match=self.MASS):
            classical_form(spread_split)

    def test_certify_exits_one_on_the_aggregate(self, spread_split, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(canonical_dual(spread_split).to_json()), encoding="utf-8")
        code = main(["certify", "--input", str(path), "--reproducible"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["report"]["overall_pass"] and "classical" not in payload
        assert re.match(self.MASS, payload["error"])

    def test_decompose_leaves_the_classical_route(self, spread_split, monkeypatch):
        from circleact import category

        taken = []
        commutant = category._decompose_commutant
        monkeypatch.setattr(category, "_decompose_commutant",
                            lambda *args: taken.append(args) or commutant(*args))
        decomp = category.decompose(spread_split)
        assert len(taken) == 1 and decomp.widths == (1,) * self.N

    def test_unitarity_is_judged_before_ambiguity(self, monkeypatch):
        # The half-weight slot is ambiguous at tol 0.51; a basis twice a
        # unitary is refused by the certifier first.
        half = np.array([[np.sqrt(0.5)]])
        obj = LinearObject(1, half, half)
        with pytest.raises(AmbiguousSlot):
            classical_form(obj, tol=0.51)
        monkeypatch.setattr(certify, "_seeded_split", lambda *_args: (2 * np.eye(1) + 0j, [1]))
        message = r"^summand 0 isometry is not orthonormal: 3\.000e\+00 exceeds 5\.100e-01$"
        with pytest.raises(NotSimultaneouslyDiagonalizable, match=message):
            classical_form(obj, tol=0.51)

    def test_one_split_and_one_certification(self, monkeypatch):
        calls = []
        for name in ("_seeded_split", "_certified_decomposition"):
            inner = getattr(certify, name)
            monkeypatch.setattr(certify, name, lambda *args, name=name, inner=inner:
                                calls.append(name) or inner(*args))
        classical_form(sample_classical(5, seed=2).object)
        assert calls == ["_seeded_split", "_certified_decomposition"]


class TestClassicalForm:
    def test_diagonal_object(self):
        lam, mu = np.exp(0.4j), np.exp(-0.8j)
        obj = LinearObject(2, np.diag([lam, 0.0]), np.diag([0.0, mu]))
        decomp = classical_form(obj)
        assert character_multiset(decomp) == sorted(
            [("rotation", complex(round(lam.real, 6), round(lam.imag, 6))),
             ("reflection", complex(round(mu.real, 6), round(mu.imag, 6)))]
        )

    def test_rank_one_projection_split(self):
        P = np.full((2, 2), 0.5)
        obj = LinearObject(2, P, np.eye(2) - P)
        decomp = classical_form(obj)
        kinds = sorted(c.kind for c in decomp.characters)
        assert kinds == ["reflection", "rotation"]
        for c in decomp.characters:
            assert c.phase == pytest.approx(1.0)

    def test_tensor_of_rotations(self):
        from circleact.category import tensor_product

        lam, mu = np.exp(0.5j), np.exp(0.25j)
        prod = tensor_product(rotation(lam), rotation(mu))
        decomp = classical_form(prod)
        assert len(decomp.characters) == 1
        c = decomp.characters[0]
        assert c.kind == "rotation"
        assert c.phase == pytest.approx(lam * mu)

    def test_sampled_reconstruction_and_dichotomy(self):
        for seed in range(8):
            obj = sample_classical(4, seed=seed).object
            decomp = classical_form(obj, seed=seed)
            W = decomp.W
            assert frobenius(adjoint(W) @ W - np.eye(4)) <= 1e-10
            a_diag = np.array(
                [c.phase if c.kind == "rotation" else 0.0 for c in decomp.characters]
            )
            b_diag = np.array(
                [c.phase if c.kind == "reflection" else 0.0 for c in decomp.characters]
            )
            assert frobenius(W @ np.diag(a_diag) @ adjoint(W) - obj.A) <= 1e-9
            assert frobenius(W @ np.diag(b_diag) @ adjoint(W) - obj.B) <= 1e-9
            for c in decomp.characters:
                assert abs(abs(c.phase) - 1.0) <= 1e-9

    def test_deterministic_for_fixed_seed(self):
        obj = sample_classical(3, seed=5).object
        d1 = classical_form(obj, seed=42)
        d2 = classical_form(obj, seed=42)
        assert np.array_equal(d1.W, d2.W)
        assert d1.characters == d2.characters

    @pytest.mark.parametrize("seed", [-1, True, 1.0], ids=["negative", "bool", "float"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        message = f"^seed: expected a non-negative integer, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            classical_form(sample_classical(3, seed=5).object, seed=seed)

    def test_noncommutative_rejected(self):
        U = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = np.diag([1.0, 0.0])
        obj = LinearObject(2, U @ P, U @ (np.eye(2) - P))
        with pytest.raises(ConstraintViolation, match="commutativity"):
            classical_form(obj)

    def test_invalid_object_rejected(self):
        with pytest.raises(ConstraintViolation, match="homomorphism"):
            classical_form(SHIFT)

    def test_ambiguous_slot_at_loose_tolerance(self):
        # at tol 0.51 the half-weight candidate passes every residual
        # check, yet neither coefficient dominates the single slot
        half = np.array([[np.sqrt(0.5)]])
        obj = LinearObject(1, half, half)
        with pytest.raises(AmbiguousSlot):
            classical_form(obj, tol=0.51)

    def test_character_is_plain_data(self):
        c = Character("rotation", 1j)
        assert c.to_json() == {"kind": "rotation", "phase": [0.0, 1.0]}

    def test_pure_reflection(self):
        mu = np.exp(2.2j)
        decomp = classical_form(reflection(mu))
        assert decomp.characters[0].kind == "reflection"
        assert decomp.characters[0].phase == pytest.approx(mu)

    @pytest.mark.parametrize("m", [4, 16, 36])
    def test_split_symmetrizes_once(self, m, monkeypatch):
        # split_hermitian hands its random word straight to hermitian_eig,
        # which symmetrizes it; symmetrizing it first as well changes no bit.
        from circleact import certify, linalg

        for seed in range(3):
            obj = sample_classical(m, seed=seed).object
            once = classical_form(obj, seed=seed)
            with monkeypatch.context() as mp:
                mp.setattr(certify, "hermitian_eig",
                           lambda H: linalg.hermitian_eig((H + adjoint(H)) / 2.0))
                twice = classical_form(obj, seed=seed)
            assert once.W.tobytes() == twice.W.tobytes()
            assert once.characters == twice.characters
