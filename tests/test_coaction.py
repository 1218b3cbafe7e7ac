"""Coaction layer tests: objects, the two dual checkers, and the raw route
against the Laurent-expression oracles of ``oracles``."""

import struct
import tracemalloc

import numpy as np
import pytest

from circleact.certify import canonical_dual
from circleact.coaction import (
    _NAMES,
    CertificateReport,
    CheckResult,
    ConjugatePair,
    LinearObject,
    check_conjugate_matrix,
    check_conjugate_raw,
    check_homomorphism,
    composite_on_vector,
    kac_vector,
    reflection,
    rotation,
)
from circleact.linalg import DimensionMismatch, SchemaError, adjoint, frobenius, unvec, vec
from circleact.solver import sample_classical
from oracles import (
    apply_coaction,
    compose_image,
    distance,
    generator_image,
    laurent,
    power,
    product,
    star,
)

# Matrix-route check name -> raw-route check name for the same equation.
ROUTE_PAIRING = {
    "CAt+D*Bt-I": "raw[gen,s,deg+1]",
    "DAt+C*Bt": "raw[gen,s,deg-1]",
    "C*Abar+DBbar-I": "raw[gen*,s,deg-1]",
    "D*Abar+CBbar": "raw[gen*,s,deg+1]",
    "ACt+B*Dt-I": "raw[gen,t,deg+1]",
    "BCt+A*Dt": "raw[gen,t,deg-1]",
    "A*Cbar+BDbar-I": "raw[gen*,t,deg-1]",
    "B*Cbar+ADbar": "raw[gen*,t,deg+1]",
}

HOM_NAMES = ["AA*+BB*-I", "AB*", "BA*", "A*A+B*B-I", "B*A", "A*B"]
DUAL_HOM_NAMES = ["CC*+DD*-I", "CD*", "DC*", "C*C+D*D-I", "D*C", "C*D"]


def perturbed(pair, rng, eps=1e-3):
    n = pair.object.n
    noise = lambda: eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ConjugatePair(
        LinearObject(n, pair.object.A + noise(), pair.object.B + noise()),
        pair.C + noise(),
        pair.D + noise(),
    )


class TestTypes:
    def test_object_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            LinearObject(2, np.eye(2), np.zeros((3, 3)))

    def test_object_rejects_nan(self):
        with pytest.raises(ValueError):
            LinearObject(1, np.array([[np.nan]]), np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "n", [1.0, True, 0, -1, "1"], ids=["float", "bool", "zero", "negative", "str"]
    )
    def test_object_refuses_n_that_is_not_a_positive_int(self, n):
        # 1.0 would be written as "n": 1.0, which from_json refuses; 0 would
        # reach decompose and fail inside numpy.
        with pytest.raises(ValueError, match=f"^n: expected a positive integer, got {n!r}$"):
            LinearObject(n, np.eye(1), np.zeros((1, 1)))

    def test_kac_vector(self):
        assert np.array_equal(kac_vector(2), np.array([1, 0, 0, 1], dtype=complex))

    def test_pair_defaults_to_kac(self):
        pair = ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)))
        assert np.array_equal(pair.s, kac_vector(1))
        assert np.array_equal(pair.t, kac_vector(1))

    def test_pair_vector_length_validated(self):
        with pytest.raises(DimensionMismatch):
            ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)), s=np.ones(2))

    @pytest.mark.parametrize(
        "C, error, text",
        [
            (np.eye(3), DimensionMismatch, r"^expected two 2x2 matrices, got \(3, 3\)"),
            (np.ones(4), DimensionMismatch, "^C: expected a 2-D array, got ndim=1$"),
            (np.ones((2, 2, 1)), DimensionMismatch, "^C: expected a 2-D array, got ndim=3$"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError, "^C: non-finite"),
            (np.array([[1.0, 0.0], [0.0, -np.inf]]), ValueError, "^C: non-finite"),
            (np.full((3, 3), np.nan), ValueError, "^C: non-finite"),
        ],
    )
    def test_pair_refuses_a_dual_coefficient(self, C, error, text):
        # The raw route reads C and D as inner coefficients as they are, so
        # the pair is where they are validated.
        with pytest.raises(error, match=text):
            ConjugatePair(LinearObject(2, np.eye(2), np.zeros((2, 2))), C, np.zeros((2, 2)))

    def test_pair_checks_each_pairing_vector_whole_before_the_next(self):
        # s too long and t non-finite: s is checked (converted, then its
        # length) before t is looked at.
        with pytest.raises(DimensionMismatch, match="^s: expected length 1, got 2$"):
            ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)), np.ones(2), [np.nan])
        with pytest.raises(ValueError, match="^t: non-finite"):
            ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)), np.ones(1), [np.nan])

    def test_object_json_round_trip(self):
        obj = sample_classical(3, seed=11).object
        back = LinearObject.from_json(obj.to_json())
        assert np.array_equal(back.A, obj.A)
        assert np.array_equal(back.B, obj.B)

    def test_pair_json_round_trip(self):
        pair = sample_classical(2, seed=12)
        back = ConjugatePair.from_json(pair.to_json())
        for name in ("C", "D", "s", "t"):
            assert np.array_equal(getattr(back, name), getattr(pair, name))

    def test_pair_json_missing_dual(self):
        payload = sample_classical(2, seed=13).object.to_json()
        with pytest.raises(SchemaError, match="pair.C"):
            ConjugatePair.from_json(payload)


class TestLaurentOracle:
    def test_support_normalization(self):
        assert sorted(laurent({0: np.eye(2), 3: np.zeros((2, 2))})) == [0]

    def test_product_convolution(self):
        p = {1: np.array([[2.0]])}
        q = {-1: np.array([[3.0]]), 2: np.array([[5.0]])}
        r = product(p, q)
        assert sorted(r) == [0, 3]
        assert r[0][0, 0] == 6.0
        assert r[3][0, 0] == 10.0

    def test_star_involution(self):
        img = generator_image(sample_classical(2, seed=15).object)
        assert distance(star(star(img)), img) == 0.0

    def test_star_reverses_products(self):
        p = generator_image(sample_classical(2, seed=16).object)
        q = product(p, p)
        assert distance(star(product(p, q)), product(star(q), star(p))) < 1e-14


class TestApplyCoaction:
    def test_constant_polynomial(self):
        obj = sample_classical(2, seed=17).object
        img = apply_coaction(obj, {0: 1.0})
        assert sorted(img) == [0]
        assert np.allclose(img[0], np.eye(2))

    def test_generator_on_rotation(self):
        lam = np.exp(0.7j)
        img = apply_coaction(rotation(lam), {1: 1.0})
        assert sorted(img) == [1]
        assert np.isclose(img[1][0, 0], lam)

    def test_square_on_reflection(self):
        mu = np.exp(0.3j)
        img = apply_coaction(reflection(mu), {2: 1.0})
        assert sorted(img) == [-2]
        assert np.isclose(img[-2][0, 0], mu * mu)

    def test_multiplicativity_on_valid_objects(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            obj = sample_classical(int(rng.integers(1, 4)), seed=trial).object
            p = {int(k): complex(rng.standard_normal(), rng.standard_normal())
                 for k in rng.integers(-3, 4, size=3)}
            q = {int(k): complex(rng.standard_normal(), rng.standard_normal())
                 for k in rng.integers(-3, 4, size=3)}
            pq = {}
            for kp, cp in p.items():
                for kq, cq in q.items():
                    pq[kp + kq] = pq.get(kp + kq, 0) + cp * cq
            lhs = apply_coaction(obj, pq)
            rhs = product(apply_coaction(obj, p), apply_coaction(obj, q))
            assert distance(lhs, rhs) < 1e-10

    def test_star_compatibility(self):
        obj = sample_classical(3, seed=19).object
        p = {2: 1.5 + 0.5j, -1: 0.25j}
        p_star = {-k: np.conj(c) for k, c in p.items()}
        assert distance(apply_coaction(obj, p_star), star(apply_coaction(obj, p))) < 1e-12

    def test_unitarity_of_generator_image(self):
        # gen * gen-star maps to the constant identity exactly when valid
        img = generator_image(sample_classical(2, seed=20).object)
        assert distance(product(img, star(img)), power(img, 0, 2)) < 1e-12

    def test_invalid_object_breaks_unitarity(self):
        shift = LinearObject(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
        img = generator_image(shift)
        assert distance(product(img, star(img)), power(img, 0, 2)) > 0.5


class TestConstraintTable:
    def test_names_derived_from_terms(self):
        assert list(_NAMES) == HOM_NAMES + DUAL_HOM_NAMES + list(ROUTE_PAIRING)

    def test_report_order(self):
        pair = sample_classical(2, seed=4)
        assert [c.name for c in check_homomorphism(pair.object).checks] == HOM_NAMES
        names = [c.name for c in check_conjugate_matrix(pair).checks]
        assert names == list(ROUTE_PAIRING) + DUAL_HOM_NAMES


class TestHomomorphism:
    def test_identity_object_passes(self):
        report = check_homomorphism(LinearObject(2, np.eye(2), np.zeros((2, 2))))
        assert report.overall_pass
        assert len(report.checks) == 6

    def test_split_diagonal_passes(self):
        lam, mu = np.exp(0.4j), np.exp(-1.2j)
        obj = LinearObject(2, np.diag([lam, 0.0]), np.diag([0.0, mu]))
        assert check_homomorphism(obj).overall_pass

    def test_shift_fails_with_unit_residual(self):
        shift = LinearObject(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
        report = check_homomorphism(shift)
        assert not report.overall_pass
        assert report.residual("AA*+BB*-I") == pytest.approx(1.0)
        assert report.residual("A*A+B*B-I") == pytest.approx(1.0)

    def test_scaled_rotation_fails(self):
        report = check_homomorphism(rotation(0.5))
        assert not report.overall_pass

    def test_residual_of_an_unknown_check_raises_key_error(self):
        report = check_homomorphism(rotation(1.0))
        with pytest.raises(KeyError, match="^'AB-BA'$"):
            report.residual("AB-BA")


class TestConjugateMatrix:
    def test_trivial_pair_passes(self):
        pair = ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)))
        report = check_conjugate_matrix(pair)
        assert report.overall_pass
        assert len(report.checks) == 14

    def test_conjugate_phase_passes(self):
        lam = np.exp(0.9j)
        pair = ConjugatePair(rotation(lam), np.array([[np.conj(lam)]]), np.zeros((1, 1)))
        assert check_conjugate_matrix(pair).overall_pass

    def test_sign_flip_fails_with_residual_two(self):
        pair = ConjugatePair(rotation(1.0), -np.eye(1), np.zeros((1, 1)))
        report = check_conjugate_matrix(pair)
        assert not report.overall_pass
        assert report.residual("CAt+D*Bt-I") == pytest.approx(2.0)

    def test_classical_samples_pass(self):
        for seed in range(5):
            assert check_conjugate_matrix(sample_classical(3, seed=seed)).overall_pass


class TestConjugateRaw:
    def test_trivial_pair_passes(self):
        pair = ConjugatePair(rotation(1.0), np.eye(1), np.zeros((1, 1)))
        report = check_conjugate_raw(pair)
        assert report.overall_pass
        assert len(report.checks) == 8

    def test_scale_covariance_in_s(self):
        # the raw equations are linear in s, so a scaled s still passes
        pair = ConjugatePair(
            rotation(1.0), np.eye(1), np.zeros((1, 1)), s=np.array([2.0 + 0j])
        )
        assert check_conjugate_raw(pair).overall_pass

    def test_classical_samples_pass(self):
        for seed in range(5):
            assert check_conjugate_raw(sample_classical(2, seed=seed)).overall_pass

    def test_overflowing_coefficient_is_a_failed_check(self):
        # A finite coefficient whose products overflow is kept, not dropped:
        # its checks read inf and fail, and the degrees it misses read 0.
        pair = ConjugatePair(
            LinearObject(2, np.eye(2), np.zeros((2, 2))), np.full((2, 2), 1e308), np.zeros((2, 2))
        )
        with np.errstate(over="ignore"):
            report = check_conjugate_raw(pair)
        assert report.residual("raw[gen,s,deg+1]") == np.inf
        assert report.residual("raw[gen,s,deg-1]") == 0.0
        assert not report.overall_pass

    def test_wrong_dual_fails(self):
        pair = sample_classical(2, seed=21)
        bad = ConjugatePair(pair.object, -pair.C, -pair.D)
        report = check_conjugate_raw(bad)
        assert not report.overall_pass
        # flipping the sign of the dual negates the identity target
        assert report.residual("raw[gen,s,deg+1]") == pytest.approx(2 * np.sqrt(2))


class TestDualPathEquivalence:
    def test_routes_agree_exactly_for_standard_vectors(self):
        rng = np.random.default_rng(22)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            pair = sample_classical(n, seed=trial)
            if trial % 2 == 1:
                pair = perturbed(pair, rng)
            matrix_res = {c.name: c.residual for c in check_conjugate_matrix(pair).checks}
            raw_res = {c.name: c.residual for c in check_conjugate_raw(pair).checks}
            for mname, rname in ROUTE_PAIRING.items():
                a, b = matrix_res[mname], raw_res[rname]
                assert abs(a - b) <= 1e-12 + 1e-9 * max(a, b)

    def test_verdicts_agree(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            pair = sample_classical(int(rng.integers(1, 5)), seed=100 + trial)
            if trial % 2 == 1:
                pair = perturbed(pair, rng)
            duality_pass = all(
                c.passed for c in check_conjugate_matrix(pair).checks[:8]
            )
            assert check_conjugate_raw(pair).overall_pass == duality_pass


class TestComposeImage:
    def test_matches_kron_on_generator(self):
        pair = sample_classical(2, seed=24)
        obj, dual = pair.object, pair.dual_object
        comp = compose_image(dual, generator_image(obj))
        expected_plus = np.kron(dual.A, obj.A) + np.kron(adjoint(dual.B), obj.B)
        expected_minus = np.kron(dual.B, obj.A) + np.kron(adjoint(dual.A), obj.B)
        assert np.allclose(comp.get(1, 0), expected_plus)
        assert np.allclose(comp.get(-1, 0), expected_minus)


def oracle_images(obj):
    """The oracle's generator image and its adjoint, exact zeros dropped."""
    gen = generator_image(obj)
    return gen, star(gen)


def unitary(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q


def raw_case(n, kind, seed=0):
    """Pairs that exercise every shape of the raw route's expansion."""
    rng = np.random.default_rng(seed)
    zero = np.zeros((n, n))
    if kind == "rotation":  # B = 0: one term per degree
        U = unitary(rng, n)
        return ConjugatePair(LinearObject(n, U, zero), U.conj(), zero)
    if kind == "reflection":  # A = 0
        U = unitary(rng, n)
        return ConjugatePair(LinearObject(n, zero, U), zero, U.T)
    if kind == "mixed":
        return perturbed(sample_classical(n, seed=seed), rng)
    if kind == "nonstandard":
        pair = sample_classical(n, seed=seed)
        t = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        return ConjugatePair(pair.object, pair.C, pair.D, s=2.5 * pair.s, t=t)
    # kron(C, A) + kron(D*, B) and kron(D, A) + kron(C*, B) are exactly zero.
    eye = np.eye(n)
    return ConjugatePair(LinearObject(n, eye, -eye), eye, eye)


RAW_KINDS = ["rotation", "reflection", "mixed", "nonstandard", "cancelling"]


def kron_route(pair, tol=1e-9):
    """The raw route with every composite formed as an n^2 x n^2 matrix."""
    checks = []
    obj, dual = pair.object, pair.dual_object
    for label, outer, inner, v in (("s", dual, obj, pair.s), ("t", obj, dual, pair.t)):
        gen, gen_star = oracle_images(inner)
        for gen_label, poly, fix_deg in (
            (f"gen,{label}", compose_image(outer, gen), +1),
            (f"gen*,{label}", compose_image(outer, gen_star), -1),
        ):
            for d in sorted(set(poly) | {+1, -1}):
                w = (poly[d] @ v if d in poly else 0.0) - (v if d == fix_deg else 0.0)
                checks.append(CheckResult(f"raw[{gen_label},deg{d:+d}]", np.linalg.norm(w), tol))
    return CertificateReport(tol, tuple(checks))


class TestRawRouteAgainstKron:
    @pytest.mark.parametrize("kind", RAW_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_per_degree_vectors_match_compose_image(self, n, kind):
        pair = raw_case(n, kind, seed=n)
        obj, dual = pair.object, pair.dual_object
        for outer, inner, v in ((dual, obj, pair.s), (obj, dual, pair.t)):
            inners = oracle_images(inner)
            for poly, vecs in zip(inners, composite_on_vector(outer, inners, v)):
                oracle = compose_image(outer, poly)
                # The oracle drops exactly zero degrees; the route keeps them.
                assert sorted(vecs) == [-1, 1]
                for d in set(vecs) | set(oracle):
                    K = oracle.get(d, np.zeros((v.size, v.size)))
                    err = np.linalg.norm(vecs.get(d, 0) - K @ v)
                    assert err <= 1e-12 * frobenius(K) * np.linalg.norm(v)

    @pytest.mark.parametrize("kind", RAW_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_checks_match_kron_route(self, n, kind):
        pair = raw_case(n, kind, seed=n)
        got, want = check_conjugate_raw(pair), kron_route(pair)
        assert [c.name for c in got.checks] == [c.name for c in want.checks]
        assert [c.passed for c in got.checks] == [c.passed for c in want.checks]
        for a, b in zip(got.checks, want.checks):
            assert abs(a.residual - b.residual) <= 1e-12 + 1e-9 * max(a.residual, b.residual)

    def test_cancelling_degrees_are_exactly_zero(self):
        pair = raw_case(3, "cancelling")
        gen, gen_star = oracle_images(pair.object)
        on_gen, _ = composite_on_vector(pair.dual_object, (gen, gen_star), pair.s)
        # Both degrees of the dual composite on the generator cancel.
        assert compose_image(pair.dual_object, gen) == {}
        assert sorted(on_gen) == [-1, 1]
        assert all(not np.any(w) for w in on_gen.values())
        report = check_conjugate_raw(pair)
        assert report.residual("raw[gen,s,deg+1]") == np.linalg.norm(pair.s)
        assert report.residual("raw[gen,s,deg-1]") == 0.0

    def test_cancelling_pair_forms_no_product_space_matrix(self):
        # One 1024 x 1024 complex matrix at n = 32 is 16 MB.
        pair = raw_case(32, "cancelling")
        tracemalloc.start()
        try:
            report = check_conjugate_raw(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.overall_pass
        assert peak < 2**20, f"peak {peak} bytes"

    def test_valid_pairs_pass_on_both_routes(self):
        for kind in ("rotation", "reflection"):
            pair = raw_case(5, kind)
            assert check_conjugate_raw(pair).overall_pass
            assert kron_route(pair).overall_pass


def apply_coaction_expansion(outer, inners, v):
    """``composite_on_vector`` with every degree's image from ``apply_coaction``."""
    S = unvec(v, outer.n, len(v) // outer.n)
    images = {k: apply_coaction(outer, {k: 1.0}) for k in set().union(*inners)}
    out = []
    for inner in inners:
        terms = {}
        for k, M in inner.items():
            for d, G in images[k].items():
                terms[d] = terms.get(d, 0) + G @ S @ M.T
        out.append({d: vec(T) for d, T in terms.items()})
    return out


def expansion_route(pair):
    """(name, residual) of every raw check, along ``apply_coaction_expansion``."""
    checks = []
    obj, dual = pair.object, pair.dual_object
    for label, outer, inner, v in (("s", dual, obj, pair.s), ("t", obj, dual, pair.t)):
        on_gen, on_adj = apply_coaction_expansion(outer, oracle_images(inner), v)
        for gen_label, vecs, fix_deg in ((f"gen,{label}", on_gen, +1), (f"gen*,{label}", on_adj, -1)):
            for d in sorted(set(vecs) | {+1, -1}):
                residual = float(np.linalg.norm(vecs.get(d, 0.0) - (v if d == fix_deg else 0.0)))
                checks.append((f"raw[{gen_label},deg{d:+d}]", residual))
    return checks


def oracle_case(n, kind):
    if kind == "sampled":
        return sample_classical(n, seed=n)
    if kind == "perturbed":
        return perturbed(sample_classical(n, seed=n), np.random.default_rng(n), eps=1e-4)
    if kind in ("rotations", "reflections"):
        # n characters on the diagonal with their canonical dual; at n = 1
        # this is rotation(phase) or reflection(phase).  The exactly zero B
        # or A is dropped by the oracle and kept by the route.
        phases = np.diag(np.exp(2j * np.pi * np.random.default_rng(n).random(n)))
        zero = np.zeros((n, n), dtype=complex)
        AB = (phases, zero) if kind == "rotations" else (zero, phases)
        return canonical_dual(LinearObject(n, *AB))
    return raw_case(n, kind, seed=n)


ORACLE_KINDS = ["sampled", "perturbed", "cancelling", "rotation", "reflection", "nonstandard",
                "rotations", "reflections"]


class TestRawRouteAgainstApplyCoaction:
    """The generator image and its adjoint, zeros kept, stand in for
    apply_coaction's degree +1 and -1 images; every residual keeps its bits."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 16])
    def test_residuals_and_degrees_are_bit_identical(self, n, kind):
        pair = oracle_case(n, kind)
        got = [(c.name, c.residual) for c in check_conjugate_raw(pair).checks]
        want = expansion_route(pair)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert struct.pack("<d", a) == struct.pack("<d", b), (name, a, b)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_vectors_equal_up_to_the_sign_of_zero(self, n, kind):
        pair = oracle_case(n, kind)
        obj, dual = pair.object, pair.dual_object
        for outer, inner, v in ((dual, obj, pair.s), (obj, dual, pair.t)):
            inners = oracle_images(inner)
            got = composite_on_vector(outer, inners, v)
            want = apply_coaction_expansion(outer, inners, v)
            for g, w in zip(got, want):
                # A degree the oracle drops is exactly zero on the route.
                assert sorted(g) == [-1, 1] and set(w) <= set(g)
                assert all(np.array_equal(g[d], w.get(d, np.zeros_like(g[d]))) for d in g)

    @pytest.mark.parametrize("degree", [0, 2, -2])
    def test_other_inner_degrees_are_refused(self, degree):
        pair = oracle_case(3, "sampled")
        with pytest.raises(KeyError):
            composite_on_vector(pair.object, ({degree: pair.C, -1: pair.D},), pair.s)
