"""Argument rule tests: every count, seed and tolerance of the public API.

The three rules live in ``circleact.linalg``: a count is an int that is
not a bool, inside its bounds; a seed is a count of at least 0; a
tolerance is a finite real above 0 that is not a bool.  A refusal is a
ValueError whose message starts with the argument's name.
"""

import inspect
import math

import numpy as np
import pytest

import circleact
from circleact.category import check_snake, decompose, morphism_space
from circleact.certify import classical_form, is_partial_isometry
from circleact.coaction import check_homomorphism, kac_vector
from circleact import linalg
from circleact.solver import SolverConfig, sample_classical

PAIR = sample_classical(2, seed=0)
OBJ = PAIR.object
POINT = (OBJ.A, OBJ.B, PAIR.C, PAIR.D)
KAC2 = kac_vector(2)

# A = [[0, 1], [0, 0]], B = 3 I fails the homomorphism equations by
# residuals of about 10, so only an infinite tolerance passes it.
BROKEN = circleact.LinearObject(2, np.array([[0.0, 1.0], [0.0, 0.0]]), 3 * np.eye(2))


def tol_message(value):
    return f"^tol: expected a finite positive number, got {value!r}$"


class TestLibraryTolerance:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("obj", [OBJ, BROKEN], ids=["valid", "broken"])
    @pytest.mark.parametrize("certifier", [check_homomorphism, classical_form, decompose])
    def test_certifier_refuses_tolerance(self, certifier, obj, tol):
        # inf passed BROKEN (classical_form found two "reflections" of
        # phase 3); nan, 0 and -1 reported the valid OBJ as failing.
        with pytest.raises(ValueError, match=tol_message(tol)):
            certifier(obj, tol)

    def test_classical_form_refuses_a_bool_tolerance(self):
        with pytest.raises(ValueError, match=tol_message(True)):
            classical_form(OBJ, True)

    def test_partial_isometry_refuses_infinite_tolerance(self):
        # 3 I is no partial isometry: its residual is 24 sqrt(2).
        with pytest.raises(ValueError, match=tol_message(math.inf)):
            is_partial_isometry(3 * np.eye(2), tol=math.inf)

    def test_morphism_space_refuses_infinite_tolerance(self):
        with pytest.raises(ValueError, match=tol_message(math.inf)):
            morphism_space(OBJ, OBJ, tol=math.inf)

    def test_solver_config_refuses_a_bool_tolerance(self):
        message = "^residual_tol: expected a finite positive number, got True$"
        with pytest.raises(ValueError, match=message):
            SolverConfig(n=1, residual_tol=True)

    @pytest.mark.parametrize("tol", [1e-9, 1, np.float64(1e-6), np.float32(1e-3), 2**1023])
    def test_finite_positive_reals_pass(self, tol):
        assert linalg._require_positive(tol, "tol") is tol

    @pytest.mark.parametrize("tol", [10**400, 2**1024, 2**1024 - 2**970])
    @pytest.mark.parametrize("certifier", [check_homomorphism, classical_form, decompose])
    def test_certifier_refuses_an_int_beyond_float_range(self, certifier, tol):
        # 10**400 passed the rule, then classical_form raised OverflowError
        # from tol * sqrt(n).  2**1024 - 2**970 is below 2**1024 but its
        # float() rounds up to it and overflows.
        with pytest.raises(ValueError, match="^tol: expected a finite positive number, got "):
            certifier(sample_classical(3, seed=1).object, tol)

    def test_solver_config_refuses_an_int_beyond_float_range(self):
        message = "^residual_tol: expected a finite positive number, got 1000"
        with pytest.raises(ValueError, match=message):
            SolverConfig(n=1, residual_tol=10**400)

    def test_morphism_space_refuses_tolerance_before_its_blocks(self, monkeypatch):
        # At m = 36 the two m^2 x m^2 blocks took ~240 ms before the refusal.
        def no_blocks(*_args):
            raise AssertionError("Kronecker blocks built for a refused tol")

        monkeypatch.setattr("circleact.category.kron", no_blocks)
        for tol in (math.inf, math.nan, 0.0, 10**400):
            with pytest.raises(ValueError, match="^tol: expected a finite positive number, got "):
                morphism_space(OBJ, OBJ, tol=tol)


class TestLibraryCounts:
    @pytest.mark.parametrize("n", [2.0, -1, True])
    def test_sample_classical_refuses_n(self, n):
        # 2.0 failed inside numpy and blamed the seed.
        with pytest.raises(ValueError, match=f"^n: expected a positive integer, got {n!r}$"):
            sample_classical(n)

    @pytest.mark.parametrize("n", [-1, 0, 2.0, True])
    def test_kac_vector_refuses_n(self, n):
        # -1 gave a vector of length 1.
        with pytest.raises(ValueError, match=f"^n: expected a positive integer, got {n!r}$"):
            kac_vector(n)

    @pytest.mark.parametrize("n", [0, 2.0])
    def test_check_snake_refuses_n(self, n):
        # n = 0 with two empty vectors passed.
        with pytest.raises(ValueError, match=f"^n: expected a positive integer, got {n!r}$"):
            check_snake(KAC2[: int(n) ** 2], KAC2[: int(n) ** 2], n)

    def test_rule_wording(self):
        cases = [
            ((-1, "seed"), "seed: expected a non-negative integer, got -1"),
            ((0, "n", 1), "n: expected a positive integer, got 0"),
            ((257, "--n", 1, 256), "--n: expected an integer from 1 to 256, got 257"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as info:
                linalg._require_int(*args)
            assert str(info.value) == message

    def test_echoed_value_is_cut_after_sixty_characters(self):
        cases = [
            (lambda v: linalg._require_int(v, "rows"), "rows: expected a non-negative integer, got "),
            (lambda v: linalg._require_positive(v, "tol"), "tol: expected a finite positive number, got "),
        ]
        # A list of 200,000 zeros is echoed as its first 60 characters; a
        # 60-character repr is echoed whole.
        echoes = [([0] * 200_000, repr([0] * 30)[:60] + "…"), ("x" * 58, repr("x" * 58))]
        for rule, prefix in cases:
            for value, shown in echoes:
                with pytest.raises(ValueError) as info:
                    rule(value)
                assert str(info.value) == prefix + shown

    @pytest.mark.parametrize("call, message", [
        (lambda: linalg._require_positive(10**5000, "tol"),
         "tol: expected a finite positive number, got an int of 16610 bits"),
        (lambda: SolverConfig(n=1, seed=-10**5000),
         "seed: expected a non-negative integer, got a negative int of 16610 bits"),
        (lambda: linalg._require_positive([10**5000], "tol"),
         "tol: expected a finite positive number, got a list too long to show"),
    ], ids=["tol", "seed", "list"])
    def test_an_int_too_long_for_repr_is_echoed_by_its_bit_length(self, call, message):
        # repr raised "Exceeds the limit (4300 digits) for integer string
        # conversion" in place of the rule's message.
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_seeded_rng_is_the_named_seed_generator(self):
        ours = linalg._seeded_rng(7, 3, 4).standard_normal(5)
        plain = np.random.default_rng(np.random.SeedSequence((7, 3, 4))).standard_normal(5)
        assert np.array_equal(ours, plain)


# Valid arguments of every public callable with a tol, n or seed parameter.
VALID = {
    "LinearObject": dict(n=1, A=np.eye(1), B=np.zeros((1, 1))),
    "kac_vector": dict(n=2),
    "check_homomorphism": dict(obj=OBJ, tol=1e-9),
    "check_conjugate_matrix": dict(pair=PAIR, tol=1e-9),
    "check_conjugate_raw": dict(pair=PAIR, tol=1e-9),
    "canonical_dual": dict(obj=OBJ, tol=1e-9),
    "certify_commutativity": dict(obj=OBJ, tol=1e-9),
    "certify_duality": dict(pair=PAIR, tol=1e-9),
    "polar_data": dict(pair=PAIR, tol=1e-9),
    "classical_form": dict(obj=OBJ, tol=1e-9, seed=0),
    "is_partial_isometry": dict(M=np.eye(2), tol=1e-9),
    "nullspace_basis": dict(M=np.eye(2), tol=1e-9),
    "morphism_space": dict(X=OBJ, Y=OBJ, tol=1e-9),
    "is_irreducible": dict(X=OBJ, tol=1e-9),
    "decompose": dict(X=OBJ, tol=1e-9, seed=0),
    "Decomposition": dict(W=np.eye(1), widths=(1,), LA=np.eye(1), LB=np.zeros((1, 1)), seed=0),
    "check_snake": dict(s=KAC2, t=KAC2, n=2, tol=1e-9),
    "SolverConfig": dict(n=2, seed=0),
    "sample_classical": dict(n=2, seed=0),
    "gradient_check": dict(point=POINT, seed=0),
}

BAD = {
    "tol": [math.inf, math.nan, 0.0, -1e-9, True],
    "n": [0, 2.0, True],
    "seed": [-1, 1.0, True],
}


def scalar_parameters():
    """{name: the tol, n and seed parameters} over ``circleact.__all__``."""
    found = {}
    for name in circleact.__all__:
        obj = getattr(circleact, name)
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        if set(BAD) & set(params):
            found[name] = sorted(set(BAD) & set(params))
    return found


SCALARS = scalar_parameters()


def test_table_covers_every_public_callable_with_a_scalar_parameter():
    assert sorted(SCALARS) == sorted(VALID)
    for name, params in SCALARS.items():
        assert set(params) <= set(VALID[name]), name


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_are_accepted(name):
    getattr(circleact, name)(**VALID[name])


@pytest.mark.parametrize(
    "name, param, value",
    [(name, param, value) for name, params in sorted(SCALARS.items())
     for param in params for value in BAD[param]],
)
def test_bad_scalar_is_refused_naming_the_parameter(name, param, value):
    with pytest.raises(ValueError) as info:
        getattr(circleact, name)(**{**VALID[name], param: value})
    assert str(info.value).startswith(f"{param}: expected "), str(info.value)
    assert str(info.value).endswith(f", got {value!r}"), str(info.value)

