"""Matrix kernel tests: Kronecker conventions, eigensolver, nullspace, codecs."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import linalg
from circleact.linalg import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    SchemaError,
    adjoint,
    as_matrix,
    frobenius,
    hermitian_eig,
    kron,
    matrix_from_json,
    matrix_to_json,
    nullspace_basis,
    split_by_gaps,
    unvec,
    vec,
    vector_from_json,
    vector_to_json,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestBasics:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(DimensionMismatch):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf * 1j, 0.0], [0.0, 1.0]])

    def test_adjoint_product_rule(self):
        rng = np.random.default_rng(1)
        X = random_complex(rng, 3, 3)
        Y = random_complex(rng, 3, 3)
        assert np.allclose(adjoint(X @ Y), adjoint(Y) @ adjoint(X))


class TestKron:
    def test_identity_blocks(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_flat_index_convention(self):
        rng = np.random.default_rng(3)
        X = random_complex(rng, 2, 3)
        Y = random_complex(rng, 3, 2)
        K = kron(X, Y)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for l in range(2):
                        assert abs(K[i * 3 + k, j * 2 + l] - X[i, j] * Y[k, l]) < 1e-12

    @pytest.mark.parametrize("shapes", [((1, 1), (1, 1)), ((1, 1), (3, 2)), ((2, 3), (1, 4)),
                                        ((4, 4), (3, 3)), ((6, 6), (6, 6))])
    def test_matches_numpy_kron_bit_for_bit(self, shapes):
        rng = np.random.default_rng(sum(map(sum, shapes)))
        X, Y = (random_complex(rng, *shape) for shape in shapes)
        for M in (X, Y):
            M[rng.random(M.shape) < 0.2] = 0.0
            M.real[rng.random(M.shape) < 0.3] = -0.0
            M.real.flat[0] = M.imag.flat[-1] = -0.0
        for P, Q in ((X, Y), (adjoint(X), Y), (Y.real, X)):
            assert kron(P, Q).tobytes() == np.kron(P, Q).tobytes()
            assert kron(P, Q).shape == np.kron(P, Q).shape

    @pytest.mark.parametrize("shapes", [((3,), (2, 2)), ((2, 2), (4,)), ((2, 2, 2), (2, 2)), ((), (1, 1))])
    def test_refuses_factors_that_are_not_2d(self, shapes):
        X, Y = (np.ones(shape) for shape in shapes)
        ndims = f"ndim {len(shapes[0])} and {len(shapes[1])}"
        with pytest.raises(DimensionMismatch, match=f"kron: expected two 2-D arrays, got {ndims}"):
            kron(X, Y)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X, Y = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
            Z, W = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
            assert np.allclose(kron(X, Y) @ kron(Z, W), kron(X @ Z, Y @ W))

    def test_vec_compatibility(self):
        # (X kron Y) vec(M) = vec(X M Y^T) under row-major vec
        rng = np.random.default_rng(5)
        X = random_complex(rng, 3, 3)
        Y = random_complex(rng, 3, 3)
        M = random_complex(rng, 3, 3)
        lhs = kron(X, Y) @ vec(M)
        rhs = vec(X @ M @ Y.T)
        assert np.allclose(lhs, rhs)

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(6)
        M = random_complex(rng, 2, 5)
        assert np.array_equal(unvec(vec(M), 2, 5), M)
        with pytest.raises(DimensionMismatch):
            unvec(vec(M), 3, 3)


class TestHermitianEig:
    def test_diagonal_input(self):
        w, W = hermitian_eig(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(w, [-1.0, 2.0, 3.0])
        assert np.allclose(W @ np.diag(w) @ adjoint(W), np.diag([3.0, -1.0, 2.0]))

    def test_flip_matrix(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        w, W = hermitian_eig(H)
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(W @ np.diag(w) @ adjoint(W), H, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)))

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        # LinAlgError is a ValueError, which the CLI reads as bad input.
        def fail(_H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            hermitian_eig(np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        X = random_complex(rng, n, n)
        H = (X + adjoint(X)) / 2
        w, W = hermitian_eig(H)
        assert np.all(np.diff(w) >= 0)
        assert frobenius(W @ np.diag(w) @ adjoint(W) - H) <= 1e-10 * max(1, frobenius(H))
        assert frobenius(adjoint(W) @ W - np.eye(n)) <= 1e-12

    def test_eigenvalues_match_lapack_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            X = random_complex(rng, n, n)
            H = (X + adjoint(X)) / 2
            w, _ = hermitian_eig(H)
            assert np.allclose(w, np.linalg.eigvalsh(H), atol=1e-10)

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(random_complex(rng, 4, 4))
        H = Q @ np.diag([2.0, 2.0, -1.0, -1.0]) @ adjoint(Q)
        H = (H + adjoint(H)) / 2
        w, W = hermitian_eig(H)
        assert np.allclose(w, [-1.0, -1.0, 2.0, 2.0])
        assert frobenius(W @ np.diag(w) @ adjoint(W) - H) <= 1e-12


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert len(nullspace_basis(np.eye(3))) == 0

    def test_zero_matrix_full_nullspace(self):
        basis = nullspace_basis(np.zeros((2, 2)))
        assert len(basis) == 2

    def test_rank_one_row(self):
        basis = nullspace_basis(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert len(basis) == 1
        v = basis[0]
        assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
        assert np.linalg.norm(np.array([[1.0, 1.0], [0.0, 0.0]]) @ v) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_engineered_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        M = np.zeros((n, n), dtype=complex)
        for _ in range(r):
            M += np.outer(random_complex(rng, n, 1)[:, 0], random_complex(rng, n, 1)[:, 0])
        basis = nullspace_basis(M, tol=1e-9)
        assert len(basis) == n - min(r, n)
        for v in basis:
            assert np.linalg.norm(M @ v) <= 1e-8 * max(1, frobenius(M))
        for i, v in enumerate(basis):
            for j, u in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(v, u) - expected) < 1e-12

    def test_rectangular(self):
        M = np.array([[1.0, 0.0, 0.0]])
        basis = nullspace_basis(M)
        assert basis.shape == (2, 3)  # one vector per row
        for v in basis:
            assert abs(v[0]) < 1e-12

    def test_svd_failure_raises_no_convergence(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(NoConvergence, match="^svd did not converge: SVD did not converge$"):
            nullspace_basis(np.eye(2))


class TestSplitByGaps:
    def test_no_split(self):
        assert len(split_by_gaps(np.array([1.0, 1.1, 1.2]), 0.5)) == 1

    def test_two_clusters(self):
        parts = split_by_gaps(np.array([0.0, 0.01, 5.0]), 1.0)
        assert [list(p) for p in parts] == [[0, 1], [2]]

    def test_empty(self):
        assert split_by_gaps(np.array([]), 1.0) == []

    SPECTRA = {
        "empty": np.array([]),
        "one_value": np.array([0.3]),
        "all_distinct": np.arange(12.0),
        "all_equal": np.full(12, 2.5),
        **{f"random{i}": np.sort(np.round(np.random.default_rng(i).standard_normal(12), 1))
           for i in range(8)},
    }

    @pytest.mark.parametrize("values", SPECTRA.values(), ids=SPECTRA.keys())
    @pytest.mark.parametrize("gap", [0.0, 0.05, 0.5])
    def test_same_runs_as_np_split(self, values, gap):
        # The runs np.split cut from the break indices, in value and dtype.
        breaks = np.nonzero(np.diff(values) > gap)[0]
        want = list(np.split(np.arange(values.size), breaks + 1)) if values.size else []
        got = split_by_gaps(values, gap)
        assert [(g.dtype, g.tolist()) for g in got] == [(w.dtype, w.tolist()) for w in want]


class TestJsonCodecs:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(9)
        M = random_complex(rng, 3, 2)
        assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)

    def test_vector_round_trip(self):
        rng = np.random.default_rng(10)
        v = random_complex(rng, 4, 1)[:, 0]
        assert np.array_equal(vector_from_json(vector_to_json(v)), v)

    @pytest.mark.parametrize("shape", [(6, 6), (36, 36), (3, 5), (0, 0), (0, 4)])
    def test_encoding_bytes_match_per_entry_formula(self, shape):
        # The encoders build their pairs with one numpy call; the bytes
        # json.dumps writes must equal those of the per-entry float()
        # formula, signed zeros and extreme exponents included.
        rng = np.random.default_rng(11)
        M = random_complex(rng, *shape)
        specials = [-0.0, 0.0, 1e300, -1e-300, 5e-324, 1.0 / 3.0, 2.0**53 + 1]
        flat = M.reshape(-1)
        for i in range(min(len(specials), flat.size)):
            flat[i] = complex(specials[i], specials[-1 - i])
        want = {"rows": shape[0], "cols": shape[1],
                "data": [[float(z.real), float(z.imag)] for z in M.ravel()]}
        assert json.dumps(matrix_to_json(M), indent=2) == json.dumps(want, indent=2)
        v = M.reshape(-1)
        want_v = {"dim": v.size, "data": [[float(z.real), float(z.imag)] for z in v]}
        assert json.dumps(vector_to_json(v), indent=2) == json.dumps(want_v, indent=2)

    def test_missing_key_names_path(self):
        with pytest.raises(SchemaError, match="M.rows"):
            matrix_from_json({"cols": 1, "data": []}, path="M")

    def test_wrong_length_names_path(self):
        with pytest.raises(SchemaError, match="M.data"):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]}, path="M")

    def test_bad_entry_names_index(self):
        bad = {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [1.0]]}
        with pytest.raises(SchemaError, match=r"M.data\[1\]"):
            matrix_from_json(bad, path="M")

    def test_non_finite_rejected(self):
        bad = {"dim": 1, "data": [[float("inf"), 0.0]]}
        with pytest.raises(SchemaError):
            vector_from_json(bad)

    def test_non_dict_rejected(self):
        with pytest.raises(SchemaError):
            matrix_from_json([1, 2, 3])


def loop_decode(data, path):
    """The per-entry decoder that the fast path must reproduce."""
    out = np.empty(len(data), dtype=complex)
    for i, entry in enumerate(data):
        out[i] = linalg._parse_complex(entry, path=f"{path}[{i}]")
    return out


def outcome(fn, *args):
    """The bytes of what fn returns, or the message of its SchemaError."""
    try:
        return fn(*args).tobytes()
    except SchemaError as exc:
        return str(exc)


HUGE = 10**400
NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 2**53 + 1]),
)
ODD = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["1.0", "0", "nan", HUGE, -HUGE, 2**1024, float("inf"), float("nan")]),
    st.lists(NUMBERS, max_size=2),
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
# json.loads reads 1e309 and -1e309 as infinities.
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])
ENTRIES = st.one_of(
    PAIRS,
    PAIRS,
    PAIRS,
    st.lists(st.one_of(NUMBERS, NON_FINITE), min_size=2, max_size=2),
    st.tuples(NUMBERS, NUMBERS),
    st.lists(st.one_of(NUMBERS, ODD), min_size=0, max_size=3),
    ODD,
)


class TestDecodeFastPath:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(ENTRIES, max_size=6))
    def test_matches_per_entry_loop(self, data):
        want = outcome(loop_decode, data, "v.data")
        vector = lambda: vector_from_json({"dim": len(data), "data": data}, path="v")
        assert outcome(vector) == want
        matrix = lambda: matrix_from_json({"rows": 1, "cols": len(data), "data": data}, path="v")
        assert outcome(matrix) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(PAIRS, min_size=1, max_size=8))
    def test_all_numeric_pairs_decode_bit_for_bit(self, data):
        got = vector_from_json({"dim": len(data), "data": data})
        want = np.array([complex(float(re), float(im)) for re, im in data])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [HUGE, -HUGE, 2**1024])
    def test_int_beyond_float_range_is_not_finite(self, value):
        bad = {"rows": 1, "cols": 2, "data": [[0, 0], [value, 0]]}
        with pytest.raises(SchemaError, match=r"^A\.data\[1\]: non-finite entries are not admitted$"):
            matrix_from_json(bad, path="A")

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_bool_matrix_size_names_field(self, field):
        doc = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]} | {field: True}
        with pytest.raises(SchemaError, match=rf"^A\.{field}: "):
            matrix_from_json(doc, path="A")

    def test_bool_vector_dim_names_field(self):
        with pytest.raises(SchemaError, match=r"^s\.dim: "):
            vector_from_json({"dim": True, "data": [[1.0, 0.0]]}, path="s")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def norm_cases(dtype):
    """Arrays of dtype in every memory layout ``frobenius`` may be handed."""
    rng = np.random.default_rng(21)
    M = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-5, 6, (5, 7))
    if dtype == complex:
        M = M + 1j * rng.standard_normal((5, 7))
    M = M.astype(dtype)
    with_inf, with_nan, with_both = M.copy(), M.copy(), M.copy()
    with_inf[1, 2] = np.inf
    with_nan[3, 4] = np.nan
    with_both[0, 0], with_both[4, 6] = -np.inf, np.nan
    return {
        "C": M,
        "F": np.asfortranarray(M),
        "transposed": M.T,
        "conjugated": M.conj(),
        "adjoint": M.conj().T,
        "sliced": M[::2, 1::3],
        "negative strides": M[::-1, ::-2],
        "1-D": M[2],
        "column": M[:, 3],
        "empty": M[:0],
        "empty 1-D": M.reshape(-1)[:0],
        "one entry": M[:1, :1],
        "inf": with_inf,
        "nan": with_nan,
        "inf and nan": with_both,
        "overflowing squares": np.full((3, 3), 1e200, dtype=dtype),
        "subnormal": np.full(4, 5e-324, dtype=dtype),
    }


class TestFrobenius:
    @pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
    def test_equals_numpy_norm_bit_for_bit(self, dtype):
        for name, M in norm_cases(dtype).items():
            with np.errstate(over="ignore"):  # the 1e200 squares overflow to inf
                got, want = frobenius(M), float(np.linalg.norm(M))
            assert type(got) is float, name
            assert bits(got) == bits(want), (name, got, want)

    def test_other_inputs_go_through_numpy_norm(self):
        for M in (np.eye(3, dtype=np.float32), np.arange(4), 0.0, 3, [[3.0, 4.0]]):
            assert bits(frobenius(M)) == bits(float(np.linalg.norm(M)))


def seeded_entries(seed, size):
    """Numeric [re, im] pairs mixing ints, ints above 2**53 and edge floats."""
    rng = np.random.default_rng(seed)
    specials = [0, -0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 2**53 + 1, -(2**60) - 1]
    items = []
    for _ in range(2 * size):
        kind = rng.integers(4)
        if kind == 0:
            items.append(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
        elif kind == 1:
            items.append(int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 2**20)))
        else:
            items.append(specials[rng.integers(len(specials))])
    return [items[i:i + 2] for i in range(0, len(items), 2)]


# Entries the fast path cannot take, each with the loop's message.
SHAPE = "expected a [re, im] pair of numbers"
NOT_FINITE = "non-finite entries are not admitted"
MALFORMED = [
    (True, SHAPE),
    ([True, 0.0], SHAPE),
    ([0.0, False], SHAPE),
    (["1.0", 0.0], SHAPE),
    ([[0.0, 0.0], 0.0], SHAPE),
    ([1.0], SHAPE),
    ([1.0, 2.0, 3.0], SHAPE),
    ((1.0, 2.0), None),  # a tuple is a pair for the loop, never for the fast path
    ([10**400, 0], NOT_FINITE),
    ([0, -(10**400)], NOT_FINITE),
    ([2**1024 - 2**970, 0], NOT_FINITE),  # an int whose float() rounds up to overflow
    ([1.7e308, float("inf")], NOT_FINITE),
    ([float("nan"), 0.0], NOT_FINITE),
]


class TestFlatDecode:
    @pytest.mark.parametrize("seed", range(8))
    def test_fast_path_matches_the_loop_bit_for_bit(self, monkeypatch, seed):
        data = seeded_entries(seed, size=[1, 2, 16, 256, 257, 1000, 3, 64][seed])
        want = loop_decode(data, "v.data")

        def no_loop(entry, *, path):
            raise AssertionError(f"{path} left the fast path")

        monkeypatch.setattr(linalg, "_parse_complex", no_loop)
        got = vector_from_json({"dim": len(data), "data": data}, path="v")
        assert got.dtype == complex and got.shape == (len(data),)
        assert got.tobytes() == want.tobytes()
        got = matrix_from_json({"rows": 1, "cols": len(data), "data": data}, path="v")
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry, message", MALFORMED, ids=lambda x: repr(x)[:20])
    def test_malformed_entry_reaches_the_loop_named_by_its_path(self, monkeypatch, entry, message):
        data = seeded_entries(99, size=40)
        at = 23
        data[at] = entry
        seen = []
        parse = linalg._parse_complex

        def spy(entry, *, path):
            seen.append(path)
            return parse(entry, path=path)

        monkeypatch.setattr(linalg, "_parse_complex", spy)
        if message is None:
            got = vector_from_json({"dim": len(data), "data": data}, path="v")
            assert got[at] == complex(*entry) and len(seen) == len(data)
            return
        with pytest.raises(SchemaError) as info:
            vector_from_json({"dim": len(data), "data": data}, path="v")
        assert str(info.value) == f"v.data[{at}]: {message}"
        assert seen[-1] == f"v.data[{at}]"
