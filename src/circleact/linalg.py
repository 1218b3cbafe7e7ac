"""Dense complex matrix kernel.

Everything downstream works with dense square complex matrices of up to
a few hundred rows.  Matrices are plain numpy arrays of dtype complex128;
helpers here add the validation, the eigensolver, the nullspace
extraction, and the JSON codecs that the rest of the package relies on.

The heavy lifting is LAPACK's, through numpy: ``eigh`` for Hermitian
eigenproblems, and QR followed by an SVD for nullspaces.  The wrappers
add what LAPACK does not check (shapes, finiteness, Hermitian input) and
turn its failures into this module's exceptions.  Nothing downstream
trusts a factorization blindly: every certificate is a residual
recomputed with plain matrix products.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress
from itertools import chain

import numpy as np


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotHermitian(ValueError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


class NoConvergence(RuntimeError):
    """A numerical routine failed to converge."""


class SchemaError(ValueError):
    """JSON payload does not match the documented schema.

    The message always names the offending JSON path.
    """


def as_matrix(data, *, path: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D complex128 array.

    Rejects non-2-D input and non-finite entries.
    """
    return _as_array(data, 2, path)


def as_vector(data, *, path: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D complex128 array."""
    return _as_array(data, 1, path)


def _as_array(data, ndim: int, path: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{path}: expected a {ndim}-D array, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite entries are not admitted")
    return arr


def _require_int(value, name: str, least=0, most=None, error=ValueError):
    """The count rule: value if it is an int (a bool is not one) from least
    to most, where a most of None is no bound; else error "<name>: expected
    <rule>, got <value!r>" (see ``_shown``).  Without most, least is 0 or 1."""
    if isinstance(value, int) and not isinstance(value, bool) and (
            value >= least) and (most is None or value <= most):
        return value
    rules = {0: "a non-negative integer", 1: "a positive integer"}
    rule = rules[least] if most is None else f"an integer from {least} to {most}"
    raise error(f"{name}: expected {rule}, got {_shown(value)}")


def _require_positive(value, name: str):
    """The tolerance rule: value if it is a real (a bool is not one) whose
    float is finite and above 0, else ValueError naming it as the count rule does."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # float() of an int beyond float range
            if 0 < float(value) < math.inf:
                return value
    raise ValueError(f"{name}: expected a finite positive number, got {_shown(value)}")


def _shown(value) -> str:
    """repr(value) as a refusal echoes it: cut after 60 characters, with "…".
    An int too long for repr (see sys.set_int_max_str_digits) is shown by
    its bit length, and anything else whose repr fails by its type."""
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to show"
    return text if len(text) <= 60 else text[:60] + "…"


def _seeded_rng(seed, *tags) -> np.random.Generator:
    """The named-seed generator: PCG64 seeded by (seed, *tags), once seed
    passes the count rule."""
    return np.random.default_rng(np.random.SeedSequence((_require_int(seed, "seed"), *tags)))


def adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return M.conj().T


def frobenius(M: np.ndarray) -> float:
    """Frobenius norm: ``np.linalg.norm``'s sums, without its wrapper for complex128."""
    if getattr(M, "dtype", None) != np.complex128:
        return float(np.linalg.norm(M))
    x = M.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def kron(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kronecker product with flat row-major indexing.

    Entry convention: (X kron Y)[(i, k), (j, l)] = X[i, j] * Y[k, l] where
    the flat row index is i * Y.shape[0] + k and the flat column index is
    j * Y.shape[1] + l.  With this convention and row-major vectorization
    vec(M) of a matrix M, (X kron Y) vec(M) = vec(X @ M @ Y.T).  Both factors
    must be 2-D.  One broadcast product of ``np.kron``'s entrywise products.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionMismatch(f"kron: expected two 2-D arrays, got ndim {X.ndim} and {Y.ndim}")
    shape = (len(X) * len(Y), X.shape[1] * Y.shape[1])
    return (X[:, None, :, None] * Y[None, :, None, :]).reshape(shape)


def vec(M: np.ndarray) -> np.ndarray:
    """Row-major vectorization, the inverse of ``unvec``."""
    return np.ravel(M, order="C")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape a flat vector back to a rows x cols matrix, row-major."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise DimensionMismatch(
            f"cannot reshape a vector of length {v.size} to {rows}x{cols}"
        )
    return v.reshape(rows, cols, order="C")


def hermitian_eig(H):
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Returns (eigenvalues, W) with eigenvalues real and ascending and W
    unitary, H = W @ diag(eigenvalues) @ W*.  Raises NotHermitian when
    the input deviates from its adjoint by more than 1e-12 relative to
    max(1, frobenius(H)); the Hermitian part (H + H*)/2 is what gets
    diagonalized.  A LAPACK convergence failure raises NoConvergence.
    """
    H = as_matrix(H, path="hermitian matrix")
    n = H.shape[0]
    if H.shape[1] != n:
        raise DimensionMismatch(f"expected a square matrix, got {H.shape}")
    if frobenius(H - adjoint(H)) > 1e-12 * max(1.0, frobenius(H)):
        raise NotHermitian("matrix deviates from its adjoint by more than 1e-12 relative")
    try:
        w, W = np.linalg.eigh((H + adjoint(H)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    return w, W


def nullspace_basis(M, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the numerical nullspace of M, one vector per row.

    M is reduced to its triangular QR factor, which has M's singular values
    and right singular vectors without the orthogonal factor of a tall M
    being formed, and the SVD of that factor is taken.  The rows returned
    are the right singular vectors whose singular values are at most
    tol * frobenius(M): a (k, cols) array, k possibly 0.  tol must be
    finite and positive.  A LAPACK convergence failure raises NoConvergence.
    """
    _require_positive(tol, "tol")
    M = as_matrix(M, path="nullspace input")
    try:
        _, s, Vh = np.linalg.svd(np.linalg.qr(M, mode="r"))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}") from exc
    # The rows of Vh are the adjoints of the right singular vectors.
    return Vh[np.count_nonzero(s > tol * frobenius(M)):].conj()


def split_by_gaps(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split ascending values into index runs separated by more than gap."""
    values = np.asarray(values)
    if values.size == 0:
        return []
    ends = (np.flatnonzero(np.diff(values) > gap) + 1).tolist()
    return [np.arange(s, e) for s, e in zip([0, *ends], [*ends, values.size])]


def matrix_to_json(M: np.ndarray) -> dict:
    """Serialize to {"rows", "cols", "data"} with row-major [re, im] pairs."""
    return _matrix_to_json(as_matrix(M))


def _matrix_to_json(M: np.ndarray) -> dict:
    """``matrix_to_json`` of a matrix that ``as_matrix`` already returned."""
    return {"rows": M.shape[0], "cols": M.shape[1], "data": _pairs(M)}


def _pairs(v: np.ndarray) -> list:
    """The row-major [re, im] pairs of a complex array, read as float64."""
    return np.ascontiguousarray(v).view(np.float64).reshape(-1, 2).tolist()


def matrix_from_json(obj, *, path: str = "matrix") -> np.ndarray:
    """Parse the matrix schema, raising SchemaError with the faulty path."""
    return _array_from_json(obj, ("rows", "cols"), path)


def vector_to_json(v: np.ndarray) -> dict:
    """Serialize to {"dim", "data"} with [re, im] pairs."""
    v = as_vector(v)
    return {"dim": int(v.size), "data": _pairs(v)}


def vector_from_json(obj, *, path: str = "vector") -> np.ndarray:
    """Parse the vector schema, raising SchemaError with the faulty path."""
    return _array_from_json(obj, ("dim",), path)


def _array_from_json(obj, counts: tuple, path: str) -> np.ndarray:
    """Parse {*counts, "data"} to an array shaped by the counts.

    Each count passes the count rule, and data is a list of as many
    entries as their product.
    """
    *shape, data = _fields(obj, (*counts, "data"), path)
    for key, count in zip(counts, shape):
        _require_int(count, f"{path}.{key}", error=SchemaError)
        if count > np.iinfo(np.intp).max // 16:  # numpy's bound on a complex128 axis
            raise SchemaError(f"{path}.{key}: {count} is too large for an array")
    size = math.prod(shape)
    if not isinstance(data, list) or len(data) != size:
        raise SchemaError(f"{path}.data: expected a list of {size} entries")
    return _parse_entries(data, path=f"{path}.data").reshape(shape)


def _fields(obj, keys: tuple, path: str) -> tuple:
    """The values of a JSON object at keys, in order.  Anything but a dict
    raises SchemaError "<path>: expected an object, got <type>", and the
    first key it lacks "<path>.<key>: missing"."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing")
    return tuple(obj[key] for key in keys)


def _parse_entries(data: list, *, path: str) -> np.ndarray:
    """Decode a list of [re, im] pairs to a 1-D complex128 array.

    When C-level scans find every entry a ``list`` of two items of type
    exactly ``int`` or ``float``, one ``np.array`` call converts the
    flattened items, reinterpreted bit for bit as complex.  Anything else,
    or a non-finite result, goes through the loop naming the faulty path.
    """
    if set(map(type, data)) == {list} and set(map(len, data)) == {2}:
        flat = list(chain.from_iterable(data))
        if set(map(type, flat)) <= {int, float}:
            with suppress(OverflowError):  # an int beyond float range
                pairs = np.array(flat, dtype=float)
                if np.isfinite(pairs).all():
                    return pairs.view(complex)
    out = np.empty(len(data), dtype=complex)
    for i, entry in enumerate(data):
        out[i] = _parse_complex(entry, path=f"{path}[{i}]")
    return out


def _parse_complex(entry, *, path: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise SchemaError(f"{path}: expected a [re, im] pair of numbers")
    with suppress(OverflowError):  # an integer too large for a float
        z = complex(float(entry[0]), float(entry[1]))
        if np.isfinite(z.real) and np.isfinite(z.imag):
            return z
    raise SchemaError(f"{path}: non-finite entries are not admitted")
