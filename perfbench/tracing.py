"""In-memory span tracer and the library bindings it wraps.

A span records its name, the op it belongs to, its start and end on the
``perf_counter`` clock, the index of its parent span, the time its child
spans cover and an optional computed figure (the nullspace flop count).
A span's self time is its duration minus its children's.  Spans stay in
memory and are written out once, when the run ends.

Wrappers replace a public function where the *calling* module binds it
(``circleact.certify.hermitian_eig``, ``circleact.solver.residual``, ...),
so nothing in the library changes and the caller's own name lookup picks
the wrapper up.  Cheap helpers called thousands of times per op
(``frobenius``, ``kron``, ``adjoint``, ``as_matrix``) are not wrapped: a
span costs about as much as one of their calls, so their time stays in
the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("linalg", "coaction", "certify", "category", "solver", "cli")


class Tracer:
    """Collects spans; ``op`` is the id stamped on every span opened."""

    def __init__(self):
        self.spans = []  # [name, op, start, end, parent, child_s, note]
        self._stack = []
        self.op = 0

    def _open(self, name, note):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.op, time.perf_counter(), 0.0, parent, 0.0, note]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()
        if rec[4] >= 0:
            self.spans[rec[4]][5] += rec[3] - rec[2]

    @contextmanager
    def span(self, name, note=0.0):
        rec = self._open(name, note)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name, note=None):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            rec = self._open(name, note(*args) if note else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        keys = ("name", "op", "start", "end", "parent", "child_s", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def qr_flops(rows: int, cols: int) -> float:
    """Computed real flops of complex pivoted Householder QR plus full Q.

    For a wide matrix (rows <= cols, as the adjoint of a tall system
    is): LAPACK's real counts are 2 c r^2 - 2 r^3 / 3 to factor and
    4 r^3 / 3 to form the r x r factor Q; complex arithmetic costs four
    times as much.
    """
    r, c = rows, cols
    return 4.0 * (2.0 * c * r * r - 2.0 * r ** 3 / 3.0 + 4.0 * r ** 3 / 3.0)


def _nullspace_flops(M, *_args, **_kwargs):
    rows, cols = M.shape
    # nullspace_basis factors the adjoint, a cols x rows matrix.
    return qr_flops(cols, rows)


# (owner, attribute, span name, note).  The owner is the module or class
# whose binding the caller looks up.  Codec spans carry ".codec.decode."
# or ".codec.encode." in their name.
BINDINGS = (
    ("circleact.cli", "check_homomorphism", "coaction.hom", None),
    ("circleact.cli", "check_conjugate_matrix", "coaction.conj_matrix", None),
    ("circleact.cli", "check_conjugate_raw", "coaction.conj_raw", None),
    ("circleact.cli", "is_partial_isometry", "certify.isometry", None),
    ("circleact.cli", "polar_data", "certify.polar", None),
    ("circleact.cli", "certify_duality", "certify.duality", None),
    ("circleact.cli", "certify_commutativity", "certify.commutativity", None),
    ("circleact.cli", "classical_form", "certify.classical_form", None),
    ("circleact.cli", "decompose", "category.decompose", None),
    ("circleact.cli", "tensor_product", "category.tensor_product", None),
    ("circleact.certify", "check_homomorphism", "coaction.hom", None),
    ("circleact.certify", "check_conjugate_matrix", "coaction.conj_matrix", None),
    ("circleact.certify", "certify_commutativity", "certify.commutativity", None),
    ("circleact.certify", "hermitian_eig", "linalg.eig", None),
    ("circleact.category", "morphism_space", "category.morphism_space", None),
    ("circleact.category", "hermitian_eig", "linalg.eig", None),
    ("circleact.category", "nullspace_basis", "linalg.nullspace", _nullspace_flops),
    ("circleact.category", "matrix_to_json", "linalg.codec.encode.matrix", None),
    ("circleact.solver", "residual", "solver.residual", None),
    ("circleact.solver", "_residual_and_gradient", "solver.residual_gradient", None),
    ("circleact.solver", "certify_commutativity", "certify.commutativity", None),
    ("circleact.solver", "check_conjugate_matrix", "coaction.conj_matrix", None),
    ("circleact.coaction", "matrix_from_json", "linalg.codec.decode.matrix", None),
    ("circleact.coaction", "vector_from_json", "linalg.codec.decode.vector", None),
    ("circleact.coaction", "matrix_to_json", "linalg.codec.encode.matrix", None),
    ("circleact.coaction", "vector_to_json", "linalg.codec.encode.vector", None),
    # ClassicalDecomposition.to_json imports matrix_to_json at call time.
    ("circleact.linalg", "matrix_to_json", "linalg.codec.encode.matrix", None),
    ("circleact.coaction:LinearObject", "from_json", "coaction.codec.decode.object", None),
    ("circleact.coaction:ConjugatePair", "from_json", "coaction.codec.decode.pair", None),
    ("circleact.coaction:LinearObject", "to_json", "coaction.codec.encode.object", None),
    ("circleact.coaction:ConjugatePair", "to_json", "coaction.codec.encode.pair", None),
    ("circleact.coaction:CertificateReport", "to_json", "coaction.codec.encode.report", None),
    ("circleact.category:Decomposition", "to_json", "category.codec.encode.decomposition", None),
    ("circleact.certify:ClassicalDecomposition", "to_json", "certify.codec.encode.classical", None),
)


class _TracedJson:
    """Stands in for the ``json`` module inside ``circleact.cli``."""

    def __init__(self, tracer):
        self.loads = tracer.wrap(json.loads, "cli.codec.decode.json")
        self.dumps = tracer.wrap(json.dumps, "cli.codec.encode.json")

    def __getattr__(self, name):
        return getattr(json, name)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tracer):
    """Wrap every binding for the duration of the block, then restore.

    A binding the library no longer has is skipped and its metrics read
    0; the names skipped are yielded so the run can report them.
    """
    saved, skipped = [], []
    try:
        for path, attr, name, note in BINDINGS:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                skipped.append(f"{path}.{attr}")
                continue
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, name, note))
            else:
                wrapped = tracer.wrap(original, name, note)
            setattr(owner, attr, wrapped)
        cli = _owner("circleact.cli")
        saved.append((cli, "json", cli.json))
        cli.json = _TracedJson(tracer)
        yield skipped
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans, ops: int) -> dict:
    """Per-op span figures: calls, self time in ms, module totals, codecs."""
    calls = Counter()
    self_ms = defaultdict(float)
    notes = defaultdict(float)
    in_decompose = []
    eig_in_decompose = nodes_in_decompose = 0
    for name, _op, start, end, parent, child_s, note in spans:
        calls[name] += 1
        self_ms[name] += 1000.0 * (end - start - child_s)
        notes[name] += note
        inside = name == "category.decompose" or (parent >= 0 and in_decompose[parent])
        in_decompose.append(inside)
        if inside and name == "linalg.eig":
            eig_in_decompose += 1
        if inside and name == "category.morphism_space":
            nodes_in_decompose += 1

    per_op = 1.0 / max(ops, 1)
    out = {}
    for module in MODULES:
        total = sum(v for k, v in self_ms.items() if k.split(".", 1)[0] == module)
        out[f"{module}.self_ms"] = total * per_op
    for name in (
        "linalg.eig",
        "linalg.nullspace",
        "coaction.hom",
        "coaction.conj_matrix",
        "coaction.conj_raw",
        "certify.classical_form",
        "certify.commutativity",
        "certify.polar",
        "category.morphism_space",
        "category.decompose",
        "category.tensor_product",
        "solver.residual",
        "solver.residual_gradient",
    ):
        out[f"{name}.calls"] = calls[name] * per_op
        out[f"{name}.self_ms"] = self_ms[name] * per_op
    out["cli.calls"] = calls["cli.main"] * per_op
    out["linalg.nullspace.gflop_computed"] = notes["linalg.nullspace"] * 1e-9 * per_op
    out["linalg.codec.decode_ms"] = per_op * sum(
        v for k, v in self_ms.items() if ".codec.decode." in k
    )
    out["linalg.codec.encode_ms"] = per_op * sum(
        v for k, v in self_ms.items() if ".codec.encode." in k
    )
    out["category.decompose.eig_per_node"] = eig_in_decompose / max(nodes_in_decompose, 1)
    return out
