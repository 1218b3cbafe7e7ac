"""Command line front end.

Subcommands map one to one onto the library surface: check, conjugate,
certify, solve, decompose, sample, fuse, snake.  Input objects are
read from --input (or stdin), results are written as JSON to --output
(or stdout).  Subcommands compose: an output envelope carrying an
object ("pair" from sample or conjugate, "product" from fuse) is
accepted wherever an object or pair document is expected, snake's
input included.  Exit codes: 0 all checks passed, 1 a check failed or
a counterexample was found, 2 input/output or schema trouble (with a
diagnostic naming the offending JSON path, never a stack trace).  A
numerical routine that fails to converge is a measured failure and
exits 1.  --tol, --character-tol, --seed and --n take the library's
rules under the flag's name, and a refused one exits 2 before anything
is read: --n (like snake's input "n") runs from 1 to MAX_N, solve's to
solver.SOLVE_MAX_N, and snake takes --n or --input, not both.  Running
out of memory on any other input exits 2 as well: nothing was measured,
and the input asked for more than the machine has.

Identical invocations produce byte identical output, except for the
"timestamp" field that --reproducible suppresses, on the same BLAS kernel
with the same thread count and library versions; another BLAS kernel may
change the last digits of floats.  The text written is exactly
``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.  Lists
of numbers alone, every matrix and vector ``data``, are written by orjson
(imported at the first write) and respelled to ``float.__repr__``'s
spelling where the two differ.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .linalg import DimensionMismatch, NoConvergence, SchemaError, vector_from_json
from .linalg import _fields, _require_int, _require_positive, _shown
from .coaction import (
    CertificateReport,
    CheckResult,
    ConjugatePair,
    LinearObject,
    check_conjugate_matrix,
    check_conjugate_raw,
    check_homomorphism,
    kac_vector,
)
from .certify import (
    AmbiguousSlot,
    ConstraintViolation,
    NotSimultaneouslyDiagonalizable,
    _certify_duality,
    _classical_form,
    _polar_data,
    _standard_pairing,
    canonical_dual,
    certify_commutativity,
    is_partial_isometry,
)
from .category import DecompositionFailure, check_snake, decompose, tensor_product
from .solver import SOLVE_MAX_N, SolverConfig, sample_classical, solve

# Largest dimension snake and sample will build: at this cap sample
# writes six n x n arrays as ~29 MB of JSON in a few seconds.
MAX_N = 256


def _read_payload(path):
    where = "stdin" if path is None else path
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError as exc:  # named, as fuse reads two inputs
        raise SchemaError(f"{where}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{where}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SchemaError(f"{where}: {exc}") from exc


def _unwrap(payload):
    """Accept another subcommand's output as input.

    A bare object/pair document passes through unchanged; an output
    envelope (recognized by its "kind" field) is unwrapped to the
    object it carries, so e.g. `sample --output pair.json` feeds
    directly into `certify --input pair.json`.
    """
    if isinstance(payload, dict) and "kind" in payload:
        for key in ("pair", "product"):
            if key in payload:
                return payload[key]
        raise SchemaError(
            f"input: a {_shown(payload['kind'])} output carries no object to re-read"
        )
    return payload


def _write_payload(payload: dict, path, reproducible: bool) -> None:
    if not reproducible:
        payload = dict(payload)
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = _encode(payload) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write output: {exc}") from exc


# JSON's spelling of the constants and of float.__repr__'s non-finite values.
_CONSTANTS = {None: "null", True: "true", False: "false"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(o) -> str:
    """``json.dumps(o, indent=2, sort_keys=True)``, byte for byte.

    The rules are ``json.encoder._make_iterencode``'s, without its generator
    chain: ``_append`` adds fragments to one list, joined once.  A list of
    numbers alone (every matrix and vector ``data``) is written by orjson and
    respelled where its spelling differs (see ``_numbers``).  One exception:
    json refuses enum members that are not ints, and orjson writes their
    values; no payload holds one.  orjson is imported on the first call, so
    that importing this module does not load it.
    """
    global orjson
    import orjson

    parts = []
    _append(o, "\n", parts)
    return "".join(parts)


def _append(o, outer: str, parts: list) -> None:
    """Append o's fragments to parts; a list or dict of o's closes at ``outer``."""
    inner = outer + "  "
    if isinstance(o, dict):
        for i, (k, v) in enumerate(sorted(o.items())):
            head = ("," if i else "{") + inner + _quote(k if type(k) is str else _key(k)) + ": "
            if type(v) is str:  # the common leaves, inline
                parts.append(head + _quote(v))
            elif type(v) is int:
                parts.append(head + int.__repr__(v))
            else:
                parts.append(head)
                _append(v, inner, parts)
        parts.append(outer + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        numbers = _numbers(o, outer) if o else "[]"
        if numbers is None:
            for i, x in enumerate(o):
                parts.append(("," if i else "[") + inner)
                _append(x, inner, parts)
            numbers = outer + "]"
        parts.append(numbers)
    elif o is None or o is True or o is False:
        parts.append(_CONSTANTS[o])
    elif isinstance(o, str):
        parts.append(_quote(o))
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        parts.append(_NON_FINITE.get(text, text))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k) -> str:
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return k if isinstance(k, str) else _encode(k)


def _numbers(o, outer: str):
    """o rendered if lists of finite floats and 64-bit ints alone (closing at ``outer``), else None.

    orjson writes the same shortest round-trip digits as ``float.__repr__``
    and the same ints, but spells some floats otherwise: ``1e-7`` for
    ``1e-07``, ``1e16`` for ``1e+16`` and ``0.00001`` for ``1e-05``.  Every
    token holding ``e`` or ``0.0000`` is read back and written by
    ``float.__repr__``, which is exact because the token round-trips.  Any
    string, object, true, false or null (NaN and infinities come out as null)
    refuses the list, as does any type orjson refuses.
    """
    if type(o[0]) is dict:  # orjson would write it all, only to be refused
        return None
    try:
        text = orjson.dumps(o, option=orjson.OPT_INDENT_2).decode()
    except TypeError:  # a float subclass, numpy scalar, int beyond 64 bits, ...
        return None
    if '"' in text or "{" in text or "t" in text or "f" in text or "n" in text:
        return None
    # Every number sits on a line of its own, indented, with at most a
    # comma after it.
    spans = []
    for needle in ("e", "0.0000"):
        at = text.find(needle)
        while at >= 0:
            end = text.find("\n", at)
            if text[end - 1] == ",":
                end -= 1
            spans.append((text.rfind(" ", 0, at) + 1, end))
            at = text.find(needle, end)
    if spans:
        pieces, done = [], 0
        for start, end in sorted(spans):
            if start >= done:  # a token holding both needles is respelled once
                pieces += text[done:start], float.__repr__(float(text[start:end]))
                done = end
        pieces.append(text[done:])
        text = "".join(pieces)
    return text.replace("\n", outer)


def _prefixed(prefix: str, report: CertificateReport):
    return tuple(
        CheckResult(f"{prefix}:{c.name}", c.residual, c.threshold) for c in report.checks
    )


def _cmd_check(args) -> tuple[dict, bool]:
    obj = LinearObject.from_json(_unwrap(_read_payload(args.input)), path="input")
    report = check_homomorphism(obj, args.tol)
    return {"kind": "check", "report": report.to_json()}, report.overall_pass


def _cmd_conjugate(args) -> tuple[dict, bool]:
    obj = LinearObject.from_json(_unwrap(_read_payload(args.input)), path="input")
    try:
        pair = canonical_dual(obj, args.tol)
    except ConstraintViolation:  # the homomorphism equations fail: report them
        return {"kind": "conjugate", "report": check_homomorphism(obj, args.tol).to_json()}, False
    matrix_report = check_conjugate_matrix(pair, args.tol)
    raw_report = check_conjugate_raw(pair, args.tol)
    payload = {
        "kind": "conjugate",
        "pair": pair.to_json(),
        "matrix_report": matrix_report.to_json(),
        "raw_report": raw_report.to_json(),
    }
    return payload, matrix_report.overall_pass and raw_report.overall_pass


def _cmd_certify(args) -> tuple[dict, bool]:
    pair = ConjugatePair.from_json(_unwrap(_read_payload(args.input)), path="input")
    tol = args.tol
    checks = []
    checks += _prefixed("hom", check_homomorphism(pair.object, tol))
    checks += _prefixed("dual", check_conjugate_matrix(pair, tol))
    checks += _prefixed("raw", check_conjugate_raw(pair, tol))
    stage_one = CertificateReport(tol, tuple(checks))
    payload: dict = {"kind": "certify"}
    if not stage_one.overall_pass:
        payload["report"] = stage_one.to_json()
        return payload, False

    for name, M in (("A", pair.object.A), ("B", pair.object.B), ("C", pair.C), ("D", pair.D)):
        _, res = is_partial_isometry(M, tol)
        checks.append(CheckResult(f"isometry:{name}", res, tol))
    checks += _prefixed("polar", _polar_data(pair, tol).report)
    if _standard_pairing(pair):
        checks += _prefixed("canonical", _certify_duality(pair, tol))
    else:
        payload["canonical_skipped"] = "non-standard pairing vectors"
    checks += _prefixed("comm", certify_commutativity(pair.object, tol))
    report = CertificateReport(tol, tuple(checks))
    payload["report"] = report.to_json()
    if not report.overall_pass:
        return payload, False

    try:
        classical = _classical_form(pair.object, tol, args.seed)
    except (NotSimultaneouslyDiagonalizable, AmbiguousSlot) as exc:
        payload["error"] = str(exc)
        return payload, False
    payload["classical"] = classical.to_json()
    return payload, True


def _cmd_solve(args) -> tuple[dict, bool]:
    try:
        config = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    except ValueError as exc:
        raise SchemaError(f"config: {exc}") from exc
    run = solve(config)
    counterexamples = [
        o.start_index
        for o in run.outcomes
        if o.converged and o.commutativity > args.character_tol
    ]
    payload = {
        "kind": "solve",
        "run": run.to_json(),
        "character_tol": args.character_tol,
        "counterexamples": counterexamples,
    }
    # A run in which no restart converged measured nothing: it fails.
    return payload, run.summary()["converged"] > 0 and not counterexamples


def _cmd_decompose(args) -> tuple[dict, bool]:
    obj = LinearObject.from_json(_unwrap(_read_payload(args.input)), path="input")
    try:
        dec = decompose(obj, args.tol, seed=args.seed)
    except DecompositionFailure as exc:
        return {"kind": "decompose", "error": str(exc)}, False
    return {"kind": "decompose", "decomposition": dec.to_json()}, True


def _cmd_sample(args) -> tuple[dict, bool]:
    pair = sample_classical(args.n, seed=args.seed)
    return {"kind": "sample", "pair": pair.to_json()}, True


def _cmd_fuse(args) -> tuple[dict, bool]:
    if args.inputs:
        if len(args.inputs) != 2:
            raise SchemaError("fuse expects exactly two input paths (or none for stdin)")
        # A generator: each file is parsed before the next one is read.
        docs = ((_read_payload(path), f"inputs[{i}]") for i, path in enumerate(args.inputs))
    else:
        payload_in = _read_payload(None)
        if not isinstance(payload_in, list) or len(payload_in) != 2:
            raise SchemaError("stdin: expected a JSON array of two objects")
        docs = ((doc, f"[{i}]") for i, doc in enumerate(payload_in))
    left, right = (LinearObject.from_json(_unwrap(doc), path=path) for doc, path in docs)
    try:
        product = tensor_product(left, right)
    except ValueError as exc:  # finite factors whose product overflows
        raise SchemaError(f"product: {exc}") from exc
    payload = {"kind": "fuse", "product": product.to_json()}
    try:
        dec = decompose(product, args.tol, seed=args.seed)
    except DecompositionFailure as exc:
        payload["error"] = str(exc)
        return payload, False
    payload["decomposition"] = dec.to_json()
    return payload, True


def _cmd_snake(args) -> tuple[dict, bool]:
    if args.n is not None:  # never given with --input
        n, doc = args.n, {}
    else:
        doc = _unwrap(_read_payload(args.input))
        (n,) = _fields(doc, ("n",), "input")
        n = _require_int(n, "input.n", 1, MAX_N, error=SchemaError)
    s, t = (
        vector_from_json(doc[key], path=f"input.{key}") if key in doc else kac_vector(n)
        for key in ("s", "t")
    )
    try:
        report = check_snake(s, t, n, args.tol)
    except DimensionMismatch as exc:  # s or t of a length other than n^2
        raise SchemaError(f"input: {exc}") from exc
    return {"kind": "snake", "report": report.to_json()}, report.overall_pass


def _check_arguments(args) -> None:
    for flag, rule in (("tol", _require_positive), ("character_tol", _require_positive),
                       ("seed", _require_int)):
        if getattr(args, flag, None) is not None:
            rule(getattr(args, flag), "--" + flag.replace("_", "-"))
    cap = {_cmd_sample: MAX_N, _cmd_snake: MAX_N, _cmd_solve: SOLVE_MAX_N}.get(args.func)
    if cap is not None and args.n is not None:
        _require_int(args.n, "--n", 1, cap)
    if args.func is _cmd_snake and args.n is not None and args.input is not None:
        raise ValueError("--n: not allowed with --input, whose document gives n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="circleact",
        description="Certify, classify, and search finite dimensional circle coactions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("--input", help="input JSON path (default: stdin)")
        p.add_argument("--output", help="output JSON path (default: stdout)")
        p.add_argument(
            "--reproducible",
            action="store_true",
            help="suppress the timestamp field for byte-stable output",
        )

    def add_tol(p):
        p.add_argument("--tol", type=float, default=1e-9, help="check tolerance")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="seed for any randomness")

    p = sub.add_parser("check", help="certify the homomorphism equations of an object")
    add_io(p)
    add_tol(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("conjugate", help="build and certify the canonical dual pair")
    add_io(p)
    add_tol(p)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("certify", help="run the full derivation chain on a pair")
    add_io(p)
    add_tol(p)
    add_seed(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("solve", help="multi-restart numerical search")
    add_io(p, with_input=False)
    p.add_argument("--n", type=int, required=True, help="fiber dimension")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--residual-tol", type=float, default=1e-10)
    p.add_argument("--grad-tol", type=float, default=1e-12)
    p.add_argument("--step-init", type=float, default=1.0)
    p.add_argument(
        "--character-tol",
        type=float,
        default=1e-6,
        help="commutativity threshold above which a converged outcome counts as a counterexample",
    )
    add_seed(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decompose", help="split an object into irreducible summands")
    add_io(p)
    add_tol(p)
    add_seed(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("sample", help="emit a known-good classical pair")
    add_io(p, with_input=False)
    p.add_argument("--n", type=int, required=True, help=f"fiber dimension, at most {MAX_N}")
    add_seed(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fuse", help="tensor two objects and decompose the product")
    p.add_argument("inputs", nargs="*", help="two input JSON paths (default: stdin array)")
    add_io(p, with_input=False)
    add_tol(p)
    add_seed(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("snake", help="certify the pairing conditions for s, t vectors")
    add_io(p)
    add_tol(p)
    p.add_argument(
        "--n",
        type=int,
        help=f"dimension for standard vectors when no input is given, at most {MAX_N}",
    )
    p.set_defaults(func=_cmd_snake)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_arguments(args)
        with np.errstate(all="ignore"):  # overflow is measured in the output, not warned of
            payload, passed = args.func(args)
        _write_payload(payload, args.output, args.reproducible)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large for this machine", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, RuntimeError) as exc:  # SchemaError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
