"""Command-line surface and JSON serialization.

Input metric files: {"n": int, "lattice": [int, ...], "matrix": [[...], ...]}
with a row-major (2n+1)^2 matrix of IEEE doubles.  Sequence spec files carry
either an explicit matrix list or a diagonal-parametric family whose entries
are rational expressions in the integer parameter k (evaluated exactly over
the rationals, e.g. "1", "k", "1/k", "k**2/2").

A family holds at most sequence.MAX_MEMBERS members, checked before any
matrix is built.  Error messages quote input cut to ECHO_CHARS characters.

All outputs are strict JSON on stdout with sorted keys and shortest
round-trip float rendering, so identical invocations are byte-identical; an
infinite Riemannian volume (corank 1) prints as null.  Errors are JSON on
stderr with exit code 1 (validation, including a quotient search box over its
size limit, or a lattice reduction that does not terminate) or 2 (a distance
that fails its endpoint check).  --csv switches tabular sequence reports to
CSV.  Distances come from an exact one-dimensional solve with no random or
tunable parts.
"""

import argparse
import ast
import json
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from .core import GroupElement, LatticeSpec
from .errors import SolverFailure
from .geodesics import (
    Momentum,
    distance,
    geodesic_point,
    quotient_distance,
)
from .metric import (
    MetricMatrix,
    canonicalize,
    invariants,
    minimal_popp_coeff,
    popp_coeff_v0,
    ricci_matrix,
    riemannian_volume_coeff,
    tilted_popp_coeff,
    total_measure,
)
from .moduli import check_precompactness, enumerate_lattices, geometry_constants, lattice_rank_bound
from .sequence import SequenceSpec, analyze_sequence, check_member_count

__all__ = [
    "main",
    "parse_metric_file",
    "parse_sequence_file",
    "serialize_metric_input",
    "canonical_json",
]


def canonical_json(payload) -> str:
    # strict JSON: an infinite or NaN value raises instead of printing a
    # token that standard parsers reject
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite_or_null(value):
    """An infinite volume (the Riemannian one of a corank-1 metric) as None."""
    return None if value == math.inf else value


def _emit(payload):
    sys.stdout.write(canonical_json(payload))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# Shape checks for parsed JSON: a value of the wrong JSON type is a
# ValueError that names its field, and a missing field stays a KeyError.

ECHO_CHARS = 80


def _echo(value):
    """repr(value) for an error message, cut to ECHO_CHARS characters plus a
    note of its length, so a long input cannot make a long error document."""
    text = repr(value)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _integer(value, what):
    """A JSON integer, or a float with an integral value, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {_echo(value)}")
    return value


def _integers(value, what):
    return [_integer(v, f"{what} entry") for v in _list(value, what)]


def _matrix(value, what):
    """A list of rows of JSON numbers, as a float array."""
    rows = _list(value, what)
    if not all(isinstance(row, list) and all(type(v) in (int, float) for v in row) for row in rows):
        raise ValueError(f"{what} must be a list of rows of numbers")
    return np.asarray(rows, dtype=np.float64)


def parse_metric_input(doc):
    doc = _object(doc, "metric document")
    n = _integer(doc["n"], "n")
    lattice = LatticeSpec(tuple(_integers(doc["lattice"], "lattice")))
    if lattice.n != n:
        raise ValueError("lattice length must equal n")
    m = MetricMatrix.from_matrix(_matrix(doc["matrix"], "matrix"))
    if m.n != n:
        raise ValueError("matrix size does not match n")
    return m, lattice


def serialize_metric_input(m: MetricMatrix, lattice: LatticeSpec):
    return {
        "n": m.n,
        "lattice": list(lattice.r),
        "matrix": [[float(v) for v in row] for row in m.mat],
    }


def parse_metric_file(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_metric_input(json.load(f))


_ENTRY_CHARS = set("0123456789k+-*/(). ")
# a power whose result would need more bits than this is refused before it
# is computed, so "k**k**k" fails at once instead of exhausting memory
_POW_BITS = 4096


def _power(base, exp):
    if exp.denominator != 1:
        raise ValueError(f"non-integer exponent {exp}")
    size = max(base.numerator.bit_length(), base.denominator.bit_length())
    if abs(exp.numerator) * size > _POW_BITS:
        raise ValueError(f"power with exponent {exp} exceeds {_POW_BITS} bits")
    return base**exp.numerator


_ENTRY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: _power,
}


def _entry_term(node, expr):
    """Compile one AST node of a family entry into a function of k."""
    if isinstance(node, ast.Name) and node.id == "k":
        return lambda k: k
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = Fraction(ast.get_source_segment(expr, node))  # "0.1" is 1/10
        return lambda k: value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        f = _entry_term(node.operand, expr)
        return f if isinstance(node.op, ast.UAdd) else lambda k: -f(k)
    if isinstance(node, ast.BinOp) and type(node.op) in _ENTRY_OPS:
        op = _ENTRY_OPS[type(node.op)]
        f, g = _entry_term(node.left, expr), _entry_term(node.right, expr)
        return lambda k: op(f(k), g(k))
    raise ValueError(f"unsupported family entry {_echo(expr)}")


def _family_entry(expr: str):
    """Parse a family entry once; returns k -> its value as a float.

    The entry is a rational expression in k: + - * /, unary + and -,
    numeric literals (taken as exact decimals) and integer powers whose
    result stays under _POW_BITS bits.  Anything else, and any value that
    divides by zero or does not fit a float, raises ValueError.
    """
    if not isinstance(expr, str) or len(expr) > 100 or not set(expr) <= _ENTRY_CHARS:
        raise ValueError(f"unsupported family entry {_echo(expr)}")
    try:
        term = _entry_term(ast.parse(expr, mode="eval").body, expr)
    except SyntaxError as e:
        raise ValueError(f"cannot parse family entry {_echo(expr)}: {e}") from e

    def value(k):
        try:
            return float(term(Fraction(k)))
        except (ZeroDivisionError, OverflowError) as e:
            raise ValueError(f"cannot evaluate family entry {_echo(expr)} at k={k}: {e}") from e

    return value


def eval_family_entry(expr: str, k: int) -> float:
    """Evaluate a rational expression in k exactly over the rationals."""
    return _family_entry(expr)(k)


def parse_sequence_input(doc) -> SequenceSpec:
    doc = _object(doc, "sequence document")
    n = _integer(doc["n"], "n")
    lattice = _integers(doc["lattice"], "lattice")
    fam = _object(doc["family"], "family")
    kind = fam["kind"]
    if kind == "diagonal-parametric":
        entries = _list(fam["entries"], "family.entries")
        if len(entries) != 2 * n + 1:
            raise ValueError("diagonal-parametric family needs 2n+1 entries")
        k_range = _integers(fam["k_range"], "family.k_range")
        if len(k_range) != 2:
            raise ValueError("family.k_range must be [first, last]")
        check_member_count(k_range[1] - k_range[0] + 1)
        ks = list(range(k_range[0], k_range[1] + 1))
        terms = [_family_entry(e) for e in entries]
        diagonals = np.array([[f(k) for f in terms] for k in ks]).reshape(len(ks), len(terms))
        matrices = np.zeros((len(ks), len(terms), len(terms)))
        matrices[:, range(len(terms)), range(len(terms))] = diagonals
    elif kind == "explicit":
        docs = _list(fam["matrices"], "family.matrices")
        check_member_count(len(docs))
        matrices = [_matrix(mm, "family.matrices entry") for mm in docs]
        ks = _integers(fam["ks"], "family.ks") if "ks" in fam else list(range(1, len(matrices) + 1))
    else:
        raise ValueError(f"unknown family kind {_echo(kind)}")
    return SequenceSpec.from_matrices(n, lattice, matrices, ks)


def parse_sequence_file(path) -> SequenceSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_sequence_input(json.load(f))


def _parse_floats(text, expect=None):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {_echo(text)}") from None
    if expect is not None and len(vals) != expect:
        raise ValueError(f"expected {expect} comma-separated values, got {len(vals)}")
    return vals


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_canonicalize(args):
    m, _ = parse_metric_file(args.input)
    c = canonicalize(m)
    _emit(
        {
            "n": c.n,
            "corank": c.corank,
            "atilde": [[float(v) for v in row] for row in c.atilde],
            "rho": float(c.rho),
            "d": [float(v) for v in c.d],
            "p": [[float(v) for v in row] for row in c.P],
            "r": [[float(v) for v in row] for row in c.R],
        }
    )
    return 0


def _cmd_invariants(args):
    m, _ = parse_metric_file(args.input)
    inv = invariants(m)
    _emit(
        {
            "d": [float(v) for v in inv.d],
            "delta": inv.delta,
            "absdet": inv.absdet,
            "absrho": inv.absrho,
        }
    )
    return 0


def _cmd_ricci(args):
    m, _ = parse_metric_file(args.input)
    ric = ricci_matrix(m)
    diag = np.diagonal(ric)
    _emit(
        {
            "basis": "canonical-orthonormal",
            "matrix": [[float(v) for v in row] for row in ric],
            "min": float(np.min(diag)),
            "max": float(np.max(diag)),
        }
    )
    return 0


def _cmd_volume(args):
    m, lattice = parse_metric_file(args.input)
    if args.kind == "riemannian":
        coeff = riemannian_volume_coeff(m)
    elif args.kind == "popp":
        coeff = popp_coeff_v0(m)
    elif args.kind == "minimal":
        coeff = minimal_popp_coeff(m)
    else:
        t = _parse_floats(args.tilt, 2 * m.n) if args.tilt else [0.0] * (2 * m.n)
        coeff = tilted_popp_coeff(m, t)
    _emit(
        {
            "kind": coeff.kind,
            "coefficient": _finite_or_null(coeff.value),
            "total_measure": _finite_or_null(total_measure(lattice, coeff)),
        }
    )
    return 0


def _cmd_geodesic(args):
    m, _ = parse_metric_file(args.input)
    vals = _parse_floats(args.momentum, 2 * m.n + 1)
    p = Momentum(vals[: m.n], vals[m.n : 2 * m.n], vals[-1])
    g = geodesic_point(canonicalize(m), p, args.time)
    _emit({"x": [float(v) for v in g.x], "y": [float(v) for v in g.y], "z": g.z})
    return 0


def _cmd_distance(args):
    m, lattice = parse_metric_file(args.input)
    vals = _parse_floats(args.target, 2 * m.n + 1)
    g = GroupElement.from_coords(vals)
    c = canonicalize(m)
    if args.quotient:
        val = quotient_distance(c, lattice, g)
        _emit({"distance": val, "quotient": True})
    else:
        val, p = distance(c, g)
        _emit(
            {
                "distance": val,
                "quotient": False,
                "momentum": {
                    "p_x": [float(v) for v in p.p_x],
                    "p_y": [float(v) for v in p.p_y],
                    "p_z": p.p_z,
                },
            }
        )
    return 0


def _check_payload(chk):
    out = {"value": chk.value, "pass": chk.passed}
    if chk.lower is not None:
        out["lower"] = chk.lower
    if chk.upper is not None:
        out["upper"] = chk.upper
    return out


def _cmd_check(args):
    m, lattice = parse_metric_file(args.input)
    constants = geometry_constants(m.n, lattice, args.D, args.V, args.K, args.mode)
    report = check_precompactness(m, lattice, constants)
    _emit(
        {
            "mode": report.mode,
            "constants": {
                "c1": constants.c1,
                "c2": constants.c2,
                "c3": constants.c3,
                "c_plus": constants.c_plus,
                "c_minus": constants.c_minus,
            },
            "conditions": {
                "a1": _check_payload(report.a1),
                "a2": _check_payload(report.a2),
                "a3": _check_payload(report.a3),
                "a4": _check_payload(report.a4),
            },
            "all_passed": report.all_passed,
        }
    )
    return 0


def _cmd_lattice_bound(args):
    bound = lattice_rank_bound(args.n, args.D, args.V)
    lattices = enumerate_lattices(args.n, bound)
    _emit(
        {
            "bound": bound,
            "count": len(lattices),
            "lattices": [list(s.r) for s in lattices],
        }
    )
    return 0


_SEQUENCE_SCALAR_FIELDS = [
    "delta",
    "absdet",
    "absrho",
    "riemannian_total",
    "popp_total",
    "minimal_popp_total",
    "fiber_length",
    "diameter_proxy",
    "ricci_min",
    "ricci_max",
]


def _cmd_sequence(args):
    spec = parse_sequence_file(args.spec)
    report = analyze_sequence(spec, args.volume_floor, window=args.window)
    if args.csv:
        header = ["k", "corank"] + [f"d_{i + 1}" for i in range(spec.n)] + _SEQUENCE_SCALAR_FIELDS
        lines = [",".join(header)]
        for row in report.rows:
            vals = [str(row.k), str(row.corank)]
            vals += [repr(v) for v in row.d]
            for f in _SEQUENCE_SCALAR_FIELDS:
                v = getattr(row, f)
                vals.append("" if v is None else repr(v))
            lines.append(",".join(vals))
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit(
        {
            "verdict": report.verdict,
            "volume_floor": report.volume_floor,
            "window": report.window,
            "limit_fingerprint": report.limit_fingerprint,
            "rows": [
                {
                    "k": row.k,
                    "corank": row.corank,
                    "d": list(row.d),
                    **{f: _finite_or_null(getattr(row, f)) for f in _SEQUENCE_SCALAR_FIELDS},
                }
                for row in report.rows
            ],
        }
    )
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(prog="heisgeo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("--input", required=True, help="metric JSON file")
        return p

    with_input(sub.add_parser("canonicalize")).set_defaults(func=_cmd_canonicalize)
    with_input(sub.add_parser("invariants")).set_defaults(func=_cmd_invariants)
    with_input(sub.add_parser("ricci")).set_defaults(func=_cmd_ricci)

    p = with_input(sub.add_parser("volume"))
    p.add_argument("--kind", required=True, choices=["riemannian", "popp", "tilted", "minimal"])
    p.add_argument("--tilt", help="comma-separated tilt vector (kind=tilted)")
    p.set_defaults(func=_cmd_volume)

    p = with_input(sub.add_parser("geodesic"))
    p.add_argument("--momentum", required=True, help="p_x..,p_y..,p_z")
    p.add_argument("--time", type=float, required=True)
    p.set_defaults(func=_cmd_geodesic)

    p = with_input(sub.add_parser("distance"))
    p.add_argument("--target", required=True, help="x..,y..,z coordinates")
    p.add_argument("--quotient", action="store_true")
    p.set_defaults(func=_cmd_distance)

    p = with_input(sub.add_parser("check"))
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--K", type=float)
    p.add_argument("--mode", required=True, choices=["riemannian", "subriemannian"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lattice-bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.set_defaults(func=_cmd_lattice_bound)

    p = sub.add_parser("sequence")
    p.add_argument("--spec", required=True, help="sequence spec JSON file")
    p.add_argument("--volume-floor", type=float, required=True, dest="volume_floor")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_sequence)
    return ap


def _error_payload(exc):
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SolverFailure) and exc.best_residual is not None:
        payload["best_residual"] = exc.best_residual
    return {"error": payload}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; remap so exit 2 stays reserved
        # for solver failures
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except SolverFailure as e:
        sys.stderr.write(canonical_json(_error_payload(e)))
        return 2
    # SolverFailure is a RuntimeError and is caught above; what is left
    # here is LLL non-termination
    except (ValueError, KeyError, OSError, RuntimeError, json.JSONDecodeError) as e:
        sys.stderr.write(canonical_json(_error_payload(e)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
