import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heisgeo.cli as cli
from heisgeo import geodesics, linalg
from heisgeo.errors import SolverFailure

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["identity-h1.json", "ex-4-9.json", "ex-5-3.json"])
def test_fixture_round_trip_bit_identical(name):
    raw = (FIXTURES / name).read_bytes()
    doc = json.loads(raw)
    assert cli.canonical_json(doc).encode() == raw


def test_metric_round_trip_through_objects():
    m, lattice = cli.parse_metric_file(FIXTURES / "identity-h1.json")
    doc = cli.serialize_metric_input(m, lattice)
    assert cli.canonical_json(doc).encode() == (FIXTURES / "identity-h1.json").read_bytes()


def test_family_entry_evaluation():
    assert cli.eval_family_entry("1/k", 3) == pytest.approx(1.0 / 3.0, rel=1e-16)
    assert cli.eval_family_entry("k**2", 5) == 25.0
    assert cli.eval_family_entry("(k+1)/2", 3) == 2.0
    with pytest.raises(ValueError):
        cli.eval_family_entry("__import__('os')", 1)
    with pytest.raises(ValueError):
        cli.eval_family_entry("k" * 200, 1)
    with pytest.raises(ValueError):
        cli.eval_family_entry("1/(k-1)", 1)  # division by zero surfaces as ValueError
    assert cli.eval_family_entry("-k + +2", 5) == -3.0
    assert cli.eval_family_entry("0.1*k", 3) == 0.3  # decimal literals are exact
    assert cli.eval_family_entry("2**-2", 1) == 0.25
    for bad in ("k**k**k", "2**4097", "k**(1/2)", "k//2", "k(1)", "...", "2**1100"):
        with pytest.raises(ValueError):
            cli.eval_family_entry(bad, 50)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_invariants_command(capsys):
    code, out, err = run_cli(
        capsys, "invariants", "--input", str(FIXTURES / "identity-h1.json")
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["d"] == [1.0]
    assert doc["delta"] == pytest.approx(math.sqrt(2.0))
    assert doc["absdet"] == 1.0
    assert doc["absrho"] == 1.0


def test_canonicalize_command(capsys):
    code, out, _ = run_cli(
        capsys, "canonicalize", "--input", str(FIXTURES / "identity-h1.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["corank"] == 0
    assert doc["rho"] == 1.0
    assert np.allclose(doc["atilde"], np.eye(2))


def test_ricci_command(capsys):
    code, out, _ = run_cli(capsys, "ricci", "--input", str(FIXTURES / "identity-h1.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["min"] == pytest.approx(-0.5)
    assert doc["max"] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "kind,value",
    [("riemannian", 1.0), ("popp", 1 / math.sqrt(2.0)), ("minimal", 1 / math.sqrt(2.0))],
)
def test_volume_command(capsys, kind, value):
    code, out, _ = run_cli(
        capsys, "volume", "--input", str(FIXTURES / "identity-h1.json"), "--kind", kind
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficient"] == pytest.approx(value, rel=1e-12)
    assert doc["total_measure"] == pytest.approx(value, rel=1e-12)


def test_volume_tilted_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "volume",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--kind",
        "tilted",
        "--tilt",
        "1,0",
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_geodesic_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--momentum",
        "1,0,0",
        "--time",
        "1.0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == [1.0] and doc["y"] == [0.0] and doc["z"] == 0.0


def test_distance_command_vertical(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--target",
        "0,0,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == pytest.approx(1.0, abs=1e-8)


def test_distance_command_quotient(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--target",
        "0,0,1",
        "--quotient",
    )
    assert code == 0
    assert json.loads(out)["distance"] == 0.0


def test_check_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--D",
        "1",
        "--V",
        "0.5",
        "--K",
        "1",
        "--mode",
        "riemannian",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["constants"]["c2"] == pytest.approx(1 / 16)


def test_lattice_bound_command(capsys):
    code, out, _ = run_cli(capsys, "lattice-bound", "--n", "1", "--D", "1", "--V", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == pytest.approx(64 * math.pi**2, rel=1e-14)
    assert doc["count"] == 631
    assert doc["lattices"][0] == [1] and doc["lattices"][-1] == [631]


def test_sequence_command_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "sequence",
        "--spec",
        str(FIXTURES / "ex-4-9.json"),
        "--volume-floor",
        "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "non-collapsed (limit corank-1)"
    assert doc["limit_fingerprint"]["absrho"] == 0.0
    assert len(doc["rows"]) == 50


def test_sequence_command_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sequence",
        "--spec",
        str(FIXTURES / "ex-5-3.json"),
        "--volume-floor",
        "0.5",
        "--csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("k,corank,d_1,delta,absdet")
    assert len(lines) == 51


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(
        capsys, "invariants", "--input", str(FIXTURES / "identity-h1.json")
    )
    _, out2, _ = run_cli(
        capsys, "invariants", "--input", str(FIXTURES / "identity-h1.json")
    )
    assert out1 == out2
    _, s1, _ = run_cli(
        capsys, "sequence", "--spec", str(FIXTURES / "ex-5-3.json"), "--volume-floor", "0.5"
    )
    _, s2, _ = run_cli(
        capsys, "sequence", "--spec", str(FIXTURES / "ex-5-3.json"), "--volume-floor", "0.5"
    )
    assert s1 == s2


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "lattice": [1], "matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}))
    code, out, err = run_cli(capsys, "invariants", "--input", str(bad))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "InvalidMetricError"


_IDENTITY_H1 = {"n": 1, "lattice": [1], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
_EXPLICIT_SEQUENCE = {"n": 1, "lattice": [1], "family": {"kind": "explicit", "matrices": [_IDENTITY_H1["matrix"]]}}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("invariants", [_IDENTITY_H1], "metric document"),
        ("invariants", {**_IDENTITY_H1, "lattice": 1}, "lattice"),
        ("sequence", {**_EXPLICIT_SEQUENCE, "family": {**_EXPLICIT_SEQUENCE["family"], "ks": None}}, "family.ks"),
    ],
    ids=["metric-list", "lattice-int", "ks-null"],
)
def test_document_shape_error_exit_code(capsys, tmp_path, command, doc, field):
    # a document of the wrong JSON shape is a ValueError naming the field
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = ["--input", str(path)] if command == "invariants" else ["--spec", str(path), "--volume-floor", "1"]
    code, out, err = run_cli(capsys, command, *flag)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith(field)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--input", str(FIXTURES / "identity-h1.json"), "--D", "1e-300", "--V", "1", "--K", "1",
         "--mode", "riemannian"],
        ["check", "--input", str(FIXTURES / "identity-h1.json"), "--D", "nan", "--V", "1", "--K", "1",
         "--mode", "riemannian"],
        ["sequence", "--spec", str(FIXTURES / "ex-4-9.json"), "--volume-floor", "nan"],
        ["sequence", "--spec", str(FIXTURES / "ex-4-9.json"), "--volume-floor", "0.5", "--window", "0"],
        ["sequence", "--spec", str(FIXTURES / "ex-4-9.json"), "--volume-floor", "0.5", "--window", "-3"],
    ],
    ids=["D-overflow", "D-nan", "volume-floor-nan", "window-0", "window-negative"],
)
def test_numeric_argument_error_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariants", "--input", "does-not-exist.json")
    assert code == 1
    assert "error" in json.loads(err)


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "distance", "--input", str(FIXTURES / "identity-h1.json"))
    assert code == 1  # missing --target is a validation error, not exit 2
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_seed_env_reproducible(capsys, monkeypatch):
    # the distance solve has no random or tunable parts: two runs print the
    # same bytes, and the old HEISGEO_SEED variable changes nothing
    monkeypatch.delenv("HEISGEO_SEED", raising=False)
    args = ["distance", "--input", str(FIXTURES / "identity-h1.json"), "--target", "0.3,0.2,0.7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["distance"] > 0
    monkeypatch.setenv("HEISGEO_SEED", "123")
    assert run_cli(capsys, *args)[1] == out1


def test_quotient_box_too_large_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(geodesics, "QUOTIENT_BOX_LIMIT", 1)
    code, out, err = run_cli(
        capsys,
        "distance",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--target",
        "0.5,0,0",
        "--quotient",
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ValueError"
    assert "exceeds the limit" in doc["error"]["message"]


def test_cli_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, heisgeo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_sequence_fixtures_reproduce_reference_values(capsys):
    _, out, _ = run_cli(
        capsys, "sequence", "--spec", str(FIXTURES / "ex-4-9.json"), "--volume-floor", "0.5"
    )
    rows = json.loads(out)["rows"]
    assert all(r["minimal_popp_total"] == pytest.approx(1 / math.sqrt(2), rel=1e-9) for r in rows)
    _, out, _ = run_cli(
        capsys, "sequence", "--spec", str(FIXTURES / "ex-5-3.json"), "--volume-floor", "0.5"
    )
    rows = json.loads(out)["rows"]
    assert rows[-1]["minimal_popp_total"] == pytest.approx(
        1 / (math.sqrt(2) * 50**2), rel=1e-9
    )
    assert rows[-1]["riemannian_total"] == pytest.approx(1.0, rel=1e-9)


def test_solver_failure_exit_code(capsys, monkeypatch):
    def boom(*a, **kw):
        raise SolverFailure("no branch", best_residual=0.25)

    monkeypatch.setattr(cli, "distance", boom)
    code, out, err = run_cli(
        capsys,
        "distance",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--target",
        "0.5,0,0",
    )
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "SolverFailure"
    assert doc["error"]["best_residual"] == 0.25


def test_lll_failure_exit_code(capsys, monkeypatch):
    # LLL that gives up at once: its RuntimeError is JSON on stderr, exit 1
    monkeypatch.setattr(linalg, "_lll_reduce", functools.partial(linalg._lll_reduce, max_iter=0))
    code, out, err = run_cli(
        capsys,
        "check",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--D",
        "1",
        "--V",
        "0.5",
        "--K",
        "1",
        "--mode",
        "riemannian",
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == {"type": "RuntimeError", "message": "LLL failed to terminate"}


def test_enumeration_budget_exit_code(capsys, monkeypatch):
    # a shortest-vector enumeration over its node budget: RuntimeError as
    # JSON on stderr, exit 1, as for LLL
    monkeypatch.setattr(linalg, "ENUM_NODE_BUDGET", 1)
    code, out, err = run_cli(
        capsys,
        "check",
        "--input",
        str(FIXTURES / "identity-h1.json"),
        "--D",
        "1",
        "--V",
        "0.5",
        "--K",
        "1",
        "--mode",
        "riemannian",
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == {"type": "RuntimeError", "message": "lattice enumeration exceeded its budget of 1 nodes"}


# ---------------------------------------------------------------------------
# strict JSON and bounded families
# ---------------------------------------------------------------------------


def _strict_json(text):
    """json.loads that refuses the Infinity / NaN extension tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_volume_riemannian_corank1_is_strict_json(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"n": 1, "lattice": [1], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}))
    code, out, _ = run_cli(capsys, "volume", "--input", str(path), "--kind", "riemannian")
    assert code == 0
    doc = _strict_json(out)
    assert doc["coefficient"] is None and doc["total_measure"] is None


def test_sequence_corank1_member_is_strict_json(capsys, tmp_path):
    path = tmp_path / "seq.json"
    spec = {"n": 1, "lattice": [1],
            "family": {"kind": "diagonal-parametric", "entries": ["1", "1", "(k-1)/k"], "k_range": [1, 8]}}
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "sequence", "--spec", str(path), "--volume-floor", "0.5")
    assert code == 0
    rows = _strict_json(out)["rows"]
    assert rows[0]["corank"] == 1 and rows[0]["riemannian_total"] is None
    assert rows[1]["riemannian_total"] == 2.0


def test_canonical_json_refuses_non_finite():
    with pytest.raises(ValueError):
        cli.canonical_json({"x": float("inf")})


@pytest.mark.parametrize(
    "family",
    [
        {"kind": "diagonal-parametric", "entries": ["1", "1", "1/k"], "k_range": [1, 10**9]},
        {"kind": "explicit", "matrices": [[[1]]] * 10_001},
    ],
    ids=["k-range", "explicit"],
)
def test_family_member_limit_exit_code(capsys, tmp_path, family):
    # refused from the member count, before any matrix is built
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"n": 1, "lattice": [1], "family": family}))
    code, out, err = run_cli(capsys, "sequence", "--spec", str(path), "--volume-floor", "0.5")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "limit is 10000" in error["message"]


@pytest.mark.parametrize(
    "diagonal, d",
    [((1e-6, 1e-6, 1.0), 1e-12), ((1e150, 1e150, 1e150), 1e150 * 1e150)],
    ids=["small", "large"],
)
def test_invariants_at_extreme_scales(capsys, tmp_path, diagonal, d):
    # reduced at unit scale: exact invariants, and no numpy warning (turned
    # into an error here) on the way
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "lattice": [1], "matrix": np.diag(diagonal).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "invariants", "--input", str(path))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["d"] == [d] and doc["absdet"] == d and doc["absrho"] == diagonal[2]


def test_ricci_at_large_scale(capsys, tmp_path):
    # (d / rho)^2 / 2 = 5e299 is a float although d^2 = 1e600 is not: the
    # ricci subcommand and the sequence rows' Ricci columns stay finite, with
    # no numpy warning (an error here) on the way
    big = (1e150 * np.eye(3)).tolist()
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "lattice": [1], "matrix": big}))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"n": 1, "lattice": [1], "family": {"kind": "explicit", "matrices": [big] * 3}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "ricci", "--input", str(path))
        assert code == 0 and err == ""
        ric = np.array(json.loads(out)["matrix"])
        assert np.all(np.isfinite(ric)) and ric[2, 2] == pytest.approx(5e299, rel=1e-14)
        code, out, err = run_cli(capsys, "sequence", "--spec", str(seq), "--volume-floor", "0.5")
    assert code == 0 and err == ""
    for row in json.loads(out)["rows"]:
        assert row["ricci_max"] == pytest.approx(5e299, rel=1e-14)
        assert row["ricci_min"] == pytest.approx(-5e299, rel=1e-14)


def test_invariants_out_of_float_range_exit_code(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "lattice": [1], "matrix": (1e200 * np.eye(3)).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "invariants", "--input", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidMetricError" and "scale out of range" in error["message"]


def test_long_input_is_cut_in_error_messages(capsys, tmp_path):
    entry = "+".join(["k"] * 20000)
    path = tmp_path / "seq.json"
    family = {"kind": "diagonal-parametric", "entries": [entry, "1", "1"], "k_range": [1, 3]}
    path.write_text(json.dumps({"n": 1, "lattice": [1], "family": family}))
    code, out, err = run_cli(capsys, "sequence", "--spec", str(path), "--volume-floor", "0.5")
    assert code == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith("unsupported family entry 'k+k+")
    assert message.endswith(f"... ({len(entry) + 2} characters)")
    assert len(message) <= cli.ECHO_CHARS + 60
    code, out, err = run_cli(
        capsys, "geodesic", "--input", str(FIXTURES / "identity-h1.json"), "--momentum", "x" * 5000, "--t", "1"
    )
    assert code == 1 and len(json.loads(err)["error"]["message"]) <= cli.ECHO_CHARS + 60
