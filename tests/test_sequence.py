from pathlib import Path

import numpy as np
import pytest

from heisgeo import InvalidMetricError, LatticeSpec
from heisgeo.metric import MetricMatrix
from heisgeo.sequence import MAX_MEMBERS, SequenceSpec, analyze_sequence, check_member_count

SQ2 = np.sqrt(2.0)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def family(entries_fn, ks, n=1, lattice=(1,)):
    return SequenceSpec.from_matrices(
        n, lattice, [np.diag(entries_fn(k)) for k in ks], ks=list(ks)
    )


def test_riemannian_to_subriemannian_family():
    spec = family(lambda k: [1.0, 1.0, 1.0 / k], range(1, 51))
    report = analyze_sequence(spec, V=0.5)
    assert report.verdict == "non-collapsed (limit corank-1)"
    assert all(
        r.minimal_popp_total == pytest.approx(1 / SQ2, rel=1e-12) for r in report.rows
    )
    fp = report.limit_fingerprint
    assert fp["absrho"] == 0.0
    assert fp["d"][0] == pytest.approx(1.0, rel=1e-9)
    assert fp["absdet"] == pytest.approx(1.0, rel=1e-9)


def test_collapsing_family():
    spec = family(lambda k: [float(k), 1.0, 1.0 / k], range(1, 51))
    report = analyze_sequence(spec, V=0.5)
    assert report.verdict == "collapsed"
    last = report.rows[-1]
    k = 50.0
    assert last.minimal_popp_total == pytest.approx(1 / (SQ2 * k**2), rel=1e-12)
    assert last.fiber_length == pytest.approx(
        (2 / k) * np.sqrt(k * np.pi - np.pi**2 / k**2), rel=1e-10
    )
    assert last.riemannian_total == pytest.approx(1.0, rel=1e-12)
    # diameter proxy stays bounded while the volume collapses
    assert max(r.diameter_proxy for r in report.rows) <= 5.0


def test_constant_family():
    spec = family(lambda k: [1.0, 1.0, 1.0], range(1, 12))
    report = analyze_sequence(spec, V=0.5)
    assert report.verdict == "non-collapsed (limit corank-0)"
    assert report.limit_fingerprint["absrho"] == pytest.approx(1.0)


def test_constant_subriemannian_family():
    spec = family(lambda k: [1.0, 1.0, 0.0], range(1, 12))
    report = analyze_sequence(spec, V=0.5)
    assert report.verdict == "non-collapsed (limit corank-1)"
    rows = report.rows
    assert all(r.corank == 1 for r in rows)
    assert all(r.ricci_min is None for r in rows)
    assert all(np.isinf(r.riemannian_total) for r in rows)


def test_inconclusive_on_oscillation():
    spec = family(lambda k: [1.0 + 0.5 * (k % 2), 1.0, 1.0], range(1, 21))
    report = analyze_sequence(spec, V=0.1)
    assert report.verdict == "inconclusive"


def test_below_floor_with_diverging_diameter_is_inconclusive():
    # total measure 1/k -> 0 while the torus diameter bound grows like k
    spec = family(lambda k: [1.0 / k, 1.0 / k, float(k) ** 3], range(1, 41))
    report = analyze_sequence(spec, V=0.5, diameter_blowup_factor=10.0)
    assert report.rows[-1].minimal_popp_total < 0.5
    assert report.verdict == "inconclusive"


def test_member_validation_reports_offending_k():
    mats = [np.diag([1.0, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0])]
    with pytest.raises(InvalidMetricError, match="k=2"):
        SequenceSpec.from_matrices(1, (1,), mats, ks=[1, 2])


def test_volume_floor_validation():
    spec = family(lambda k: [1.0, 1.0, 1.0], range(1, 6))
    with pytest.raises(ValueError):
        analyze_sequence(spec, V=0.0)


GRAY = np.diag([1.0, 1.0, 1e-11])
NOT_BRACKET_GENERATING = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.eye(4), "expected a square matrix of odd size"),
        (np.ones((3, 2)), "expected a square matrix of odd size"),
        (np.ones((1, 1)), "need size at least 3"),
        (np.diag([1.0, np.nan, 1.0]), "matrix entries must be finite"),
        (np.zeros((3, 3)), "zero matrix"),
        (GRAY, "gray zone"),
        (np.diag([1.0, 0.0, 0.0]), "corank 2 > 1 is not supported"),
        (NOT_BRACKET_GENERATING, "corank-1 image is not bracket generating"),
    ],
)
def test_member_error_from_middle_of_stack_names_k(bad, message):
    good = [np.diag([1.0, 2.0, 1.0 / k]) for k in range(1, 7)]
    mats = good[:3] + [bad] + good[3:]
    with pytest.raises(InvalidMetricError, match=f"^family member k=13: .*{message}"):
        SequenceSpec.from_matrices(1, (1,), mats, ks=list(range(10, 17)))


def test_member_errors_report_the_first_bad_member():
    mats = [np.eye(3), GRAY, np.eye(4), np.zeros((3, 3))]
    with pytest.raises(InvalidMetricError, match="^family member k=2: singular values in the gray"):
        SequenceSpec.from_matrices(1, (1,), mats)
    mats = [np.eye(3), np.eye(4), GRAY]
    with pytest.raises(InvalidMetricError, match="^family member k=2: expected a square"):
        SequenceSpec.from_matrices(1, (1,), mats)
    # members of another valid size pass validation and fail the n check
    with pytest.raises(ValueError, match="matching n"):
        SequenceSpec.from_matrices(1, (1,), [np.eye(3), np.eye(5)])


def test_mixed_corank_family_rows():
    # diag(1, 1, (k-1)/k): corank 1 at k = 1, Riemannian after; the values
    # are the ones the per-member analyzer printed
    spec = family(lambda k: [1.0, 1.0, (k - 1) / k], range(1, 51))
    report = analyze_sequence(spec, V=0.5)
    assert report.verdict == "inconclusive"
    first, second = report.rows[:2]
    assert (first.corank, second.corank) == (1, 0)
    assert first.riemannian_total == np.inf and first.ricci_min is None
    assert first.fiber_length == 3.5449077018110318
    assert first.diameter_proxy == 4.544907701811032
    assert first.minimal_popp_total == first.popp_total == 0.7071067811865475
    assert (second.absrho, second.riemannian_total, second.fiber_length) == (0.5, 2.0, 2.0)
    assert (second.ricci_min, second.ricci_max, second.diameter_proxy) == (-2.0, 2.0, 3.0)
    for k, row in zip(range(1, 51), report.rows):
        rho = (k - 1) / k
        assert row.d == (1.0,) and row.delta == SQ2 and row.absdet == 1.0
        assert row.absrho == rho
        inv_rho = 1 / rho if rho else np.inf
        assert row.minimal_popp_total == pytest.approx(min(1 / SQ2, inv_rho), rel=1e-15)


def test_family_member_limit():
    with pytest.raises(ValueError, match="limit is 10000"):
        check_member_count(MAX_MEMBERS + 1)
    check_member_count(MAX_MEMBERS)


def test_spec_requires_one_k_per_member():
    m = MetricMatrix.from_matrix(np.eye(3))
    lattice = LatticeSpec((1,))
    with pytest.raises(ValueError, match="nonempty with one parameter per member"):
        SequenceSpec(n=1, lattice=lattice, ks=(), members=())
    with pytest.raises(ValueError, match="nonempty with one parameter per member"):
        SequenceSpec(n=1, lattice=lattice, ks=(1, 2), members=(m,))
    # more ks than matrices reaches the same check
    with pytest.raises(ValueError, match="nonempty with one parameter per member"):
        SequenceSpec.from_matrices(1, (1,), [np.eye(3)], ks=[1, 2])


def test_ex_5_3_absdet_is_exact():
    # diag(k, 1, 1/k): Atilde^T J Atilde = block_form(d), so |det Atilde| is
    # read off d = k and is exact on every row
    from heisgeo.cli import parse_sequence_file

    report = analyze_sequence(parse_sequence_file(FIXTURES / "ex-5-3.json"), V=0.5)
    assert [row.absdet for row in report.rows] == [float(k) for k in range(1, 51)]
