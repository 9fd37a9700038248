import math

import numpy as np
import pytest

from heisgeo import LatticeSpec
from heisgeo.metric import MetricMatrix, canonicalize, minimal_popp_coeff, total_measure
from heisgeo.moduli import (
    check_precompactness,
    enumerate_lattices,
    extend_stabilizer,
    fingerprint,
    geometry_constants,
    in_stabilizer,
    lattice_rank_bound,
    projected_lattice_gram,
)

from conftest import (
    brute_force_shortest,
    random_corank0,
    random_int_symplectic,
    random_orthogonal,
)


def diag_metric(*entries):
    return MetricMatrix.from_matrix(np.diag([float(v) for v in entries]))


# ---------------------------------------------------------------------------
# stabilizer
# ---------------------------------------------------------------------------


def test_in_stabilizer_examples():
    spec = LatticeSpec((1,))
    ok, eps = in_stabilizer(np.eye(2), spec)
    assert ok and eps == 1
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ok, eps = in_stabilizer(J, spec)
    assert ok and eps == 1
    ok, _ = in_stabilizer(np.diag([2.0, 0.5]), spec)
    assert not ok  # symplectic but not integral
    ok, eps = in_stabilizer(np.diag([1.0, -1.0]), spec)
    assert ok and eps == -1


def test_in_stabilizer_respects_r():
    # diag(r) GL(Z) diag(r)^{-1} changes which rationals are allowed
    spec = LatticeSpec((2,))
    beta = np.array([[1.0, 2.0], [0.0, 1.0]])  # upper shear by 2
    ok, eps = in_stabilizer(beta, spec)
    assert ok and eps == 1
    beta = np.array([[1.0, 0.5], [0.0, 1.0]])
    ok, _ = in_stabilizer(beta, spec)
    assert not ok
    # conjugation makes the (2,1) slot accept halves... scaled shear:
    beta = np.array([[1.0, 0.0], [2.0, 1.0]])
    ok, _ = in_stabilizer(beta, spec)
    assert ok


def test_stabilizer_group_closure():
    rng = np.random.default_rng(1)
    spec = LatticeSpec((1, 1))
    members = []
    for _ in range(8):
        beta = random_int_symplectic(rng, 2).astype(np.float64)
        ok, eps = in_stabilizer(beta, spec)
        assert ok and eps == 1
        members.append((beta, eps))
    anti = np.diag([1.0, 1.0, -1.0, -1.0])
    ok, eps_anti = in_stabilizer(anti, spec)
    assert ok and eps_anti == -1
    members.append((anti, eps_anti))
    for a, ea in members[:5]:
        for b, eb in members[:5]:
            ok, eps = in_stabilizer(a @ b, spec)
            assert ok and eps == ea * eb
        ok, eps = in_stabilizer(np.linalg.inv(a), spec)
        assert ok and eps == ea


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_invariance_under_moduli_action():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        spec = LatticeSpec(tuple([1] * n))
        for _ in range(10):
            mat = random_corank0(rng, n)
            d0, det0, rho0 = fingerprint(MetricMatrix.from_matrix(mat))
            beta = random_int_symplectic(rng, n).astype(np.float64)
            ok, eps = in_stabilizer(beta, spec)
            assert ok
            R = np.eye(2 * n + 1)
            R[: 2 * n, : 2 * n] = random_orthogonal(rng, 2 * n)
            R[-1, -1] = float(rng.choice([-1.0, 1.0]))
            acted = extend_stabilizer(beta, eps) @ mat @ R
            d1, det1, rho1 = fingerprint(MetricMatrix.from_matrix(acted))
            assert np.max(np.abs(d0 - d1)) <= 1e-9 * max(d0[-1], 1.0)
            assert det1 == pytest.approx(det0, rel=1e-9)
            assert rho1 == pytest.approx(rho0, rel=1e-9)


def test_fingerprint_separates_examples():
    k = 6.0
    d_a, det_a, _ = fingerprint(diag_metric(1, 1, 1 / k))
    d_b, det_b, _ = fingerprint(diag_metric(k, 1, 1 / k))
    assert d_a[0] == pytest.approx(1.0)
    assert d_b[0] == pytest.approx(k)
    assert det_a != pytest.approx(det_b)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_geometry_constants_riemannian_exact():
    spec = LatticeSpec((1,))
    c = geometry_constants(1, spec, D=1.0, V=1.0, K=1.0, mode="riemannian")
    assert c.c2 == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert c.c_plus == pytest.approx(16.0, rel=1e-15)
    assert c.c3 == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-15)
    assert c.c_minus == pytest.approx(1.0 / (16.0 * math.sqrt(2.0)), rel=1e-15)
    assert c.c1 == pytest.approx(1.0 / (16.0 * math.sqrt(2.0) * 4.0), rel=1e-15)


def test_geometry_constants_subriemannian():
    spec = LatticeSpec((1,))
    c = geometry_constants(1, spec, D=1.0, V=1.0, mode="subriemannian")
    assert c.c2 == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert c.c_plus == pytest.approx(16.0, rel=1e-15)
    assert c.c3 == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-15)
    assert c.c_minus is None


def test_geometry_constants_validation():
    spec = LatticeSpec((1,))
    with pytest.raises(ValueError):
        geometry_constants(1, spec, D=0.0, V=1.0, K=1.0)
    with pytest.raises(ValueError):
        geometry_constants(1, spec, D=1.0, V=1.0, mode="riemannian")  # K missing


# ---------------------------------------------------------------------------
# precompactness checks
# ---------------------------------------------------------------------------


def test_check_precompactness_generous_bounds():
    spec = LatticeSpec((1,))
    from heisgeo.moduli import Constants

    generous = Constants(c1=1e-3, c2=1e-3, c3=1e3, c_plus=1e3, c_minus=1e-3, mode="riemannian")
    report = check_precompactness(diag_metric(1, 1, 1), spec, generous)
    assert report.all_passed


def test_check_precompactness_families():
    spec = LatticeSpec((1,))
    consts_r = geometry_constants(1, spec, D=1.0, V=0.5, K=1.0, mode="riemannian")
    consts_s = geometry_constants(1, spec, D=1.0, V=0.5, mode="subriemannian")

    # vanishing rho: Riemannian two-sided bound eventually fails from below,
    # sub-Riemannian one-sided bound keeps passing
    rep_small = check_precompactness(diag_metric(1, 1, 1.0 / 100), spec, consts_r)
    assert not rep_small.a4.passed
    assert rep_small.a2.passed and rep_small.a3.passed
    rep_sub = check_precompactness(diag_metric(1, 1, 1.0 / 100), spec, consts_s)
    assert rep_sub.a4.passed and rep_sub.all_passed

    # diverging d_n: A-3 eventually fails
    rep_b = check_precompactness(diag_metric(100, 1, 1.0 / 100), spec, consts_r)
    assert not rep_b.a3.passed


def test_a1_value_matches_brute_force():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        spec = LatticeSpec(tuple([1] * n))
        for _ in range(5):
            m = MetricMatrix.from_matrix(random_corank0(rng, n, cond_max=1e3))
            c = canonicalize(m)
            gram = projected_lattice_gram(c, spec)
            from heisgeo.linalg import shortest_lattice_vector

            _, got = shortest_lattice_vector(gram)
            want = brute_force_shortest(gram, got)
            assert got == pytest.approx(want, rel=1e-9)


def test_no_false_pass_on_total_measure_implication():
    # metrics passing the conditions derived from (D, V) are consistent with
    # total minimal-Popp measure >= V on constructed families
    spec = LatticeSpec((1,))
    consts = geometry_constants(1, spec, D=2.0, V=0.25, mode="subriemannian")
    for k in (1, 2, 5, 20):
        m = diag_metric(1, 1, 1.0 / k)
        rep = check_precompactness(m, spec, consts)
        tot = total_measure(spec, minimal_popp_coeff(m))
        if tot >= 0.25:
            assert rep.a4.passed  # the V-derived bound cannot reject these


# ---------------------------------------------------------------------------
# finiteness bound
# ---------------------------------------------------------------------------


def test_lattice_rank_bound_value():
    assert lattice_rank_bound(1, 1.0, 1.0) == pytest.approx(64 * np.pi**2, rel=1e-15)


def test_lattice_rank_bound_monotone_in_V():
    b1 = lattice_rank_bound(1, 1.0, 1.0)
    b2 = lattice_rank_bound(1, 1.0, 2.0)
    assert b2 <= b1


def test_enumerate_lattices():
    specs = enumerate_lattices(1, 5.2)
    assert [s.r for s in specs] == [(1,), (2,), (3,), (4,), (5,)]
    specs = enumerate_lattices(2, 4.0)
    assert sorted(s.r for s in specs) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 2),
        (2, 4),
        (3, 3),
        (4, 4),
    ]
    assert enumerate_lattices(1, 0.5) == []
