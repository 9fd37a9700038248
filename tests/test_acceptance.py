"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

A criterion with a runtime budget fails when its body takes longer.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import heisgeo.cli as cli
from heisgeo import _kernels
from heisgeo.core import GroupElement, LatticeSpec
from heisgeo.geodesics import (
    Momentum,
    cut_time,
    distance,
    flow_numeric,
    geodesic_point,
    hamiltonian_along_flow,
    vertical_distance,
)
from heisgeo.linalg import shortest_lattice_vector
from heisgeo.metric import (
    MetricMatrix,
    canonicalize,
    invariants,
    j_matrix,
    minimal_popp_coeff,
    popp_coeff_from_structure,
    popp_coeff_v0,
    ricci_matrix,
    riemannian_volume_coeff,
    tilted_popp_coeff,
    total_measure,
)
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
from heisgeo.sequence import analyze_sequence

from conftest import (
    brute_force_shortest,
    koszul_ricci,
    random_corank0,
    random_corank1,
    random_int_symplectic,
    random_orthogonal,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SQ2 = math.sqrt(2.0)
UNIT_LATTICE = LatticeSpec((1,))


class criterion:
    """Times a criterion body and prints its PASS line (only reached when
    every assert inside held)."""

    def __init__(self, num, label, budget=None):
        self.num, self.label, self.budget = num, label, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"[acceptance] criterion {self.num} ({self.label}): FAIL after {elapsed:.2f}s")
            return False
        print(f"[acceptance] criterion {self.num} ({self.label}): PASS ({elapsed:.2f}s)")
        if self.budget is not None:
            assert elapsed < self.budget, f"runtime {elapsed:.2f}s exceeds budget {self.budget}s"
        return False


def diag_metric(*entries):
    return MetricMatrix.from_matrix(np.diag([float(v) for v in entries]))


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_criterion_1_riemannian_to_subriemannian_family():
    with criterion(1, "approximating family reproduction", budget=1.0):
        for k in (1, 10, 100):
            m = diag_metric(1, 1, 1.0 / k)
            assert rel(total_measure(UNIT_LATTICE, riemannian_volume_coeff(m)), k) <= 1e-12
            assert rel(total_measure(UNIT_LATTICE, minimal_popp_coeff(m)), 1 / SQ2) <= 1e-12
            inv = invariants(m)
            assert rel(inv.d[0], 1.0) <= 1e-12
            ric = ricci_matrix(m)
            assert rel(ric[-1, -1], k**2 / 2.0) <= 1e-12


def test_criterion_2_collapsing_family():
    with criterion(2, "collapsing family reproduction", budget=1.0):
        for k in (1, 10, 100):
            m = diag_metric(k, 1, 1.0 / k)
            assert rel(total_measure(UNIT_LATTICE, riemannian_volume_coeff(m)), 1.0) <= 1e-12
            assert (
                rel(total_measure(UNIT_LATTICE, minimal_popp_coeff(m)), 1 / (SQ2 * k**2)) <= 1e-12
            )
            assert rel(invariants(m).d[0], k) <= 1e-12
            fiber, _ = vertical_distance(canonicalize(m), 1.0)
            if k == 1:
                # crossover 2 pi rho^2 / d_n = 2 pi > 1: the vertical segment
                # of length |p / rho| = 1 wins (the swirl formula has no real
                # solution here)
                assert abs(fiber - 1.0) <= 1e-10
            else:
                want = (2.0 / k) * math.sqrt(k * math.pi - math.pi**2 / k**2)
                assert abs(fiber - want) <= 1e-10


def test_criterion_3_spectral_identity_suite():
    with criterion(3, "delta/determinant identities", budget=10.0):
        rng = np.random.default_rng(1003)
        for i in range(1000):
            n = int(rng.integers(1, 4))
            mat = random_corank0(rng, n) if i % 2 == 0 else random_corank1(rng, n)
            c = canonicalize(MetricMatrix.from_matrix(mat))
            inv = invariants(c)
            # delta is read off d; the Hilbert-Schmidt norm of the bracket
            # form Atilde^T J Atilde is computed independently
            delta_hs = float(np.linalg.norm(j_matrix(c), "fro"))
            assert abs(inv.delta - delta_hs) <= 1e-9 * inv.delta
            assert abs(inv.absdet - float(np.prod(inv.d))) <= 1e-9 * inv.absdet


def test_criterion_4_geodesic_oracle_equivalence():
    with criterion(4, "closed form vs RK4", budget=60.0):
        rng = np.random.default_rng(1004)
        cases = {1: [], 2: [], 3: []}
        for i in range(500):
            n = int(rng.integers(1, 4))
            mat = random_corank0(rng, n) if i % 3 else random_corank1(rng, n)
            c = canonicalize(MetricMatrix.from_matrix(mat))
            p = Momentum(rng.normal(size=n), rng.normal(size=n), rng.normal()).unit(c)
            t = float(rng.uniform(0.05, 1.0)) * min(cut_time(c, p), 10.0)
            cases[n].append((c, p, t))

        for group in cases.values():
            # the public entry points, on the first case of each n
            c, p, t = group[0]
            a = geodesic_point(c, p, t).coords()
            b = flow_numeric(c, p, t, 4096).coords()
            assert np.max(np.abs(a - b)) <= 1e-8
            H = hamiltonian_along_flow(c, p, t, 4096, samples=8)
            assert np.max(np.abs(H - H[0])) <= 1e-10 * H[0]

            # every case of this n as one row of a single kernel call
            u, z, h_at = _kernels.rk4_flow(
                np.array([p.horizontal() for _, p, _ in group]),
                [p.p_z for _, p, _ in group],
                [c.rho for c, _, _ in group],
                np.array([c.d for c, _, _ in group]),
                [t for _, _, t in group],
                4096,
                8,
            )
            for (c, p, t), u_row, z_row, h_row in zip(group, u, z, h_at):
                a = geodesic_point(c, p, t).coords()
                b = np.append(c.atilde @ u_row, z_row)
                assert np.max(np.abs(a - b)) <= 1e-8
                h = np.vstack([p.horizontal(), h_row])
                H = 0.5 * (np.sum(h * h, axis=1) + (c.rho * p.p_z) ** 2)
                assert np.max(np.abs(H - H[0])) <= 1e-10 * H[0]


def test_criterion_5_vertical_distance_cross_check():
    with criterion(5, "1-D distance solve vs vertical closed form"):
        rng = np.random.default_rng(1005)
        for _ in range(200):
            rho = float(rng.uniform(0.1, 2.0))
            dn = float(rng.uniform(0.2, 5.0))
            c = canonicalize(diag_metric(dn, 1, rho))
            assert rel(float(c.d[0]), dn) <= 1e-12
            crossover = 2.0 * math.pi * rho**2 / dn
            p = float(rng.uniform(0.05, 8.0)) * crossover
            want, _ = vertical_distance(c, p)
            got, _ = distance(c, GroupElement([0.0], [0.0], p))
            assert abs(got - want) <= 1e-7 * (1.0 + want)
            # branch agreement at the crossover point
            b1 = crossover / rho
            b2 = (2.0 / dn) * math.sqrt(crossover * math.pi * dn - (math.pi * rho) ** 2)
            assert abs(b1 - b2) <= 1e-10 * b1


def test_criterion_6_curvature_oracle():
    with criterion(6, "Ricci vs Koszul oracle"):
        rng = np.random.default_rng(1006)
        for i in range(100):
            n = 1 + i % 3
            c = canonicalize(
                MetricMatrix.from_matrix(random_corank0(rng, n, scale=1.5, cond_max=30.0))
            )
            ric = ricci_matrix(c)
            oracle = koszul_ricci(c.matrix())
            assert np.max(np.abs(ric - oracle)) <= 1e-8


def test_criterion_7_popp_consistency():
    with criterion(7, "Popp formula consistency"):
        rng = np.random.default_rng(1007)
        for i in range(200):
            n = 1 + i % 2
            mat = random_corank0(rng, n) if i % 2 else random_corank1(rng, n)
            c = canonicalize(MetricMatrix.from_matrix(mat))
            C = j_matrix(c)
            sc = np.zeros((2 * n, 2 * n, 2 * n + 1))
            sc[:, :, 2 * n] = C
            adapted = popp_coeff_from_structure(sc, 2 * n, 2 * n + 1).value
            haar = adapted / c.absdet
            want = popp_coeff_v0(c).value
            assert abs(haar - want) <= 1e-10 * want

        for n in (1, 2):
            m = MetricMatrix.from_matrix(random_corank0(rng, n))
            v0 = popp_coeff_v0(m).value
            samples = rng.uniform(-3.0, 3.0, size=(10_000, 2 * n))
            for t in samples:
                assert tilted_popp_coeff(m, t).value > v0


def test_criterion_8_moduli_invariance():
    with criterion(8, "fingerprint invariance and A-1 oracle"):
        rng = np.random.default_rng(1008)
        for i in range(500):
            n = 1 + i % 3
            spec = LatticeSpec(tuple([1] * n))
            mat = random_corank0(rng, n) if i % 2 else random_corank1(rng, n)
            d0, det0, rho0 = fingerprint(MetricMatrix.from_matrix(mat))
            beta = random_int_symplectic(rng, n).astype(np.float64)
            ok, eps = in_stabilizer(beta, spec)
            assert ok
            R = np.eye(2 * n + 1)
            R[: 2 * n, : 2 * n] = random_orthogonal(rng, 2 * n)
            R[-1, -1] = float(rng.choice([-1.0, 1.0]))
            acted = extend_stabilizer(beta, eps) @ mat @ R
            d1, det1, rho1 = fingerprint(MetricMatrix.from_matrix(acted))
            assert np.max(np.abs(d0 - d1)) <= 1e-9 * max(float(d0[-1]), 1.0)
            assert rel(det1, det0) <= 1e-9
            assert abs(rho1 - rho0) <= 1e-9 * max(rho0, 1.0)

        for i in range(100):
            n = 1 + i % 2
            spec = LatticeSpec(tuple([1] * n))
            c = canonicalize(
                MetricMatrix.from_matrix(random_corank0(rng, n, cond_max=1e3))
            )
            gram = projected_lattice_gram(c, spec)
            _, got = shortest_lattice_vector(gram)
            want = brute_force_shortest(gram, got)
            assert rel(got, want) <= 1e-9


def test_criterion_9_constants_and_bounds():
    with criterion(9, "constants, rank bound, enumeration"):
        spec = LatticeSpec((1,))
        n, D, V, K = 1, 1.0, 1.0, 1.0
        c = geometry_constants(n, spec, D, V, K, mode="riemannian")
        c2_exact = Fraction(1, (4 * n) ** (2 * n))
        assert rel(c.c2, float(c2_exact)) <= 1e-12
        c_plus_exact = Fraction(1, 1) / (Fraction(1) * c2_exact)
        assert rel(c.c_plus, float(c_plus_exact)) <= 1e-12
        assert rel(c.c3, math.sqrt(2.0) * float(c_plus_exact)) <= 1e-12
        assert rel(c.c_minus, float(c2_exact) / math.sqrt(2.0)) <= 1e-12
        assert rel(c.c1, 1.0 / (c.c3 * 4.0)) <= 1e-12

        bound = lattice_rank_bound(1, 1.0, 1.0)
        assert rel(bound, 64.0 * math.pi**2) <= 1e-12
        lattices = enumerate_lattices(1, bound)
        assert len(lattices) == math.floor(64.0 * math.pi**2)
        assert [s.r for s in lattices] == [(r,) for r in range(1, len(lattices) + 1)]


def test_criterion_10_collapse_classification():
    with criterion(10, "sequence verdicts and condition trips", budget=30.0):
        spec_a = cli.parse_sequence_file(FIXTURES / "ex-4-9.json")
        spec_b = cli.parse_sequence_file(FIXTURES / "ex-5-3.json")
        rep_a = analyze_sequence(spec_a, V=0.5)
        rep_b = analyze_sequence(spec_b, V=0.5)
        assert rep_a.verdict == "non-collapsed (limit corank-1)"
        assert rep_b.verdict == "collapsed"

        lat = UNIT_LATTICE
        consts_r = geometry_constants(1, lat, D=1.0, V=0.5, K=1.0, mode="riemannian")
        consts_s = geometry_constants(1, lat, D=1.0, V=0.5, mode="subriemannian")

        picks = [0, 9, 24, 49]

        # vanishing-rho family: Riemannian lower bound on |rho| eventually
        # fails while the one-sided sub-Riemannian bound keeps passing
        a_riem = [check_precompactness(spec_a.members[i], lat, consts_r) for i in picks]
        a_sub = [check_precompactness(spec_a.members[i], lat, consts_s) for i in picks]
        assert not a_riem[-1].a4.passed
        assert a_riem[-1].a4.value < consts_r.c_minus
        assert all(r.a4.passed for r in a_sub)

        # collapsing family: d_n escapes upward through C_3
        b_riem = [check_precompactness(spec_b.members[i], lat, consts_r) for i in picks]
        assert b_riem[0].a3.passed
        assert not b_riem[-1].a3.passed
