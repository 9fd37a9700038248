"""Textbook checks of the benchmark's own reference solvers.

Run with: python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest
import scipy.integrate

import reference as ref


def random_unit(rng, n, rho):
    ph = rng.normal(size=2 * n)
    pz = float(rng.normal())
    s = math.sqrt(float(ph @ ph) + (rho * pz) ** 2)
    return ph / s, pz / s


@pytest.mark.parametrize("z", [0.1, 1.0, 7.0, -3.0])
def test_vertical_distance_subriemannian_h1(z):
    got, pz = ref.reference_distance([1.0], 0.0, [0.0, 0.0], z)
    assert got == pytest.approx(2.0 * math.sqrt(math.pi * abs(z)), rel=1e-14)
    assert pz == pytest.approx(math.copysign(2.0 * math.pi, z), rel=1e-14)


@pytest.mark.parametrize("z", [0.5, 2.0 * math.pi * 0.64, 9.0, -20.0])
def test_vertical_distance_riemannian_h1_both_branches(z):
    rho, d = 0.8, 1.0
    got, _ = ref.reference_distance([d], rho, [0.0, 0.0], z)
    if abs(z) <= 2.0 * math.pi * rho**2 / d:
        want = abs(z) / rho
    else:
        want = (2.0 / d) * math.sqrt(math.pi * abs(z) * d - (math.pi * rho) ** 2)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.7])
def test_straight_lines_when_pz_vanishes(rho):
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.normal(size=4)
        got, pz = ref.reference_distance([0.6, 1.3], rho, u, 0.0)
        assert pz == pytest.approx(0.0, abs=1e-15)
        assert got == pytest.approx(float(np.linalg.norm(u)), rel=1e-14)
    u, z = ref.endpoint([0.6, 1.3], rho, [0.6, 0.0, 0.0, 0.8], 0.0, 2.5)
    assert np.allclose(u, [1.5, 0.0, 0.0, 2.0], rtol=0, atol=1e-15) and z == 0.0


@pytest.mark.parametrize("n,rho", [(1, 0.0), (1, 1.2), (2, 0.0), (2, 0.5), (3, 0.0), (3, 0.9)])
def test_geodesics_minimize_before_the_cut_time(n, rho):
    rng = np.random.default_rng(10 * n + int(rho > 0))
    d = np.sort(rng.uniform(0.5, 2.0, n))
    for _ in range(20):
        ph, pz = random_unit(rng, n, rho)
        t = float(rng.uniform(0.05, 0.97)) * min(2.0 * math.pi / (abs(pz) * d[-1]), 8.0)
        u, z = ref.endpoint(d, rho, ph, pz, t)
        got, got_pz = ref.reference_distance(d, rho, u, z)
        assert got == pytest.approx(t, rel=1e-10)
        assert got_pz == pytest.approx(pz * t, rel=1e-8, abs=1e-12)  # time-1 momentum


def test_endpoint_solves_the_hamiltonian_system():
    """du/dt = h, dh_i/dt = p_z d_i J h_i, dz/dt = rho^2 p_z + 1/2 sum d_i u_i x h_i."""
    d, rho = np.array([0.7, 1.9]), 0.6
    ph, pz, t = np.array([0.3, -0.5, 0.4, 0.2]), 0.8, 2.3

    def rhs(_, s):
        u, h = s[:4], s[4:8]
        dh = np.concatenate([-pz * d * h[2:], pz * d * h[:2]])
        dz = rho * rho * pz + 0.5 * float(d @ (u[:2] * h[2:] - u[2:] * h[:2]))
        return np.concatenate([h, dh, [dz]])

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t), np.concatenate([np.zeros(4), ph, [0.0]]),
                                    rtol=1e-12, atol=1e-13)
    u, z = ref.endpoint(d, rho, ph, pz, t)
    assert np.allclose(u, sol.y[:4, -1], atol=1e-9)
    assert z == pytest.approx(sol.y[8, -1], abs=1e-9)


def test_cut_time_branch_with_a_lower_block():
    """u only in the lower block and z past the limit: the minimizer turns the
    top block once around (theta = 2 pi) and lands back on its axis."""
    d, rho = [0.8, 2.0], 0.3
    u, z = np.array([0.4, 0.0, -0.2, 0.0]), 6.0
    length, pz = ref.reference_distance(d, rho, u, z)
    assert pz == pytest.approx(2.0 * math.pi / d[-1], rel=1e-15)
    theta = pz * d[0]
    p_low = (u[[0, 2]] / ref._s(theta)) @ np.array(
        [[math.cos(theta / 2), -math.sin(theta / 2)], [math.sin(theta / 2), math.cos(theta / 2)]]
    )
    p_top = math.sqrt(length**2 - float(p_low @ p_low) - (rho * pz) ** 2)
    ph = np.array([p_low[0], p_top, p_low[1], 0.0])
    end_u, end_z = ref.endpoint(d, rho, ph, pz, 1.0)
    assert np.allclose(end_u, u, atol=1e-12)
    assert end_z == pytest.approx(z, rel=1e-12)
    # no geodesic with |p_z| below the cut value reaches the height z
    for scale in (0.5, 0.9, 0.99):
        q = scale * pz
        lower_only = ref._height(d, rho, [float(u[0] ** 2 + u[2] ** 2), 0.0], q)
        assert lower_only < z


def test_frame_invariants_of_diagonal_frames():
    d, rho, absdet = ref.frame_invariants(np.diag([1.0, 1.0, 0.1]), 0)
    assert np.allclose(d, [1.0]) and rho == pytest.approx(0.1) and absdet == pytest.approx(1.0)
    d, rho, absdet = ref.frame_invariants(np.diag([2.0, 0.5, 3.0, 1.0, 0.0]), 1)
    assert np.allclose(d, [0.5, 6.0]) and rho == 0.0 and absdet == pytest.approx(3.0)


@pytest.mark.parametrize("rho", [0.1, 1.0, 2.5])
def test_koszul_ricci_of_the_heisenberg_group(rho):
    """Milnor: in the frame X, Y, rho Z the Ricci form is
    diag(-1/(2 rho^2), -1/(2 rho^2), 1/(2 rho^2))."""
    got = ref.koszul_ricci(np.diag([1.0, 1.0, rho]))
    k = 1.0 / (2.0 * rho**2)
    assert np.allclose(got, np.diag([-k, -k, k]), rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "gram,want",
    [
        (np.eye(3), 1.0),
        (np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0),
        (np.diag([4.0, 9.0]), 2.0),
        (np.array([[1.0, 7.0], [0.0, 1.0]]).T @ np.array([[1.0, 7.0], [0.0, 1.0]]), 1.0),
        (np.array([[2.0, 1.9], [1.9, 2.0]]), math.sqrt(0.2)),
    ],
)
def test_shortest_vector_norm(gram, want):
    assert ref.shortest_vector_norm(gram) == pytest.approx(want, rel=1e-12)


def test_divisibility_chains():
    assert ref.divisibility_chains(2, 4) == [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4), (3, 3), (4, 4)
    ]
    assert len(ref.divisibility_chains(1, 17)) == 17


def test_volume_coefficients_of_the_sub_riemannian_limit():
    vols = ref.volume_coefficients([1.0], 0.1, 1.0, [0.0, 0.0])
    assert vols["riemannian"] == pytest.approx(10.0)
    assert vols["popp"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert vols["minimal"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert vols["tilted"] == pytest.approx(vols["popp"])
    assert ref.volume_coefficients([1.0], 0.1, 1.0, [0.5, 0.0])["tilted"] > vols["popp"]


def test_quotient_distance_on_the_unit_lattice():
    eye, d = np.eye(2), [1.0]
    assert ref.reference_quotient_distance(eye, d, 1.0, (1,), np.array([0.5, 0.0, 0.0])) == pytest.approx(0.5)
    assert ref.reference_quotient_distance(eye, d, 1.0, (1,), np.array([0.0, 0.0, 1.0])) == 0.0
    # a vertical translate costs nothing: (0.3, 0.2, 1) is in the coset of (0.3, 0.2, 0)
    got = ref.reference_quotient_distance(eye, d, 1.0, (1,), np.array([0.3, 0.2, 1.0]))
    assert got == pytest.approx(math.hypot(0.3, 0.2), rel=1e-12)
    # (0.9, 0, 0) is 0.1 from the translate by -X
    got = ref.reference_quotient_distance(eye, d, 1.0, (1,), np.array([0.9, 0.0, 0.0]))
    assert got == pytest.approx(0.1, rel=1e-12)
