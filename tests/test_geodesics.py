import itertools

import numpy as np
import pytest
import scipy.integrate

from heisgeo import LatticeSpec, SolverFailure, _kernels
from heisgeo.core import GroupElement, group_mul, inverse, symplectic_pairing
from heisgeo.geodesics import (
    GeodesicArc,
    Momentum,
    SolverOptions,
    cut_time,
    distance,
    flow_numeric,
    geodesic_point,
    geodesic_velocity,
    hamiltonian_along_flow,
    quotient_distance,
    vertical_distance,
)
from heisgeo.metric import MetricMatrix, canonicalize

from conftest import random_corank0, random_corank1


def diag_canonical(*entries):
    return canonicalize(MetricMatrix.from_matrix(np.diag([float(v) for v in entries])))


def random_unit_momentum(rng, c):
    n = c.n
    p = Momentum(rng.normal(size=n), rng.normal(size=n), rng.normal())
    return p.unit(c)


def metric_speed(c, p, t):
    """Speed at time t measured from the analytic coordinate velocity by
    left-translating into the orthonormal frame (independent of |h| = const)."""
    g = geodesic_point(c, p, t)
    w = np.concatenate([g.x, g.y])
    wdot, zdot = geodesic_velocity(c, p, t)
    horiz = np.linalg.solve(c.atilde, wdot)
    vert_resid = zdot - 0.5 * symplectic_pairing(w, wdot)
    if c.corank == 0:
        return float(np.sqrt(horiz @ horiz + (vert_resid / c.rho) ** 2))
    assert abs(vert_resid) <= 1e-9  # admissibility of the horizontal path
    return float(np.linalg.norm(horiz))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_geodesic_point_straight():
    c = diag_canonical(1, 1, 1)
    g = geodesic_point(c, Momentum([1.0], [0.0], 0.0), 1.0)
    assert np.allclose(g.coords(), [1.0, 0.0, 0.0], atol=1e-15)


def test_geodesic_point_vertical_line():
    rho = 0.25
    c = diag_canonical(1, 1, rho)
    p = Momentum([0.0], [0.0], 1.0 / rho)
    for t in (0.3, 1.0, 2.7):
        g = geodesic_point(c, p, t)
        assert np.allclose(g.coords(), [0.0, 0.0, rho * t], atol=1e-14)


def test_geodesic_returns_to_axis_at_cut_time():
    rng = np.random.default_rng(0)
    c = diag_canonical(2.0, 1.0, 0.7)  # d = 2
    for _ in range(10):
        p = random_unit_momentum(rng, c)
        if p.p_z == 0.0:
            continue
        t = 2 * np.pi / (p.p_z * float(c.d[-1]))
        g = geodesic_point(c, p, t)
        assert np.max(np.abs(np.concatenate([g.x, g.y]))) <= 1e-10


def test_small_pz_stability():
    c = diag_canonical(1, 1, 1)
    target = geodesic_point(c, Momentum([1.0], [0.0], 1e-13), 1.0)
    straight = geodesic_point(c, Momentum([1.0], [0.0], 0.0), 1.0)
    assert np.max(np.abs(target.coords() - straight.coords())) <= 1e-12


# ---------------------------------------------------------------------------
# numeric flow
# ---------------------------------------------------------------------------


def test_flow_zero_momentum_is_stationary():
    c = diag_canonical(1, 1, 1)
    g = flow_numeric(c, Momentum([0.0], [0.0], 0.0), 5.0, 100)
    assert np.max(np.abs(g.coords())) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flow_matches_closed_form(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(10):
        c = canonicalize(MetricMatrix.from_matrix(random_corank0(rng, n)))
        p = random_unit_momentum(rng, c)
        t = 0.9 * min(cut_time(c, p), 10.0)
        a = geodesic_point(c, p, t).coords()
        b = flow_numeric(c, p, t, 10_000).coords()
        assert np.max(np.abs(a - b)) <= 1e-8


def test_flow_fourth_order_convergence():
    c = diag_canonical(3.0, 1.0, 0.5)
    p = Momentum([0.6], [0.3], 1.1).unit(c)
    t = 0.8 * cut_time(c, p)
    exact = geodesic_point(c, p, t).coords()
    errs = []
    for steps in (40, 80, 160):
        errs.append(np.max(np.abs(flow_numeric(c, p, t, steps).coords() - exact)))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_hamiltonian_conservation():
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = canonicalize(MetricMatrix.from_matrix(random_corank0(rng, 2)))
        p = random_unit_momentum(rng, c)
        H = hamiltonian_along_flow(c, p, 10.0, 20_000, samples=16)
        assert np.max(np.abs(H - H[0])) <= 1e-10 * H[0]


def _textbook_rk4(p_h, pz, rho, d, t, steps):
    """Scalar RK4 over (u, h, z), one stage at a time, written out as in a
    textbook; the batched kernel performs the same arithmetic."""
    n = d.shape[0]
    dt = t / steps

    def f(u, h):
        dh = np.concatenate([-pz * d * h[n:], pz * d * h[:n]])
        dz = rho * rho * pz + 0.5 * np.dot(d, u[:n] * h[n:] - u[n:] * h[:n])
        return h, dh, dz

    u, h, z = np.zeros(2 * n), np.array(p_h, dtype=np.float64), 0.0
    for _ in range(steps):
        k1u, k1h, k1z = f(u, h)
        k2u, k2h, k2z = f(u + 0.5 * dt * k1u, h + 0.5 * dt * k1h)
        k3u, k3h, k3z = f(u + 0.5 * dt * k2u, h + 0.5 * dt * k2h)
        k4u, k4h, k4z = f(u + dt * k3u, h + dt * k3h)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        h = h + (dt / 6.0) * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        z = z + (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return u, z, h


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rk4_rows_are_independent(n):
    """Each row of a batched call equals the one-row call on that row
    exactly, and the textbook scalar RK4 on u and h."""
    rng = np.random.default_rng(40 + n)
    B, steps = 5, 300
    p_h = rng.normal(size=(B, 2 * n))
    pz = rng.normal(size=B)
    rho = rng.uniform(0.0, 2.0, size=B)
    d = np.sort(rng.uniform(0.1, 3.0, size=(B, n)), axis=1)
    t = rng.uniform(0.1, 3.0, size=B)
    u, z, h_at = _kernels.rk4_flow(p_h, pz, rho, d, t, steps, 3)
    assert u.shape == (B, 2 * n) and z.shape == (B,) and h_at.shape == (B, 3, 2 * n)
    for b in range(B):
        sl = slice(b, b + 1)
        u1, z1, h1 = _kernels.rk4_flow(p_h[sl], pz[sl], rho[sl], d[sl], t[sl], steps, 3)
        assert np.array_equal(u1[0], u[b]) and z1[0] == z[b] and np.array_equal(h1[0], h_at[b])
        u0, z0, h0 = _textbook_rk4(p_h[b], pz[b], rho[b], d[b], t[b], steps)
        assert np.array_equal(u0, u[b]) and np.array_equal(h0, h_at[b, -1])
        assert abs(z0 - z[b]) <= 1e-15 * (1.0 + abs(z0))


def test_hamiltonian_checkpoints_match_reintegration():
    """One pass with checkpoints gives the H of integrating afresh from t = 0
    to each checkpoint at the same step size."""
    rng = np.random.default_rng(7)
    steps, samples = 16, 8  # coarse, so H moves visibly from step to step
    for n in (1, 2, 3):
        c = canonicalize(MetricMatrix.from_matrix(random_corank0(rng, n)))
        p = random_unit_momentum(rng, c)
        t = 0.7 * min(cut_time(c, p), 10.0)
        H = hamiltonian_along_flow(c, p, t, steps, samples=samples)
        assert H.shape == (samples + 1,)
        for j in range(1, samples + 1):
            kj = steps * j // samples
            _, _, h_at = _kernels.rk4_flow(
                p.horizontal()[None], [p.p_z], [c.rho], c.d[None], [t * j / samples], kj
            )
            h = h_at[0, -1]
            want = 0.5 * (float(h @ h) + (c.rho * p.p_z) ** 2)
            assert abs(H[j] - want) <= 1e-14 * H[0]


@pytest.mark.parametrize("steps, samples", [(0, 8), (-3, 8), (100, 0), (100, -1)])
def test_hamiltonian_along_flow_rejects_bad_counts(steps, samples):
    c = diag_canonical(1, 1, 1)
    with pytest.raises(ValueError):
        hamiltonian_along_flow(c, Momentum([1.0], [0.0], 0.5), 1.0, steps, samples=samples)


# ---------------------------------------------------------------------------
# cut time
# ---------------------------------------------------------------------------


def test_cut_time():
    c = diag_canonical(1, 1, 1)
    assert cut_time(c, Momentum([1.0], [0.0], 0.0)) == np.inf
    assert cut_time(c, Momentum([0.0], [0.0], 1.0)) == pytest.approx(2 * np.pi, rel=1e-14)
    k = 4.0
    ck = diag_canonical(k, 1, 1 / k)  # d = k
    assert cut_time(ck, Momentum([0.0], [0.0], 1.0)) == pytest.approx(2 * np.pi / k, rel=1e-14)


# ---------------------------------------------------------------------------
# vertical distance
# ---------------------------------------------------------------------------


def test_vertical_distance_branch1():
    c = diag_canonical(1, 1, 1)
    dist, mom = vertical_distance(c, 1.0)
    assert dist == pytest.approx(1.0, rel=1e-14)
    assert mom.p_z == pytest.approx(1.0)


def test_vertical_distance_branch2_collapse_family():
    k = 5.0
    c = diag_canonical(k, 1, 1 / k)
    dist, mom = vertical_distance(c, 1.0)
    assert dist == pytest.approx((2 / k) * np.sqrt(k * np.pi - np.pi**2 / k**2), rel=1e-12)
    # the reported minimizer actually reaches exp(Z) at time = distance
    g = geodesic_point(c, mom, dist)
    assert np.max(np.abs(g.coords() - [0.0, 0.0, 1.0])) <= 1e-10
    assert mom.speed(c) == pytest.approx(1.0, abs=1e-12)


def test_vertical_distance_subriemannian():
    c = diag_canonical(1, 1, 0)
    dist, mom = vertical_distance(c, np.pi)
    assert dist == pytest.approx(2 * np.pi, rel=1e-14)
    g = geodesic_point(c, mom, dist)
    assert np.max(np.abs(g.coords() - [0.0, 0.0, np.pi])) <= 1e-10


def test_vertical_distance_negative_target():
    c = diag_canonical(3.0, 1.0, 0.4)
    for p in (0.7, 4.0):
        dpos, mpos = vertical_distance(c, p)
        dneg, mneg = vertical_distance(c, -p)
        assert dneg == pytest.approx(dpos, rel=1e-14)
        g = geodesic_point(c, mneg, dneg)
        assert np.max(np.abs(g.coords() - [0.0, 0.0, -p])) <= 1e-9
        assert mneg.p_z == pytest.approx(-mpos.p_z)


def test_vertical_distance_branch_crossover():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = rng.uniform(0.2, 2.0)
        dn = rng.uniform(0.3, 4.0)
        p_star = 2 * np.pi * rho**2 / dn
        b1 = p_star / rho
        b2 = (2 / dn) * np.sqrt(p_star * np.pi * dn - np.pi**2 * rho**2)
        assert abs(b1 - b2) <= 1e-10 * b1


def test_vertical_minimizer_top_block():
    # n = 2 with distinct d: swirl momentum lives in the top eigenblock
    c = canonicalize(MetricMatrix.from_matrix(np.diag([1.0, 3.0, 1.0, 1.0, 0.1])))
    assert np.allclose(c.d, [1.0, 3.0])
    dist, mom = vertical_distance(c, 5.0)
    assert mom.p_x[0] == 0.0 and mom.p_x[1] > 0.0
    g = geodesic_point(c, mom, dist)
    assert np.max(np.abs(g.coords() - [0, 0, 0, 0, 5.0])) <= 1e-9


# ---------------------------------------------------------------------------
# distance solver
# ---------------------------------------------------------------------------


def test_distance_horizontal():
    c = diag_canonical(1, 1, 1)
    d1, p1 = distance(c, GroupElement([1.0], [0.0], 0.0))
    assert d1 == pytest.approx(1.0, abs=1e-9)
    d2, _ = distance(c, GroupElement([0.5], [0.0], 0.0))
    assert d2 == pytest.approx(0.5, abs=1e-9)


def test_distance_identity_short_circuit():
    c = diag_canonical(1, 1, 1)
    d0, p0 = distance(c, GroupElement([0.0], [0.0], 0.0))
    assert d0 == 0.0


@pytest.mark.parametrize("corank", [0, 1])
def test_distance_matches_vertical_closed_form(corank):
    rng = np.random.default_rng(20 + corank)
    for _ in range(5):
        if corank == 0:
            a, rho = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
            c = diag_canonical(a, 1, rho)
        else:
            c = diag_canonical(rng.uniform(0.5, 2.0), 1, 0)
        p = rng.uniform(0.2, 6.0)
        want, _ = vertical_distance(c, p)
        got, _ = distance(c, GroupElement([0.0], [0.0], p))
        assert got == pytest.approx(want, abs=1e-8 * (1 + want))


def test_distance_horizontal_lower_bound():
    rng = np.random.default_rng(5)
    c = diag_canonical(1.3, 0.8, 0.6)
    for _ in range(10):
        U = rng.uniform(-1.5, 1.5, size=2)
        v = rng.uniform(-1.0, 1.0)
        target = GroupElement([U[0]], [U[1]], v)
        dist_uv, _ = distance(c, target)
        lower = float(np.linalg.norm(np.linalg.solve(c.atilde, U)))
        assert dist_uv >= lower - 1e-9
        # equality only for vanishing vertical part
        dist_u0, _ = distance(c, GroupElement([U[0]], [U[1]], 0.0))
        assert dist_u0 == pytest.approx(lower, abs=1e-8)
        if abs(v) > 0.3:
            assert dist_uv > lower + 1e-6


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(6)
    c = diag_canonical(1.0, 1.0, 0.8)

    def dist_pair(g, h):
        val, _ = distance(c, group_mul(inverse(g), h))
        return val

    pts = [
        GroupElement([rng.uniform(-1, 1)], [rng.uniform(-1, 1)], rng.uniform(-0.8, 0.8))
        for _ in range(4)
    ]
    for g, h in itertools.combinations(pts, 2):
        assert dist_pair(g, h) == pytest.approx(dist_pair(h, g), abs=1e-7)
    for g, h, k in itertools.permutations(pts[:3]):
        assert dist_pair(g, k) <= dist_pair(g, h) + dist_pair(h, k) + 1e-7


def test_distance_roundtrip_known_geodesic_n2():
    rng = np.random.default_rng(8)
    c = canonicalize(MetricMatrix.from_matrix(np.diag([1.0, 2.0, 1.0, 1.0, 0.5])))
    for _ in range(5):
        p = random_unit_momentum(rng, c)
        t = 0.7 * min(cut_time(c, p), 3.0)
        target = geodesic_point(c, p, t)
        got, mom = distance(c, target)
        # the generating arc is an upper bound; the solver may find shorter
        assert got <= t * (1 + 1e-7)
        u_t = np.linalg.solve(c.atilde, np.concatenate([target.x, target.y]))
        assert got >= np.linalg.norm(u_t) - 1e-9
        # returned minimizer realizes the distance
        reached = geodesic_point(c, mom, got)
        assert np.max(np.abs(reached.coords() - target.coords())) <= 1e-7


def test_distance_unreachable_residual_reported():
    c = diag_canonical(1, 1, 1)
    opts = SolverOptions(grid_size=8, refine_starts=0)
    with pytest.raises(SolverFailure) as err:
        distance(c, GroupElement([0.3], [0.1], 0.4), opts)
    assert err.value.best_residual is not None


# ---------------------------------------------------------------------------
# unit speed / arc length
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corank", [0, 1])
def test_unit_speed_contract(corank):
    rng = np.random.default_rng(30 + corank)
    for _ in range(5):
        n = int(rng.integers(1, 3))
        mat = random_corank0(rng, n) if corank == 0 else random_corank1(rng, n)
        c = canonicalize(MetricMatrix.from_matrix(mat))
        p = Momentum(rng.normal(size=n), rng.normal(size=n), rng.normal()).unit(c)
        t_end = 0.9 * min(cut_time(c, p), 8.0)
        arc = GeodesicArc(c, p, t_end)
        speeds = [metric_speed(c, p, t) for t in np.linspace(0.0, t_end, 9)]
        assert max(speeds) - min(speeds) <= 1e-9
        assert arc.speed() == pytest.approx(1.0, abs=1e-12)
        # arc length by quadrature of the measured speed
        length, _ = scipy.integrate.quad(lambda s: metric_speed(c, p, s), 0.0, t_end, limit=200)
        assert length == pytest.approx(t_end, rel=1e-8)


# ---------------------------------------------------------------------------
# quotient distance
# ---------------------------------------------------------------------------


def test_quotient_distance_lattice_point():
    c = diag_canonical(1, 1, 1)
    assert quotient_distance(c, LatticeSpec((1,)), GroupElement([0.0], [0.0], 1.0)) == 0.0


def test_quotient_distance_half_generator():
    c = diag_canonical(1, 1, 1)
    spec = LatticeSpec((1,))
    got = quotient_distance(c, spec, GroupElement([0.5], [0.0], 0.0))
    assert got == pytest.approx(0.5, abs=1e-8)
    # enumeration oracle: brute force over a fixed coordinate box
    best = np.inf
    for a, b, m in itertools.product(range(-3, 4), repeat=3):
        gamma = GroupElement([float(a)], [float(b)], 0.5 * a * b + m)
        h = group_mul(gamma, GroupElement([0.5], [0.0], 0.0))
        val, _ = distance(c, h)
        best = min(best, val)
    assert got == pytest.approx(best, abs=1e-8)


def test_quotient_distance_equals_group_distance_inside_cell():
    r = 2
    c = diag_canonical(1, 1, 1)
    spec = LatticeSpec((r,))
    target = GroupElement([r / 2.0], [0.0], 0.0)
    got = quotient_distance(c, spec, target)
    direct, _ = distance(c, target)
    assert got == pytest.approx(direct, abs=1e-8)
