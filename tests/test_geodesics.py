import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from heisgeo import InvalidMetricError, LatticeSpec, SolverFailure, _kernels, geodesics
from heisgeo.core import GroupElement, group_mul, inverse, symplectic_pairing
from heisgeo.geodesics import (
    GeodesicArc,
    Momentum,
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
from shooting_oracle import SolverOptions, endpoint_frame, shooting_distance


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


@pytest.mark.parametrize(
    "steps, samples",
    [(0, 8), (-3, 8), (100, 0), (100, -1), (2.5, 8), (100.0, 8), (100, 2.5), ("100", 8)],
)
def test_hamiltonian_along_flow_rejects_bad_counts(steps, samples):
    c = diag_canonical(1, 1, 1)
    with pytest.raises(ValueError):
        hamiltonian_along_flow(c, Momentum([1.0], [0.0], 0.5), 1.0, steps, samples=samples)


@pytest.mark.parametrize("steps", [0, -3, 2.5, 100.0, "100", None])
def test_flow_numeric_rejects_bad_steps(steps):
    c = diag_canonical(1, 1, 1)
    with pytest.raises(ValueError):
        flow_numeric(c, Momentum([1.0], [0.0], 0.5), 1.0, steps)


def test_flow_accepts_numpy_integer_counts():
    c = diag_canonical(1, 1, 1)
    p = Momentum([1.0], [0.0], 0.5)
    want = flow_numeric(c, p, 1.0, 50).coords()
    assert np.array_equal(flow_numeric(c, p, 1.0, np.int64(50)).coords(), want)
    H = hamiltonian_along_flow(c, p, 1.0, np.int32(50), samples=np.int64(4))
    assert np.array_equal(H, hamiltonian_along_flow(c, p, 1.0, 50, samples=4))


CHUNK = _kernels.RK4_CHUNK


@pytest.mark.parametrize(
    "n, steps, samples, case",
    [
        (1, 1, 3, "generic"),  # one step, more samples than steps
        (2, 10, 25, "generic"),  # more samples than steps
        (3, CHUNK - 1, 2, "generic"),
        (1, CHUNK, 1, "generic"),
        (2, CHUNK + 1, 4, "generic"),
        (3, 3 * CHUNK + 7, 3, "generic"),  # several chunks
        (2, 300, 5, "pz = 0"),
        (3, 300, 5, "rho = 0"),
    ],
)
def test_rk4_matches_textbook(n, steps, samples, case):
    """u and every checkpoint momentum equal the textbook scalar RK4 bit for
    bit, z to 1e-15, across chunk boundaries.  The step is a power of two,
    so the textbook run to each checkpoint uses exactly the same step."""
    rng = np.random.default_rng(1000 * n + steps)
    p_h = rng.normal(size=2 * n)
    pz = 0.0 if case == "pz = 0" else float(rng.normal())
    rho = 0.0 if case == "rho = 0" else float(rng.uniform(0.1, 2.0))
    d = np.sort(rng.uniform(0.1, 3.0, size=n))
    dt = 2.0**-9
    u, z, h_at = _kernels.rk4_flow(p_h[None], [pz], [rho], d[None], [steps * dt], steps, samples)
    marks = [max(1, round(steps * j / samples)) for j in range(1, samples + 1)]
    for j, k in enumerate(marks):
        u0, z0, h0 = _textbook_rk4(p_h, pz, rho, d, k * dt, k)
        assert np.array_equal(h0, h_at[0, j])
    assert marks[-1] == steps
    assert np.array_equal(u0, u[0])
    assert abs(z0 - z[0]) <= 1e-15 * (1.0 + abs(z0))


def test_rk4_memory_does_not_grow_with_steps():
    """One row holds a chunk of steps at a time: the peak traced memory is
    the same at 2 and at 16 chunks, and below 1 MiB.  Keeping every step
    would take over 3 MiB at 16 chunks."""

    def peak(steps):
        tracemalloc.start()
        try:
            _kernels.rk4_flow([[0.6, 0.8]], [0.7], [1.0], [[1.5]], [2.0], steps, 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * CHUNK), peak(16 * CHUNK)
    assert large <= small + 4096
    assert large < 2**20


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
    # the shooting oracle with no refined start cannot land on the target
    c = diag_canonical(1, 1, 1)
    opts = SolverOptions(grid_size=8, refine_starts=0)
    with pytest.raises(SolverFailure) as err:
        shooting_distance(c, GroupElement([0.3], [0.1], 0.4), opts)
    assert err.value.best_residual is not None


def _canonical_metric(rng, n, corank, spread):
    """Canonical metric blockdiag(S diag(sqrt d, sqrt d), rho) Q with d_n / d_1
    up to `spread`, S symplectic (a shear times a block diag(C, C^-T)), Q a
    frame rotation; its inner automorphism P is the identity."""
    d = np.exp(rng.uniform(0.0, np.log(spread), size=n)) * rng.uniform(0.3, 1.5)
    B = rng.uniform(-0.5, 0.5, size=(n, n))
    C = np.eye(n) + rng.uniform(-0.3, 0.3, size=(n, n))
    S = np.block([[np.eye(n), B + B.T], [np.zeros((n, n)), np.eye(n)]])
    S = S @ np.block([[C, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(C).T]])
    A = np.zeros((2 * n + 1, 2 * n + 1))
    A[: 2 * n, : 2 * n] = S @ np.diag(np.sqrt(np.concatenate([d, d])))
    A[-1, -1] = 0.0 if corank else rng.uniform(0.2, 2.0)
    q, r = np.linalg.qr(rng.standard_normal((2 * n + 1, 2 * n + 1)))
    return canonicalize(MetricMatrix.from_matrix(A @ (q * np.sign(np.diag(r)))))


def _frame_target(c, u, z):
    w = c.atilde @ u
    return GroupElement(w[: c.n], w[c.n :], z)


def _scaled_miss(c, mom, dist, target):
    """Scaled residual of the arc (mom, dist) against the target, in frame
    coordinates: the measure `distance` itself guarantees."""
    g = geodesic_point(c, mom, dist)
    u_t = np.linalg.solve(c.atilde, target.coords()[:-1])
    u_g = np.linalg.solve(c.atilde, g.coords()[:-1])
    return max(
        float(np.max(np.abs(u_g - u_t))) / (1.0 + float(np.linalg.norm(u_t))),
        abs(g.z - target.z) / (1.0 + abs(target.z)),
    )


def test_distance_matches_shooting_oracle():
    """On random targets where multi-start shooting converges, the 1-D solve
    returns the same length, its arc reaches the target, and z(p_z) increases
    strictly, so the root it found is the only one."""
    rng = np.random.default_rng(50)
    compared = 0
    for i in range(36):
        n, corank = 1 + i % 3, (i // 3) % 2
        c = _canonical_metric(rng, n, corank, spread=4.0)
        u = rng.normal(size=2 * n) * rng.uniform(0.2, 1.5)
        target = _frame_target(c, u, float(rng.uniform(-3.0, 3.0)))
        got, mom = distance(c, target)
        assert mom.speed(c) == pytest.approx(1.0, abs=1e-12)
        assert _scaled_miss(c, mom, got, target) <= 1e-9
        a = u[:n] ** 2 + u[n:] ** 2
        pz_cut = 2.0 * np.pi / float(c.d[-1])
        grid = np.linspace(-pz_cut, pz_cut, 2001)[1:-1]
        heights, slopes = zip(*(geodesics._height(c.d, c.rho, a, pz) for pz in grid))
        assert np.all(np.diff(heights) > 0.0)
        assert min(slopes) > 0.0
        try:
            want, _ = shooting_distance(c, target)
        except SolverFailure:
            continue
        compared += 1
        assert got == pytest.approx(want, rel=1e-9)
    assert compared >= 30


@pytest.mark.parametrize(
    "z, want",
    [
        (40.0, 21.17683606534877),
        (100.0, 34.53320348395989),
        (150.0, 42.60238111319353),
        (300.0, 60.71864726610821),
        (1000.0, 111.56361944351676),
    ],
)
def test_distance_tall_target_identity_h1(z, want):
    """Multi-start shooting raised SolverFailure here for z >= 100: every root
    it found lay past the cut time.  Reference values from the 1-D reduction
    in perfbench/reference.py; the RK4 flow confirms the arc's endpoint."""
    c = diag_canonical(1, 1, 1)
    target = GroupElement([0.3], [0.2], z)
    got, mom = distance(c, target)
    assert got == pytest.approx(want, rel=1e-12)
    assert abs(mom.p_z) * got <= 2.0 * np.pi  # before the cut time
    reached = flow_numeric(c, mom, got, 4000).coords()
    assert np.max(np.abs(reached - target.coords())) <= 1e-8 * (1.0 + z)


@pytest.mark.parametrize(
    "u, z, want",
    [
        ((0.59, 0.41, 0.38, 0.43, 0.39, -0.08), -0.013, 1.0019989445851762),
        ((-0.42, -0.19, -0.09, -0.6, 0.53, 0.38), -0.01, 1.0029462175191308),
    ],
)
def test_distance_spread_d_corank1(u, z, want):
    """n = 3, corank 1, d = (0.70, 42.0, 58.2): multi-start shooting found no
    root on these near-horizontal targets."""
    sq = np.sqrt([0.70, 42.0, 58.2])
    c = canonicalize(MetricMatrix.from_matrix(np.diag(np.concatenate([sq, sq, [0.0]]))))
    target = _frame_target(c, np.asarray(u), z)
    got, mom = distance(c, target)
    assert got == pytest.approx(want, rel=1e-12)
    assert _scaled_miss(c, mom, got, target) <= 1e-9


def test_distance_sweep_never_fails():
    """1000 seeded targets: n = 1..3, both coranks, d_n / d_1 up to 100,
    |z| from 1e-3 to 1e3.  A quarter of them have no part in the top d-block
    (the minimizer may sit at the cut time), a quarter only a part of
    1e-12 to 1e-4 of |u| there (the root may lie just short of the cut time).
    Every call returns a unit momentum whose arc reaches the target."""
    rng = np.random.default_rng(60)
    metrics = [_canonical_metric(rng, 1 + i % 3, (i // 3) % 2, spread=100.0) for i in range(60)]
    worst = 0.0
    for k in range(1000):
        c = metrics[k % len(metrics)]
        n = c.n
        u = rng.normal(size=2 * n) * rng.uniform(0.2, 3.0)
        if k % 4 < 2:
            top = c.d >= c.d[-1] * (1.0 - 1e-12)
            shrink = 0.0 if k % 4 == 0 else 10.0 ** rng.uniform(-12.0, -4.0)
            u[: n][top] *= shrink
            u[n:][top] *= shrink
        z = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))) * rng.choice([-1.0, 1.0])
        target = _frame_target(c, u, z)
        got, mom = distance(c, target)
        assert got >= float(np.linalg.norm(u)) * (1.0 - 1e-12)
        assert mom.speed(c) == pytest.approx(1.0, abs=1e-12)
        worst = max(worst, _scaled_miss(c, mom, got, target))
    assert worst <= 1e-9


def _bisect_pz(d, rho, a, z, pz_cut):
    """Reference root of the height: bisection down to adjacent floats."""
    lo, hi = -pz_cut, pz_cut
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        height = geodesics._height(d, rho, a, mid)[0]
        if height == z:
            return mid
        if height < z:
            lo = mid
        else:
            hi = mid


def _pz_cases(seed, count):
    """(d, rho, a, z, pz_cut) for seeded roots: n = 1..3, both coranks,
    d_n / d_1 up to 100, |z| from 1e-4 to 1e3; every other case has a top
    block part of 1e-12 to 1e-4 of |u| (a root just short of the cut time)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 + k % 3
        d = sorted(np.exp(rng.uniform(0.0, np.log(100.0), size=n)) * rng.uniform(0.3, 1.5))
        rho = 0.0 if (k // 3) % 2 else float(rng.uniform(0.2, 2.0))
        u = rng.normal(size=(n, 2)) * rng.uniform(0.2, 3.0)
        if k % 2:
            u[-1] *= 10.0 ** rng.uniform(-12.0, -4.0)
        a = [float(v) for v in np.sum(u * u, axis=1)]
        z = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e3)))) * rng.choice([-1.0, 1.0])
        yield [float(v) for v in d], rho, a, z, 2.0 * math.pi / float(d[-1])


def test_solve_pz_matches_bisection():
    """The safeguarded Newton root is within 8 ulps of the bisection root."""
    worst = 0.0
    for d, rho, a, z, pz_cut in _pz_cases(80, 1200):
        got = geodesics._solve_pz(d, rho, a, z, pz_cut)
        want = _bisect_pz(d, rho, a, z, pz_cut)
        worst = max(worst, abs(got - want) / math.ulp(want))
    assert worst <= 8.0


def test_solve_pz_evaluation_count(monkeypatch):
    """Newton, not its bisection fallback, does the work: few height
    evaluations per root on average, and never near the 200-step cap."""
    calls = []
    height = geodesics._height

    def counted(*args):
        calls[-1] += 1
        return height(*args)

    monkeypatch.setattr(geodesics, "_height", counted)
    for d, rho, a, z, pz_cut in _pz_cases(81, 1200):
        calls.append(0)
        geodesics._solve_pz(d, rho, a, z, pz_cut)
    assert np.mean(calls) <= 20.0
    assert max(calls) <= 100


@pytest.mark.parametrize("t", [1.3, 0.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "theta", [0.0, 1e-300, 1e-9, 1.0 - 1e-12, 1.0 + 1e-12, 2.0 * np.pi - 1e-3, 2.0 * np.pi - 1e-6]
)
def test_endpoint_frame_matches_numpy_copy(theta, sign, t):
    """The per-block complex endpoint agrees with the shooting oracle's
    vectorized numpy copy to 1e-14 relative; theta is the top block's."""
    d, rho = [0.7, 1.9, 3.1], 0.8
    ph = np.array([0.3, -0.5, 0.2, 0.4, 0.1, -0.6])
    pz = sign * theta / (d[-1] * 1.3)
    u, z = geodesics._endpoint_frame(d, rho, [complex(x, y) for x, y in zip(ph[:3], ph[3:])], pz, t)
    u = np.array([v.real for v in u] + [v.imag for v in u])
    u_np, z_np = endpoint_frame(d, rho, ph, np.float64(pz), t)
    assert np.max(np.abs(u - u_np)) <= 1e-14 * np.max(np.abs(u_np))
    if theta == 1e-300:
        # the numpy copy's theta^2 underflows there and drops the swirl term;
        # compare with the first-order height rho^2 p_z t + p_z t^3 sum d_i^2 |p_i|^2 / 12
        swirl = sum(di * di * (x * x + y * y) for di, x, y in zip(d, ph[:3], ph[3:]))
        z_np = rho * rho * pz * t + pz * t**3 * swirl / 12.0
    assert abs(z - z_np) <= 1e-14 * abs(z_np)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(0.1, 10.0),
    st.lists(st.floats(1.0, 100.0), min_size=2, max_size=2),
    st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
    st.floats(-1e3, 1e3),
)
def test_distance_property(n, d1, ratios, rho, u, z):
    """For d_n / d_1 <= 100, any rho >= 0 and any target: no SolverFailure, a
    length no shorter than the horizontal bound, unit speed and an arc that
    reaches the target to a scaled residual of 1e-9."""
    d = d1 * np.array(sorted([1.0] + ratios[: n - 1]))
    sq = np.sqrt(d)
    try:
        c = canonicalize(MetricMatrix.from_matrix(np.diag(np.concatenate([sq, sq, [rho]]))))
    except InvalidMetricError:  # rho in the rank gray zone: no metric to test
        reject()
    target = _frame_target(c, np.asarray(u[: 2 * n]), z)
    got, mom = distance(c, target)
    if not np.any(target.coords()):  # the identity: length 0, zero momentum
        assert got == 0.0 and mom.speed(c) == 0.0
        return
    # the target's frame coordinates, and their norm by hypot: a sum of
    # squares loses digits below 1e-154
    u_t = np.linalg.solve(c.atilde, target.coords()[:-1])
    assert got >= math.hypot(*u_t) * (1.0 - 1e-12)
    assert mom.speed(c) == pytest.approx(1.0, abs=1e-12)
    assert _scaled_miss(c, mom, got, target) <= 1e-9


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


def _random_lattice(rng, n):
    r = [int(rng.integers(1, 3))]
    for _ in range(n - 1):
        r.append(r[-1] * int(rng.integers(1, 3)))
    return LatticeSpec(tuple(r))


def test_quotient_distance_lattice_translation_invariant():
    """gamma * target is in the same coset as target for every lattice point
    gamma, however far away, so the quotient distance must not change."""
    rng = np.random.default_rng(70)
    for i in range(200):
        n, corank = 1 + i % 2, (i // 2) % 2
        c = _canonical_metric(rng, n, corank, spread=4.0)
        spec = _random_lattice(rng, n)
        r = np.asarray(spec.r, dtype=np.float64)
        target = GroupElement(
            rng.uniform(-3.0, 3.0, n) * r, rng.uniform(-3.0, 3.0, n), rng.uniform(-2.0, 2.0)
        )
        gx = r * rng.integers(-5, 6, n)
        gy = rng.integers(-5, 6, n).astype(np.float64)
        gamma = GroupElement(gx, gy, 0.5 * float(gx @ gy) + int(rng.integers(-1000, 1001)))
        want = quotient_distance(c, spec, target)
        got = quotient_distance(c, spec, group_mul(gamma, target))
        assert abs(got - want) <= 1e-10 * (1.0 + want)
        assert want <= distance(c, target)[0] * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def reference():
    """perfbench/reference.py, loaded from its file as it stands: the
    benchmark's translate-box minimum is the one copy of this oracle."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_quotient(reference, c, r, target):
    return reference.reference_quotient_distance(c.atilde, c.d, c.rho, r, target.coords())


def test_quotient_distance_matches_reference_oracle(reference):
    """120 seeded generic targets with y != 0, whose translates' heights
    carry the symplectic cocycle term, against the benchmark's brute-force
    box minimum: n <= 2, both coranks, five lattices.  The targets lie in
    the fundamental domain, where the oracle's box is smallest."""
    rng = np.random.default_rng(90)
    lattices = [(1,), (2,), (1, 1), (1, 2), (2, 2)]
    for i in range(120):
        r = lattices[i % 5]
        n = len(r)
        c = _canonical_metric(rng, n, (i // 5) % 2, spread=4.0)
        target = GroupElement(
            rng.uniform(0.0, 1.0, n) * np.asarray(r), rng.uniform(0.05, 0.95, n), rng.uniform(-0.5, 0.5)
        )
        got = quotient_distance(c, LatticeSpec(r), target)
        assert got == pytest.approx(_oracle_quotient(reference, c, r, target), rel=1e-12)


def _sigma_max_box_cells(c, spec, target):
    """Cells of the translate box of half-width sigma_max(Atilde) L that an
    earlier search built, L the distance to the fundamental-domain point."""
    r = np.asarray(spec.r, dtype=np.float64)
    hx, hy, hz = geodesics._reduce_to_domain(target.x.tolist(), target.y.tolist(), target.z, r.tolist())
    best, _ = distance(c, GroupElement(hx, hy, hz))
    reach = float(np.linalg.svd(c.atilde, compute_uv=False)[0]) * best
    w = np.concatenate([hx, hy])
    period = np.concatenate([r, np.ones(c.n)])
    sizes = np.floor((reach - w) / period) - np.ceil((-reach - w) / period) + 1.0
    z_bound = float(c.d[-1]) * best * best / 4.0 + float(c.rho) * best
    return math.prod(int(v) for v in sizes) * (2 * math.floor(z_bound) + 2)


@pytest.mark.parametrize("draw", [8, 13])
def test_quotient_distance_n3_beyond_the_old_box(reference, draw):
    """Lattice (1, 1, 1) and the metric I + 0.3 N(0, 1): inputs whose
    sigma_max box exceeds the cell limit, which the ellipsoid's bounding box
    admits, answered as the oracle answers them."""
    rng = np.random.default_rng(3)
    for _ in range(draw + 1):
        A = np.eye(7) + 0.3 * rng.normal(size=(7, 7))
        coords = np.concatenate([rng.uniform(-1.0, 1.0, 6), [rng.uniform(-2.0, 2.0)]])
    c = canonicalize(MetricMatrix.from_matrix(A))
    spec = LatticeSpec((1, 1, 1))
    target = GroupElement.from_coords(coords)
    assert _sigma_max_box_cells(c, spec, target) > geodesics.QUOTIENT_BOX_LIMIT
    got = quotient_distance(c, spec, target)
    assert got == pytest.approx(_oracle_quotient(reference, c, spec.r, target), rel=1e-12)


def test_quotient_box_guard(monkeypatch):
    # a real box of about 10^6 cells is refused before anything is built:
    # rho = 1000 makes height cheap, so the seed reaches z up to ~7e5
    c = diag_canonical(1e-3, 1e-3, 1e3)
    with pytest.raises(ValueError, match="exceeds the limit"):
        quotient_distance(c, LatticeSpec((1,)), GroupElement([0.5], [0.5], 0.0))
    monkeypatch.setattr(geodesics, "QUOTIENT_BOX_LIMIT", 1)
    with pytest.raises(ValueError, match="exceeds the limit of 1"):
        quotient_distance(diag_canonical(1, 1, 1), LatticeSpec((1,)), GroupElement([0.5], [0.0], 0.0))
