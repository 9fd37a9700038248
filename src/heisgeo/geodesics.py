"""Normal geodesics of (H_n, A): closed-form exponential map, RK4 flow as a
numerical oracle, cut time, vertical distance in closed form, and
shooting-based distance on H_n and on quotients by a lattice.

Conventions.  A geodesic from the identity is determined by the frame momenta
(p_x, p_y) = (h_{x_i}(0), h_{y_i}(0)) along the orthonormal horizontal frame
of the canonical representative, plus the vertical momentum p_z (pairing with
Z, a constant of motion).  Unit speed means |p_h|^2 + rho^2 p_z^2 = 1.  With
xi_i = p_z d_i and theta_i = xi_i t the closed form reads, for p_z != 0,

    u_x_i(t) = ( sin(theta_i) p_x_i - (1 - cos(theta_i)) p_y_i ) / xi_i
    u_y_i(t) = ( (1 - cos(theta_i)) p_x_i + sin(theta_i) p_y_i ) / xi_i
    z(t)     = rho^2 p_z t
               + sum_i (t - sin(theta_i)/xi_i) (p_x_i^2 + p_y_i^2) / (2 p_z)

in frame coordinates u, and straight lines u = t p_h, z = 0 for p_z = 0.
Standard coordinates are w = Atilde u.  Geodesics with p_z != 0 minimize up
to t = 2 pi / (|p_z| d_n).  Only normal extremals exist on H_n, so this is
the whole geodesic flow.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from . import _kernels
from .core import GroupElement, LatticeSpec, group_mul, symplectic_pairing
from .errors import SolverFailure
from .metric import CanonicalMetric, MetricLike, canonicalize

__all__ = [
    "Momentum",
    "GeodesicArc",
    "SolverOptions",
    "geodesic_point",
    "geodesic_velocity",
    "flow_numeric",
    "cut_time",
    "vertical_distance",
    "distance",
    "quotient_distance",
]


@dataclass(frozen=True, eq=False)
class Momentum:
    """Initial covector of a normal extremal: frame momenta (p_x, p_y) and
    the vertical momentum p_z."""

    p_x: np.ndarray
    p_y: np.ndarray
    p_z: float

    def __post_init__(self):
        px = np.atleast_1d(np.asarray(self.p_x, dtype=np.float64))
        py = np.atleast_1d(np.asarray(self.p_y, dtype=np.float64))
        if px.shape != py.shape or px.ndim != 1:
            raise ValueError("p_x and p_y must have equal length")
        pz = float(self.p_z)
        if not (np.all(np.isfinite(px)) and np.all(np.isfinite(py)) and np.isfinite(pz)):
            raise ValueError("momentum entries must be finite")
        px.flags.writeable = False
        py.flags.writeable = False
        object.__setattr__(self, "p_x", px)
        object.__setattr__(self, "p_y", py)
        object.__setattr__(self, "p_z", pz)

    @property
    def n(self):
        return self.p_x.shape[0]

    def horizontal(self):
        return np.concatenate([self.p_x, self.p_y])

    def speed(self, c: CanonicalMetric) -> float:
        ph2 = float(np.sum(self.p_x**2) + np.sum(self.p_y**2))
        return math.sqrt(ph2 + (c.rho * self.p_z) ** 2)

    def unit(self, c: CanonicalMetric) -> "Momentum":
        s = self.speed(c)
        if s == 0.0:
            raise ValueError("cannot normalize the zero momentum")
        return Momentum(self.p_x / s, self.p_y / s, self.p_z / s)

    @classmethod
    def from_horizontal(cls, ph, pz):
        ph = np.asarray(ph, dtype=np.float64)
        n = ph.shape[0] // 2
        return cls(ph[:n], ph[n:], pz)


@dataclass(frozen=True, eq=False)
class GeodesicArc:
    """A geodesic segment [0, duration] with its metric and initial momentum."""

    metric: CanonicalMetric
    momentum: Momentum
    duration: float

    def point(self, t: float) -> GroupElement:
        return geodesic_point(self.metric, self.momentum, t)

    def speed(self) -> float:
        return self.momentum.speed(self.metric)


def _one_minus_sinc(theta):
    """1 - sin(theta)/theta, elementwise, without cancellation near 0."""
    theta = np.asarray(theta, dtype=np.float64)
    t2 = theta * theta
    # nested alternating series through theta^14; truncation < 2e-14 relative
    # on |theta| < 1, where the direct formula would lose ~8 digits
    series = t2 / 6.0 * (
        1.0
        - t2
        / 20.0
        * (
            1.0
            - t2
            / 42.0
            * (1.0 - t2 / 72.0 * (1.0 - t2 / 110.0 * (1.0 - t2 / 156.0 * (1.0 - t2 / 210.0))))
        )
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = 1.0 - np.sin(theta) / theta
    return np.where(np.abs(theta) < 1.0, series, direct)


def _endpoint_frame(d, rho, ph, pz, t):
    """Closed-form endpoint in frame coordinates, vectorized over momenta.

    ph: (..., 2n), pz: (...,).  Returns u: (..., 2n), z: (...,).
    """
    d = np.asarray(d, dtype=np.float64)
    ph = np.asarray(ph, dtype=np.float64)
    pz = np.asarray(pz, dtype=np.float64)
    n = d.shape[0]
    px = ph[..., :n]
    py = ph[..., n:]
    theta = pz[..., None] * d * t
    half = 0.5 * theta
    sinc_half = np.sinc(half / np.pi)
    a = t * np.sinc(theta / np.pi)  # sin(theta)/xi
    b = t * np.sin(half) * sinc_half  # (1 - cos(theta))/xi
    ux = a * px - b * py
    uy = b * px + a * py
    oms = _one_minus_sinc(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        zc = t * oms / (2.0 * pz[..., None])
    straight = pz[..., None] == 0.0
    ux = np.where(straight, t * px, ux)
    uy = np.where(straight, t * py, uy)
    zc = np.where(straight, 0.0, zc)
    z = rho * rho * pz * t + np.sum(zc * (px * px + py * py), axis=-1)
    return np.concatenate([ux, uy], axis=-1), z


def geodesic_point(c: MetricLike, p: Momentum, t: float) -> GroupElement:
    """Point at time t of the normal geodesic from the identity."""
    c = canonicalize(c)
    u, z = _endpoint_frame(c.d, c.rho, p.horizontal(), np.float64(p.p_z), t)
    w = c.atilde @ u
    n = c.n
    return GroupElement(w[:n], w[n:], float(z))


def geodesic_velocity(c: MetricLike, p: Momentum, t: float):
    """Analytic velocity (dw/dt, dz/dt) in standard coordinates at time t."""
    c = canonicalize(c)
    n = c.n
    px, py, pz = p.p_x, p.p_y, p.p_z
    theta = pz * c.d * t
    hx = np.cos(theta) * px - np.sin(theta) * py
    hy = np.sin(theta) * px + np.cos(theta) * py
    half = 0.5 * theta
    b_over_t = np.sin(half) * np.sinc(half / np.pi)  # (1 - cos theta)/theta
    dz = c.rho**2 * pz + 0.5 * t * float(np.dot(c.d * b_over_t, px**2 + py**2))
    wdot = c.atilde @ np.concatenate([hx, hy])
    return wdot, float(dz)


def _rk4_one(c, p, t, steps, samples=1):
    """The RK4 kernel on a single trajectory: (u, z, h at the checkpoints)."""
    u, z, h_at = _kernels.rk4_flow(
        p.horizontal()[None], [p.p_z], [c.rho], c.d[None], [float(t)], int(steps), int(samples)
    )
    return u[0], float(z[0]), h_at[0]


def flow_numeric(c: MetricLike, p: Momentum, t: float, steps: int) -> GroupElement:
    """Fixed-step RK4 integration of the Hamiltonian system; converges to
    geodesic_point at fourth order in the step size."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    c = canonicalize(c)
    u, z, _ = _rk4_one(c, p, t, steps)
    w = c.atilde @ u
    n = c.n
    return GroupElement(w[:n], w[n:], z)


def hamiltonian_along_flow(c: MetricLike, p: Momentum, t: float, steps: int, samples: int = 32):
    """Values of H = (|h|^2 + rho^2 p_z^2)/2 at the start and at `samples`
    checkpoints of one `steps`-step RK4 integration of [0, t] (conservation
    diagnostic).  Checkpoint j sits after max(1, round(steps * j / samples))
    steps; the last one is the end of the interval.

    Raises ValueError when steps < 1 or samples < 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    c = canonicalize(c)
    _, _, h_at = _rk4_one(c, p, t, steps, samples)
    h = np.concatenate([p.horizontal()[None], h_at])
    return 0.5 * (np.vecdot(h, h) + (c.rho * p.p_z) ** 2)


def cut_time(c: MetricLike, p: Momentum) -> float:
    """2 pi / (|p_z| d_n) for p_z != 0, +infinity for straight lines."""
    c = canonicalize(c)
    if p.p_z == 0.0:
        return np.inf
    return 2.0 * np.pi / (abs(p.p_z) * float(c.d[-1]))


def vertical_distance(c: MetricLike, p_coord: float):
    """Distance from the identity to exp(p Z), with a realizing unit momentum.

    Two branches: |p| <= 2 pi rho^2 / d_n is reached by the vertical line
    exp(t rho Z) at cost |p / rho|; beyond that (always, when rho = 0) the
    minimizer swirls in the top d-eigenblock and costs
    (2 / d_n) sqrt(|p| pi d_n - pi^2 rho^2).
    """
    c = canonicalize(c)
    n = c.n
    p = float(p_coord)
    dn = float(c.d[-1])
    zeros = np.zeros(n)
    if p == 0.0:
        return 0.0, Momentum(zeros, zeros, 0.0)
    sign = 1.0 if p > 0 else -1.0
    if c.rho > 0.0 and abs(p) <= 2.0 * np.pi * c.rho**2 / dn:
        dist = abs(p / c.rho)
        return dist, Momentum(zeros, zeros, sign / c.rho)
    dist = (2.0 / dn) * math.sqrt(abs(p) * np.pi * dn - (np.pi * c.rho) ** 2)
    pz = sign * math.sqrt(np.pi / (abs(p) * dn - np.pi * c.rho**2))
    ph2 = max(1.0 - (c.rho * pz) ** 2, 0.0)
    # free phase fixed: all horizontal momentum on the first coordinate of
    # the top d-eigenblock
    m_top = int(np.argmax(c.d >= dn * (1.0 - 1e-9)))
    px = zeros.copy()
    px[m_top] = math.sqrt(ph2)
    return dist, Momentum(px, zeros, pz)


@dataclass
class SolverOptions:
    """Multi-start shooting configuration.

    grid_size is the number of closed-form endpoint evaluations used to seed
    the root finder; refine_starts of them (best residual first) are polished
    with a quasi-Newton solve.  seed perturbs the deterministic grid and
    exists for stress testing only.
    """

    grid_size: int = 4096
    refine_starts: int = 48
    residual_tol: float = 1e-9
    seed: Optional[int] = None


def _direction_set(n2, count, rng):
    """Deterministic unit directions in R^{n2}: equal angles for n2 = 2,
    otherwise a fixed-seed Gaussian cloud plus the coordinate axes."""
    if n2 == 2:
        ang = 2.0 * np.pi * np.arange(count) / max(count, 1)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    axes = np.concatenate([np.eye(n2), -np.eye(n2)], axis=0)
    extra = max(count - 2 * n2, 0)
    g = rng.standard_normal((extra, n2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([axes, g], axis=0)


def _shooting_grid(c, u_t, z_t, opts):
    """Momenta p with endpoint(p, 1) expected to land near the target."""
    n2 = 2 * c.n
    dn = float(c.d[-1])
    rng = np.random.default_rng(0x5EED if opts.seed is None else opts.seed)

    k = max(int(round(opts.grid_size ** (1.0 / 3.0))), 6)
    n_dir, n_rad, n_pz = k, k, k

    dirs = _direction_set(n2, n_dir, rng)
    un = float(np.linalg.norm(u_t))
    # distance upper-bound scale: horizontal reach plus vertical swirl cost
    vert = 2.0 * math.sqrt(np.pi * abs(z_t) / dn) if z_t != 0.0 else 0.0
    reach = max(un + vert, un, 1e-6)
    radii = np.concatenate([[0.0], reach * np.linspace(0.08, 1.25, n_rad - 1)])
    if un > 0:
        radii = np.concatenate([radii, un * np.array([0.95, 1.0, 1.05])])

    pz_max = 2.0 * np.pi / dn * 1.02
    ladder = pz_max * (np.arange(1, n_pz + 1) / n_pz) ** 1.7
    pzs = np.concatenate([[0.0], ladder, -ladder])

    ph = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n2)
    ph = np.unique(ph, axis=0)
    G = ph.shape[0] * pzs.shape[0]
    ph_all = np.repeat(ph, pzs.shape[0], axis=0)
    pz_all = np.tile(pzs, ph.shape[0])
    if G > opts.grid_size * 4:
        keep = np.linspace(0, G - 1, opts.grid_size * 4).astype(int)
        ph_all, pz_all = ph_all[keep], pz_all[keep]
    return ph_all, pz_all


def distance(c: MetricLike, target: GroupElement, opts: Optional[SolverOptions] = None):
    """Distance from the identity to `target`, with a realizing unit momentum.

    Multi-start shooting on the closed-form endpoint map at time 1: a root
    p of endpoint(p, 1) = target gives a geodesic of length |p|_A, and the
    endpoint map's homogeneity endpoint(s*p, 1) = endpoint(p, s) makes that
    the geodesic's arc length.  Roots past their cut time are discarded; the
    smallest surviving length wins.  Raises SolverFailure (with the best
    residual) rather than returning an unconverged number.
    """
    c = canonicalize(c)
    if opts is None:
        opts = SolverOptions()
    n = c.n
    w_t = np.concatenate([target.x, target.y])
    z_t = float(target.z)
    u_t = np.linalg.solve(c.atilde, w_t)
    if np.linalg.norm(u_t) == 0.0 and z_t == 0.0:
        return 0.0, Momentum(np.zeros(n), np.zeros(n), 0.0)

    su = 1.0 + np.linalg.norm(u_t)
    sz = 1.0 + abs(z_t)
    d = np.asarray(c.d, dtype=np.float64)
    rho = float(c.rho)
    dn = float(d[-1])

    ph_all, pz_all = _shooting_grid(c, u_t, z_t, opts)
    u_end, z_end = _endpoint_frame(d, rho, ph_all, pz_all, 1.0)
    res = np.sum(((u_end - u_t) / su) ** 2, axis=1) + ((z_end - z_t) / sz) ** 2
    order = np.argsort(res)

    def fun(q):
        u, z = _endpoint_frame(d, rho, q[:-1], np.float64(q[-1]), 1.0)
        out = np.empty(2 * n + 1)
        out[: 2 * n] = (u - u_t) / su
        out[-1] = (z - z_t) / sz
        return out

    best_len = np.inf
    best_p = None
    best_residual = float(np.sqrt(res[order[0]]))
    for idx in order[: opts.refine_starts]:
        q0 = np.concatenate([ph_all[idx], [pz_all[idx]]])
        sol = scipy.optimize.root(fun, q0, method="hybr", options={"xtol": 1e-13})
        q = sol.x
        resid = float(np.max(np.abs(fun(q))))
        best_residual = min(best_residual, resid)
        if resid > opts.residual_tol:
            continue
        ph, pz = q[:-1], float(q[-1])
        length = math.sqrt(float(ph @ ph) + (rho * pz) ** 2)
        if length == 0.0:
            continue
        # minimizing arcs do not continue past the cut time
        if abs(pz) * dn > 2.0 * np.pi * (1.0 + 1e-9):
            continue
        if length < best_len:
            best_len = length
            best_p = Momentum(ph[:n] / length, ph[n:] / length, pz / length)

    if best_p is None:
        raise SolverFailure(
            f"no shooting branch converged (best residual {best_residual:.3e})",
            best_residual=best_residual,
        )
    lower = float(np.linalg.norm(u_t))
    if best_len < lower - 1e-9 * (1.0 + lower):
        raise SolverFailure(
            f"converged length {best_len} violates the horizontal lower bound {lower}",
            best_residual=best_residual,
        )
    return best_len, best_p


def _vertical_reach_time(dn, rho, z):
    """Smallest T with d_n T^2 / 4 + rho T >= |z|: lower bound on the distance
    to any point with vertical coordinate z."""
    z = abs(z)
    if z == 0.0:
        return 0.0
    return (-rho + math.sqrt(rho * rho + dn * z)) * 2.0 / dn


def quotient_distance(
    c: MetricLike,
    spec: LatticeSpec,
    target: GroupElement,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Distance from the identity coset to the coset of `target` in the
    quotient by the lattice: min over lattice translates gamma * target.

    The candidate box is derived from exact lower bounds (horizontal norm and
    vertical reachability), seeded by the distance to the untranslated target
    and shrunk as better translates are found.
    """
    c = canonicalize(c)
    n = c.n
    best, _ = distance(c, target, opts)
    if best == 0.0:
        return 0.0
    sigma_max = float(np.linalg.svd(c.atilde, compute_uv=False)[0])
    dn = float(c.d[-1])
    rho = float(c.rho)
    w_t = np.concatenate([target.x, target.y])
    z_bound = dn * best**2 / 4.0 + rho * best

    r = np.asarray(spec.r, dtype=np.float64)
    reach = sigma_max * best
    alpha_ranges = [
        range(math.ceil((-w_t[i] - reach) / r[i]), math.floor((-w_t[i] + reach) / r[i]) + 1)
        for i in range(n)
    ]
    beta_ranges = [
        range(math.ceil(-w_t[n + i] - reach), math.floor(-w_t[n + i] + reach) + 1)
        for i in range(n)
    ]

    candidates = []
    ainv = np.linalg.inv(c.atilde)

    def add_candidates():
        for alpha in itertools.product(*alpha_ranges):
            x = r * np.asarray(alpha, dtype=np.float64)
            for beta in itertools.product(*beta_ranges):
                y = np.asarray(beta, dtype=np.float64)
                base_z = 0.5 * float(np.dot(x, y))
                gamma0 = GroupElement(x, y, base_z)
                h0 = group_mul(gamma0, target)
                m_center = -h0.z
                m_lo = math.ceil(m_center - z_bound)
                m_hi = math.floor(m_center + z_bound)
                for mz in range(m_lo, m_hi + 1):
                    hz = h0.z + mz
                    hw = np.concatenate([h0.x, h0.y])
                    lb = max(
                        float(np.linalg.norm(ainv @ hw)),
                        _vertical_reach_time(dn, rho, hz),
                    )
                    candidates.append((lb, GroupElement(h0.x, h0.y, hz)))
        if len(candidates) > 500_000:
            raise RuntimeError("quotient enumeration box too large")

    add_candidates()
    candidates.sort(key=lambda t: t[0])
    for lb, h in candidates:
        if lb >= best - 1e-12:
            break
        if np.linalg.norm(h.coords()) == 0.0:
            return 0.0
        dist_h, _ = distance(c, h, opts)
        if dist_h < best:
            best = dist_h
    return best
