"""Normal geodesics of (H_n, A): closed-form exponential map, RK4 flow as a
numerical oracle, cut time, vertical distance in closed form, and exact
distances on H_n (one bracketed root in p_z, found by safeguarded Newton) and
on quotients by a lattice.

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

Distance.  At t = 1 block i of the endpoint is u_i = s(theta_i) Rot(theta_i/2)
p_i with s(theta) = sin(theta/2)/(theta/2), so p_z alone fixes p_h, and the
height becomes one function of p_z,

    z(p_z) = rho^2 p_z + sum_i a_i d_i q(theta_i) / (2 s(theta_i)^2),

with a_i = |u_i|^2 and q(theta) = (theta - sin theta)/theta^2.  It increases
strictly on (-2 pi/d_n, 2 pi/d_n) (Gaveau 1977; Agrachev-Barilari-Boscain,
"A Comprehensive Introduction to Sub-Riemannian Geometry"), so one bracketed
root gives the minimizer, of length sqrt(sum_i a_i/s(theta_i)^2 + rho^2 p_z^2).
Its slope is known in closed form (see _height), so a safeguarded Newton
iteration finds the root in about ten evaluations.  For a single momentum
the closed form runs per block on Python floats and complex numbers: with
block i read as u_i = u_x_i + i u_y_i and p_i = p_x_i + i p_y_i, it is
u_i(t) = t s(theta_i) e^{i theta_i/2} p_i.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import GroupElement, LatticeSpec, _clean_coords
from .errors import SolverFailure
from .metric import CanonicalMetric, MetricLike, canonicalize

__all__ = [
    "Momentum",
    "GeodesicArc",
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
        px, py, pz = _clean_coords(
            self.p_x,
            self.p_y,
            self.p_z,
            shape_msg="p_x and p_y must have equal length",
            finite_msg="momentum entries must be finite",
        )
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


def _sinc_series(t2):
    """6 (1 - sin(theta)/theta) / theta^2 in t2 = theta^2: the nested
    alternating series through theta^14, truncation < 2e-14 relative on
    |theta| < 1, where the direct formula would lose ~8 digits."""
    return 1.0 - t2 / 20.0 * (
        1.0 - t2 / 42.0 * (1.0 - t2 / 72.0 * (1.0 - t2 / 110.0 * (1.0 - t2 / 156.0 * (1.0 - t2 / 210.0))))
    )


def _endpoint_frame(d, rho, p, pz, t):
    """Closed-form endpoint at time t in frame coordinates, for one momentum.

    d: the d_i as floats; p: p_x_i + i p_y_i per block, as Python complex.
    With theta_i = p_z d_i t, block i of the endpoint is
    u_i = t s(theta_i) e^{i theta_i/2} p_i, and the height is
    z = rho^2 p_z t + (t^2 / 2) sum_i d_i q(theta_i) |p_i|^2 (module
    docstring).  Returns (u as a list of complex, z).
    """
    u = []
    z = 0.0
    for di, pi in zip(d, p):
        theta = pz * di * t
        half = 0.5 * theta
        if abs(theta) < 1.0:  # q(theta) by its series
            q = theta / 6.0 * _sinc_series(theta * theta)
        else:
            q = (theta - math.sin(theta)) / (theta * theta)
        s = math.sin(half) / half if half else 1.0
        u.append(t * s * complex(math.cos(half), math.sin(half)) * pi)
        z += di * q * (pi.real * pi.real + pi.imag * pi.imag)
    return u, rho * rho * pz * t + 0.5 * t * t * z


def geodesic_point(c: MetricLike, p: Momentum, t: float) -> GroupElement:
    """Point at time t of the normal geodesic from the identity."""
    c = canonicalize(c)
    n = c.n
    mom = [complex(x, y) for x, y in zip(p.p_x.tolist(), p.p_y.tolist())]
    u, z = _endpoint_frame(c.d.tolist(), float(c.rho), mom, p.p_z, float(t))
    w = c.atilde @ np.array([v.real for v in u] + [v.imag for v in u])
    return GroupElement(w[:n], w[n:], z)


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


def _count(name, value):
    """`value` as an int >= 1.  Raises ValueError for anything else,
    non-integral numbers such as 2.5 included."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def _rk4_one(c, p, t, steps, samples=1):
    """The RK4 kernel on a single trajectory: (u, z, h at the checkpoints)."""
    u, z, h_at = _kernels.rk4_flow(
        p.horizontal()[None], [p.p_z], [c.rho], c.d[None], [float(t)], steps, samples
    )
    return u[0], float(z[0]), h_at[0]


def flow_numeric(c: MetricLike, p: Momentum, t: float, steps: int) -> GroupElement:
    """Fixed-step RK4 integration of the Hamiltonian system; converges to
    geodesic_point at fourth order in the step size.

    Raises ValueError unless steps is an integer >= 1.
    """
    steps = _count("steps", steps)
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

    Raises ValueError unless steps and samples are integers >= 1.
    """
    steps = _count("steps", steps)
    samples = _count("samples", samples)
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
    (2 / d_n) sqrt(|p| pi d_n - pi^2 rho^2).  This is the case u = 0 of
    `distance`, kept in closed form as its cross-check.
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
    # free phase fixed: all horizontal momentum on p_x of block n, whose d is
    # exactly d_n, so the arc closes at the cut time
    px = zeros.copy()
    px[-1] = math.sqrt(ph2)
    return dist, Momentum(px, zeros, pz)


# A d_i within this relative distance of d_n belongs to the top block.
_TOP_BLOCK_REL = 1e-12
# A top-block part of the target below this (relative to 1 + |u|) is treated
# as zero: the cut-time minimizer then misses the target by at most this much.
_TOP_PART_REL = 1e-10
# Scaled endpoint residual a returned minimizer must meet.
_RESIDUAL_TOL = 1e-9
# _solve_pz stops once the Newton step is at most this relative amount
# (4 ulps): below it the height's rounding, not the iterate, sets the error.
_PZ_ULPS = 4.0 * 2.0**-52
# distance dilates small targets only as far as keeps rho below 2^this.
_RHO_EXP_MAX = 400
# Most candidate cells quotient_distance searches.
QUOTIENT_BOX_LIMIT = 500_000


def _height(d, rho, a, pz):
    """z(p_z) of the module docstring for block energies a, with its slope:
    (height, dz/dp_z) at time 1 of the geodesic with vertical momentum pz
    through frame point u.

    Block i adds a_i d_i f(theta_i), theta_i = p_z d_i, with
    f = (theta - sin theta) / (8 sin^2(theta/2)) = q / (2 s^2) and
    f' = 1/4 - cos(theta/2) (theta - sin theta) / (8 sin^3(theta/2))
       = 1/4 - cos(theta/2) (q/theta) / s^3,  f'(0) = 1/12.
    """
    z = rho * rho * pz
    slope = rho * rho
    for di, ai in zip(d, a):
        if ai:
            theta = pz * di
            half = 0.5 * theta
            if abs(theta) < 1.0:  # q(theta) and q/theta by their series
                series = _sinc_series(theta * theta)
                q = theta / 6.0 * series
                q_theta = series / 6.0
            else:
                q = (theta - math.sin(theta)) / (theta * theta)
                q_theta = q / theta
            s = math.sin(half) / half if half else 1.0
            z += ai * di * q / (2.0 * s * s)
            slope += ai * di * di * (0.25 - math.cos(half) * q_theta / (s * s * s))
    return z, slope


def _solve_pz(d, rho, a, z, pz_cut):
    """The root of _height(p_z) = z on (-pz_cut, pz_cut).

    Safeguarded Newton (rtsafe, Numerical Recipes 9.4) from p_z = 0 with the
    analytic slope, keeping a bracket: a Newton step that leaves the bracket,
    or is not at most half the step before last, becomes a bisection step.
    It stops when the Newton step is at most a few ulps of p_z, or when the
    bracket closes to adjacent floats.
    """
    lo, hi = -pz_cut, pz_cut
    pz = 0.0
    step = step_old = hi - lo
    for _ in range(200):
        height, slope = _height(d, rho, a, pz)
        f = height - z
        if f == 0.0:
            return pz
        if f < 0.0:
            lo = pz
        else:
            hi = pz
        newton = pz - f / slope
        if abs(newton - pz) <= _PZ_ULPS * abs(pz):
            return newton
        if lo < newton < hi and abs(2.0 * f) <= abs(step_old * slope):
            step_old, step = step, newton - pz
            pz = newton
        else:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            step_old, step = step, mid - pz
            pz = mid
    return pz


def _unit_and_residual(d, rho, u, z, p, pz):
    """(length, unit frame momenta, unit p_z, scaled residual) of the momentum
    (p, pz) that is meant to reach frame point (u, z) at time 1; the residual
    is taken on the closed-form endpoint of the unit momentum at time
    `length`.  u and p hold one complex number per block."""
    length = math.hypot(*[v.real for v in p], *[v.imag for v in p], rho * pz)
    p = [v / length for v in p]
    pz /= length
    u_end, z_end = _endpoint_frame(d, rho, p, pz, length)
    u_norm = math.hypot(*[v.real for v in u], *[v.imag for v in u])
    miss = max(max(abs(e.real - v.real), abs(e.imag - v.imag)) for e, v in zip(u_end, u))
    residual = max(miss / (1.0 + u_norm), abs(z_end - z) / (1.0 + abs(z)))
    return length, p, pz, residual


def distance(c: MetricLike, target: GroupElement):
    """Distance from the identity to `target`, with a realizing unit momentum.

    With u = Atilde^-1 w the target's frame coordinates and z its height, the
    minimizer's p_z is the root of z(p_z) = z on (-2 pi/d_n, 2 pi/d_n) (see
    the module docstring), found by safeguarded Newton with the analytic
    slope; p_z then fixes the frame momenta p_i = Rot(-theta_i/2) u_i /
    s(theta_i).  When u has no part in the top d-block and |z| is at or past
    the limit height z(+-2 pi/d_n) of the other blocks, the minimizer sits at
    the cut time instead: p_z = +-2 pi/d_n and the top block, which closes
    there, carries |p_top|^2 = 2 p_z (z - z_limit).

    Every answer is verified: the closed-form endpoint of the unit momentum at
    time `distance` must reach the target to a scaled residual of 1e-9 (the
    larger of |u_end - u| / (1 + |u|) and |z_end - z| / (1 + |z|)).  Near the
    cut time s(theta_n) keeps few correct digits and the height misses; when
    the residual exceeds 1e-12, the top block's momentum is also tried
    rescaled so that the height comes out exact, which moves u only by that
    relative error of s times |u_top|, and the better of the two is kept.  If
    the check still fails, SolverFailure is raised with the residual.
    """
    c = canonicalize(c)
    n = c.n
    uv = np.linalg.solve(c.atilde, np.concatenate([target.x, target.y])).tolist()
    z = target.z
    if not any(uv) and z == 0.0:
        return 0.0, Momentum(np.zeros(n), np.zeros(n), 0.0)
    d = c.d.tolist()
    rho = float(c.rho)
    # Dilate a target smaller than 1/2 by (u, z) -> (2^k u, 4^k z), exact in
    # floats, to about unit size, so that neither |u_i|^2 underflows nor the
    # top-block cut-off below outweighs u.  With rho -> 2^k rho (kept below
    # 2^_RHO_EXP_MAX, so rho^2 stays finite) the minimizer keeps its p_z at
    # time 1 and every length grows by 2^k; the residual check only tightens.
    k = -math.frexp(max(max(map(abs, uv)), math.sqrt(abs(z))))[1]
    if rho:
        k = min(k, _RHO_EXP_MAX - math.frexp(rho)[1])
    k = max(k, 0)
    uv = [math.ldexp(v, k) for v in uv]
    z = math.ldexp(z, 2 * k)
    rho = math.ldexp(rho, k)
    u = [complex(x, y) for x, y in zip(uv[:n], uv[n:])]
    a = [v.real * v.real + v.imag * v.imag for v in u]
    pz_cut = 2.0 * math.pi / d[-1]
    top = [di >= d[-1] * (1.0 - _TOP_BLOCK_REL) for di in d]
    rest = [0.0 if t else ai for ai, t in zip(a, top)]
    a_top = [ai - ri for ai, ri in zip(a, rest)]

    at_cut = False
    if sum(a_top) <= (_TOP_PART_REL * (1.0 + math.sqrt(sum(a)))) ** 2:
        pz = math.copysign(pz_cut, z)
        z_limit = _height(d, rho, rest, pz)[0]
        at_cut = abs(z) >= abs(z_limit)
    if not at_cut:
        pz = _solve_pz(d, rho, a, z, pz_cut)

    p = []
    for di, ui in zip(d, u):
        half = 0.5 * pz * di
        s = math.sin(half) / half if half else 1.0
        p.append(ui * complex(math.cos(half), -math.sin(half)) / s)
    if at_cut:
        p = [0j if t else pi for pi, t in zip(p, top)]
        p[-1] = complex(math.sqrt(2.0 * pz * (z - z_limit)), 0.0)
    best = _unit_and_residual(d, rho, u, z, p, pz)
    if best[3] > 1e-3 * _RESIDUAL_TOL and not at_cut and any(a_top):
        grow = (z - _height(d, rho, rest, pz)[0]) / _height(d, 0.0, a_top, pz)[0]
        g = math.sqrt(max(grow, 0.0))
        p = [pi * g if t else pi for pi, t in zip(p, top)]
        best = min(best, _unit_and_residual(d, rho, u, z, p, pz), key=lambda r: r[3])
    length, p, pz, residual = best
    if not residual <= _RESIDUAL_TOL:
        raise SolverFailure(
            f"minimizer misses the target (scaled residual {residual:.3e})",
            best_residual=residual,
        )
    return math.ldexp(length, -k), Momentum([v.real for v in p], [v.imag for v in p], math.ldexp(pz, k))


def _reduce_to_domain(x, y, z, r):
    """gamma * (x, y, z) for the lattice point gamma that moves it into the
    fundamental domain x_i in [0, r_i), y_i in [0, 1), z in [-1/2, 1/2)."""
    gx = -r * np.floor(x / r)
    gy = -np.floor(y)
    z = z + 0.5 * float(gx @ gy) + 0.5 * float(gx @ y - gy @ x)
    return x + gx, y + gy, z - math.floor(z + 0.5)


def quotient_distance(c: MetricLike, spec: LatticeSpec, target: GroupElement) -> float:
    """Distance from the identity coset to the coset of `target` in the
    quotient by the lattice: min over lattice translates gamma * target.

    The target is first moved into the fundamental domain, which keeps its
    coset, and the distance L to that point seeds the bound.  Every translate
    closer than L lies in a box: |Atilde^-1 w| <= L bounds (x, y), and the
    height a curve of length L reaches, d_n L^2 / 4 + rho L, bounds z.  The
    whole box is built with numpy; `distance` runs only on translates whose
    lower bound (the larger of the horizontal norm and the length needed to
    reach their height) beats the best distance so far.

    Raises ValueError, before building anything, when the box holds more
    than QUOTIENT_BOX_LIMIT cells.
    """
    c = canonicalize(c)
    n = c.n
    r = np.asarray(spec.r, dtype=np.float64)
    hx, hy, hz = _reduce_to_domain(target.x, target.y, float(target.z), r)
    best, _ = distance(c, GroupElement(hx, hy, hz))
    if best == 0.0:
        return 0.0
    dn = float(c.d[-1])
    rho = float(c.rho)
    ainv = np.linalg.inv(c.atilde)
    w = np.concatenate([hx, hy])
    period = np.concatenate([r, np.ones(n)])
    reach = float(np.linalg.svd(c.atilde, compute_uv=False)[0]) * best
    z_bound = dn * best * best / 4.0 + rho * best

    lo = np.ceil((-w - reach) / period)
    hi = np.floor((-w + reach) / period)
    sizes = [max(int(v), 0) for v in hi - lo + 1.0]
    cells = math.prod(sizes)
    if cells * (2 * math.floor(z_bound) + 2) > QUOTIENT_BOX_LIMIT:
        raise ValueError(
            f"quotient search box of about {cells} x {2 * math.floor(z_bound) + 2} cells "
            f"exceeds the limit of {QUOTIENT_BOX_LIMIT}"
        )
    axes = [period[i] * np.arange(lo[i], hi[i] + 1.0) for i in range(2 * n)]
    g = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * n)
    gx, gy = g[:, :n], g[:, n:]
    hw = g + w
    z0 = hz + 0.5 * np.vecdot(gx, gy) + 0.5 * (gx @ hy - gy @ hx)
    lb_w = np.linalg.norm(hw @ ainv.T, axis=1)
    near = lb_w < best - 1e-12
    g, hw, z0, lb_w = g[near], hw[near], z0[near], lb_w[near]

    m_lo = np.ceil(-z0 - z_bound)
    counts = np.maximum(np.floor(-z0 + z_bound) - m_lo + 1.0, 0.0).astype(np.int64)
    cell = np.repeat(np.arange(g.shape[0]), counts)
    first = np.cumsum(counts) - counts
    m = m_lo[cell] + (np.arange(cell.shape[0]) - first[cell])
    hz_all = z0[cell] + m
    # smallest T with d_n T^2 / 4 + rho T >= |z|: the length needed to reach
    # height z
    lb_z = (np.sqrt(rho * rho + dn * np.abs(hz_all)) - rho) * 2.0 / dn
    lb = np.maximum(lb_w[cell], lb_z)
    lb[~np.any(g, axis=1)[cell] & (m == 0.0)] = np.inf  # the seed itself

    for k in np.argsort(lb, kind="stable"):
        if lb[k] >= best - 1e-12:
            break
        hk = hw[cell[k]]
        dist_k, _ = distance(c, GroupElement(hk[:n], hk[n:], hz_all[k]))
        best = min(best, dist_k)
    return best
