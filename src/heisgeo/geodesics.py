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
iteration finds the root.  It starts near the root, at the smaller of two
estimates with the sign of z: the small-theta one z / z'(0), with
z'(0) = rho^2 + sum_i a_i d_i^2 / 12, and the one from the double pole of
the top block at the cut, p_cut - sqrt(a_top pi / (d_n (|z| - rho^2 p_cut))),
with p_cut = 2 pi / d_n and a_top the top block's energy.  The height is
convex in |p_z|, so the first estimate lies past the root and Newton walks
back to it monotonically; near the cut the second one is the closer.  A
root takes about four evaluations.  For a single momentum
the closed form runs per block on Python floats and complex numbers: with
block i read as u_i = u_x_i + i u_y_i and p_i = p_x_i + i p_y_i, it is
u_i(t) = t s(theta_i) e^{i theta_i/2} p_i.
"""

import heapq
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import GroupElement, LatticeSpec, _clean_coords
from .errors import SolverFailure
from .linalg import _short_vectors, _triangular_factor
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

    @classmethod
    def _solved(cls, p, pz):
        """The momentum with p_x + i p_y = p (one complex per block) and
        vertical part pz, built without the checks of __post_init__: the
        solver made these finite floats."""
        p = np.array(p, dtype=np.complex128)
        p.setflags(write=False)  # and so its real and imaginary views
        mom = object.__new__(cls)
        mom.__dict__.update(p_x=p.real, p_y=p.imag, p_z=float(pz))
        return mom

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
        sh = math.sin(half)
        s = sh / half if half else 1.0
        u.append(t * s * complex(math.cos(half), sh) * pi)
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
# ... or once the error a Newton step leaves is estimated below this relative
# amount (a sixteenth of an ulp).
_PZ_LEFT = 2.0**-56
# _solve_pz starts at most this fraction of the way to the cut.
_START_MAX = 1.0 - 2.0**-40
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
       = 1/4 - cos(theta/2) f / sin(theta/2),  f'(0) = 1/12;
    for |theta| < 1, f = theta S / (12 s^2) and f' = 1/4 - cos(theta/2) S /
    (6 s^3) with S = _sinc_series(theta^2), and theta - sin theta =
    2 (theta/2 - sin(theta/2) cos(theta/2)) otherwise.
    """
    z = rho * rho * pz
    slope = rho * rho
    for di, ai in zip(d, a):
        if ai:
            half = 0.5 * pz * di
            sh = math.sin(half)
            ch = math.cos(half)
            if abs(half) < 0.5:
                series = _sinc_series(4.0 * half * half) / 6.0
                s = sh / half if half else 1.0
                f = half * series / (s * s)
                df = ch * series / (s * s * s)
            else:
                f = (half - sh * ch) / (4.0 * sh * sh)
                df = ch * f / sh
            z += ai * di * f
            slope += ai * di * di * (0.25 - df)
    return z, slope


def _solve_pz(d, rho, a, z, pz_cut):
    """The root of _height(p_z) = z on (-pz_cut, pz_cut).

    Safeguarded Newton (rtsafe, Numerical Recipes 9.4) with the analytic
    slope, keeping a bracket: a Newton step that leaves the bracket, or is
    not at most half the step before last, becomes a bisection step.  It
    stops when the Newton step is at most a few ulps of p_z; when a Newton
    step inside the bracket leaves an error, estimated as |z''| step^2 /
    (2 z') with z'' from the slopes at the last two iterates, below a
    sixteenth of an ulp; or when the bracket closes to adjacent floats.  It
    starts near the root (module docstring), strictly inside the bracket: on
    the cut, the height's double pole makes every Newton step tiny.
    """
    lo, hi = -pz_cut, pz_cut
    dn = d[-1]
    top = dn * (1.0 - _TOP_BLOCK_REL)
    slope0 = a_top = 0.0
    for di, ai in zip(d, a):
        slope0 += ai * di * di
        if di >= top:
            a_top += ai
    slope0 = rho * rho + slope0 / 12.0
    start = abs(z) / slope0 if slope0 else pz_cut
    excess = abs(z) - rho * rho * pz_cut
    if excess > 0.0 and a_top:
        pole = pz_cut - math.sqrt(a_top * math.pi / (dn * excess))
        start = min(start, pole) if pole > 0.0 else start
    pz = math.copysign(min(start, _START_MAX * pz_cut), z)
    step = step_old = hi - lo
    last = None  # (p_z, slope) of the iterate before
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
        if lo < newton < hi:
            curvature = abs((slope - last[1]) / (pz - last[0])) if last else math.inf
            if curvature * (newton - pz) ** 2 <= 2.0 * _PZ_LEFT * abs(newton * slope):
                return newton
            if abs(2.0 * f) <= abs(step_old * slope):
                last = pz, slope
                step_old, step = step, newton - pz
                pz = newton
                continue
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        last = pz, slope
        step_old, step = step, mid - pz
        pz = mid
    return pz


def _unit_and_residual(d, rho, u, u_norm, z, p, pz):
    """(scaled residual, length, unit frame momenta, unit p_z) of the
    momentum (p, pz) that is meant to reach frame point (u, z), |u| =
    u_norm, at time 1; the residual is taken on the closed-form endpoint of
    the unit momentum at time `length`.  u and p hold one complex number
    per block."""
    length = math.hypot(*map(abs, p), rho * pz)
    p = [v / length for v in p]
    pz /= length
    u_end, z_end = _endpoint_frame(d, rho, p, pz, length)
    miss = max([max(abs(e.real - v.real), abs(e.imag - v.imag)) for e, v in zip(u_end, u)])
    return max(miss / (1.0 + u_norm), abs(z_end - z) / (1.0 + abs(z))), length, p, pz


def _distance_frame(d, rho, uv, z):
    """The core of `distance`, in frame coordinates: (length, p, p_z) of the
    unit minimizer from the identity to the point with frame coordinates uv
    (u_x then u_y, as floats) and height z, with p one complex p_x_i + i p_y_i
    per block.  d (ascending) and rho are the metric's, as floats.  Raises
    SolverFailure when the minimizer fails its residual check."""
    n = len(d)
    size = max(max(map(abs, uv)), math.sqrt(abs(z)))
    if not size:
        return 0.0, [0j] * n, 0.0
    # Dilate a target smaller than 1/2 by (u, z) -> (2^k u, 4^k z), exact in
    # floats, to about unit size, so that neither |u_i|^2 underflows nor the
    # top-block cut-off below outweighs u.  With rho -> 2^k rho (kept below
    # 2^_RHO_EXP_MAX, so rho^2 stays finite) the minimizer keeps its p_z at
    # time 1 and every length grows by 2^k; the residual check only tightens.
    k = -math.frexp(size)[1]
    if rho:
        k = min(k, _RHO_EXP_MAX - math.frexp(rho)[1])
    if k > 0:
        uv = [math.ldexp(v, k) for v in uv]
        z = math.ldexp(z, 2 * k)
        rho = math.ldexp(rho, k)
    else:
        k = 0
    u = list(map(complex, uv[:n], uv[n:]))
    a = [v.real * v.real + v.imag * v.imag for v in u]
    u_norm = math.sqrt(sum(a))
    dn = d[-1]
    pz_cut = 2.0 * math.pi / dn
    # the top block is blocks first..n-1 (d ascending); rest is a without it
    first = n - 1
    while first and d[first - 1] >= dn * (1.0 - _TOP_BLOCK_REL):
        first -= 1
    a_top = sum(a[first:])
    rest = a[:first] + [0.0] * (n - first)

    at_cut = False
    if a_top <= (_TOP_PART_REL * (1.0 + u_norm)) ** 2:
        pz = math.copysign(pz_cut, z)
        z_limit = _height(d, rho, rest, pz)[0]
        at_cut = abs(z) >= abs(z_limit)
    if not at_cut:
        pz = _solve_pz(d, rho, a, z, pz_cut)

    p = []
    for di, ui in zip(d, u):
        half = 0.5 * pz * di
        sh = math.sin(half)
        p.append(ui * complex(math.cos(half), -sh) / (sh / half) if half else ui)
    if at_cut:
        p = p[:first] + [0j] * (n - first)
        p[-1] = complex(math.sqrt(2.0 * pz * (z - z_limit)), 0.0)
    best = _unit_and_residual(d, rho, u, u_norm, z, p, pz)
    if best[0] > 1e-3 * _RESIDUAL_TOL and not at_cut and a_top:
        top = [0.0] * first + a[first:]
        grow = (z - _height(d, rho, rest, pz)[0]) / _height(d, 0.0, top, pz)[0]
        g = math.sqrt(max(grow, 0.0))
        p = p[:first] + [v * g for v in p[first:]]
        best = min(best, _unit_and_residual(d, rho, u, u_norm, z, p, pz), key=operator.itemgetter(0))
    residual, length, p, pz = best
    if not residual <= _RESIDUAL_TOL:
        raise SolverFailure(
            f"minimizer misses the target (scaled residual {residual:.3e})",
            best_residual=residual,
        )
    return math.ldexp(length, -k), p, math.ldexp(pz, k)


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _matvec(rows, v):
    """The matrix with these rows (nested lists) times the list v."""
    return [_dot(row, v) for row in rows]


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
    uv = _matvec(c._frame_inverse, [*target.x.tolist(), *target.y.tolist()])
    length, p, pz = _distance_frame(c.d.tolist(), float(c.rho), uv, target.z)
    return length, Momentum._solved(p, pz)


def _reduce_to_domain(x, y, z, r):
    """gamma * (x, y, z) for the lattice point gamma that moves it into the
    fundamental domain x_i in [0, r_i), y_i in [0, 1), z in [-1/2, 1/2);
    x, y and r are lists of floats."""
    gx = [-ri * math.floor(xi / ri) for xi, ri in zip(x, r)]
    gy = [-math.floor(yi) for yi in y]
    z += 0.5 * _dot(gx, gy) + 0.5 * (_dot(gx, y) - _dot(gy, x))
    return [a + b for a, b in zip(x, gx)], [a + b for a, b in zip(y, gy)], z - math.floor(z + 0.5)


def quotient_distance(c: MetricLike, spec: LatticeSpec, target: GroupElement) -> float:
    """Distance from the identity coset to the coset of `target` in the
    quotient by the lattice: min over lattice translates gamma * target.

    The target is first moved into the fundamental domain, which keeps its
    coset, and the distance L to that point (w, z) seeds the bound.  A
    translate closer than L has horizontal part w + g in the ellipsoid
    |Atilde^-1 (w + g)| <= L, whose bounding box has half-width L |row i of
    Atilde| in axis i, and a height within d_n L^2 / 4 + rho L, the height a
    curve of length L reaches.  The horizontal lattice translates g in the
    ellipsoid are listed by a Fincke--Pohst closest-vector enumeration
    (`linalg._short_vectors`); each one's heights are then taken best-first
    from a heap keyed by a lower bound, the larger of |Atilde^-1 (w + g)| and
    the length needed to reach the height, nearest height first, and solved
    only while that bound beats the best distance so far.

    Raises ValueError, before searching, when the box holds more than
    QUOTIENT_BOX_LIMIT cells (horizontal cells times heights).
    """
    c = canonicalize(c)
    n = c.n
    r = [float(v) for v in spec.r]
    hx, hy, hz = _reduce_to_domain(target.x.tolist(), target.y.tolist(), target.z, r)
    w = hx + hy
    ainv = c._frame_inverse
    d = c.d.tolist()
    rho = float(c.rho)
    best = _distance_frame(d, rho, _matvec(ainv, w), hz)[0]
    if best == 0.0:
        return 0.0
    dn = d[-1]
    z_bound = dn * best * best / 4.0 + rho * best
    period = r + [1.0] * n

    cells = 1
    for wi, row, per in zip(w, c.atilde.tolist(), period):
        reach = best * math.hypot(*row)
        cells *= max(math.floor((reach - wi) / per) - math.ceil((-reach - wi) / per) + 1, 0)
    heights = 2 * math.floor(z_bound) + 2
    if cells * heights > QUOTIENT_BOX_LIMIT:
        raise ValueError(
            f"quotient search box of about {cells} x {heights} cells exceeds the limit of {QUOTIENT_BOX_LIMIT}"
        )
    # g = period * j, so with R from a QR of M = Atilde^-1 diag(period),
    # |Atilde^-1 (w + g)| = |M (j + w / period)| = |R (j + w / period)|
    R = _triangular_factor([[v * per for v, per in zip(row, period)] for row in ainv])
    points = _short_vectors(R, best * best, [-wi / per for wi, per in zip(w, period)])

    # Best-first over (lower bound, tie-break, m, step, point).  A point
    # enters with its horizontal bound alone (m None); when first popped, it
    # re-enters at its height z0 + m nearest 0, and each popped height brings
    # in the next one outward, up (step 1) or down (step -1).
    heap = sorted((math.sqrt(tot), i, None, 0, j) for i, (tot, j) in enumerate(points))
    tick = itertools.count(len(heap))

    def push(m, step, point):
        h = abs(point[1] + m)
        if h <= z_bound:
            # the smallest T with d_n T^2 / 4 + rho T >= h reaches height h
            lb = max(point[0], 2.0 * h / (math.sqrt(rho * rho + dn * h) + rho))
            if lb < best - 1e-12:
                heapq.heappush(heap, (lb, next(tick), m, step, point))

    while heap:
        lb, _, m, step, point = heapq.heappop(heap)
        if lb >= best - 1e-12:
            break
        if m is None:
            g = [per * ji for per, ji in zip(period, point)]
            gx, gy = g[:n], g[n:]
            z0 = hz + 0.5 * (_dot(gx, gy) + _dot(gx, hy) - _dot(gy, hx))
            push(round(-z0), 0, (lb, z0, list(map(operator.add, w, g)), not any(point)))
            continue
        _, z0, hw, origin = point
        if m or not origin:  # gamma = e is the seed itself
            best = min(best, _distance_frame(d, rho, _matvec(ainv, hw), z0 + m)[0])
        for s in (step,) if step else (1, -1):
            push(m + s, s, point)
    return best
