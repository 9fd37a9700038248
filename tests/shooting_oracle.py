"""Multi-start shooting: an independent oracle for `heisgeo.geodesics.distance`.

This was the library's distance solver before the one-dimensional reduction
in p_z replaced it.  It knows nothing of that reduction: it seeds a grid of
momenta, polishes the best starts with `scipy.optimize.root` on the
closed-form endpoint map at time 1, discards roots past their cut time and
keeps the shortest.  It can miss (too coarse a grid, every root past the cut
time) and then raises SolverFailure with the best residual it saw.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from heisgeo.errors import SolverFailure
from heisgeo.geodesics import Momentum
from heisgeo.metric import canonicalize


def _one_minus_sinc(theta):
    """1 - sin(theta)/theta, elementwise; by its alternating series through
    theta^14 on |theta| < 1, where the direct formula would lose ~8 digits."""
    theta = np.asarray(theta, dtype=np.float64)
    t2 = theta * theta
    series = 1.0 - t2 / 20.0 * (
        1.0 - t2 / 42.0 * (1.0 - t2 / 72.0 * (1.0 - t2 / 110.0 * (1.0 - t2 / 156.0 * (1.0 - t2 / 210.0))))
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = 1.0 - np.sin(theta) / theta
    return np.where(np.abs(theta) < 1.0, t2 / 6.0 * series, direct)


def endpoint_frame(d, rho, ph, pz, t):
    """Closed-form endpoint in frame coordinates, vectorized over momenta:
    the oracle's own numpy copy of the library's per-block endpoint.

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


@dataclass
class SolverOptions:
    """grid_size is the number of closed-form endpoint evaluations used to
    seed the root finder; refine_starts of them (best residual first) are
    polished with a quasi-Newton solve.  seed perturbs the deterministic
    grid."""

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


def shooting_distance(c, target, opts: Optional[SolverOptions] = None):
    """(distance, unit momentum) from the identity to `target`, or
    SolverFailure when no start converges to a root before its cut time."""
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
    u_end, z_end = endpoint_frame(d, rho, ph_all, pz_all, 1.0)
    res = np.sum(((u_end - u_t) / su) ** 2, axis=1) + ((z_end - z_t) / sz) ** 2
    order = np.argsort(res)

    def fun(q):
        u, z = endpoint_frame(d, rho, q[:-1], np.float64(q[-1]), 1.0)
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
