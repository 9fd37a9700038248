"""Hot numerical kernels, in numpy.

* ``rk4_flow`` -- fixed-step RK4 integration of the left-invariant
  Hamiltonian system in frame coordinates (geodesic flow oracle), over a
  batch of independent trajectories.
* ``svp_enumerate`` -- depth-first Fincke--Pohst enumeration of the shortest
  nonzero vector of a positive-definite Gram matrix given its Cholesky
  factor, with a deterministic lexicographic tie-break.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# RK4 geodesic flow
#
# State (u, z, h): u are horizontal coordinates in the orthonormal frame,
# z the vertical coordinate, h the horizontal frame momenta.  The vertical
# momentum pz is a constant of motion.
#
#   du/dt    = h
#   dh_i/dt  = -pz * d_i * h_{n+i},   dh_{n+i}/dt = pz * d_i * h_i
#   dz/dt    = rho^2 * pz + (1/2) sum_i d_i (u_i h_{n+i} - u_{n+i} h_i)
# ---------------------------------------------------------------------------


def rk4_flow(p_h, pz, rho, d, t, steps, samples=1):
    """Integrate B trajectories from u = 0, z = 0, h = p_h over [0, t] in
    `steps` equal RK4 steps.

    p_h: (B, 2n); pz, rho, t: (B,); d: (B, n).  Returns u: (B, 2n), z: (B,)
    and h_at: (B, samples, 2n), the momenta after steps
    max(1, round(steps * j / samples)) for j = 1..samples, so the last sample
    is the final momentum.  Rows do not interact: each row gets the same
    floating-point operations as a one-row call.
    """
    h0 = np.asarray(p_h, dtype=np.float64)
    B, m = h0.shape
    n = m // 2
    pz = np.asarray(pz, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    dt = (np.asarray(t, dtype=np.float64) / steps)[:, None]
    half = 0.5 * dt
    sixth = dt / 6.0
    drift = rho * rho * pz
    half_d = 0.5 * d
    rot = np.concatenate([-pz[:, None] * d, pz[:, None] * d], axis=1)
    swap = np.r_[m + n : 2 * m, m : m + n]

    # one row per trajectory: columns u (0..m-1), h (m..2m-1), z (2m)
    s = np.zeros((B, 2 * m + 1))
    s[:, m : 2 * m] = h0

    def f(s):
        k = np.empty_like(s)
        k[:, :m] = s[:, m : 2 * m]
        h_swapped = s.take(swap, axis=1)
        np.multiply(rot, h_swapped, out=k[:, m : 2 * m])
        cross = s[:, :m] * h_swapped
        k[:, 2 * m] = drift + np.vecdot(half_d, cross[:, :n] - cross[:, n:])
        return k

    marks = [max(1, round(steps * j / samples)) for j in range(1, samples + 1)]
    seen = dict.fromkeys(marks)
    for step in range(1, steps + 1):
        k1 = f(s)
        k2 = f(s + half * k1)
        k3 = f(s + half * k2)
        k4 = f(s + dt * k3)
        s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in seen:
            # s is rebound each step, never written in place, so this view
            # keeps the momenta of this step
            seen[step] = s[:, m : 2 * m]
    h_at = np.stack([seen[k] for k in marks], axis=1)
    return s[:, :m], s[:, 2 * m], h_at


# ---------------------------------------------------------------------------
# Fincke--Pohst enumeration
#
# R is the upper-triangular Cholesky factor of an (LLL-reduced) Gram matrix,
# U the unimodular change of basis back to the caller's coordinates and
# c_init an upper bound on the minimal squared norm (some basis vector).
# Returns (best squared norm, coefficient vector in caller coordinates);
# among equal-norm minimizers the lexicographically smallest coefficient
# vector wins.
# ---------------------------------------------------------------------------

_TIE_REL = 1e-12


def _lex_smaller(a, b, m):
    for j in range(m):
        if a[j] < b[j] - 0.5:
            return True
        if a[j] > b[j] + 0.5:
            return False
    return False


def svp_enumerate(R, U, c_init):
    m = R.shape[0]
    x = np.zeros(m, dtype=np.int64)
    hi = np.zeros(m, dtype=np.int64)
    s = np.zeros(m)
    acc = np.zeros(m)
    v = np.empty(m)

    best_norm2 = np.inf
    bound = c_init * (1.0 + 1e-9) + 1e-300
    best_v = np.zeros(m)
    has_best = False

    i = m - 1
    acc[i] = 0.0
    s[i] = 0.0
    halfw = math.sqrt(bound)
    x[i] = int(math.ceil(-halfw / R[i, i] - 1e-9)) - 1
    hi[i] = int(math.floor(halfw / R[i, i] + 1e-9))

    while True:
        x[i] += 1
        if x[i] > hi[i]:
            i += 1
            if i >= m:
                break
            continue
        contrib = (R[i, i] * x[i] + s[i]) ** 2
        tot = acc[i] + contrib
        if tot > bound:
            continue
        if i == 0:
            nonzero = False
            for j in range(m):
                if x[j] != 0:
                    nonzero = True
                    break
            if not nonzero:
                continue
            for j in range(m):
                acc_v = 0.0
                for k in range(m):
                    acc_v += U[j, k] * x[k]
                v[j] = acc_v
            if (not has_best) or tot < best_norm2 * (1.0 - _TIE_REL):
                best_norm2 = tot
                bound = tot * (1.0 + 2.0 * _TIE_REL)
                best_v[:] = v
                has_best = True
            elif tot <= best_norm2 * (1.0 + _TIE_REL):
                if _lex_smaller(v, best_v, m):
                    best_v[:] = v
                if tot < best_norm2:
                    best_norm2 = tot
                    bound = tot * (1.0 + 2.0 * _TIE_REL)
            continue
        i -= 1
        acc[i] = tot
        ssum = 0.0
        for j in range(i + 1, m):
            ssum += R[i, j] * x[j]
        s[i] = ssum
        rem = bound - acc[i]
        halfw = math.sqrt(rem if rem > 0.0 else 0.0)
        x[i] = int(math.ceil((-halfw - ssum) / R[i, i] - 1e-9)) - 1
        hi[i] = int(math.floor((halfw - ssum) / R[i, i] + 1e-9))

    return best_norm2, best_v
