"""The RK4 geodesic-flow kernel, in numpy.

* ``rk4_flow`` -- fixed-step RK4 integration of the left-invariant
  Hamiltonian system in frame coordinates (geodesic flow oracle), over a
  batch of independent trajectories.  Each row is integrated in two passes
  over chunks of ``RK4_CHUNK`` steps: a scalar recursion for the momenta,
  then numpy prefix sums for the position; memory is bounded by the chunk,
  not by the number of steps.
"""

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
#
# The system is triangular: h never sees u or z, u sees only h, and z sees
# u and h.  So the RK4 stage momenta of every step follow from h alone, and
# u and z are running sums of per-step increments.  Each chunk of steps is
# integrated in two passes:
#
# 1. Per block, h_i + i h_{n+i} is a complex number and its RK4 step is the
#    textbook four-stage recursion with w = i pz d_i, in Python complex
#    scalars.  w has a zero real part and the stage scale factors are real,
#    so every complex product rounds exactly like the real products
#    (-pz d_i) h_{n+i} and (pz d_i) h_i of the stage-by-stage scheme: the
#    momenta come out with the same bits.
# 2. Over the whole chunk in numpy: the stage momenta are recomputed from
#    the momenta at the start of each step (same bits again), the per-step
#    increments of u and z are formed as in the stage-by-stage scheme, and
#    np.cumsum adds them up in step order.  The state carried in from the
#    previous chunk goes into the first increment, so every partial sum is
#    the stage-by-stage sum u + du.
# ---------------------------------------------------------------------------

RK4_CHUNK = 1024


def rk4_flow(p_h, pz, rho, d, t, steps, samples=1):
    """Integrate B trajectories from u = 0, z = 0, h = p_h over [0, t] in
    `steps` equal RK4 steps.

    p_h: (B, 2n); pz, rho, t: (B,); d: (B, n); steps and samples are ints
    >= 1 (the public callers check them).  Returns u: (B, 2n), z: (B,)
    and h_at: (B, samples, 2n), the momenta after steps
    max(1, round(steps * j / samples)) for j = 1..samples, so the last sample
    is the final momentum.  Rows do not interact: each row gets the same
    floating-point operations as a one-row call.
    """
    p_h = np.asarray(p_h, dtype=np.float64)
    B, m = p_h.shape
    pz = np.asarray(pz, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    marks = [max(1, round(steps * j / samples)) for j in range(1, samples + 1)]
    u = np.empty((B, m))
    z = np.empty(B)
    h_at = np.empty((B, samples, m))
    for b in range(B):
        u[b], z[b] = _rk4_row(p_h[b], pz[b], rho[b], d[b], t[b] / steps, steps, marks, h_at[b])
    return u, z, h_at


def _rk4_row(h0, pz, rho, d, dt, steps, marks, h_at):
    """One trajectory with step dt; writes the momenta after step marks[j]
    into h_at[j] and returns the final (u, z)."""
    n = d.shape[0]
    half = 0.5 * dt
    sixth = dt / 6.0
    drift = rho * rho * pz
    half_d = 0.5 * d
    rot = np.concatenate([-pz * d, pz * d])
    swap = np.r_[n : 2 * n, :n]

    def zdot(u, h):
        cross = u * h[:, swap]
        return drift + np.vecdot(half_d, cross[:, :n] - cross[:, n:])

    w = [complex(0.0, a) for a in (pz * d).tolist()]
    hc = [complex(x, y) for x, y in zip(h0[:n].tolist(), h0[n:].tolist())]
    c_half, c_dt, c_sixth = float(half), float(dt), float(sixth)
    u = np.zeros(2 * n)
    z = 0.0
    j = 0
    for start in range(0, steps, RK4_CHUNK):
        size = min(RK4_CHUNK, steps - start)
        # pass 1: H[k] is the momentum after step start + k
        H = np.empty((size + 1, 2 * n))
        for i in range(n):
            wi, h = w[i], hc[i]
            col = [h]
            for _ in range(size):
                k1 = wi * h
                k2 = wi * (h + c_half * k1)
                k3 = wi * (h + c_half * k2)
                k4 = wi * (h + c_dt * k3)
                h = h + c_sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                col.append(h)
            hc[i] = h
            col = np.array(col)
            H[:, i] = col.real
            H[:, n + i] = col.imag
        while j < len(marks) and marks[j] <= start + size:
            h_at[j] = H[marks[j] - start]
            j += 1
        # pass 2: the u and z increments of every step of the chunk
        h1 = H[:-1]
        h2 = h1 + half * (rot * h1[:, swap])
        h3 = h1 + half * (rot * h2[:, swap])
        h4 = h1 + dt * (rot * h3[:, swap])
        du = sixth * (h1 + 2.0 * h2 + 2.0 * h3 + h4)
        du[0] += u
        U = np.cumsum(du, axis=0)
        u0 = np.concatenate([u[None], U[:-1]])
        dz = sixth * (
            zdot(u0, h1)
            + 2.0 * zdot(u0 + half * h1, h2)
            + 2.0 * zdot(u0 + half * h2, h3)
            + zdot(u0 + dt * h3, h4)
        )
        dz[0] += z
        u = U[-1]
        z = np.cumsum(dz)[-1]
    return u, z

