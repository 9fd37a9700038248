"""Reference computations the benchmark checks heisgeo's outputs against.

Everything here is written from the geometry of H_n, with numpy and the
standard library only; nothing imports heisgeo.  Conventions follow the
library: a metric is a (2n+1)x(2n+1) frame matrix A whose columns are an
orthonormal frame (the kernel column dropped when A has corank 1); the bracket
is [X_i, Y_i] = Z; points are exponential coordinates (x, y, z).

Distances use the one-dimensional reduction in the vertical momentum p_z.  In
frame coordinates of a canonical representative blockdiag(Atilde, rho) with
Atilde^T J Atilde = [[0, D], [-D, 0]], a target (u, z) with block energies
a_i = |u_i|^2 is reached at time 1 by exactly one normal geodesic for each
p_z in (-2 pi / d_n, 2 pi / d_n); its height is

    z(p_z) = rho^2 p_z + sum_i a_i d_i q(theta_i) / (2 s(theta_i)^2),

with theta_i = p_z d_i, q(t) = (t - sin t) / t^2 and s(t) = sin(t/2)/(t/2),
strictly increasing, and its length is
sqrt(sum_i a_i / s(theta_i)^2 + rho^2 p_z^2).  When u has no part in the top
d-block and |z| is past the limit height, the minimizer sits at the cut time
p_z = +-2 pi / d_n and the top-block momentum takes up the rest of the height.
"""

import itertools
import math

import numpy as np

_Q_SERIES_CUT = 0.5


def symplectic_j(n):
    """[[0, I_n], [-I_n, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def block_form(d):
    """[[0, diag(d)], [-diag(d), 0]]."""
    n = len(d)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.diag(d)
    out[n:, :n] = -np.diag(d)
    return out


# ---------------------------------------------------------------------------
# invariants straight from the frame matrix
# ---------------------------------------------------------------------------


def frame_invariants(A, corank):
    """(d ascending, rho, |det Atilde|) of the metric with frame matrix A.

    The horizontal complement H of the centre is the kernel complement (corank
    1) or the metric-orthogonal complement of Z (corank 0).  With W the
    (x, y)-parts of an orthonormal basis of H, W^T J W is the frame bracket
    form, whose singular values are the d_i (each twice); |det W| is
    |det Atilde| and 1/|Z| is rho.
    """
    A = np.asarray(A, dtype=np.float64)
    dim = A.shape[0]
    n = (dim - 1) // 2
    if corank == 1:
        _, _, Vt = np.linalg.svd(A)
        basis = Vt[:-1].T  # orthonormal complement of the kernel
        rho = 0.0
    else:
        zeta = np.linalg.solve(A, np.eye(dim)[:, -1])  # Z in frame coordinates
        rho = 1.0 / float(np.linalg.norm(zeta))
        q, _ = np.linalg.qr(np.column_stack([zeta, np.eye(dim)]))
        basis = q[:, 1:dim]  # orthonormal complement of zeta
    W = (A @ basis)[: 2 * n, :]
    sv = np.linalg.svd(W.T @ symplectic_j(n) @ W, compute_uv=False)
    d = np.sort(sv[::2])
    return d, rho, abs(float(np.linalg.det(W)))


def horizontal_gram_inverse(A):
    """(A_w A_w^T)^{-1}: the quotient norm on (x, y) modulo the centre."""
    A = np.asarray(A, dtype=np.float64)
    top = A[: A.shape[0] - 1, :]
    return np.linalg.inv(top @ top.T)


def koszul_ricci(A):
    """Ricci tensor of a corank-0 left-invariant metric in its frame A, from
    the structure constants alone: 2 <nabla_i e_j, e_k> = c_ij^k - c_jk^i +
    c_ki^j and Ric(j, k) = sum_i <R(e_i, e_j) e_k, e_i>."""
    A = np.asarray(A, dtype=np.float64)
    dim = A.shape[0]
    n = (dim - 1) // 2
    zcoef = np.linalg.solve(A, np.eye(dim)[:, -1])
    W = A[: 2 * n, :]
    omega = W.T @ symplectic_j(n) @ W  # [e_a, e_b] = omega_ab Z
    c = omega[:, :, None] * zcoef[None, None, :]
    G = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
    # Ric(j,k) = sum_{i,m} G[j,k,m] G[i,m,i] - G[i,k,m] G[j,m,i] - c[i,j,m] G[m,k,i]
    trace = np.einsum("imi->m", G)
    return (
        np.einsum("jkm,m->jk", G, trace)
        - np.einsum("ikm,jmi->jk", G, G)
        - np.einsum("ijm,mki->jk", c, G)
    )


def shortest_vector_norm(G):
    """Shortest nonzero norm sqrt(v^T G v) over integer v, by exhausting the
    box |v_i| <= lambda_1 sqrt((G^-1)_ii), which contains every minimizer."""
    G = np.asarray(G, dtype=np.float64)
    m = G.shape[0]
    upper = math.sqrt(float(np.min(np.diag(G))))
    Ginv = np.linalg.inv(G)
    box = [int(math.floor(upper * math.sqrt(Ginv[i, i]) + 1e-9)) for i in range(m)]
    if math.prod(2 * b + 1 for b in box) > 2_000_000:
        raise ValueError(f"brute-force box {box} too large")
    axes = [np.arange(-b, b + 1, dtype=np.float64) for b in box]
    V = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    norms = np.einsum("ij,jk,ik->i", V, G, V)
    norms[np.all(V == 0.0, axis=1)] = np.inf
    return math.sqrt(float(np.min(norms)))


def divisibility_chains(n, bound):
    """Sorted tuples r_1 | r_2 | ... | r_n with r_n <= bound."""
    chains = [(r,) for r in range(1, bound + 1)]
    for _ in range(n - 1):
        chains = [ch + (m,) for ch in chains for m in range(ch[-1], bound + 1, ch[-1])]
    return sorted(chains)


def precompactness_constants(n, covolume, D, V, K=None, mode="riemannian"):
    """C_1, C_2, C_3, C_+ and C_- of the non-collapse conditions (A-1)-(A-4)."""
    c2 = (4.0 * n * D) ** (-2 * n)
    c_plus = covolume / (V * c2)
    if mode == "riemannian":
        c3 = math.sqrt(2.0 * K) * c_plus
        c_minus = c2 ** (1.0 / n) / math.sqrt(2.0 * K)
    else:
        c3 = math.sqrt(2.0 * n) * c_plus
        c_minus = None
    c1 = c3 ** (-n) * (4.0 * n * D) ** (-(2 * n - 1))
    return {"c1": c1, "c2": c2, "c3": c3, "c_plus": c_plus, "c_minus": c_minus}


def volume_coefficients(d, rho, absdet, tilt):
    """Riemannian, Popp (v_0), tilted-subspace Popp and minimal Popp
    coefficients in the Haar frame from the invariants."""
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    delta = math.sqrt(2.0 * float(np.sum(d * d)))
    w = 1.0 + np.asarray(tilt, dtype=np.float64) ** 2
    # only the (i, n+i) pairs of the canonical bracket form are nonzero
    quad = 2.0 * float(np.sum(d * d / (w[:n] * w[n:])))
    return {
        "riemannian": math.inf if rho == 0.0 else 1.0 / (absdet * rho),
        "popp": 1.0 / (delta * absdet),
        "tilted": None if rho == 0.0 else quad**-0.5 * float(np.prod(np.sqrt(w))) / absdet,
        "minimal": min(math.inf if rho == 0.0 else 1.0 / rho, 1.0 / delta) / absdet,
    }


# ---------------------------------------------------------------------------
# closed-form endpoint and the one-dimensional distance
# ---------------------------------------------------------------------------


def _q(theta):
    """(theta - sin theta) / theta^2, by its series near 0."""
    if abs(theta) < _Q_SERIES_CUT:
        t2 = theta * theta
        term, total = theta / 6.0, 0.0
        for k in range(1, 8):  # term_k = (-1)^(k+1) theta^(2k-1) / (2k+1)!
            total += term
            term *= -t2 / ((2 * k + 2) * (2 * k + 3))
        return total
    return (theta - math.sin(theta)) / (theta * theta)


def _s(theta):
    """sin(theta/2) / (theta/2)."""
    half = 0.5 * theta
    return 1.0 if half == 0.0 else math.sin(half) / half


def endpoint(d, rho, p_h, p_z, t):
    """Frame coordinates (u, z) at time t of the normal geodesic with
    momentum (p_h, p_z); block i turns by theta_i = p_z d_i t."""
    n = len(d)
    u = np.empty(2 * n)
    z = rho * rho * p_z * t
    for i in range(n):
        px, py = float(p_h[i]), float(p_h[n + i])
        theta = p_z * float(d[i]) * t
        scale = t * _s(theta)
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        u[i] = scale * (c * px - s * py)
        u[n + i] = scale * (s * px + c * py)
        z += 0.5 * float(d[i]) * (px * px + py * py) * t * t * _q(theta)
    return u, z


def _height(d, rho, a, pz):
    z = rho * rho * pz
    for di, ai in zip(d, a):
        if ai:
            theta = pz * di
            z += ai * di * _q(theta) / (2.0 * _s(theta) ** 2)
    return z


def reference_distance(d, rho, u, z):
    """(distance, p_z) from the identity to the point with frame coordinates
    u (canonical frame, d ascending) and height z."""
    d = [float(v) for v in d]
    n = len(d)
    u = np.asarray(u, dtype=np.float64)
    a = [float(u[i] ** 2 + u[n + i] ** 2) for i in range(n)]
    if sum(a) == 0.0 and z == 0.0:
        return 0.0, 0.0
    rho = float(rho)
    dn = d[-1]
    pz_cut = 2.0 * math.pi / dn
    top = [i for i in range(n) if d[i] >= dn * (1.0 - 1e-12)]
    scale = sum(a) + abs(z) + 1e-300
    if sum(a[i] for i in top) <= 1e-28 * scale:
        rest = [0.0 if i in top else a[i] for i in range(n)]
        z_limit = _height(d, rho, rest, math.copysign(pz_cut, z))
        if abs(z) >= abs(z_limit):
            pz = math.copysign(pz_cut, z)
            length2 = sum(r / _s(pz * di) ** 2 for di, r in zip(d, rest))
            length2 += 2.0 * pz * (z - z_limit) + (rho * pz) ** 2
            return math.sqrt(length2), pz
    lo, hi = -pz_cut, pz_cut
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _height(d, rho, a, mid) < z:
            lo = mid
        else:
            hi = mid
    pz = 0.5 * (lo + hi)
    length2 = sum(ai / _s(pz * di) ** 2 for di, ai in zip(d, a)) + (rho * pz) ** 2
    return math.sqrt(length2), pz


def group_mul(g, h, n):
    """CBH product of points given as coordinate arrays (x, y, z)."""
    out = g + h
    out[-1] += 0.5 * float(g[:n] @ h[n : 2 * n] - g[n : 2 * n] @ h[:n])
    return out


def reference_quotient_distance(atilde, d, rho, r, target):
    """min over lattice translates gamma * target of reference_distance, the
    translates boxed by the horizontal bound |Atilde^-1 w| <= best and the
    vertical reach rho L + d_n L^2 / pi of a curve of length L (the curve
    closed by its chord back to the axis is at most 2L long and encloses
    symplectic area at most (2L)^2 / (4 pi))."""
    atilde = np.asarray(atilde, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = len(d)
    ainv = np.linalg.inv(atilde)
    dn = float(d[-1])

    def dist_of(h):
        return reference_distance(d, rho, ainv @ h[: 2 * n], float(h[-1]))[0]

    best = dist_of(target)
    reach = float(np.linalg.svd(atilde, compute_uv=False)[0]) * best
    z_reach = rho * best + dn * best * best / math.pi
    ranges = [
        range(math.ceil((-target[i] - reach) / r[i]), math.floor((-target[i] + reach) / r[i]) + 1)
        for i in range(n)
    ] + [
        range(math.ceil(-target[n + i] - reach), math.floor(-target[n + i] + reach) + 1)
        for i in range(n)
    ]
    for idx in itertools.product(*ranges):
        gw = np.asarray(idx, dtype=np.float64)
        gw[:n] *= np.asarray(r, dtype=np.float64)
        if np.linalg.norm(ainv @ (gw + target[: 2 * n])) >= best:
            continue
        base = group_mul(np.append(gw, 0.5 * float(gw[:n] @ gw[n:])), target, n)
        for m in range(math.ceil(-base[-1] - z_reach), math.floor(-base[-1] + z_reach) + 1):
            h = base.copy()
            h[-1] += m
            best = min(best, dist_of(h))
    return best
