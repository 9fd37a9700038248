import itertools

import numpy as np


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def random_corank0(rng, n, scale=5.0, cond_max=1e4):
    """Random invertible (2n+1) metric matrix with bounded condition number."""
    dim = 2 * n + 1
    while True:
        A = rng.uniform(-scale, scale, size=(dim, dim))
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 1e-3 and s[0] / s[-1] <= cond_max:
            return A


def random_corank1(rng, n, scale=5.0, cond_max=1e4):
    """Random corank-1 metric matrix with bracket-generating image."""
    dim = 2 * n + 1
    while True:
        atilde = rng.uniform(-scale, scale, size=(dim - 1, dim - 1))
        s = np.linalg.svd(atilde, compute_uv=False)
        if s[-1] <= 1e-3 or s[0] / s[-1] > cond_max:
            continue
        A = np.zeros((dim, dim))
        A[: dim - 1, : dim - 1] = atilde
        A[-1, : dim - 1] = rng.uniform(-scale, scale, size=dim - 1)
        # scramble by a right rotation so the kernel is not axis-aligned
        return A @ random_orthogonal(rng, dim)


def random_unimodular(rng, m, steps=8, entry_bound=3):
    """Product of integer elementary operations: det +-1, small entries."""
    U = np.eye(m, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        q = int(rng.integers(-entry_bound, entry_bound + 1))
        V = np.eye(m, dtype=np.int64)
        V[i, j] = q
        U = U @ V
    if rng.integers(0, 2):
        U[:, 0] *= -1
    return U


def random_int_symplectic(rng, n, factors=4, entry_bound=2):
    """Random element of Sp(2n, Z) as a product of standard generators."""
    m = 2 * n
    J = np.zeros((m, m), dtype=np.int64)
    J[:n, n:] = np.eye(n, dtype=np.int64)
    J[n:, :n] = -np.eye(n, dtype=np.int64)
    out = np.eye(m, dtype=np.int64)
    for _ in range(factors):
        kind = rng.integers(0, 3)
        if kind == 0:
            B = rng.integers(-entry_bound, entry_bound + 1, size=(n, n))
            B = B + B.T
            g = np.eye(m, dtype=np.int64)
            g[:n, n:] = B
        elif kind == 1:
            B = rng.integers(-entry_bound, entry_bound + 1, size=(n, n))
            B = B + B.T
            g = np.eye(m, dtype=np.int64)
            g[n:, :n] = B
        else:
            g = J
        out = out @ g
    return out


def koszul_ricci(A):
    """Independent Ricci oracle for the left-invariant metric whose
    orthonormal frame is the columns of A (corank 0).

    Built only from structure constants and the Koszul formula:
    2 <nabla_i e_j, e_k> = c_ij^k - c_jk^i + c_ki^j, then
    Ric(j, k) = sum_i <R(e_i, e_j) e_k, e_i> with
    R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X, Y].
    """
    dim = A.shape[0]
    n = (dim - 1) // 2
    zcoef = np.linalg.solve(A, np.eye(dim)[:, -1])
    c = np.zeros((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            ca, cb = A[:, a], A[:, b]
            s = np.dot(ca[:n], cb[n : 2 * n]) - np.dot(ca[n : 2 * n], cb[:n])
            c[a, b, :] = s * zcoef
    G = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                G[i, j, k] = 0.5 * (c[i, j, k] - c[j, k, i] + c[k, i, j])
    Ric = np.zeros((dim, dim))
    for j in range(dim):
        for k in range(dim):
            tot = 0.0
            for i in range(dim):
                for mm in range(dim):
                    tot += (
                        G[j, k, mm] * G[i, mm, i]
                        - G[i, k, mm] * G[j, mm, i]
                        - c[i, j, mm] * G[mm, k, i]
                    )
            Ric[j, k] = tot
    return Ric


def brute_force_shortest(G, box=25):
    """Exhaustive minimum of sqrt(v^T G v) over 0 != v with |v|_inf <= box."""
    m = G.shape[0]
    rest = np.array(list(itertools.product(range(-box, box + 1), repeat=m - 1)), dtype=np.float64)
    best = np.inf
    for a in range(-box, box + 1):
        V = np.concatenate([np.full((rest.shape[0], 1), float(a)), rest], axis=1)
        norms = np.einsum("ij,jk,ik->i", V, G, V)
        if a == 0:
            norms[np.all(V == 0.0, axis=1)] = np.inf
        best = min(best, float(np.min(norms)))
    return float(np.sqrt(best))
