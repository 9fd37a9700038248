"""Matrix kernels: skew-symmetric normal form, Hilbert--Schmidt norm, and
shortest lattice vector for a positive-definite Gram matrix."""

from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "SkewNormalForm",
    "skew_normal_form",
    "hilbert_schmidt_norm",
    "shortest_lattice_vector",
    "block_form",
]

_SKEW_TOL = 1e-10


def block_form(d):
    """[[0, diag(d)], [-diag(d), 0]] for a length-n sequence d."""
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.diag(d)
    out[n:, :n] = -np.diag(d)
    return out


@dataclass(frozen=True, eq=False)
class SkewNormalForm:
    """Orthogonal R and ascending d >= 0 with R^T S R = [[0, D], [-D, 0]]."""

    R: np.ndarray
    d: np.ndarray


def skew_normal_form(S) -> SkewNormalForm:
    """Orthogonal normal form of a real skew-symmetric matrix of even size.

    Strategy: -S^2 is symmetric positive semi-definite with each eigenvalue
    d^2 of even multiplicity.  Take an orthonormal eigenbasis, group it into
    near-equal clusters, and inside each cluster pair u with v = S u / |S u|,
    which spans an S-invariant 2-plane.  Pairs are sorted by d ascending and
    oriented so the (i, n+i) block entry is +d_i.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
        raise ValueError("expected a square matrix of even size")
    m = S.shape[0]
    scale = np.max(np.abs(S))
    if scale == 0.0:
        return SkewNormalForm(np.eye(m), np.zeros(m // 2))
    if np.max(np.abs(S + S.T)) > _SKEW_TOL * scale:
        raise ValueError("matrix is not skew-symmetric within tolerance")

    M = -(S @ S)
    M = 0.5 * (M + M.T)
    evals, Q = np.linalg.eigh(M)
    dvals = np.sqrt(np.clip(evals, 0.0, None))  # ascending, each value twice

    # Cluster nearly equal d values; chained gaps stay far below the
    # contractual 1e-9 relative residual.
    tol = 1e-10 * max(dvals[-1], 1.0) + 1e-300
    clusters = []
    start = 0
    for i in range(1, m):
        if dvals[i] - dvals[i - 1] > tol:
            clusters.append((start, i))
            start = i
    clusters.append((start, m))

    pairs = []  # (d, u, v)
    for lo, hi in clusters:
        basis = [Q[:, j].copy() for j in range(lo, hi)]
        if dvals[lo] <= tol:
            # kernel cluster: any orthonormal pairing works
            if len(basis) % 2 != 0:
                raise ValueError("skew matrix has odd-dimensional kernel cluster")
            half = len(basis) // 2
            for j in range(half):
                pairs.append((0.0, basis[j], basis[half + j]))
            continue
        while basis:
            u = basis.pop(0)
            w = S @ u
            dval = float(np.linalg.norm(w))
            v = w / dval
            pairs.append((dval, u, v))
            if basis:
                # project {u, v} out of the remainder; one direction dies, so
                # re-orthonormalize through an SVD (rank-revealing, unlike QR)
                B = np.stack(basis, axis=1)
                B -= np.outer(u, u @ B)
                B -= np.outer(v, v @ B)
                Qb, _, _ = np.linalg.svd(B, full_matrices=False)
                basis = [Qb[:, j].copy() for j in range(len(basis) - 1)]

    pairs.sort(key=lambda p: p[0])
    n = m // 2
    R = np.empty((m, m))
    d = np.empty(n)
    for i, (dval, u, v) in enumerate(pairs):
        d[i] = dval
        R[:, i] = u
        R[:, n + i] = -v  # orientation: u^T S (-v) = +d
    return SkewNormalForm(R, d)


def hilbert_schmidt_norm(M) -> float:
    """sqrt(sum of squared entries)."""
    M = np.asarray(M, dtype=np.float64)
    return float(np.linalg.norm(M, "fro"))


def _lll_reduce(G, delta=0.99, max_iter=10000):
    """LLL reduction of a Gram matrix.  Returns (G_red, U) with
    G_red = U^T G U and U unimodular (integer, det +-1)."""
    m = G.shape[0]
    U = np.eye(m, dtype=np.int64)
    Gc = G.copy()

    def gso(Gc):
        mu = np.zeros((m, m))
        B = np.zeros(m)
        for i in range(m):
            B[i] = Gc[i, i]
            for j in range(i):
                mu[i, j] = Gc[i, j]
                for k in range(j):
                    mu[i, j] -= mu[i, k] * mu[j, k] * B[k]
                mu[i, j] /= B[j]
                B[i] -= mu[i, j] ** 2 * B[j]
        return mu, B

    def apply_col(U, Gc, i, j, q):
        # col_i -= q * col_j
        U[:, i] -= q * U[:, j]
        Gc[:, i] -= q * Gc[:, j]
        Gc[i, :] -= q * Gc[j, :]

    it = 0
    i = 1
    while i < m:
        it += 1
        if it > max_iter:
            raise RuntimeError("LLL failed to terminate")
        mu, B = gso(Gc)
        for j in range(i - 1, -1, -1):
            q = int(round(mu[i, j]))
            if q != 0:
                apply_col(U, Gc, i, j, q)
                mu, B = gso(Gc)
        if B[i] < (delta - mu[i, i - 1] ** 2) * B[i - 1]:
            U[:, [i - 1, i]] = U[:, [i, i - 1]]
            Gc[:, [i - 1, i]] = Gc[:, [i, i - 1]]
            Gc[[i - 1, i], :] = Gc[[i, i - 1], :]
            i = max(i - 1, 1)
        else:
            i += 1
    return Gc, U


def shortest_lattice_vector(gram):
    """Shortest nonzero vector of the integer lattice with Gram matrix `gram`.

    Returns (coeffs, norm) where coeffs is the integer coefficient vector
    minimizing sqrt(v^T gram v).  Ties (within 1e-12 relative) resolve to the
    lexicographically smallest coefficient vector, which makes the output
    deterministic even though -v is always a co-minimizer.

    Raises ValueError unless gram is square, symmetric and positive definite,
    and RuntimeError if the LLL reduction does not terminate.
    """
    G = np.asarray(gram, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("gram must be a square matrix")
    if np.max(np.abs(G - G.T)) > 1e-9 * max(np.max(np.abs(G)), 1e-300):
        raise ValueError("gram must be symmetric")
    evals = np.linalg.eigvalsh(G)
    if evals[0] <= 1e-12 * evals[-1]:
        raise ValueError("gram must be positive definite")

    G = 0.5 * (G + G.T)
    Gr, U = _lll_reduce(G)
    R = np.linalg.cholesky(Gr).T  # upper triangular, Gr = R^T R
    c_init = float(np.min(np.diag(Gr)))
    _, v = _kernels.svp_enumerate(R, U.astype(np.float64), c_init)
    coeffs = np.rint(v).astype(np.int64)
    norm = float(np.sqrt(coeffs @ G @ coeffs))
    return coeffs, norm
