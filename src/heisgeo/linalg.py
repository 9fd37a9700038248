"""Matrix kernels: skew-symmetric normal form, and the shortest vector of
the integer lattice with a positive-definite Gram matrix (LLL on the Cholesky
factor, then Fincke--Pohst enumeration in Python floats)."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SkewNormalForm",
    "skew_normal_form",
    "shortest_lattice_vector",
    "block_form",
]

_SKEW_TOL = 1e-10
# relative gap under which two squared norms count as a tie
_TIE_REL = 1e-12


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
    """Orthogonal R and ascending d >= 0 with R^T S R = [[0, D], [-D, 0]];
    for a stack of matrices, R and d are stacked the same way."""

    R: np.ndarray
    d: np.ndarray


def skew_normal_form(S) -> SkewNormalForm:
    """Orthogonal normal form of a real skew-symmetric matrix of even size,
    or of every matrix of an (N, m, m) stack at once.

    Strategy: -S^2 is symmetric positive semi-definite with each eigenvalue
    d^2 of even multiplicity.  Take an orthonormal eigenbasis (one stacked
    `eigh`), group it into near-equal clusters, and inside each cluster pair
    u with v = S u / |S u|, which spans an S-invariant 2-plane.  Pairs are
    sorted by d ascending and oriented so the (i, n+i) block entry is +d_i.
    A cluster of exactly two positive values is one such pair, so matrices
    whose clusters are all pairs are paired in one stacked step; the others
    go through the Gram--Schmidt loop one at a time.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim not in (2, 3) or S.shape[-1] != S.shape[-2] or S.shape[-1] % 2 != 0:
        raise ValueError("expected a square matrix of even size")
    if S.ndim == 2:
        nf = skew_normal_form(S[None])
        return SkewNormalForm(nf.R[0], nf.d[0])
    m = S.shape[-1]
    n = m // 2
    scale = np.abs(S).max(axis=(1, 2))
    if (np.abs(S + S.transpose(0, 2, 1)).max(axis=(1, 2)) > _SKEW_TOL * scale).any():
        raise ValueError("matrix is not skew-symmetric within tolerance")

    M = -(S @ S)
    M = 0.5 * (M + M.transpose(0, 2, 1))
    evals, Q = np.linalg.eigh(M)
    dvals = np.sqrt(np.maximum(evals, 0.0))  # ascending, each value twice

    # Cluster nearly equal d values; chained gaps stay far below the
    # contractual 1e-9 relative residual.
    tol = 1e-10 * np.maximum(dvals[:, -1], 1.0) + 1e-300
    split = dvals[:, 1:] - dvals[:, :-1] > tol[:, None]
    # every cluster is a pair of positive values: splits after the 2nd, 4th, ...
    paired = (split == (np.arange(1, m) % 2 == 0)).all(axis=1) & (dvals[:, 0] > tol)
    R = np.empty_like(S)
    d = np.empty((S.shape[0], n))
    rows = np.flatnonzero(paired)
    if rows.size:
        if rows.size == S.shape[0]:
            rows = slice(None)
        # u is the first eigenvector of each pair; the pairs are already in
        # ascending order, as they are separated by more than tol
        U = Q[rows, :, 0::2]
        W = S[rows] @ U
        d[rows] = np.sqrt((W * W).sum(axis=1))
        R[rows, :, :n] = U
        R[rows, :, n:] = -W / d[rows][:, None, :]  # orientation: u^T S (-v) = +d
    for i in np.flatnonzero(~paired):
        if scale[i] == 0.0:
            R[i], d[i] = np.eye(m), 0.0
        else:
            R[i], d[i] = _pair_clusters(S[i], dvals[i], Q[i], tol[i])
    return SkewNormalForm(R, d)


def _pair_clusters(S, dvals, Q, tol):
    """R and d of one skew matrix from the eigenbasis Q of -S^2, cluster by
    cluster: a kernel cluster is paired as it stands, any other one vector
    at a time, re-orthonormalizing the rest after each pair."""
    m = S.shape[0]
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
            if len(basis) > 1:
                # project {u, v} out of the remainder; one direction dies, so
                # re-orthonormalize through an SVD (rank-revealing, unlike QR)
                B = np.stack(basis, axis=1)
                B -= np.outer(u, u @ B)
                B -= np.outer(v, v @ B)
                Qb, _, _ = np.linalg.svd(B, full_matrices=False)
                basis = [Qb[:, j].copy() for j in range(len(basis) - 1)]
            else:
                # a vector left over is +-v, already paired
                basis = []

    pairs.sort(key=lambda p: p[0])
    n = m // 2
    R = np.empty((m, m))
    d = np.empty(n)
    for i, (dval, u, v) in enumerate(pairs):
        d[i] = dval
        R[:, i] = u
        R[:, n + i] = -v  # orientation: u^T S (-v) = +d
    return R, d


def _lll_reduce(G, delta=0.99, max_iter=10000):
    """LLL reduction of a Gram matrix.  Returns (G_red, U) with
    G_red = U^T G U and U unimodular (integer, det +-1).

    Row k of L = cholesky(G_red) is basis vector k in its Gram--Schmidt
    frame, so mu_kj = L_kj / L_jj and |b*_k|^2 = L_kk^2, and a size-reduction
    step b_i -= q b_j subtracts q times row j of L from row i.  L is
    refactorized only after a swap (Cohen, A Course in Computational
    Algebraic Number Theory, 2.6).  Rows of L and of the basis are Python
    lists: at these sizes numpy's per-call cost exceeds the arithmetic.
    """
    m = G.shape[0]
    basis = np.eye(m, dtype=np.int64).tolist()  # row k: coefficients of b_k
    L = np.linalg.cholesky(G).tolist()
    it = 0
    i = 1
    while i < m:
        it += 1
        if it > max_iter:
            raise RuntimeError("LLL failed to terminate")
        Li, bi = L[i], basis[i]
        for j in range(i - 1, -1, -1):
            q = round(Li[j] / L[j][j])
            if q:
                Lj = L[j]
                for k in range(j + 1):
                    Li[k] -= q * Lj[k]
                basis[i] = bi = [a - q * b for a, b in zip(bi, basis[j])]
        if Li[i] ** 2 + Li[i - 1] ** 2 < delta * L[i - 1][i - 1] ** 2:
            basis[i - 1], basis[i] = bi, basis[i - 1]
            B = np.array(basis, dtype=np.float64)
            L = np.linalg.cholesky(B @ G @ B.T).tolist()
            i = max(i - 1, 1)
        else:
            i += 1
    U = np.array(basis, dtype=np.int64).T
    return U.T @ G @ U, U


def _short_vectors(R, bound):
    """Every nonzero integer x with |R x|^2 <= bound, as (|R x|^2, x) pairs,
    for an upper-triangular R given as nested lists: depth-first
    Fincke--Pohst enumeration (Math. Comp. 44, 1985), last coordinate first."""
    m = len(R)
    x = [0] * m
    found = []

    def search(i, acc):
        s = sum(R[i][j] * x[j] for j in range(i + 1, m))
        r = R[i][i]
        half = math.sqrt(max(bound - acc, 0.0))
        for xi in range(math.ceil((-half - s) / r - 1e-9), math.floor((half - s) / r + 1e-9) + 1):
            tot = acc + (r * xi + s) ** 2
            if tot > bound:
                continue
            x[i] = xi
            if i > 0:
                search(i - 1, tot)
            elif any(x):
                found.append((tot, x.copy()))

    search(m - 1, 0.0)
    return found


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
    # the shortest reduced basis vector bounds the minimum
    bound = float(np.min(np.diag(Gr))) * (1.0 + 1e-9)
    found = _short_vectors(np.linalg.cholesky(Gr).T.tolist(), bound)
    least = min(tot for tot, _ in found)
    ties = [(U @ x).tolist() for tot, x in found if tot <= least * (1.0 + _TIE_REL)]
    coeffs = np.array(min(ties), dtype=np.int64)
    norm = float(np.sqrt(coeffs @ G @ coeffs))
    return coeffs, norm
