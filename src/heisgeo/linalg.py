"""Matrix kernels: skew-symmetric normal form, and the shortest vector of
the integer lattice with a positive-definite Gram matrix (LLL, then
Fincke--Pohst enumeration, in Python floats)."""

import math
import operator
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
    or of every matrix of an (N, m, m) stack at once: validated, divided by
    a power of two near its largest entry (exact), reduced by
    `_skew_normal_form`, and d scaled back exactly."""
    S = np.asarray(S, dtype=np.float64)
    if S.ndim not in (2, 3) or S.shape[-1] != S.shape[-2] or S.shape[-1] % 2 != 0:
        raise ValueError("expected a square matrix of even size")
    stack = S if S.ndim == 3 else S[None]
    scale = np.abs(stack).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        raise ValueError("matrix entries must be finite")
    if (np.abs(stack + stack.transpose(0, 2, 1)).max(axis=(1, 2)) > _SKEW_TOL * scale).any():
        raise ValueError("matrix is not skew-symmetric within tolerance")
    e = np.frexp(scale)[1] - 1
    R, d = _skew_normal_form(np.ldexp(stack, -e[:, None, None]))
    d = np.ldexp(d, e[:, None])
    return SkewNormalForm(R, d) if S.ndim == 3 else SkewNormalForm(R[0], d[0])


def _skew_normal_form(S):
    """(R, d) of an (N, m, m) stack of finite skew matrices, unchecked.

    -S^2 = S S^T is positive semi-definite, each eigenvalue d^2 twice.  One
    stacked `eigh` (which reads one triangle) gives an eigenbasis; clusters
    of d within 1e-10 d_max pair u with v = S u / |S u|, an S-invariant
    2-plane, sorted by d and oriented so the (i, n+i) entry is +d_i.  A stack
    whose clusters are all pairs of positive d is paired in one stacked step;
    other members go through the Gram--Schmidt loop one at a time."""
    evals, Q = np.linalg.eigh(S @ S.transpose(0, 2, 1))
    dvals = np.sqrt(np.maximum(evals, 0.0)).tolist()  # ascending, each value twice
    # chained gaps within a cluster stay far below the contractual 1e-9
    # relative residual
    tols = [_SKEW_TOL * dv[-1] for dv in dvals]
    paired = [_pairs_only(dv, tol) for dv, tol in zip(dvals, tols)]
    rows = slice(None) if all(paired) else [i for i, p in enumerate(paired) if p]
    # u is the first eigenvector of each pair; pairs are already ascending
    U = Q[rows, :, 0::2]
    W = S[rows] @ U
    d = np.sqrt(np.add.reduce(W * W, axis=1))
    R = np.concatenate((U, W / -d[:, None, :]), axis=2)  # orientation: u^T S (-v) = +d
    if isinstance(rows, slice):
        return R, d
    R_all, d_all = np.empty_like(S), np.empty((len(S), S.shape[-1] // 2))
    R_all[rows], d_all[rows] = R, d
    for i in (i for i, p in enumerate(paired) if not p):
        R_all[i], d_all[i] = _pair_clusters(S[i], dvals[i], Q[i], tols[i])
    return R_all, d_all


def _pairs_only(dv, tol):
    """Whether ascending dv (each d twice) clusters into positive pairs."""
    gaps = [b - a for a, b in zip(dv, dv[1:])]
    return dv[0] > tol and max(gaps[0::2]) <= tol and all(g > tol for g in gaps[1::2])


def _pair_clusters(S, dvals, Q, tol):
    """R and d of one skew matrix from the eigenbasis Q of -S^2, cluster by
    cluster: a kernel cluster is paired as it stands, any other one vector
    at a time, re-orthonormalizing the rest after each pair."""
    m = S.shape[0]
    cuts = [0] + [i for i in range(1, m) if dvals[i] - dvals[i - 1] > tol] + [m]
    pairs = []  # (d, u, v)
    for lo, hi in zip(cuts, cuts[1:]):
        basis = [Q[:, j].copy() for j in range(lo, hi)]
        if dvals[lo] <= tol:
            # kernel cluster: any orthonormal pairing works; this one keeps
            # the eigenbasis (the identity for a zero matrix)
            if len(basis) % 2 != 0:
                raise ValueError("skew matrix has odd-dimensional kernel cluster")
            half = len(basis) // 2
            pairs += [(0.0, basis[j], -basis[half + j]) for j in range(half)]
            continue
        while basis:
            u = basis.pop(0)
            w = S @ u
            dval = float(np.linalg.norm(w))
            v = w / dval
            pairs.append((dval, u, v))
            if len(basis) <= 1:
                break  # a vector left over is +-v, already paired
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
    return R, d


def _lll_reduce(G, delta=0.99, max_iter=10000):
    """LLL reduction of a Gram matrix.  Returns (G_red, U) with
    G_red = U^T G U and U unimodular (integer, det +-1).

    The Gram--Schmidt data mu_kj and B_k = |b*_k|^2 are read off one
    Cholesky factor L of G (mu_kj = L_kj / L_jj, B_k = L_kk^2) and then kept
    in Python lists: a size-reduction step b_i -= q b_j subtracts q times
    row j of mu from row i, and a swap of b_{i-1} and b_i updates mu and B in
    O(m) (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982; Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.6.3).  At these sizes
    numpy's per-call cost exceeds the arithmetic, so the loop makes no numpy
    call.
    """
    m = G.shape[0]
    L = np.linalg.cholesky(G).tolist()
    B = [row[k] * row[k] for k, row in enumerate(L)]
    mu = [[v / L[j][j] for j, v in enumerate(row[:k])] for k, row in enumerate(L)]
    basis = [[int(j == k) for j in range(m)] for k in range(m)]  # row k: coefficients of b_k
    it = 0
    i = 1
    while i < m:
        it += 1
        if it > max_iter:
            raise RuntimeError("LLL failed to terminate")
        mi, bi = mu[i], basis[i]
        for j in range(i - 1, -1, -1):
            q = round(mi[j])
            if q:
                mj = mu[j]
                for k in range(j):
                    mi[k] -= q * mj[k]
                mi[j] -= q
                basis[i] = bi = [a - q * b for a, b in zip(bi, basis[j])]
        t = mi[i - 1]
        b = B[i] + t * t * B[i - 1]
        if b < delta * B[i - 1]:
            # swap b_{i-1} and b_i: Cohen's SWAP(k) with k = i
            basis[i - 1], basis[i] = bi, basis[i - 1]
            s = t * B[i - 1] / b
            B[i - 1], B[i] = b, B[i - 1] * B[i] / b
            mu[i - 1], mu[i] = mi[: i - 1], mu[i - 1] + [s]
            for row in mu[i + 1 :]:
                r = row[i]
                row[i] = row[i - 1] - t * r
                row[i - 1] = r + s * row[i]
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
    bound = min(Gr.diagonal().tolist()) * (1.0 + 1e-9)
    found = _short_vectors(np.linalg.cholesky(Gr).T.tolist(), bound)
    least = min(tot for tot, _ in found)
    rows = U.tolist()  # U x in Python integers
    ties = [[sum(map(operator.mul, r, x)) for r in rows] for tot, x in found if tot <= least * (1.0 + _TIE_REL)]
    coeffs = np.array(min(ties), dtype=np.int64)
    norm = float(np.sqrt(coeffs @ G @ coeffs))
    return coeffs, norm
