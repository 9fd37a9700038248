"""Metric matrices on h_n: canonical forms, spectral invariants, Ricci
curvature and volume coefficients.

A metric is encoded by a (2n+1)x(2n+1) matrix A of corank 0 or 1: the inner
product for which the columns {A X_1, ..., A X_{2n}, A Z} (dropping the kernel
direction in the corank-1 case) form an orthonormal frame.  Every A reduces,
by an inner automorphism P on the left and an orthogonal R on the right, to a
block-diagonal representative blockdiag(Atilde, rho) with Atilde invertible
2n x 2n and rho >= 0; rho = 0 exactly in the properly sub-Riemannian case.

The skew form Atilde^T J Atilde encodes the bracket structure constants of
the orthonormal frame; its spectrum +-i d_1, ..., +-i d_n carries the
isometry invariants of the metric.

Validation and reduction are written once, for a stack of matrices: numpy's
SVD, eigh and solve run on (N, m, m) arrays in one call.
`MetricMatrix.from_matrices` and `canonicalize_family` take a whole family
that way, and `from_matrix` and `canonicalize` are the same code on a stack
of one.  The reduction runs at unit scale (each member divided by a power of
two, exactly), so its outputs follow the homothety law of a scaled frame bit
for bit.  Since Atilde^T J Atilde = block_form(d), |det Atilde| is the
product of the d_i and needs no determinant.
"""

import functools
import math
import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Union

import numpy as np

from .core import LatticeSpec
from .errors import InvalidMetricError, NotBracketGeneratingError, RiemannianOnlyError
from .linalg import _skew_normal_form

__all__ = [
    "MetricMatrix",
    "CanonicalMetric",
    "VolumeCoefficient",
    "Invariants",
    "standard_symplectic",
    "weak_canonicalize",
    "canonicalize",
    "canonicalize_family",
    "j_matrix",
    "invariants",
    "ricci_matrix",
    "riemannian_volume_coeff",
    "popp_coeff_from_structure",
    "popp_coeff_v0",
    "tilted_popp_coeff",
    "minimal_popp_coeff",
    "total_measure",
]

_RANK_TOL = 1e-10
_ZERO_TOL = 1e-12
_FLOAT_MIN = sys.float_info.min  # smallest normal float


def standard_symplectic(n: int):
    """J_n = [[0, I_n], [-I_n, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _spans_v0(mats):
    """Whether the horizontal projection of the image spans v_0, for each
    matrix of an (N, 2n+1, 2n+1) stack."""
    n2 = mats.shape[-1] - 1
    s = np.linalg.svd(mats[:, :n2, :], compute_uv=False)
    return s[:, -1] > _RANK_TOL * s[:, 0]


@functools.lru_cache(maxsize=None)
def _symplectic(n):
    J = standard_symplectic(n)
    J.flags.writeable = False
    return J


@functools.lru_cache(maxsize=None)
def _eye(dim):
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Validated metric matrix together with its corank."""

    n: int
    mat: np.ndarray
    corank: int

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.float64)
        dim = 2 * self.n + 1
        if mat.shape != (dim, dim):
            raise InvalidMetricError(f"expected a {dim}x{dim} matrix")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        coranks, bad, message = _classify(mat[None])
        if bad is not None:
            raise InvalidMetricError(message)
        if self.corank != coranks[0]:
            raise InvalidMetricError(f"declared corank {self.corank!r} but the matrix has corank {coranks[0]}")

    @classmethod
    def from_matrix(cls, mat):
        """Classify corank from singular values.

        Relative threshold 1e-10: smaller values count as zero, but only if
        they are below 1e-12; anything in between is ambiguous and rejected.
        """
        return cls.from_matrices([mat])[0]

    @classmethod
    def from_matrices(cls, mats, label=lambda i: ""):
        """`from_matrix` for each of a list of matrices, with one stacked
        SVD per matrix size.  The first invalid member, in list order,
        raises its InvalidMetricError with ``label(i)`` put in front."""
        mats = [np.asarray(mat, dtype=np.float64) for mat in mats]
        first = (len(mats), "")  # (index, message) of the first invalid member
        by_shape = {}
        for i, mat in enumerate(mats):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 == 0:
                first = min(first, (i, "expected a square matrix of odd size"))
            elif mat.shape[0] < 3:
                first = min(first, (i, "need size at least 3"))
            else:
                by_shape.setdefault(mat.shape, []).append(i)
        members = [None] * len(mats)
        for (dim, _), idx in by_shape.items():
            stack = np.array([mats[i] for i in idx])
            stack.flags.writeable = False
            coranks, bad, message = _classify(stack)
            if bad is not None:
                first = min(first, (idx[bad], message))
            for i, mat, corank in zip(idx, stack, coranks):
                members[i] = cls._validated((dim - 1) // 2, mat, corank)
        if first[0] < len(mats):
            raise InvalidMetricError(label(first[0]) + first[1])
        return members

    @classmethod
    def _validated(cls, n, mat, corank):
        """A member that `_classify` has already checked, built without
        checking it again."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "mat", mat)
        object.__setattr__(m, "corank", corank)
        return m


def _classify(stack):
    """Coranks of an (N, 2n+1, 2n+1) stack, from one stacked SVD, and the
    position and message of its first invalid member (None and "" when
    there is none).  The thresholds are read in Python floats: on a few
    singular values per member that costs less than numpy's per-call
    overhead."""
    finite = None
    if not np.isfinite(stack).all():
        # a member with a non-finite entry is classified as a zero matrix,
        # then reported as non-finite
        finite = np.isfinite(stack).all(axis=(1, 2))
        stack = np.where(finite[:, None, None], stack, 0.0)
    coranks = []
    first, message = None, ""
    for i, row in enumerate(np.linalg.svd(stack, compute_uv=False)):
        s = row.tolist()
        if s[0] == 0.0:
            first = i
            message = "zero matrix" if finite is None or finite[i] else "matrix entries must be finite"
            break
        rel = [v / s[0] for v in s]
        if any(_ZERO_TOL <= r < _RANK_TOL for r in rel):
            first = i
            message = "singular values in the gray zone [1e-12, 1e-10); refusing to classify corank"
            break
        coranks.append(sum(r < _ZERO_TOL for r in rel))
        if coranks[-1] > 1:
            first, message = i, f"corank {coranks[-1]} > 1 is not supported"
            break
    one = [i for i, corank in enumerate(coranks) if corank == 1 and i != first]
    if one:
        spans = _spans_v0(stack[one])
        if not spans.all():
            first, message = one[int(np.argmin(spans))], "corank-1 image is not bracket generating"
    return coranks, first, message


@dataclass(frozen=True, eq=False)
class CanonicalMetric:
    """Reduced representative blockdiag(Atilde, rho) with its reduction data.

    P @ source.mat @ R = blockdiag(Atilde, rho), with P the differential of an
    inner automorphism and R orthogonal.  Atilde^T J Atilde is in the block
    normal form built from d (ascending, positive).  The representative is
    unique only up to a residual O(2n) x {+-1} action, so metric equality is
    decided on the invariants (d, |det Atilde|, rho), never on matrices.
    ``absdet`` is |det Atilde| = prod d_i and ``delta`` the Hilbert--Schmidt
    norm sqrt(2 sum d_i^2) of the frame bracket form, both read off d once.
    """

    n: int
    atilde: np.ndarray
    rho: float
    d: np.ndarray
    P: np.ndarray
    R: np.ndarray
    source: MetricMatrix
    absdet: float
    delta: float

    @property
    def corank(self):
        return self.source.corank

    def matrix(self):
        """The canonical representative as a full (2n+1) matrix."""
        dim = 2 * self.n + 1
        out = np.zeros((dim, dim))
        out[: 2 * self.n, : 2 * self.n] = self.atilde
        out[-1, -1] = self.rho
        return out


MetricLike = Union[MetricMatrix, CanonicalMetric]


def _distinguished(A, corank):
    """(r, rho) for a stack of metrics of one corank: the unit kernel of A,
    its largest entry positive, and 0 (corank 1), or the unit normal
    A^{-1} e_last / |A^{-1} e_last| and rho = A[-1] . r > 0 (corank 0)."""
    if corank:
        k = np.linalg.svd(A)[2][:, -1]
        largest = k[np.arange(len(k)), np.abs(k).argmax(axis=1)]
        return np.where(largest[:, None] < 0, -k, k), np.zeros(len(A))
    x = np.linalg.solve(A, _eye(A.shape[-1])[-1])
    r = x / np.sqrt(np.add.reduce(x * x, axis=1))[:, None]
    return r, np.add.reduce(A[:, -1, :] * r, axis=1)


def _weak_reduce(n, A, coranks):
    """Weak reduction of an (N, 2n+1, 2n+1) stack of validated metrics with
    a list of their coranks: stacked (P, R, Atilde, rho), see
    `weak_canonicalize`."""
    dim = 2 * n + 1
    if len(set(coranks)) == 1:
        r, rho = _distinguished(A, coranks[0])
    else:
        r, rho = np.empty((len(A), dim)), np.empty(len(A))
        for corank in (0, 1):
            rows = [i for i, c in enumerate(coranks) if c == corank]
            r[rows], rho[rows] = _distinguished(A[rows], corank)
    # R: the Householder reflection of v = r + sign(r_last) e_last maps
    # e_last to -+r (|v|^2 >= 2, no cancellation); its last column is then
    # set to r.  R = I when r = e_last.
    v = r.copy()
    v[:, -1] += np.where(r[:, -1] < 0, -1.0, 1.0)
    R = _eye(dim) - v[:, :, None] * (v * (2.0 / np.add.reduce(v * v, axis=1))[:, None])[:, None, :]
    R[:, :, -1] = r
    AR = A @ R
    atilde = AR[:, :-1, :-1]
    g = -np.linalg.solve(atilde.transpose(0, 2, 1), AR[:, -1, :-1, None])[:, :, 0]
    P = np.empty_like(A)
    P[:] = _eye(dim)
    P[:, -1, :-1] = g
    return P, R, atilde, rho


def weak_canonicalize(m: MetricMatrix):
    """Reduce A to block-diagonal form: returns (P, R, Atilde, rho).

    R rotates the distinguished direction (the kernel for corank 1, the
    normal to the span of the first 2n rows for corank 0) into the last
    coordinate, with the sign chosen so rho >= 0.  P = [[I, 0], [g, 1]] then
    clears the residual last row via g = -a Atilde^{-1}.
    """
    P, R, atilde, rho = _weak_reduce(m.n, m.mat[None], [m.corank])
    return P[0], R[0], atilde[0], float(rho[0])


def canonicalize_family(members) -> List[CanonicalMetric]:
    """`canonicalize` for each of a list of validated metrics of one n, as
    one stacked reduction.  The first member, in list order, that fails a
    check raises its InvalidMetricError, as do invariants outside the
    normal float range.  Each member is divided by a power of two near its
    largest entry (exact) and its outputs scaled back exactly, so scaling a
    frame by 2^k scales Atilde, rho, d, |det Atilde|, delta by 2^k, 2^k,
    4^k, 4^(nk), 4^k."""
    members = list(members)
    if not members:
        return []
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("family members must share n")
    A = np.stack([m.mat for m in members]) if len(members) > 1 else members[0].mat[None]
    e = np.frexp(np.abs(A).max(axis=(1, 2)))[1] - 1
    P, R, atilde, rho = _weak_reduce(n, np.ldexp(A, -e[:, None, None]), [m.corank for m in members])
    Rn, d = _skew_normal_form(atilde.transpose(0, 2, 1) @ _symplectic(n) @ atilde)
    scalars = []
    for ei, ds, r in zip(e.tolist(), d.tolist(), rho.tolist()):
        if ds[0] <= _RANK_TOL * ds[-1]:
            raise InvalidMetricError("degenerate bracket form: some d_i vanishes")
        # Atilde^T J Atilde = block_form(d), so |det Atilde| = prod d_i
        try:
            absdet = math.ldexp(math.prod(ds), 2 * n * ei)
            delta = math.ldexp(math.sqrt(2.0 * sum(v * v for v in ds)), 2 * ei)
            in_range = min(absdet, math.ldexp(ds[0], 2 * ei)) >= _FLOAT_MIN and absdet < math.inf
        except OverflowError:
            in_range = False
        if not in_range:
            raise InvalidMetricError("metric scale out of range: its invariants overflow or underflow a float")
        scalars.append((math.ldexp(r, ei), absdet, delta))
    atilde = np.ldexp(atilde @ Rn, e[:, None, None])
    d = np.ldexp(d, 2 * e[:, None])
    R[:, :, :-1] = R[:, :, :-1] @ Rn
    return [
        CanonicalMetric(n, atilde[i], r, d[i], P[i], R[i], m, absdet, delta)
        for i, (m, (r, absdet, delta)) in enumerate(zip(members, scalars))
    ]


def canonicalize(m: MetricLike) -> CanonicalMetric:
    """Weak canonical form followed by the orthogonal normalization that puts
    Atilde^T J Atilde into the block form with ascending d: the stacked
    reduction of `canonicalize_family` on a stack of one."""
    if isinstance(m, CanonicalMetric):
        return m
    return canonicalize_family([m])[0]


def j_matrix(c) -> np.ndarray:
    """Matrix Atilde^T J Atilde of the skew bracket form in the orthonormal
    frame; its (i, j) entry is the Z-coefficient of [A X_i, A X_j]."""
    if isinstance(c, CanonicalMetric):
        atilde = c.atilde
    else:
        atilde = np.asarray(c, dtype=np.float64)
    n = atilde.shape[0] // 2
    return atilde.T @ standard_symplectic(n) @ atilde


class Invariants(NamedTuple):
    d: np.ndarray
    delta: float
    absdet: float
    absrho: float


def invariants(m: MetricLike) -> Invariants:
    """(d, delta, |det Atilde|, |rho|) of the canonical representative."""
    c = canonicalize(m)
    return Invariants(c.d, c.delta, c.absdet, abs(c.rho))


def ricci_matrix(m: MetricLike) -> np.ndarray:
    """Ricci tensor in the orthonormal basis {A X_1..A X_2n, A Z} of the
    canonical representative (corank 0 only).

    Horizontal block: diag(-d_i^2 / (2 rho^2)) with each d_i in slots i and
    n+i; mixed block zero; (Z, Z) entry sum_k d_k^2 / (2 rho^2).
    """
    c = canonicalize(m)
    if c.corank != 0:
        raise RiemannianOnlyError("Ricci tensor requires a corank-0 (Riemannian) metric")
    n = c.n
    rho2 = c.rho**2
    diag = np.empty(2 * n + 1)
    diag[:n] = -c.d**2 / (2.0 * rho2)
    diag[n : 2 * n] = diag[:n]
    diag[-1] = np.sum(c.d**2) / (2.0 * rho2)
    return np.diag(diag)


@dataclass(frozen=True)
class VolumeCoefficient:
    """Coefficient c of c * X_1^* ^ ... ^ X_2n^* ^ Z^* in the Haar frame.

    +infinity only occurs for the Riemannian volume of a corank-1 metric.
    """

    value: float
    kind: str


def riemannian_volume_coeff(m: MetricLike) -> VolumeCoefficient:
    """|det Atilde|^{-1} |rho|^{-1}; +infinity when rho = 0."""
    c = canonicalize(m)
    if c.rho == 0.0:
        return VolumeCoefficient(np.inf, "riemannian")
    return VolumeCoefficient(1.0 / (c.absdet * abs(c.rho)), "riemannian")


def popp_coeff_from_structure(frame_brackets, m: int, n_total: int) -> VolumeCoefficient:
    """Popp coefficient det(B)^{-1/2} in the adapted coframe.

    frame_brackets[i, j, h] is the structure constant c_ij^h of an adapted
    frame whose first m fields are orthonormal horizontal; B_hl sums
    c_ij^h c_ij^l over the horizontal indices, for h, l in the vertical
    complement.  With m = n_total (Riemannian case) B is empty and the
    coefficient is 1.
    """
    c = np.asarray(frame_brackets, dtype=np.float64)
    if c.shape != (m, m, n_total):
        raise ValueError(f"expected structure constants of shape ({m}, {m}, {n_total})")
    if m == n_total:
        return VolumeCoefficient(1.0, "popp")
    cv = c[:, :, m:]
    B = np.einsum("ijh,ijl->hl", cv, cv)
    det = np.linalg.det(B)
    if det <= 0.0 or np.linalg.eigvalsh(B)[0] <= 0.0:
        raise NotBracketGeneratingError("structure-constant Gram matrix B is singular")
    return VolumeCoefficient(float(det ** -0.5), "popp")


def popp_coeff_v0(m: MetricLike) -> VolumeCoefficient:
    """Popp coefficient of the horizontal space v_0 in the Haar frame:
    delta^{-1} |det Atilde|^{-1}."""
    c = canonicalize(m)
    return VolumeCoefficient(1.0 / (c.delta * c.absdet), "popp")


def tilted_popp_coeff(m: MetricLike, t) -> VolumeCoefficient:
    """Popp coefficient, in the Haar frame, of the rank-2n subspace spanned by
    (A X_i + t_i Z) / sqrt(1 + t_i^2) for a corank-0 metric.

    With c = Atilde^T J Atilde and w_i = 1 + t_i^2:

        value = (sum_ij c_ij^2 / (w_i w_j))^{-1/2} * prod_k sqrt(w_k)
                * |det Atilde|^{-1},

    which reduces to the v_0 coefficient at t = 0 and is strictly larger for
    any other tilt.
    """
    c = canonicalize(m)
    if c.corank != 0:
        raise RiemannianOnlyError("tilted subspaces require a corank-0 metric")
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (2 * c.n,):
        raise ValueError(f"expected a length-{2 * c.n} tilt vector")
    C = j_matrix(c)
    w = 1.0 + t**2
    quad = float(np.sum(C**2 / np.outer(w, w)))
    value = quad**-0.5 * float(np.prod(np.sqrt(w))) / c.absdet
    return VolumeCoefficient(value, "tilted")


def minimal_popp_coeff(m: MetricLike) -> VolumeCoefficient:
    """min{|rho|^{-1}, delta^{-1}} |det Atilde|^{-1}, reading |rho|^{-1} as
    +infinity when rho = 0."""
    c = canonicalize(m)
    inv_rho = np.inf if c.rho == 0.0 else 1.0 / abs(c.rho)
    value = min(inv_rho, 1.0 / c.delta) / c.absdet
    return VolumeCoefficient(float(value), "minimal")


def total_measure(spec: LatticeSpec, coeff: VolumeCoefficient) -> float:
    """Total measure of the quotient by the lattice: prod(r_i) * coefficient."""
    return spec.covolume_factor() * coeff.value
