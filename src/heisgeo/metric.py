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
"""

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .core import LatticeSpec
from .errors import InvalidMetricError, NotBracketGeneratingError, RiemannianOnlyError
from .linalg import skew_normal_form

__all__ = [
    "MetricMatrix",
    "CanonicalMetric",
    "VolumeCoefficient",
    "Invariants",
    "standard_symplectic",
    "weak_canonicalize",
    "canonicalize",
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


def standard_symplectic(n: int):
    """J_n = [[0, I_n], [-I_n, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


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
        if not np.all(np.isfinite(mat)):
            raise InvalidMetricError("matrix entries must be finite")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        if self.corank not in (0, 1):
            raise InvalidMetricError("corank must be 0 or 1")
        if self.corank == 1:
            # horizontal projection of the image must span v_0
            top = mat[: 2 * self.n, :]
            s = np.linalg.svd(top, compute_uv=False)
            if s[-1] <= _RANK_TOL * s[0]:
                raise InvalidMetricError("corank-1 image is not bracket generating")

    @classmethod
    def from_matrix(cls, mat):
        """Classify corank from singular values.

        Relative threshold 1e-10: smaller values count as zero, but only if
        they are below 1e-12; anything in between is ambiguous and rejected.
        """
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 == 0:
            raise InvalidMetricError("expected a square matrix of odd size")
        n = (mat.shape[0] - 1) // 2
        if n < 1:
            raise InvalidMetricError("need size at least 3")
        if not np.all(np.isfinite(mat)):
            raise InvalidMetricError("matrix entries must be finite")
        s = np.linalg.svd(mat, compute_uv=False)
        if s[0] == 0.0:
            raise InvalidMetricError("zero matrix")
        rel = s / s[0]
        if np.any((rel >= _ZERO_TOL) & (rel < _RANK_TOL)):
            raise InvalidMetricError(
                "singular values in the gray zone [1e-12, 1e-10); refusing to classify corank"
            )
        corank = int(np.sum(rel < _ZERO_TOL))
        if corank > 1:
            raise InvalidMetricError(f"corank {corank} > 1 is not supported")
        return cls(n, mat, corank)


@dataclass(frozen=True, eq=False)
class CanonicalMetric:
    """Reduced representative blockdiag(Atilde, rho) with its reduction data.

    P @ source.mat @ R = blockdiag(Atilde, rho), with P the differential of an
    inner automorphism and R orthogonal.  Atilde^T J Atilde is in the block
    normal form built from d (ascending, positive).  The representative is
    unique only up to a residual O(2n) x {+-1} action, so metric equality is
    decided on the invariants (d, |det Atilde|, rho), never on matrices.
    """

    n: int
    atilde: np.ndarray
    rho: float
    d: np.ndarray
    P: np.ndarray
    R: np.ndarray
    source: MetricMatrix

    @property
    def corank(self):
        return self.source.corank

    @property
    def delta(self):
        """Hilbert--Schmidt norm of the frame bracket form; sqrt(2 sum d_i^2)."""
        return float(np.sqrt(2.0 * np.sum(self.d**2)))

    @property
    def absdet(self):
        return float(abs(np.linalg.det(self.atilde)))

    def matrix(self):
        """The canonical representative as a full (2n+1) matrix."""
        dim = 2 * self.n + 1
        out = np.zeros((dim, dim))
        out[: 2 * self.n, : 2 * self.n] = self.atilde
        out[-1, -1] = self.rho
        return out


MetricLike = Union[MetricMatrix, CanonicalMetric]


def _householder_to_last(r):
    """Orthogonal matrix mapping e_last to the unit vector r (identity when
    r = e_last), built as a single reflection."""
    dim = r.shape[0]
    v = r.copy()
    v[-1] -= 1.0
    vv = float(v @ v)
    if vv < 1e-28:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / vv


def weak_canonicalize(m: MetricMatrix):
    """Reduce A to block-diagonal form: returns (P, R, Atilde, rho).

    R rotates the distinguished direction (the kernel for corank 1, the
    normal to the span of the first 2n rows for corank 0) into the last
    coordinate, with the sign chosen so rho >= 0.  P = [[I, 0], [g, 1]] then
    clears the residual last row via g = -a Atilde^{-1}.
    """
    A = m.mat
    n = m.n
    dim = 2 * n + 1
    if m.corank == 1:
        _, s, Vt = np.linalg.svd(A)
        r = Vt[-1]  # kernel direction
        j = int(np.argmax(np.abs(r)))
        if r[j] < 0:
            r = -r
        rho = 0.0
    else:
        # unit normal to the span of the first 2n rows
        _, s, Vt = np.linalg.svd(A[: dim - 1, :])
        r = Vt[-1]
        rho = float(A[-1] @ r)
        if rho < 0:
            r = -r
            rho = -rho
    R = _householder_to_last(r)
    AR = A @ R
    atilde = AR[: dim - 1, : dim - 1]
    sa = np.linalg.svd(atilde, compute_uv=False)
    if sa[-1] <= _RANK_TOL * max(sa[0], 1e-300):
        raise InvalidMetricError("image is not bracket generating")
    a_row = AR[-1, : dim - 1]
    g = -np.linalg.solve(atilde.T, a_row)
    P = np.eye(dim)
    P[-1, : dim - 1] = g
    return P, R, atilde, rho


def canonicalize(m: MetricLike) -> CanonicalMetric:
    """Weak canonical form followed by the orthogonal normalization that puts
    Atilde^T J Atilde into the block form with ascending d."""
    if isinstance(m, CanonicalMetric):
        return m
    P, R, atilde, rho = weak_canonicalize(m)
    n = m.n
    C = atilde.T @ standard_symplectic(n) @ atilde
    nf = skew_normal_form(C)
    atilde_c = atilde @ nf.R
    R_ext = np.eye(2 * n + 1)
    R_ext[: 2 * n, : 2 * n] = nf.R
    R_full = R @ R_ext
    d = nf.d
    if d[0] <= _RANK_TOL * max(d[-1], 1e-300):
        raise InvalidMetricError("degenerate bracket form: some d_i vanishes")
    return CanonicalMetric(n=n, atilde=atilde_c, rho=rho, d=d, P=P, R=R_full, source=m)


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
