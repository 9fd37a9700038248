"""Moduli-space machinery: stabilizer membership, isometry-class
fingerprints, the precompactness conditions (A-1)-(A-4)/(A-4)', the
geometry-derived constants, and the lattice finiteness bound.

The moduli space of left-invariant metrics on the quotient by a lattice with
tuple r is the double coset of (GL_2n(R) x R) by the stabilizer image on the
left and O(2n) x {+-1} on the right.  The stabilizer image consists of the
symplectic or anti-symplectic matrices beta that are integral after
conjugation by diag(r_1..r_n, 1..1), extended by epsilon(beta) on the center.
Exact class equality is undecidable here; the fingerprint (d, |det Atilde|,
|rho|) is a complete set of *necessary* invariants and is what the artifact
compares.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LatticeSpec
from .linalg import shortest_lattice_vector
from .metric import MetricLike, canonicalize, invariants, standard_symplectic

__all__ = [
    "ConditionCheck",
    "PrecompactnessReport",
    "Constants",
    "in_stabilizer",
    "extend_stabilizer",
    "fingerprint",
    "geometry_constants",
    "check_precompactness",
    "lattice_rank_bound",
    "enumerate_lattices",
    "projected_lattice_gram",
]

_SYMPL_TOL = 1e-9
_INT_TOL = 1e-9


def _require_positive(**values):
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, not {v!r}")


def _raise_on_inf(*values):
    """A float product that overflows gives inf, not an OverflowError."""
    if not all(map(math.isfinite, values)):
        raise OverflowError


@contextmanager
def _no_overflow(what):
    """Report a float overflow in the body, or a product that underflows to
    a zero divisor, as a ValueError."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as e:
        raise ValueError(f"{what} overflows a float for these inputs") from e


def in_stabilizer(beta, spec: LatticeSpec):
    """Test whether beta (2n x 2n) represents a lattice-stabilizing
    automorphism: beta J beta^T = eps J with eps = +-1, and
    diag(r)^{-1} beta diag(r) integral.  Returns (bool, eps)."""
    beta = np.asarray(beta, dtype=np.float64)
    m = beta.shape[0]
    n = m // 2
    if beta.shape != (m, m) or m != 2 * spec.n:
        return False, 0
    J = standard_symplectic(n)
    lhs = beta @ J @ beta.T
    scale = max(np.max(np.abs(lhs)), 1.0)
    eps = 0
    if np.max(np.abs(lhs - J)) <= _SYMPL_TOL * scale:
        eps = 1
    elif np.max(np.abs(lhs + J)) <= _SYMPL_TOL * scale:
        eps = -1
    else:
        return False, 0
    dr = np.concatenate([np.asarray(spec.r, dtype=np.float64), np.ones(n)])
    M = beta * (dr[None, :] / dr[:, None])  # diag(r)^{-1} beta diag(r)
    if np.max(np.abs(M - np.rint(M))) > _INT_TOL:
        return False, 0
    return True, eps


def extend_stabilizer(beta, epsilon: int):
    """iota(beta) = blockdiag(beta, epsilon)."""
    beta = np.asarray(beta, dtype=np.float64)
    m = beta.shape[0]
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = beta
    out[-1, -1] = float(epsilon)
    return out


def fingerprint(m: MetricLike):
    """(d, |det Atilde|, |rho|): invariant under the full moduli action.
    Equal classes have equal fingerprints; the converse is not decided."""
    inv = invariants(m)
    return inv.d, inv.absdet, inv.absrho


@dataclass(frozen=True)
class Constants:
    """Bounds the precompactness conditions are tested against."""

    c1: float
    c2: float
    c3: float
    c_plus: float
    c_minus: Optional[float]
    mode: str


def geometry_constants(
    n: int,
    spec: LatticeSpec,
    D: float,
    V: float,
    K: Optional[float] = None,
    mode: str = "riemannian",
) -> Constants:
    """Constants making (A-1)-(A-4) (riemannian) or (A-1)-(A-3), (A-4)'
    (subriemannian) hold for metrics with diameter <= D, total measure >= V
    and, in the Riemannian case, Ricci >= -K.

        C_2 = (4 n D)^{-2n}
        C_+ = prod(r_i) / (V C_2)
        C_3 = sqrt(2 K) C_+            (riemannian)
        C_- = C_2^{1/n} / sqrt(2 K)    (riemannian)
        C_3 = sqrt(2n) C_+             (subriemannian; larger case branch)
        C_1 = C_3^{-n} (4 n D)^{-(2n-1)}

    D, V and K (riemannian) must be finite and positive; a constant that
    overflows a float is a ValueError.
    """
    _require_positive(D=D, V=V)
    if mode not in ("riemannian", "subriemannian"):
        raise ValueError("mode must be riemannian or subriemannian")
    if mode == "riemannian":
        if K is None:
            raise ValueError("riemannian mode requires a positive Ricci bound K")
        _require_positive(K=K)
    with _no_overflow("a geometry constant"):
        c2 = float((4.0 * n * D) ** (-2 * n))
        c_plus = spec.covolume_factor() / (V * c2)
        if mode == "riemannian":
            c3 = math.sqrt(2.0 * K) * c_plus
            c_minus = c2 ** (1.0 / n) / math.sqrt(2.0 * K)
        else:
            c3 = max(c_plus, math.sqrt(2.0 * n) * c_plus)
            c_minus = None
        c1 = c3 ** (-n) * (4.0 * n * D) ** (-(2 * n - 1))
        _raise_on_inf(c1, c2, c3, c_plus, c_minus or 0.0)
    return Constants(c1=c1, c2=c2, c3=c3, c_plus=c_plus, c_minus=c_minus, mode=mode)


@dataclass(frozen=True)
class ConditionCheck:
    value: float
    lower: Optional[float]
    upper: Optional[float]

    @property
    def passed(self) -> bool:
        ok = True
        if self.lower is not None:
            ok = ok and self.value >= self.lower
        if self.upper is not None:
            ok = ok and self.value <= self.upper
        return ok


@dataclass(frozen=True)
class PrecompactnessReport:
    a1: ConditionCheck
    a2: ConditionCheck
    a3: ConditionCheck
    a4: ConditionCheck
    mode: str

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in (self.a1, self.a2, self.a3, self.a4))


def projected_lattice_gram(c, spec: LatticeSpec):
    """Gram matrix, in the metric, of the projected lattice basis
    {r_i X_i, Y_i}: B^T (Atilde Atilde^T)^{-1} B with B = diag(r, 1..1)."""
    c = canonicalize(c)
    dr = np.concatenate([np.asarray(spec.r, dtype=np.float64), np.ones(c.n)])
    M = np.linalg.inv(c.atilde @ c.atilde.T)
    return (M * dr[None, :]) * dr[:, None]


def check_precompactness(m: MetricLike, spec: LatticeSpec, constants: Constants) -> PrecompactnessReport:
    """Evaluate the four precompactness conditions against the constants.

    A-1: shortest vector of the projected lattice in the metric >= C_1.
    A-2: |det Atilde| >= C_2.  A-3: d_n <= C_3.  A-4: C_- <= |rho| <= C_+
    (riemannian) or |rho| <= C_+ (subriemannian).
    """
    c = canonicalize(m)
    inv = invariants(c)
    _, shortest = shortest_lattice_vector(projected_lattice_gram(c, spec))
    a1 = ConditionCheck(shortest, constants.c1, None)
    a2 = ConditionCheck(inv.absdet, constants.c2, None)
    a3 = ConditionCheck(float(inv.d[-1]), None, constants.c3)
    if constants.mode == "riemannian":
        a4 = ConditionCheck(inv.absrho, constants.c_minus, constants.c_plus)
    else:
        a4 = ConditionCheck(inv.absrho, None, constants.c_plus)
    return PrecompactnessReport(a1=a1, a2=a2, a3=a3, a4=a4, mode=constants.mode)


def ball_volume(n2: int, radius: float) -> float:
    """Volume of the Euclidean ball of dimension n2 = 2n: pi^n R^{2n} / n!."""
    n = n2 // 2
    return float(np.pi**n * radius**n2 / math.factorial(n))


def lattice_rank_bound(n: int, D: float, V: float) -> float:
    """Upper bound on r_n over all lattices admitting a metric with diameter
    <= D and minimal-Popp total measure >= V:

        max{64 D^2 |B^{2n}(D)|^2 V^{-2}, 16 D^2 |B^{2n}(D)| V^{-1}}.
    """
    _require_positive(D=D, V=V)
    with _no_overflow("the lattice rank bound"):
        bv = ball_volume(2 * n, D)
        bound = max(64.0 * D**2 * bv**2 / V**2, 16.0 * D**2 * bv / V)
        _raise_on_inf(bound)
    return bound


def enumerate_lattices(n: int, r_max: float):
    """All divisibility chains r_1 | r_2 | ... | r_n with r_n <= r_max."""
    bound = int(math.floor(r_max))
    if bound < 1:
        return []
    out = []

    def grow(prefix):
        if len(prefix) == n:
            out.append(LatticeSpec(tuple(prefix)))
            return
        last = prefix[-1] if prefix else 1
        mult = last
        while mult <= bound:
            grow(prefix + [mult])
            mult += last

    grow([])
    return out
