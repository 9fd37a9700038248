"""Sequence analyzer: tracks invariant and volume trajectories along a family
of metrics and classifies it as collapsing or non-collapsing.

The verdict is a finite-run heuristic layered over an exact dichotomy about
true limits: a finite family can only witness convergence, so the analyzer
checks Cauchy behavior over a trailing window and documents its thresholds.

* collapsed: the minimal-Popp total measure ends below the configured floor V
  while the diameter proxy stays bounded.
* non-collapsed: the core invariant trajectories (d, |det Atilde|, minimal-
  Popp total) are window-Cauchy, the totals stay >= V, and |rho| either
  converges (limit corank 0 when positive) or decreases monotonically toward
  0 (limit corank 1).
* inconclusive: anything else.

The diameter proxy is the flat-torus quotient diameter bound (half the sum of
the projected lattice basis lengths) plus the vertical fiber length; both are
closed-form and the sum over-estimates the true diameter.

A family is validated with one stacked SVD and reduced to canonical form by
one stacked pass (`metric.canonicalize_family`); the rows are then read off
the canonical members with the metric and geodesic functions.  A family holds
at most MAX_MEMBERS members, because the stacks grow with its length.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import LatticeSpec
from .geodesics import vertical_distance
from .metric import (
    MetricMatrix,
    canonicalize_family,
    minimal_popp_coeff,
    popp_coeff_v0,
    ricci_matrix,
    riemannian_volume_coeff,
    total_measure,
)

__all__ = [
    "MAX_MEMBERS",
    "SequenceSpec",
    "SequenceRow",
    "SequenceReport",
    "analyze_sequence",
    "check_member_count",
]

# A family is reduced as one stack, so its memory grows with its length.
MAX_MEMBERS = 10_000


def check_member_count(count):
    """ValueError unless a family of `count` members is within MAX_MEMBERS."""
    if count > MAX_MEMBERS:
        raise ValueError(f"family has {count} members; the limit is {MAX_MEMBERS}")


@dataclass(frozen=True)
class SequenceSpec:
    """A validated family of metric matrices indexed by an integer parameter."""

    n: int
    lattice: LatticeSpec
    ks: tuple
    members: tuple  # MetricMatrix, parallel to ks

    def __post_init__(self):
        if len(self.ks) != len(self.members) or len(self.ks) == 0:
            raise ValueError("family must be nonempty with one parameter per member")
        for m in self.members:
            if not isinstance(m, MetricMatrix) or m.n != self.n:
                raise ValueError("family members must be validated metrics of matching n")

    @classmethod
    def from_matrices(cls, n, lattice, matrices, ks=None):
        """Validate the members with `MetricMatrix.from_matrices` (one
        stacked SVD); an invalid member's error names its k."""
        if ks is None:
            ks = list(range(1, len(matrices) + 1))
        check_member_count(min(len(ks), len(matrices)))
        members = MetricMatrix.from_matrices(
            matrices[: len(ks)], label=lambda i: f"family member k={ks[i]}: "
        )
        return cls(n=n, lattice=LatticeSpec(tuple(lattice)), ks=tuple(ks), members=tuple(members))


@dataclass(frozen=True)
class SequenceRow:
    k: int
    corank: int
    d: tuple
    delta: float
    absdet: float
    absrho: float
    riemannian_total: float
    popp_total: float
    minimal_popp_total: float
    fiber_length: float
    diameter_proxy: float
    ricci_min: Optional[float]
    ricci_max: Optional[float]


@dataclass(frozen=True)
class SequenceReport:
    rows: List[SequenceRow]
    verdict: str
    limit_fingerprint: Optional[dict]
    volume_floor: float
    window: int


def _torus_diameter_bounds(cs, spec):
    """Half the summed lengths of the projected lattice basis, for each
    canonical member, with one stacked inverse."""
    dr = np.concatenate([np.asarray(spec.r, dtype=np.float64), np.ones(cs[0].n)])
    inv = np.linalg.inv(np.stack([c.atilde for c in cs]))
    return (0.5 * np.sum(np.linalg.norm(inv * dr, axis=1), axis=1)).tolist()


def _compute_row(k, c, spec, torus_bound):
    fiber, _ = vertical_distance(c, 1.0)
    if c.corank == 0:
        ric = np.diagonal(ricci_matrix(c))
        ric_min, ric_max = float(np.min(ric)), float(np.max(ric))
    else:
        ric_min = ric_max = None
    return SequenceRow(
        k=int(k),
        corank=c.corank,
        d=tuple(c.d.tolist()),
        delta=c.delta,
        absdet=c.absdet,
        absrho=abs(c.rho),
        riemannian_total=total_measure(spec, riemannian_volume_coeff(c)),
        popp_total=total_measure(spec, popp_coeff_v0(c)),
        minimal_popp_total=total_measure(spec, minimal_popp_coeff(c)),
        fiber_length=fiber,
        diameter_proxy=torus_bound + fiber,
        ricci_min=ric_min,
        ricci_max=ric_max,
    )


def _window_spread(values):
    return max(values) - min(values)


def analyze_sequence(
    spec: SequenceSpec,
    V: float,
    window: int = 5,
    cauchy_rel_tol: float = 1e-6,
    diameter_blowup_factor: float = 100.0,
    rho_zero_tol: float = 1e-9,
) -> SequenceReport:
    """Classify a metric family against the volume floor V (see module doc).
    V must be finite and positive, and the window an integer >= 1."""
    if not (math.isfinite(V) and V > 0):
        raise ValueError(f"V must be finite and positive, not {V!r}")
    if not (isinstance(window, (int, np.integer)) and window >= 1):
        raise ValueError(f"window must be an integer >= 1, not {window!r}")
    cs = canonicalize_family(spec.members)
    bounds = _torus_diameter_bounds(cs, spec.lattice)
    rows = [_compute_row(k, c, spec.lattice, b) for k, c, b in zip(spec.ks, cs, bounds)]
    w = min(window, len(rows))
    tail = rows[-w:]

    proxies = [r.diameter_proxy for r in rows]
    bounded = max(r.diameter_proxy for r in tail) <= diameter_blowup_factor * max(
        min(proxies), 1e-300
    )
    totals = [r.minimal_popp_total for r in rows]

    if totals[-1] < V:
        verdict = "collapsed" if bounded else "inconclusive"
        return SequenceReport(rows, verdict, None, V, window)

    # convergence of the core invariants over the trailing window
    n = spec.n
    scale_d = max(max(r.d) for r in rows)
    d_ok = all(
        _window_spread([r.d[i] for r in tail]) <= cauchy_rel_tol * max(scale_d, 1e-300)
        for i in range(n)
    )
    scale_det = max(r.absdet for r in rows)
    det_ok = _window_spread([r.absdet for r in tail]) <= cauchy_rel_tol * max(scale_det, 1e-300)
    scale_tot = max(totals)
    tot_ok = _window_spread([r.minimal_popp_total for r in tail]) <= cauchy_rel_tol * max(
        scale_tot, 1e-300
    )
    stays_above = min(r.minimal_popp_total for r in tail) >= V

    if not (d_ok and det_ok and tot_ok and stays_above):
        return SequenceReport(rows, "inconclusive", None, V, window)

    rhos_tail = [r.absrho for r in tail]
    scale_rho = max(max(r.absrho for r in rows), 1e-300)
    rho_lim: Optional[float]
    if _window_spread(rhos_tail) <= cauchy_rel_tol * scale_rho:
        rho_lim = float(np.mean(rhos_tail))
        corank_limit = 0 if rho_lim > rho_zero_tol else 1
    elif all(b <= a + 1e-12 * scale_rho for a, b in zip(rhos_tail, rhos_tail[1:])):
        # |rho| still drifting but monotonically down: limit is sub-Riemannian
        rho_lim = 0.0
        corank_limit = 1
    else:
        return SequenceReport(rows, "inconclusive", None, V, window)

    fp = {
        "d": [float(np.mean([r.d[i] for r in tail])) for i in range(n)],
        "absdet": float(np.mean([r.absdet for r in tail])),
        "absrho": rho_lim,
    }
    verdict = f"non-collapsed (limit corank-{corank_limit})"
    return SequenceReport(rows, verdict, fp, V, window)
