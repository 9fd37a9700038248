"""Seeded input lists for the four benchmark workloads.

Each ``build_*`` function returns the fixed list of operations one pass runs.
An operation's ``run`` makes only program calls (that is what is timed); its
``check`` compares the outputs with the reference computations in
``reference.py`` and returns None or a description of the mismatch.  The
program modules are imported inside the builders, so their import counts as
set-up; ``cli_cold`` imports heisgeo in the benchmark process only to check
the ``geodesic`` output, after the clock has stopped.

Metrics of the distance workload are built with the centre as a frame
direction (the inner-automorphism part of the canonical reduction is the
identity), so a target's coordinates mean the same to the program and to the
reference.
"""

import functools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np

import reference as ref

REL = 1e-9  # closed-form quantities
DIST_REL = 1e-7  # shooting distances (the solver stops at a 1e-9 scaled residual)
REACH_REL = 1e-6  # endpoint of the returned minimizer against the target
RK4_ABS = 1e-8  # RK4 against the closed form, as in the acceptance suite
ENERGY_REL = 1e-10

SQ2 = math.sqrt(2.0)
CELLS = [(n, corank) for n in (1, 2, 3) for corank in (0, 1)]


class Op:
    """One timed operation: ``run()`` calls the program, ``check(out)``
    returns None when the output is right.  A known failure is an input on
    which the program raises SolverFailure on every run."""

    __slots__ = ("kind", "run", "check", "known_failure")

    def __init__(self, kind, run, check, known_failure=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_failure = known_failure

    def timed(self):
        """(seconds, output, exception): only ``run()`` is timed, and an
        exception is returned, not raised, so that it can be counted."""
        t0 = time.perf_counter()
        try:
            out = self.run()
        except Exception as exc:
            return time.perf_counter() - t0, None, exc
        return time.perf_counter() - t0, out, None


def _close(got, want, rel, what):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    both_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        err = np.where(both_inf, 0.0, np.abs(got - want))
        tol = rel * (1.0 + np.where(both_inf, 0.0, np.abs(want)))
    if np.any(~(err <= tol)):
        return f"{what}: got {got.tolist()} want {want.tolist()}"
    return None


def _first(*problems):
    for p in problems:
        if p:
            return p
    return None


# ---------------------------------------------------------------------------
# seeded metrics
# ---------------------------------------------------------------------------


def random_rotation(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def canonical_frame(rng, d):
    """Atilde = S diag(sqrt d, sqrt d) with S symplectic and well conditioned,
    so that Atilde^T J Atilde = block_form(d)."""
    n = len(d)
    M = random_rotation(rng, n) @ np.diag(rng.uniform(0.7, 1.4, n)) @ random_rotation(rng, n)
    B = rng.uniform(-0.3, 0.3, (n, n))
    B = B + B.T
    zero, eye = np.zeros((n, n)), np.eye(n)
    S = np.block([[M, zero], [zero, np.linalg.inv(M).T]]) @ np.block([[eye, B], [zero, eye]])
    sq = np.sqrt(d)
    return S @ np.diag(np.concatenate([sq, sq]))


def random_metric(rng, n, corank, automorphism):
    """Frame matrix A = L blockdiag(Atilde, rho) Q with d in [0.5, 2], rho in
    [0.4, 1.5] (0 for corank 1) and Q orthogonal.  L adds g.w to the height
    (an inner automorphism) when `automorphism` is set, and is I otherwise."""
    d = np.sort(rng.uniform(0.5, 2.0, n))
    atilde = canonical_frame(rng, d)
    rho = 0.0 if corank else float(rng.uniform(0.4, 1.5))
    dim = 2 * n + 1
    core = np.zeros((dim, dim))
    core[: 2 * n, : 2 * n] = atilde
    core[-1, -1] = rho
    L = np.eye(dim)
    if automorphism:
        L[-1, : 2 * n] = rng.uniform(-1.0, 1.0, 2 * n)
    return {"A": L @ core @ random_rotation(rng, dim), "atilde": atilde, "d": d, "rho": rho}


def random_lattice(rng, n):
    r = [int(rng.integers(1, 3))]
    for _ in range(n - 1):
        r.append(r[-1] * int(rng.integers(1, 3)))
    return tuple(r)


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------

METRICS_PER_CELL = 8
MOMENTA = 4
D_BOUND, V_FLOOR, K_RICCI = 1.0, 0.5, 1.0


def _canonical_checks(c, A, inv, d_ref, rho_ref, absdet_ref):
    n = c.n
    dim = 2 * n + 1
    block = np.zeros((dim, dim))
    block[: 2 * n, : 2 * n] = c.atilde
    block[-1, -1] = c.rho
    scale = float(np.max(np.abs(A)))
    recon = c.P @ A @ c.R
    if not np.max(np.abs(recon - block)) <= 1e-9 * scale:
        return "P A R != blockdiag(Atilde, rho)"
    form = c.atilde.T @ ref.symplectic_j(n) @ c.atilde
    if not np.max(np.abs(form - ref.block_form(c.d))) <= 1e-9 * float(np.max(d_ref)):
        return "Atilde^T J Atilde != block_form(d)"
    if not np.max(np.abs(c.R.T @ c.R - np.eye(dim))) <= 1e-10:
        return "R is not orthogonal"
    return _first(
        _close(c.d, d_ref, REL, "d"),
        _close(c.rho, rho_ref, REL, "rho"),
        _close(inv.d, d_ref, REL, "invariants.d"),
        _close(inv.delta, math.sqrt(2.0 * float(np.sum(d_ref**2))), REL, "delta"),
        _close(inv.absdet, absdet_ref, REL, "|det Atilde|"),
        _close(inv.absrho, rho_ref, REL, "|rho|"),
    )


def _metric_op(spec_r, item, tilt, momenta):
    from heisgeo import core, geodesics, metric, moduli

    A = item["A"]
    n = (A.shape[0] - 1) // 2
    corank = 1 if item["rho"] == 0.0 else 0
    spec = core.LatticeSpec(spec_r)
    mode = "subriemannian" if corank else "riemannian"
    K = None if corank else K_RICCI

    def run():
        m = metric.MetricMatrix.from_matrix(A)
        c = metric.canonicalize(m)
        inv = metric.invariants(c)
        vols = {
            "riemannian": metric.riemannian_volume_coeff(c).value,
            "popp": metric.popp_coeff_v0(c).value,
            "minimal": metric.minimal_popp_coeff(c).value,
        }
        ric = None
        if corank == 0:
            vols["tilted"] = metric.tilted_popp_coeff(c, tilt).value
            ric = metric.ricci_matrix(c)
        points = [geodesics.geodesic_point(c, p, 1.0).coords() for p in momenta]
        consts = moduli.geometry_constants(n, spec, D_BOUND, V_FLOOR, K, mode)
        report = moduli.check_precompactness(c, spec, consts)
        return m, c, inv, vols, ric, points, consts, report

    def expected():
        d, rho, absdet = ref.frame_invariants(A, corank)
        dr = np.concatenate([np.asarray(spec_r, dtype=np.float64), np.ones(n)])
        gram = ref.horizontal_gram_inverse(A) * dr[None, :] * dr[:, None]
        return {
            "inv": (d, rho, absdet),
            "vols": ref.volume_coefficients(d, rho, absdet, tilt),
            "ricci": None if corank else np.linalg.eigvalsh(ref.koszul_ricci(A)),
            "consts": ref.precompactness_constants(
                n, math.prod(spec_r), D_BOUND, V_FLOOR, K, mode
            ),
            "shortest": ref.shortest_vector_norm(gram),
        }

    want = functools.cache(expected)

    def check(out):
        m, c, inv, vols, ric, points, consts, report = out
        w = want()
        d, rho, absdet = w["inv"]
        if m.corank != corank:
            return f"corank {m.corank} != {corank}"
        problem = _canonical_checks(c, A, inv, d, rho, absdet)
        if problem:
            return problem
        for kind, value in vols.items():
            problem = _close(value, w["vols"][kind], REL, f"{kind} volume")
            if problem:
                return problem
        if ric is not None:
            scale = float(np.max(np.abs(w["ricci"])))
            if not np.max(np.abs(np.linalg.eigvalsh(ric) - w["ricci"])) <= 1e-8 * scale:
                return "Ricci spectrum differs from the Koszul oracle"
        for p, got in zip(momenta, points):
            u, z = ref.endpoint(c.d, c.rho, p.horizontal(), p.p_z, 1.0)
            problem = _close(got, np.append(c.atilde @ u, z), REL, "geodesic_point")
            if problem:
                return problem
        wc = w["consts"]
        problem = _first(
            *(
                _close(getattr(consts, k), wc[k], REL, k)
                for k in ("c1", "c2", "c3", "c_plus")
            ),
            None if wc["c_minus"] is None else _close(consts.c_minus, wc["c_minus"], REL, "c_minus"),
            _close(report.a1.value, w["shortest"], REL, "A-1 shortest vector"),
            _close(report.a2.value, absdet, REL, "A-2 |det Atilde|"),
            _close(report.a3.value, d[-1], REL, "A-3 d_n"),
            _close(report.a4.value, rho, REL, "A-4 |rho|"),
        )
        if problem:
            return problem
        if report.a1.passed != (w["shortest"] >= wc["c1"]):
            return "A-1 verdict"
        return None

    return Op(f"metric_n{n}_corank{corank}", run, check)


def _family_spec(path, a, b, c, collapse):
    """Diagonal-parametric family diag(a [*k], b, c/k), k = 1..30, on the
    lattice (1,)."""
    x = f"{a}*k" if collapse else str(a)
    doc = {
        "n": 1,
        "lattice": [1],
        "family": {"kind": "diagonal-parametric", "entries": [x, str(b), f"{c}/k"], "k_range": [1, 30]},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _family_totals(a, b, c, collapse, ks):
    """Minimal Popp totals min{1/rho, 1/delta} / |det Atilde| of diag(x, b, c/k):
    d = |det Atilde| = x b and delta = sqrt(2) x b."""
    out = []
    for k in ks:
        x = a * k if collapse else a
        det = float(x * b)
        out.append(min(float(k / c), 1.0 / (SQ2 * det)) / det)
    return out


def _sequence_op(path, V, verdict, totals):
    from heisgeo import cli, sequence

    def run():
        return sequence.analyze_sequence(cli.parse_sequence_file(path), V)

    def check(report):
        if report.verdict != verdict:
            return f"verdict {report.verdict!r} != {verdict!r}"
        got = [r.minimal_popp_total for r in report.rows]
        return _close(got, totals, REL, "minimal Popp totals")

    return Op("sequence", run, check)


# fixed, not seeded: the slower of these two ops sets closed_form's p99, so a
# seeded bound would move latency_tail_ms from seed to seed
ENUMERATE_BOUNDS = ((2, 350), (3, 100))


def _enumerate_op(n, bound):
    from heisgeo import moduli

    want = functools.cache(lambda: ref.divisibility_chains(n, bound))

    def run():
        return moduli.enumerate_lattices(n, bound + 0.5)

    def check(out):
        if sorted(s.r for s in out) != want():
            return f"enumerate_lattices({n}, {bound}) differs from the divisor chains"
        return None

    return Op("enumerate_lattices", run, check)


def build_closed_form(rng, workdir, root):
    from heisgeo import geodesics

    ops = []
    for n, corank in CELLS:
        momenta = [
            geodesics.Momentum(rng.normal(size=n), rng.normal(size=n), rng.normal())
            for _ in range(MOMENTA)
        ]
        for _ in range(METRICS_PER_CELL):
            item = random_metric(rng, n, corank, automorphism=True)
            tilt = rng.uniform(-1.0, 1.0, 2 * n)
            ops.append(_metric_op(random_lattice(rng, n), item, tilt, momenta))

    fixtures = os.path.join(root, "fixtures")
    ks = range(1, 51)
    ops.append(
        _sequence_op(
            os.path.join(fixtures, "ex-4-9.json"),
            0.5,
            "non-collapsed (limit corank-1)",
            [1.0 / SQ2] * 50,
        )
    )
    ops.append(
        _sequence_op(
            os.path.join(fixtures, "ex-5-3.json"),
            0.5,
            "collapsed",
            _family_totals(Fraction(1), Fraction(1), Fraction(1), True, ks),
        )
    )
    for collapse in (False, True):
        # a, b in [1, 5] and c <= 4 keep k / c above 1 / delta on the trailing
        # window k = 26..30, where the analyzer tests convergence
        a, b = (Fraction(int(rng.integers(2, 6)), int(rng.integers(1, 3))) for _ in range(2))
        c = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        path = os.path.join(workdir, f"family-{'collapse' if collapse else 'stable'}.json")
        _family_spec(path, a, b, c, collapse)
        V = 0.5 / (SQ2 * float(a * b) ** 2)
        verdict = "collapsed" if collapse else "non-collapsed (limit corank-1)"
        ops.append(
            _sequence_op(path, V, verdict, _family_totals(a, b, c, collapse, range(1, 31)))
        )
    for n, bound in ENUMERATE_BOUNDS:
        ops.append(_enumerate_op(n, bound))
    return ops


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

DIST_METRICS_PER_CELL = 3
Z_SCALES = (0.3, 2.0, 8.0)

# n = 3, corank 1, frame diag(sqrt d, sqrt d, 0): the default solver finds no
# root on these near-horizontal targets (best residual ~0.2); the reference
# distance is ~1.0.
SPREAD_D = (0.70, 42.0, 58.2)
SPREAD_TARGETS = (
    ((0.59, 0.41, 0.38, 0.43, 0.39, -0.08), -0.013),
    ((-0.42, -0.19, -0.09, -0.6, 0.53, 0.38), -0.01),
)
# identity metric on H_1: every converged root lies past the cut time
TALL_TARGETS = (((0.3, 0.2), 100.0), ((0.3, 0.2), 150.0))

QUOTIENT_CASES = ((1, 0), (1, 1), (1, 0), (2, 0), (2, 1), (2, 1))
# quotient_distance lists its whole candidate box before it checks the box
# against its 500 000 limit (and then raises RuntimeError); inputs are drawn
# again until the box it will list is small, which keeps each call well
# under a second
QUOTIENT_BOX_MAX = 5_000


def _distance_check(c, u, z, target, want):
    def check(out):
        length, p = out
        L_ref = want()
        problem = _close(length, L_ref, DIST_REL, "distance")
        if problem:
            return problem
        if length < float(np.linalg.norm(u)) * (1.0 - 1e-9):
            return "distance below the horizontal bound |Atilde^-1 w|"
        speed2 = float(p.horizontal() @ p.horizontal()) + (c.rho * p.p_z) ** 2
        if abs(speed2 - 1.0) > 1e-9:
            return "momentum is not unit"
        end_u, end_z = ref.endpoint(c.d, c.rho, p.horizontal(), p.p_z, length)
        return _close(np.append(c.atilde @ end_u, end_z), target, REACH_REL, "minimizer endpoint")

    return check


def _distance_op(c, item, u, z, kind, known_failure=False):
    """distance to the point with frame coordinates u (in the frame
    item["atilde"] with invariants item["d"], item["rho"]) and height z."""
    from heisgeo import core, geodesics

    n = len(item["d"])
    w = item["atilde"] @ np.asarray(u, dtype=np.float64)
    g = core.GroupElement(w[:n], w[n:], z)
    want = functools.cache(lambda: ref.reference_distance(item["d"], item["rho"], u, z)[0])
    return Op(
        kind,
        lambda: geodesics.distance(c, g),
        _distance_check(c, u, z, np.append(w, z), want),
        known_failure,
    )


def _quotient_op(c, item, r, target):
    from heisgeo import core, geodesics

    g = core.GroupElement.from_coords(target)
    spec = core.LatticeSpec(r)
    want = functools.cache(
        lambda: ref.reference_quotient_distance(item["atilde"], item["d"], item["rho"], r, target)
    )
    return Op(
        "quotient_distance",
        lambda: geodesics.quotient_distance(c, spec, g),
        lambda out: _close(out, want(), DIST_REL, "quotient distance"),
    )


def quotient_box(item, r, target):
    """Size of the translate box quotient_distance enumerates: it is seeded
    with the distance L to the untranslated target, reaches sigma_max L in
    each of x, y and d_n L^2 / 4 + rho L in z."""
    n = len(r)
    at = item["atilde"]
    L, _ = ref.reference_distance(item["d"], item["rho"], np.linalg.solve(at, target[: 2 * n]), target[-1])
    reach = float(np.linalg.svd(at, compute_uv=False)[0]) * L
    z_reach = float(item["d"][-1]) * L * L / 4.0 + item["rho"] * L
    cells = math.prod(2.0 * reach / ri + 1.0 for ri in r) * (2.0 * reach + 1.0) ** n
    return cells * (2.0 * z_reach + 1.0)


def _unit_momentum(rng, n, rho):
    ph = rng.normal(size=2 * n)
    pz = float(rng.normal())
    s = math.sqrt(float(ph @ ph) + (rho * pz) ** 2)
    return ph / s, pz / s


def build_distance(rng, workdir, root):
    from heisgeo import metric

    def canon(A):
        return metric.canonicalize(metric.MetricMatrix.from_matrix(A))

    ops = []
    for n, corank in CELLS:
        for _ in range(DIST_METRICS_PER_CELL):
            item = random_metric(rng, n, corank, automorphism=False)
            c = canon(item["A"])
            for zs in Z_SCALES:
                u = rng.normal(size=2 * n)
                u *= rng.uniform(0.5, 1.5) / np.linalg.norm(u)
                z = zs * float(rng.uniform(0.5, 1.5)) * float(rng.choice([-1.0, 1.0]))
                ops.append(_distance_op(c, item, u, z, "generic"))
            z = float(rng.uniform(0.5, 6.0)) * float(rng.choice([-1.0, 1.0]))
            ops.append(_distance_op(c, item, np.zeros(2 * n), z, "vertical"))
            # endpoint of a unit-speed geodesic at 85-95% of its cut time
            ph, pz = _unit_momentum(rng, n, item["rho"])
            t = float(rng.uniform(0.85, 0.95)) * min(2.0 * math.pi / (abs(pz) * item["d"][-1]), 6.0)
            u, z = ref.endpoint(item["d"], item["rho"], ph, pz, t)
            ops.append(_distance_op(c, item, u, z, "near_cut"))

    for n, corank in QUOTIENT_CASES:
        while True:
            item = random_metric(rng, n, corank, automorphism=False)
            r = random_lattice(rng, n)
            w = np.concatenate([rng.uniform(0.0, 1.0, n) * np.asarray(r), rng.uniform(0.0, 1.0, n)])
            target = np.append(w, float(rng.uniform(-0.5, 0.5)))
            if quotient_box(item, r, target) <= QUOTIENT_BOX_MAX:
                break
        ops.append(_quotient_op(canon(item["A"]), item, r, target))

    sq = np.sqrt(SPREAD_D)
    spread = {"A": np.diag(np.concatenate([sq, sq, [0.0]])), "atilde": np.diag(np.concatenate([sq, sq])),
              "d": np.asarray(SPREAD_D), "rho": 0.0}
    identity = {"A": np.eye(3), "atilde": np.eye(2), "d": np.ones(1), "rho": 1.0}
    for item, targets, kind in ((spread, SPREAD_TARGETS, "known_failure_spread_d"),
                                (identity, TALL_TARGETS, "known_failure_tall_z")):
        c = canon(item["A"])
        for u, z in targets:
            ops.append(_distance_op(c, item, u, z, kind, known_failure=True))
    return ops


# ---------------------------------------------------------------------------
# rk4_oracle
# ---------------------------------------------------------------------------

RK4_STEPS = 4096
RK4_SAMPLES = 8


def build_rk4_oracle(rng, workdir, root):
    from heisgeo import geodesics, metric

    ops = []
    for n, corank in CELLS:
        item = random_metric(rng, n, corank, automorphism=True)
        c = metric.canonicalize(metric.MetricMatrix.from_matrix(item["A"]))
        ph, pz = _unit_momentum(rng, n, c.rho)
        p = geodesics.Momentum(ph[:n], ph[n:], pz)
        t = float(rng.uniform(0.05, 0.9)) * min(2.0 * math.pi / (abs(pz) * float(c.d[-1])), 10.0)

        def run(c=c, p=p, t=t):
            flow = geodesics.flow_numeric(c, p, t, RK4_STEPS).coords()
            H = geodesics.hamiltonian_along_flow(c, p, t, RK4_STEPS, samples=RK4_SAMPLES)
            return flow, H, geodesics.geodesic_point(c, p, t).coords()

        def check(out, c=c, p=p, t=t):
            flow, H, closed = out
            u, z = ref.endpoint(c.d, c.rho, p.horizontal(), p.p_z, t)
            want = np.append(c.atilde @ u, z)
            if not np.max(np.abs(flow - want)) <= RK4_ABS:
                return "RK4 endpoint differs from the reference closed form"
            if not np.max(np.abs(flow - closed)) <= RK4_ABS:
                return "RK4 endpoint differs from geodesic_point"
            if len(H) != RK4_SAMPLES + 1 or abs(H[0] - 0.5) > 1e-12:
                return "Hamiltonian samples"
            if not np.max(np.abs(H - H[0])) <= ENERGY_REL * H[0]:
                return "energy drift along the RK4 flow"
            return None

        ops.append(Op(f"rk4_n{n}_corank{corank}", run, check))
    return ops


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def _write_metric(path, A, r):
    n = (A.shape[0] - 1) // 2
    doc = {"n": n, "lattice": list(r), "matrix": [[float(v) for v in row] for row in A]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _fmt(values):
    """Comma-separated floats; passed as --opt=value, since argparse reads a
    leading minus sign as an option."""
    return ",".join(repr(float(v)) for v in values)


def build_cli_cold(rng, workdir, root):
    """Argument lists for ``python -m heisgeo.cli``, one per call, with a
    check of each call's parsed stdout."""
    fixtures = os.path.join(root, "fixtures")
    identity = os.path.join(fixtures, "identity-h1.json")
    calls = []

    calls.append((["canonicalize", "--input", identity], _cli_canonicalize_check(np.eye(3))))

    item = random_metric(rng, 2, 0, automorphism=True)
    path = os.path.join(workdir, "n2-riemannian.json")
    _write_metric(path, item["A"], (1, 2))
    calls.append((["invariants", "--input", path], _cli_invariants_check(item["A"], 0)))
    tilt = rng.uniform(-1.0, 1.0, 4)
    calls.append(
        (
            ["volume", "--input", path, "--kind", "tilted", "--tilt=" + _fmt(tilt)],
            _cli_volume_check(item["A"], tilt, 2),
        )
    )

    item = random_metric(rng, 1, 0, automorphism=True)
    path = os.path.join(workdir, "n1-riemannian.json")
    _write_metric(path, item["A"], (1,))
    calls.append((["ricci", "--input", path], _cli_ricci_check(item["A"])))

    # diagonal frame: the canonical frame coordinates are (x/a, y/b)
    ab = rng.uniform(0.6, 1.6, 6)
    rho = float(rng.uniform(0.4, 1.5))
    path = os.path.join(workdir, "n3-diagonal.json")
    _write_metric(path, np.diag(np.append(ab, rho)), (1, 1, 1))
    ph, pz = _unit_momentum(rng, 3, rho)
    t = float(rng.uniform(0.3, 0.8)) * min(2.0 * math.pi / (abs(pz) * float(np.max(ab[:3] * ab[3:]))), 4.0)
    calls.append(
        (
            ["geodesic", "--input", path, "--momentum=" + _fmt(np.append(ph, pz)), "--time", repr(t)],
            _cli_geodesic_check(ab, rho, ph, pz, t),
        )
    )

    xy = rng.uniform(-0.8, 0.8, 2)
    z = float(rng.uniform(-1.0, 1.0))
    calls.append(
        (
            ["distance", "--input", identity, "--target=" + _fmt(np.append(xy, z))],
            _cli_distance_check(xy, z),
        )
    )
    target = np.array([float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.5, 0.5))])
    calls.append(
        (
            ["distance", "--input", identity, "--target=" + _fmt(target), "--quotient"],
            _cli_quotient_check(target),
        )
    )

    item = random_metric(rng, 2, 1, automorphism=True)
    path = os.path.join(workdir, "n2-subriemannian.json")
    _write_metric(path, item["A"], (1, 2))
    calls.append(
        (
            ["check", "--input", path, "--D", "1", "--V", "0.5", "--mode", "subriemannian"],
            _cli_check_check(item["A"], (1, 2)),
        )
    )

    D = float(rng.uniform(0.5, 1.0))
    calls.append(
        (["lattice-bound", "--n", "1", "--D", repr(D), "--V", "1"], _cli_lattice_bound_check(D))
    )
    calls.append(
        (
            ["sequence", "--spec", os.path.join(fixtures, "ex-4-9.json"), "--volume-floor", "0.5"],
            _cli_sequence_check(),
        )
    )
    return calls


def _cli_canonicalize_check(A):
    def check(doc):
        P, R, at = (np.asarray(doc[k]) for k in ("p", "r", "atilde"))
        dim = A.shape[0]
        block = np.zeros((dim, dim))
        block[: dim - 1, : dim - 1] = at
        block[-1, -1] = doc["rho"]
        if not np.max(np.abs(P @ A @ R - block)) <= 1e-9:
            return "P A R != blockdiag(Atilde, rho)"
        d, rho, _ = ref.frame_invariants(A, doc["corank"])
        return _first(_close(doc["d"], d, REL, "d"), _close(doc["rho"], rho, REL, "rho"))

    return check


def _cli_invariants_check(A, corank):
    def check(doc):
        d, rho, absdet = ref.frame_invariants(A, corank)
        return _first(
            _close(doc["d"], d, REL, "d"),
            _close(doc["delta"], math.sqrt(2.0 * float(np.sum(d**2))), REL, "delta"),
            _close(doc["absdet"], absdet, REL, "|det Atilde|"),
            _close(doc["absrho"], rho, REL, "|rho|"),
        )

    return check


def _cli_volume_check(A, tilt, covolume):
    def check(doc):
        d, rho, absdet = ref.frame_invariants(A, 0)
        want = ref.volume_coefficients(d, rho, absdet, tilt)["tilted"]
        return _first(
            _close(doc["coefficient"], want, REL, "tilted coefficient"),
            _close(doc["total_measure"], covolume * want, REL, "total measure"),
        )

    return check


def _cli_ricci_check(A):
    def check(doc):
        want = np.linalg.eigvalsh(ref.koszul_ricci(A))
        got = np.linalg.eigvalsh(np.asarray(doc["matrix"]))
        scale = float(np.max(np.abs(want)))
        if not np.max(np.abs(got - want)) <= 1e-8 * scale:
            return "Ricci spectrum differs from the Koszul oracle"
        return _first(_close(doc["min"], want[0], 1e-8, "min"), _close(doc["max"], want[-1], 1e-8, "max"))

    return check


def _cli_geodesic_check(ab, rho, ph, pz, t):
    """The endpoint in the program's canonical frame against the reference
    closed form.  That frame is fixed only up to a rotation in each block, so
    it is taken from ``canonicalize`` (after the clock has stopped) and first
    checked to be a canonical frame of this metric: diag(a, b)^-1 Atilde is
    orthogonal and Atilde^T J Atilde = block_form(sorted a b).  Then, with no
    program call, the reference distance to the endpoint must equal t, as a
    unit-speed geodesic minimizes before its cut time."""

    def check(doc):
        from heisgeo import metric

        got = np.concatenate([doc["x"], doc["y"], [doc["z"]]])
        d = ab[:3] * ab[3:]
        order = np.argsort(d)
        c = metric.canonicalize(metric.MetricMatrix.from_matrix(np.diag(np.append(ab, rho))))
        frame = c.atilde / ab[:, None]
        if not np.max(np.abs(frame.T @ frame - np.eye(6))) <= 1e-12:
            return "canonical frame is not a frame of the metric"
        if not np.max(np.abs(c.atilde.T @ ref.symplectic_j(3) @ c.atilde - ref.block_form(d[order]))) <= 1e-12:
            return "canonical frame does not bring the bracket to block form"
        u, z = ref.endpoint(d[order], rho, ph, pz, t)
        w = got[:6] / ab
        v = np.concatenate([w[:3][order], w[3:][order]])
        dist, _ = ref.reference_distance(d[order], rho, v, got[6])
        return _first(
            _close(got, np.append(c.atilde @ u, z), REL, "geodesic endpoint"),
            _close(dist, t, DIST_REL, "distance to the geodesic endpoint"),
        )

    return check


def _cli_distance_check(xy, z):
    def check(doc):
        want, _ = ref.reference_distance([1.0], 1.0, xy, z)
        m = doc["momentum"]
        p_h = np.array(m["p_x"] + m["p_y"])
        end_u, end_z = ref.endpoint([1.0], 1.0, p_h, m["p_z"], doc["distance"])
        return _first(
            _close(doc["distance"], want, DIST_REL, "distance"),
            _close(np.append(end_u, end_z), np.append(xy, z), REACH_REL, "minimizer endpoint"),
        )

    return check


def _cli_quotient_check(target):
    def check(doc):
        want = ref.reference_quotient_distance(np.eye(2), [1.0], 1.0, (1,), target)
        return _close(doc["distance"], want, DIST_REL, "quotient distance")

    return check


def _cli_check_check(A, r):
    def check(doc):
        n = (A.shape[0] - 1) // 2
        d, rho, absdet = ref.frame_invariants(A, 1)
        wc = ref.precompactness_constants(n, math.prod(r), 1.0, 0.5, mode="subriemannian")
        dr = np.concatenate([np.asarray(r, dtype=np.float64), np.ones(n)])
        shortest = ref.shortest_vector_norm(ref.horizontal_gram_inverse(A) * dr[None, :] * dr[:, None])
        cond = doc["conditions"]
        return _first(
            *(_close(doc["constants"][k], wc[k], REL, k) for k in ("c1", "c2", "c3", "c_plus")),
            _close(cond["a1"]["value"], shortest, REL, "A-1"),
            _close(cond["a2"]["value"], absdet, REL, "A-2"),
            _close(cond["a3"]["value"], d[-1], REL, "A-3"),
            _close(cond["a4"]["value"], rho, REL, "A-4"),
        )

    return check


def _cli_lattice_bound_check(D):
    def check(doc):
        ball = math.pi * D * D
        bound = max(64.0 * D**2 * ball**2, 16.0 * D**2 * ball)
        chains = ref.divisibility_chains(1, int(math.floor(bound)))
        if doc["count"] != len(chains) or sorted(tuple(r) for r in doc["lattices"]) != chains:
            return "lattice list differs from the divisor chains"
        return _close(doc["bound"], bound, REL, "rank bound")

    return check


def _cli_sequence_check():
    def check(doc):
        if doc["verdict"] != "non-collapsed (limit corank-1)":
            return f"verdict {doc['verdict']!r}"
        got = [row["minimal_popp_total"] for row in doc["rows"]]
        return _close(got, [1.0 / SQ2] * 50, REL, "minimal Popp totals")

    return check
