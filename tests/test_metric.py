import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import (
    AlgebraVector,
    InvalidMetricError,
    LatticeSpec,
    NotBracketGeneratingError,
    RiemannianOnlyError,
    bracket,
)
from heisgeo.metric import (
    MetricMatrix,
    canonicalize,
    canonicalize_family,
    invariants,
    j_matrix,
    minimal_popp_coeff,
    popp_coeff_from_structure,
    popp_coeff_v0,
    ricci_matrix,
    riemannian_volume_coeff,
    standard_symplectic,
    tilted_popp_coeff,
    total_measure,
    weak_canonicalize,
)
from heisgeo.linalg import block_form

from conftest import koszul_ricci, random_corank0, random_corank1, random_orthogonal

SQ2 = np.sqrt(2.0)


def diag_metric(*entries):
    return MetricMatrix.from_matrix(np.diag([float(v) for v in entries]))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_corank_classification():
    assert diag_metric(1, 1, 1).corank == 0
    assert diag_metric(1, 1, 0).corank == 1
    with pytest.raises(InvalidMetricError):
        diag_metric(1, 1, 1e-11)  # gray zone
    with pytest.raises(InvalidMetricError):
        diag_metric(1, 0, 0)  # corank 2
    with pytest.raises(InvalidMetricError):
        MetricMatrix.from_matrix(np.eye(4))  # even size
    # corank-1 image must project onto all of v_0
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0
    bad[2, 2] = 1.0
    with pytest.raises(InvalidMetricError):
        MetricMatrix.from_matrix(bad)


# ---------------------------------------------------------------------------
# weak canonical form
# ---------------------------------------------------------------------------


def test_weak_canonicalize_block_diagonal_is_fixed():
    A = np.diag([2.0, 3.0, 0.5])
    P, R, atilde, rho = weak_canonicalize(MetricMatrix.from_matrix(A))
    assert np.allclose(P, np.eye(3))
    assert np.allclose(R, np.eye(3))
    assert np.allclose(atilde, np.diag([2.0, 3.0]))
    assert rho == pytest.approx(0.5)


def test_weak_canonicalize_clears_last_row():
    atilde = np.array([[2.0, 1.0], [0.0, 1.5]])
    a_row = np.array([0.7, -1.2])
    A = np.zeros((3, 3))
    A[:2, :2] = atilde
    A[2, :2] = a_row
    A[2, 2] = 0.8
    P, R, at, rho = weak_canonicalize(MetricMatrix.from_matrix(A))
    assert np.allclose(R, np.eye(3))
    assert np.allclose(P[2, :2], -a_row @ np.linalg.inv(atilde))
    out = P @ A @ R
    assert np.max(np.abs(out[2, :2])) <= 1e-12
    assert np.max(np.abs(out[:2, 2])) <= 1e-12


def test_weak_canonicalize_rotates_kernel():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = MetricMatrix.from_matrix(random_corank1(rng, 1))
        P, R, atilde, rho = weak_canonicalize(m)
        assert rho == 0.0
        out = P @ m.mat @ R
        scale = np.max(np.abs(m.mat))
        assert np.max(np.abs(out[:2, 2])) <= 1e-9 * scale
        assert np.max(np.abs(out[2, :])) <= 1e-9 * scale
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1.0, 4.0, 25.0])
def test_canonicalize_examples(k):
    c = canonicalize(diag_metric(1, 1, 1 / k))
    assert np.allclose(c.atilde, np.eye(2))
    assert c.rho == pytest.approx(1 / k, rel=1e-14)
    assert np.allclose(c.d, [1.0])

    c = canonicalize(diag_metric(k, 1, 1 / k))
    assert np.allclose(c.d, [k])

    c = canonicalize(diag_metric(1, 1, 0))
    assert c.rho == 0.0
    assert np.allclose(c.d, [1.0])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("corank", [0, 1])
def test_canonical_invariants_random(n, corank):
    rng = np.random.default_rng(100 + 10 * n + corank)
    for _ in range(15):
        mat = random_corank0(rng, n) if corank == 0 else random_corank1(rng, n)
        m = MetricMatrix.from_matrix(mat)
        c = canonicalize(m)
        scale = np.max(np.abs(m.mat))
        blk = np.zeros((2 * n + 1, 2 * n + 1))
        blk[: 2 * n, : 2 * n] = c.atilde
        blk[-1, -1] = c.rho
        assert np.max(np.abs(c.P @ m.mat @ c.R - blk)) <= 1e-9 * scale
        C = c.atilde.T @ standard_symplectic(n) @ c.atilde
        assert np.max(np.abs(C - block_form(c.d))) <= 1e-9 * np.max(np.abs(C))
        assert (c.rho > 0) == (corank == 0)
        assert np.all(c.d > 0) and np.all(np.diff(c.d) >= -1e-12)


# ---------------------------------------------------------------------------
# j-matrix
# ---------------------------------------------------------------------------


def test_j_matrix_examples():
    assert np.allclose(j_matrix(np.eye(2)), standard_symplectic(1))
    assert np.allclose(j_matrix(np.diag([3.0, 1.0])), [[0.0, 3.0], [-3.0, 0.0]])


def test_j_matrix_against_bracket():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        atilde = rng.uniform(-4, 4, size=(2 * n, 2 * n))
        C = j_matrix(atilde)
        for i in range(2 * n):
            for j in range(2 * n):
                u = AlgebraVector(atilde[:n, i], atilde[n:, i], 0.0)
                v = AlgebraVector(atilde[:n, j], atilde[n:, j], 0.0)
                assert C[i, j] == pytest.approx(bracket(u, v).z, abs=1e-12 * np.max(np.abs(C)))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_examples():
    k = 7.0
    inv = invariants(diag_metric(1, 1, 1 / k))
    assert np.allclose(inv.d, [1.0])
    assert inv.delta == pytest.approx(SQ2, rel=1e-12)
    assert inv.absdet == pytest.approx(1.0, rel=1e-12)
    assert inv.absrho == pytest.approx(1 / k, rel=1e-12)

    inv = invariants(diag_metric(k, 1, 1 / k))
    assert np.allclose(inv.d, [k])
    assert inv.delta == pytest.approx(SQ2 * k, rel=1e-12)
    assert inv.absdet == pytest.approx(k, rel=1e-12)
    assert inv.absrho == pytest.approx(1 / k, rel=1e-12)


def test_invariants_right_orthogonal_action():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        mat = random_corank0(rng, n)
        R = np.eye(2 * n + 1)
        R[: 2 * n, : 2 * n] = random_orthogonal(rng, 2 * n)
        R[-1, -1] = -1.0
        a = invariants(MetricMatrix.from_matrix(mat))
        b = invariants(MetricMatrix.from_matrix(mat @ R))
        assert np.max(np.abs(a.d - b.d)) <= 1e-9 * max(a.d[-1], 1.0)
        assert a.absdet == pytest.approx(b.absdet, rel=1e-9)
        assert a.absrho == pytest.approx(b.absrho, rel=1e-9)


def test_lemma_identities_sample():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        mat = random_corank0(rng, n) if rng.integers(0, 2) else random_corank1(rng, n)
        inv = invariants(MetricMatrix.from_matrix(mat))
        assert abs(inv.delta - np.sqrt(2 * np.sum(inv.d**2))) <= 1e-9 * inv.delta
        assert abs(inv.absdet - np.prod(inv.d)) <= 1e-9 * inv.absdet


# ---------------------------------------------------------------------------
# Ricci
# ---------------------------------------------------------------------------


def test_ricci_standard_metric():
    ric = ricci_matrix(diag_metric(1, 1, 1))
    assert np.allclose(ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    oracle = koszul_ricci(np.eye(3))
    assert np.max(np.abs(ric - oracle)) <= 1e-12


@pytest.mark.parametrize("k", [1.0, 10.0])
def test_ricci_vertical_divergence(k):
    ric = ricci_matrix(diag_metric(1, 1, 1 / k))
    assert ric[2, 2] == pytest.approx(k**2 / 2, rel=1e-12)
    assert np.max(np.abs(ric[:2, 2])) == 0.0  # mixed block vanishes


def test_ricci_rejects_corank1():
    with pytest.raises(RiemannianOnlyError):
        ricci_matrix(diag_metric(1, 1, 0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ricci_vs_koszul_oracle(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        c = canonicalize(MetricMatrix.from_matrix(random_corank0(rng, n)))
        ric = ricci_matrix(c)
        oracle = koszul_ricci(c.matrix())
        assert np.max(np.abs(ric - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(ric)))


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def test_riemannian_volume_examples():
    k = 13.0
    assert riemannian_volume_coeff(diag_metric(1, 1, 1 / k)).value == pytest.approx(k, rel=1e-12)
    assert riemannian_volume_coeff(diag_metric(1, 1, 1)).value == pytest.approx(1.0, rel=1e-12)
    assert riemannian_volume_coeff(diag_metric(k, 1, 1 / k)).value == pytest.approx(1.0, rel=1e-12)
    assert riemannian_volume_coeff(diag_metric(1, 1, 0)).value == np.inf


def test_popp_from_structure():
    # standard horizontal frame of H_1: c_12^3 = 1 = -c_21^3
    c = np.zeros((2, 2, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    assert popp_coeff_from_structure(c, 2, 3).value == pytest.approx(1 / SQ2, rel=1e-14)
    # full-rank frame: empty B, canonical volume
    assert popp_coeff_from_structure(np.zeros((3, 3, 3)), 3, 3).value == 1.0
    with pytest.raises(NotBracketGeneratingError):
        popp_coeff_from_structure(np.zeros((2, 2, 3)), 2, 3)


def test_popp_structure_consistency_with_v0():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        for _ in range(10):
            m = MetricMatrix.from_matrix(random_corank1(rng, n))
            c = canonicalize(m)
            C = j_matrix(c)
            sc = np.zeros((2 * n, 2 * n, 2 * n + 1))
            sc[:, :, 2 * n] = C
            adapted = popp_coeff_from_structure(sc, 2 * n, 2 * n + 1).value
            haar = adapted / c.absdet
            assert haar == pytest.approx(popp_coeff_v0(c).value, rel=1e-10)


def test_tilted_popp():
    m = diag_metric(1, 1, 1)
    v0 = popp_coeff_v0(m).value
    assert tilted_popp_coeff(m, [0.0, 0.0]).value == pytest.approx(v0, rel=1e-14)
    assert tilted_popp_coeff(m, [1.0, 0.0]).value == pytest.approx(SQ2, rel=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(50):
        t = rng.uniform(-3, 3, size=2)
        assert tilted_popp_coeff(m, t).value > v0


def test_minimal_popp_examples():
    for k in (1.0, 5.0, 40.0):
        assert minimal_popp_coeff(diag_metric(1, 1, 1 / k)).value == pytest.approx(
            1 / SQ2, rel=1e-12
        )
        assert minimal_popp_coeff(diag_metric(k, 1, 1 / k)).value == pytest.approx(
            1 / (SQ2 * k**2), rel=1e-12
        )
    assert minimal_popp_coeff(diag_metric(1, 1, 0)).value == pytest.approx(1 / SQ2, rel=1e-12)


def test_minimal_popp_is_minimal():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = MetricMatrix.from_matrix(random_corank0(rng, 1))
        mp = minimal_popp_coeff(m).value
        assert mp <= riemannian_volume_coeff(m).value * (1 + 1e-12)
        assert mp <= popp_coeff_v0(m).value * (1 + 1e-12)


def test_total_measure():
    spec1 = LatticeSpec((1,))
    spec2 = LatticeSpec((2,))
    coeff = minimal_popp_coeff(diag_metric(1, 1, 1))
    assert total_measure(spec1, coeff) == pytest.approx(1 / SQ2, rel=1e-14)
    assert total_measure(spec2, riemannian_volume_coeff(diag_metric(1, 1, 1))) == pytest.approx(
        2.0, rel=1e-14
    )
    k = 9.0
    assert total_measure(spec1, riemannian_volume_coeff(diag_metric(1, 1, 1 / k))) == pytest.approx(
        k, rel=1e-12
    )


def test_minimal_popp_continuity_along_family():
    # canonical representatives converge entrywise, so the minimal-Popp
    # coefficient converges to the corank-1 limit value
    vals = [minimal_popp_coeff(diag_metric(1, 1, 1 / k)).value for k in range(1, 30)]
    limit = minimal_popp_coeff(diag_metric(1, 1, 0)).value
    assert vals[-1] == pytest.approx(limit, rel=1e-12)
    assert np.max(np.abs(np.diff(vals))) <= 1e-12


# ---------------------------------------------------------------------------
# stacked reduction of a family
# ---------------------------------------------------------------------------


def _frame_metric(rng, d, corank):
    """L blockdiag(S diag(sqrt d, sqrt d), rho) Q: bracket spectrum d, with
    S symplectic, L an inner automorphism and Q orthogonal."""
    n = len(d)
    M = random_orthogonal(rng, n) @ np.diag(rng.uniform(0.7, 1.4, n)) @ random_orthogonal(rng, n)
    B = rng.uniform(-0.3, 0.3, (n, n))
    zero, eye = np.zeros((n, n)), np.eye(n)
    S = np.block([[M, zero], [zero, np.linalg.inv(M).T]]) @ np.block([[eye, B + B.T], [zero, eye]])
    sq = np.sqrt(np.asarray(d, dtype=np.float64))
    core = np.zeros((2 * n + 1, 2 * n + 1))
    core[: 2 * n, : 2 * n] = S @ np.diag(np.concatenate([sq, sq]))
    core[-1, -1] = 0.0 if corank else rng.uniform(0.4, 1.5)
    L = np.eye(2 * n + 1)
    L[-1, : 2 * n] = rng.uniform(-1.0, 1.0, 2 * n)
    return L @ core @ random_orthogonal(rng, 2 * n + 1)


def _sweep_stack(rng, n, count):
    """Seeded metrics of both coranks, random ones and frames with repeated
    d (the identity, and d_1 = d_2 != d_3 at n = 3), shuffled in one list."""
    mats = []
    for i in range(count):
        corank = i % 2
        kind = i % 5
        if kind == 0 and n >= 2:
            mats.append(np.eye(2 * n + 1) if corank == 0 else _frame_metric(rng, np.ones(n), 1))
        elif kind == 1 and n >= 2:
            d = np.ones(n) if n == 2 else np.array([1.3, 1.3, 0.6])
            mats.append(_frame_metric(rng, d, corank))
        elif kind == 2:
            mats.append(_frame_metric(rng, np.sort(rng.uniform(0.5, 2.0, n)), corank))
        else:
            make = random_corank1 if corank else random_corank0
            mats.append(make(rng, n, cond_max=1e2))
    order = rng.permutation(count)
    return [mats[i] for i in order]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonicalize_family_matches_members(n):
    rng = np.random.default_rng(500 + n)
    mats = _sweep_stack(rng, n, 350)
    members = MetricMatrix.from_matrices(mats)
    family = canonicalize_family(members)
    assert {m.corank for m in members} == {0, 1}
    repeated = 0
    for m, c in zip(members, family):
        # bit for bit what the member gets alone
        one = canonicalize(m)
        for field in ("atilde", "d", "P", "R"):
            assert np.array_equal(getattr(c, field), getattr(one, field))
        assert (c.rho, c.absdet, c.delta) == (one.rho, one.absdet, one.delta)
        assert c.absdet == pytest.approx(abs(np.linalg.det(c.atilde)), rel=1e-12)
        assert c.delta == pytest.approx(np.sqrt(2.0 * np.sum(c.d**2)), rel=1e-15)
        # P A R = blockdiag(Atilde, rho) with R orthogonal
        scale = np.max(np.abs(m.mat))
        assert np.max(np.abs(c.P @ m.mat @ c.R - c.matrix())) <= 1e-12 * scale
        assert np.max(np.abs(c.R.T @ c.R - np.eye(2 * n + 1))) <= 1e-12
        C = c.atilde.T @ standard_symplectic(n) @ c.atilde
        assert np.max(np.abs(C - block_form(c.d))) <= 1e-12 * np.max(c.d)
        repeated += bool(np.any(np.diff(c.d) <= 1e-9 * c.d[-1]))
    assert repeated >= (100 if n >= 2 else 0)


def test_canonicalize_family_empty_and_mixed_n():
    assert canonicalize_family([]) == []
    with pytest.raises(ValueError, match="share n"):
        canonicalize_family([diag_metric(1, 1, 1), diag_metric(1, 1, 1, 1, 1)])


def test_from_matrices_matches_from_matrix():
    rng = np.random.default_rng(9)
    mats = [random_corank0(rng, 2), random_corank1(rng, 2), np.eye(5), np.diag([1.0, 2, 3, 4, 0])]
    stacked = MetricMatrix.from_matrices(mats)
    for mat, m in zip(mats, stacked):
        one = MetricMatrix.from_matrix(mat)
        assert (m.n, m.corank) == (one.n, one.corank)
        assert np.array_equal(m.mat, one.mat)
        assert not m.mat.flags.writeable


def test_canonical_arrays_are_read_only():
    """The cached frame inverse stays valid only if Atilde cannot change under
    it: the canonical arrays refuse in-place writes, one member or a family."""
    rng = np.random.default_rng(12)
    members = [MetricMatrix.from_matrix(random_corank0(rng, 2)), MetricMatrix.from_matrix(random_corank1(rng, 2))]
    for c in [canonicalize(members[0]), *canonicalize_family(members)]:
        for name in ("atilde", "d", "P", "R"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(c, name)[0] = 1.0
        assert c._frame_inverse == np.linalg.inv(c.atilde).tolist()
        assert c._frame_inverse is c._frame_inverse  # computed once


# |k| <= HOMOTHETY_K[n], i.e. |2nk| <= 900, keeps 4^(nk) |det Atilde| and
# 4^k d normal floats for these draws: random_corank0/1 keep the singular
# values in (1e-3, 40), so 2^-60 < |det Atilde| < 2^32
HOMOTHETY_K = {1: 450, 2: 225, 3: 150}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    corank=st.integers(0, 1),
    data=st.data(),
)
def test_canonicalize_homothety(seed, n, corank, data):
    # scaling the frame by s = 2^k: d -> s^2 d, rho -> s rho,
    # |det Atilde| -> s^(2n) |det Atilde|, delta -> s^2 delta, exactly,
    # because the reduction runs at unit scale
    k = data.draw(st.integers(-HOMOTHETY_K[n], HOMOTHETY_K[n]), label="k")
    rng = np.random.default_rng(seed)
    A = random_corank1(rng, n) if corank else random_corank0(rng, n)
    c = canonicalize(MetricMatrix.from_matrix(A))
    s = canonicalize(MetricMatrix.from_matrix(np.ldexp(A, k)))
    assert np.array_equal(s.d, np.ldexp(c.d, 2 * k))
    assert s.rho == math.ldexp(c.rho, k)
    assert s.absdet == math.ldexp(c.absdet, 2 * n * k)
    assert s.delta == math.ldexp(c.delta, 2 * k)
    assert np.array_equal(s.atilde, np.ldexp(c.atilde, k))
    assert np.array_equal(s.P, c.P) and np.array_equal(s.R, c.R)


def test_scale_witnesses():
    # d = 1e-12 is not mistaken for a kernel
    c = canonicalize(diag_metric(1e-6, 1e-6, 1))
    assert c.d.tolist() == [1e-12] and c.absdet == 1e-12
    # 1e150 I: C = 1e300 J is formed at unit scale, so nothing overflows
    a = 1e150
    c = canonicalize(diag_metric(a, a, a))
    assert c.d.tolist() == [a * a] and c.absdet == a * a and c.rho == a
    assert c.delta == pytest.approx(math.sqrt(2.0) * a * a, rel=1e-15)
    # invariants outside the float range are refused, not returned as inf
    with pytest.raises(InvalidMetricError, match="scale out of range"):
        canonicalize(diag_metric(1e200, 1e200, 1e200))
    with pytest.raises(InvalidMetricError, match="scale out of range"):
        canonicalize(diag_metric(1e-200, 1e-200, 1e-200))


def test_gray_zone_edge():
    # a relative singular value just inside [1e-12, 1e-10) is refused by the
    # classifier; just outside, the metric reduces
    for s, accepted in ((0.99e-10, False), (1.01e-10, True)):
        # corank 0: the height direction nearly vanishes
        A = np.diag([1.0, 1.0, s])
        # corank 1 whose horizontal rows nearly lose rank: A itself is fine
        B = np.array([[1.0, 0.0, 0.0], [0.0, s, 0.0], [0.0, 1.0, 0.0]])
        if not accepted:
            with pytest.raises(InvalidMetricError, match="gray zone"):
                MetricMatrix.from_matrix(A)
            with pytest.raises(InvalidMetricError, match="not bracket generating"):
                MetricMatrix.from_matrix(B)
            continue
        assert canonicalize(MetricMatrix.from_matrix(A)).rho == s
        c = canonicalize(MetricMatrix.from_matrix(B))
        assert c.corank == 1 and c.d[0] == pytest.approx(s, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_atilde_conditioning_is_bounded_by_the_metric(n):
    # interlacing: sigma_min/sigma_max of Atilde is at least that of A
    # (corank 0) or of A's first 2n rows (corank 1), which the classifier
    # keeps above 1e-10, so Atilde needs no check of its own
    rng = np.random.default_rng(40 + n)
    for corank in (0, 1):
        for _ in range(40):
            mat = random_corank1(rng, n) if corank else random_corank0(rng, n)
            c = canonicalize(MetricMatrix.from_matrix(mat))
            sa = np.linalg.svd(c.atilde, compute_uv=False)
            s = np.linalg.svd(mat[: 2 * n] if corank else mat, compute_uv=False)
            assert sa[-1] / sa[0] >= s[-1] / s[0] * (1.0 - 1e-9)


def test_constructor_checks_declared_corank():
    with pytest.raises(InvalidMetricError, match="declared corank 1"):
        MetricMatrix(1, np.eye(3), 1)
    with pytest.raises(InvalidMetricError, match="declared corank 0"):
        MetricMatrix(1, np.diag([1.0, 1.0, 0.0]), 0)
    with pytest.raises(InvalidMetricError, match="gray zone"):
        MetricMatrix(1, np.diag([1.0, 1.0, 1e-11]), 0)
    with pytest.raises(InvalidMetricError, match="finite"):
        MetricMatrix(1, np.diag([1.0, np.inf, 1.0]), 0)
    with pytest.raises(InvalidMetricError, match="3x3"):
        MetricMatrix(1, np.eye(5), 0)
    m = MetricMatrix(1, np.diag([1.0, 1.0, 0.0]), 1)
    assert m.corank == 1 and not m.mat.flags.writeable
    assert canonicalize(MetricMatrix(1, np.eye(3), 0)).rho == 1.0
