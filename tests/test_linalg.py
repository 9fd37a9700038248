import numpy as np
import pytest

from heisgeo.linalg import _lll_reduce, block_form, shortest_lattice_vector, skew_normal_form

from conftest import brute_force_shortest, random_orthogonal, random_unimodular


def random_skew(rng, m, scale=3.0):
    A = rng.uniform(-scale, scale, size=(m, m))
    return A - A.T


def test_skew_normal_form_2x2():
    nf = skew_normal_form([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(nf.R, np.eye(2))
    assert np.allclose(nf.d, [1.0])
    nf = skew_normal_form([[0.0, 4.5], [-4.5, 0.0]])
    assert np.allclose(nf.d, [4.5])


def test_skew_normal_form_invariants_random():
    rng = np.random.default_rng(42)
    for m in (2, 4, 6, 8):
        for _ in range(25):
            S = random_skew(rng, m)
            nf = skew_normal_form(S)
            scale = np.max(np.abs(S))
            assert np.max(np.abs(nf.R.T @ nf.R - np.eye(m))) <= 1e-10
            assert np.max(np.abs(nf.R.T @ S @ nf.R - block_form(nf.d))) <= 1e-9 * scale
            assert np.all(np.diff(nf.d) >= -1e-12)
            # eigenvalue oracle: d = positive imaginary parts of spec(S)
            im = np.sort(np.abs(np.linalg.eigvals(S).imag))[1::2]
            assert np.max(np.abs(np.sort(nf.d) - im)) <= 1e-9 * max(scale, 1.0)


def test_skew_normal_form_repeated_and_singular():
    # repeated d: two identical blocks force the cluster pairing path
    S = np.zeros((4, 4))
    S[0, 2] = S[1, 3] = 1.0
    S[2, 0] = S[3, 1] = -1.0
    nf = skew_normal_form(S)
    assert np.allclose(nf.d, [1.0, 1.0])
    assert np.max(np.abs(nf.R.T @ S @ nf.R - block_form(nf.d))) <= 1e-9

    # singular: one zero pair allowed
    S = np.zeros((4, 4))
    S[0, 1] = 2.0
    S[1, 0] = -2.0
    nf = skew_normal_form(S)
    assert np.allclose(nf.d, [0.0, 2.0])
    assert np.max(np.abs(nf.R.T @ S @ nf.R - block_form(nf.d))) <= 1e-9


def test_skew_normal_form_high_multiplicity():
    # d = (1, 1, 1) scrambled by a random rotation: exercises repeated
    # projection/re-orthonormalization inside one big cluster
    rng = np.random.default_rng(77)
    S0 = block_form(np.ones(3))
    for _ in range(10):
        Q = random_orthogonal(rng, 6)
        S = Q.T @ S0 @ Q
        nf = skew_normal_form(S)
        assert np.allclose(nf.d, np.ones(3), atol=1e-10)
        assert np.max(np.abs(nf.R.T @ S @ nf.R - block_form(nf.d))) <= 1e-9


def test_skew_normal_form_rejects_bad_input():
    with pytest.raises(ValueError):
        skew_normal_form(np.ones((3, 3)))
    with pytest.raises(ValueError):
        skew_normal_form(np.eye(4))


def test_d_orthogonal_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        S = random_skew(rng, 6)
        Q = random_orthogonal(rng, 6)
        d1 = skew_normal_form(S).d
        d2 = skew_normal_form(Q.T @ S @ Q).d
        assert np.max(np.abs(d1 - d2)) <= 1e-9 * max(np.max(d1), 1.0)


def test_product_of_d_is_pfaffian():
    rng = np.random.default_rng(6)
    for _ in range(30):
        S = random_skew(rng, 6)
        d = skew_normal_form(S).d
        det = np.linalg.det(S)
        assert np.prod(d) == pytest.approx(np.sqrt(abs(det)), rel=1e-9)


def test_shortest_vector_simple():
    coeffs, norm = shortest_lattice_vector(np.eye(2))
    assert norm == pytest.approx(1.0, rel=1e-14)
    assert sorted(np.abs(coeffs)) == [0, 1]

    coeffs, norm = shortest_lattice_vector(np.diag([0.25, 1.0]))
    assert norm == pytest.approx(0.5, rel=1e-14)
    # deterministic tie-break: lexicographically smallest of (+-1, 0)
    assert tuple(coeffs) == (-1, 0)


def test_shortest_vector_rejects_bad_gram():
    with pytest.raises(ValueError):
        shortest_lattice_vector(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        shortest_lattice_vector(np.array([[1.0, 2.0], [0.0, 1.0]]))


def _random_pd_gram(rng, m, cond_max=1e4):
    while True:
        B = rng.uniform(-3, 3, size=(m, m))
        G = B.T @ B
        w = np.linalg.eigvalsh(G)
        if w[0] > 0 and w[-1] / w[0] <= cond_max:
            return G


def _skewed_gram(rng, m):
    """U^T B^T B U: B has singular values in [e^-1.5, e^1.5] between random
    rotations, and U is a random unimodular skew, so LLL has to swap."""
    B = random_orthogonal(rng, m) @ np.diag(np.exp(rng.uniform(-1.5, 1.5, m))) @ random_orthogonal(rng, m)
    U = random_unimodular(rng, m, steps=m, entry_bound=2).astype(np.float64)
    return U.T @ (B.T @ B) @ U


def _skewed_grams(seed, count=500):
    rng = np.random.default_rng(seed)
    return [_skewed_gram(rng, 2 + i % 5) for i in range(count)]


def test_shortest_vector_vs_brute_force():
    rng = np.random.default_rng(8)
    grams = [_random_pd_gram(rng, 4) for _ in range(10)] + _skewed_grams(31)
    for G in grams:
        coeffs, norm = shortest_lattice_vector(G)
        assert norm == pytest.approx(brute_force_shortest(G, norm), rel=1e-10)
        assert norm == pytest.approx(np.sqrt(coeffs @ G @ coeffs), rel=1e-12)


def test_shortest_vector_unimodular_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        G = _random_pd_gram(rng, 4)
        U = random_unimodular(rng, 4).astype(np.float64)
        _, n1 = shortest_lattice_vector(G)
        _, n2 = shortest_lattice_vector(U.T @ G @ U)
        assert n1 == pytest.approx(n2, rel=1e-9)


def test_lll_unimodular():
    # the in-place swap update of mu and B, checked against a fresh Cholesky
    # factor of the reduced Gram, on random and on skewed Grams
    rng = np.random.default_rng(10)
    for G in [_random_pd_gram(rng, 5) for _ in range(20)] + _skewed_grams(31):
        m = G.shape[0]
        Gr, U = _lll_reduce(G)
        assert U.dtype == np.int64
        assert abs(abs(round(np.linalg.det(U.astype(np.float64)))) - 1) == 0
        assert np.max(np.abs(U.T @ G @ U - Gr)) <= 1e-8 * np.max(np.abs(G))
        # size-reduced, and the Lovasz condition at delta = 0.99, read off the
        # Cholesky factor: mu_ij = L_ij / L_jj, |b*_i|^2 = L_ii^2
        L = np.linalg.cholesky(Gr)
        mu = L / np.diag(L)[None, :]
        assert np.all(np.abs(mu[np.tril_indices(m, -1)]) <= 0.5 + 1e-9)
        for i in range(1, m):
            assert L[i, i] ** 2 + L[i, i - 1] ** 2 >= 0.99 * L[i - 1, i - 1] ** 2 * (1.0 - 1e-9)


def test_shortest_vector_unimodular_identity():
    # U^T U is the Gram of Z^m in the basis U: the minimizers are +-U^-1 e_k,
    # of norm 1, and the lexicographically smallest of them is returned
    rng = np.random.default_rng(11)
    for m in range(2, 17):
        for _ in range(5):
            U = random_unimodular(rng, m)
            U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
            assert np.array_equal(U @ U_inv, np.eye(m, dtype=np.int64))
            coeffs, norm = shortest_lattice_vector((U.T @ U).astype(np.float64))
            assert norm == pytest.approx(1.0, rel=1e-12)
            want = min(tuple(int(s * v) for v in U_inv[:, k]) for k in range(m) for s in (1, -1))
            assert tuple(coeffs.tolist()) == want


def test_skew_normal_form_stack():
    # generic, repeated (identity-like), singular and zero members in one
    # stack: each matches its own normal form, paired or looped
    rng = np.random.default_rng(8)
    S0 = block_form(np.ones(3))
    singular = np.zeros((6, 6))
    singular[0, 1], singular[1, 0] = 2.0, -2.0
    Q = random_orthogonal(rng, 6)
    stack = np.array([random_skew(rng, 6), Q.T @ S0 @ Q, singular, np.zeros((6, 6)), random_skew(rng, 6)])
    nf = skew_normal_form(stack)
    assert nf.R.shape == (5, 6, 6) and nf.d.shape == (5, 3)
    for S, R, d in zip(stack, nf.R, nf.d):
        one = skew_normal_form(S)
        assert np.allclose(d, one.d, rtol=1e-14, atol=0.0)
        assert np.max(np.abs(R.T @ R - np.eye(6))) <= 1e-12
        assert np.max(np.abs(R.T @ S @ R - block_form(d))) <= 1e-12 * max(np.max(np.abs(S)), 1.0)
    assert np.array_equal(nf.R[3], np.eye(6)) and not nf.d[3].any()
    with pytest.raises(ValueError):
        skew_normal_form(np.stack([random_skew(rng, 4), np.eye(4)]))


def test_skew_normal_form_homothety():
    # the normal form is taken at unit scale, so scaling S by 2^k scales d
    # by 2^k exactly and leaves R unchanged, for every k with normal results
    rng = np.random.default_rng(12)
    for m in (2, 4, 6):
        S = random_skew(rng, m)
        nf = skew_normal_form(S)
        for k in (-1000, -300, -7, -1, 1, 9, 300, 1000):
            scaled = skew_normal_form(np.ldexp(S, k))
            assert np.array_equal(scaled.R, nf.R)
            assert np.array_equal(scaled.d, np.ldexp(nf.d, k))
    # d far below 1e-10 is not mistaken for a kernel
    assert skew_normal_form(np.array([[0.0, 1e-12], [-1e-12, 0.0]])).d[0] == 1e-12
    with pytest.raises(ValueError, match="finite"):
        skew_normal_form(np.array([[0.0, np.inf], [-np.inf, 0.0]]))
