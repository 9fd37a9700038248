import numpy as np
import pytest

from heisgeo.linalg import (
    _lll_reduce,
    block_form,
    hilbert_schmidt_norm,
    shortest_lattice_vector,
    skew_normal_form,
)

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


def test_hilbert_schmidt_norm():
    J = block_form(np.ones(3))
    assert hilbert_schmidt_norm(J) == pytest.approx(np.sqrt(6.0), rel=1e-15)
    assert hilbert_schmidt_norm(np.zeros((4, 4))) == 0.0
    d = np.array([0.5, 2.0, 3.0])
    assert hilbert_schmidt_norm(block_form(d)) == pytest.approx(
        np.sqrt(2 * np.sum(d**2)), rel=1e-14
    )


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


def test_shortest_vector_vs_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(10):
        G = _random_pd_gram(rng, 4)
        coeffs, norm = shortest_lattice_vector(G)
        assert norm == pytest.approx(brute_force_shortest(G, box=25), rel=1e-10)
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
    rng = np.random.default_rng(10)
    for _ in range(20):
        G = _random_pd_gram(rng, 5)
        Gr, U = _lll_reduce(G)
        assert abs(abs(round(np.linalg.det(U.astype(np.float64)))) - 1) == 0
        assert np.max(np.abs(U.T @ G @ U - Gr)) <= 1e-8 * np.max(np.abs(G))
