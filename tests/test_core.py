import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import (
    AlgebraVector,
    GroupElement,
    InvalidLatticeError,
    LatticeSpec,
    Momentum,
    bracket,
    commutator,
    group_mul,
    identity,
    inverse,
    lattice_generators,
)


def basis_x(n, i, coef=1.0):
    x = np.zeros(n)
    x[i] = coef
    return GroupElement(x, np.zeros(n), 0.0)


def basis_y(n, i, coef=1.0):
    y = np.zeros(n)
    y[i] = coef
    return GroupElement(np.zeros(n), y, 0.0)


def test_bracket_table():
    x1 = AlgebraVector([1.0, 0.0], [0.0, 0.0], 0.0)
    y1 = AlgebraVector([0.0, 0.0], [1.0, 0.0], 0.0)
    x2 = AlgebraVector([0.0, 1.0], [0.0, 0.0], 0.0)
    b = bracket(x1, y1)
    assert np.all(b.x == 0.0) and np.all(b.y == 0.0) and b.z == 1.0
    assert bracket(x1, x2).z == 0.0
    u = AlgebraVector([0.3, -2.0], [1.0, 4.0], -1.5)
    same = bracket(u, u)
    assert same.z == 0.0


@given(
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
)
def test_bracket_antisymmetric(a, b):
    u = AlgebraVector(a[:2], a[2:4], a[4])
    v = AlgebraVector(b[:2], b[2:4], b[4])
    assert bracket(u, v).z == pytest.approx(-bracket(v, u).z, abs=1e-12)


def test_jacobi_identity_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u, v, w = (
            AlgebraVector(rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3), rng.uniform(-10, 10))
            for _ in range(3)
        )
        inner = bracket(v, w)
        outer = bracket(u, inner)
        assert outer.z == 0.0 and np.all(outer.x == 0.0)


def test_group_mul_examples():
    x = basis_x(1, 0)
    y = basis_y(1, 0)
    g = group_mul(x, y)
    assert g.x[0] == 1.0 and g.y[0] == 1.0 and g.z == 0.5
    e = identity(1)
    h = GroupElement([0.3], [-0.7], 2.0)
    ge = group_mul(h, e)
    assert np.allclose(ge.coords(), h.coords())
    xx = group_mul(x, x)
    assert xx.x[0] == 2.0 and xx.z == 0.0


def test_associativity_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        g, h, k = (
            GroupElement(rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2), rng.uniform(-10, 10))
            for _ in range(3)
        )
        left = group_mul(g, group_mul(h, k))
        right = group_mul(group_mul(g, h), k)
        assert np.max(np.abs(left.coords() - right.coords())) <= 1e-12


def test_inverse():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = GroupElement(rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3), rng.uniform(-10, 10))
        e = group_mul(g, inverse(g))
        assert np.max(np.abs(e.coords())) <= 1e-12


def test_commutator_examples():
    x, y = basis_x(1, 0), basis_y(1, 0)
    c = commutator(x, y)
    assert np.allclose(c.coords(), [0.0, 0.0, 1.0], atol=1e-15)
    g = GroupElement([0.4], [1.0], -2.0)
    assert np.max(np.abs(commutator(g, g).coords())) == 0.0


@pytest.mark.parametrize("r", [0.5, 2.0, 7.3])
def test_commutator_scaling(r):
    # [exp(sqrt(r) X_n), exp(Y_n / sqrt(r))] = exp(Z) for any r > 0
    n = 2
    g = basis_x(n, n - 1, np.sqrt(r))
    h = basis_y(n, n - 1, 1.0 / np.sqrt(r))
    c = commutator(g, h)
    assert np.allclose(c.coords(), [0, 0, 0, 0, 1.0], atol=1e-14)
    # agrees with the algebra-level bracket exponentiated
    b = bracket(g.log(), h.log())
    assert np.allclose(c.coords(), GroupElement.exp(b).coords(), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_basis_table(n):
    for i in range(n):
        for j in range(n):
            c = commutator(basis_x(n, i), basis_y(n, j))
            want = 1.0 if i == j else 0.0
            assert c.z == pytest.approx(want, abs=1e-15)
            assert np.max(np.abs(c.x)) == 0.0 and np.max(np.abs(c.y)) == 0.0


def test_lattice_spec_validation():
    assert LatticeSpec((1,)).r == (1,)
    assert LatticeSpec((1, 2)).n == 2
    with pytest.raises(InvalidLatticeError):
        LatticeSpec((2, 3))
    with pytest.raises(InvalidLatticeError):
        LatticeSpec((0,))
    with pytest.raises(InvalidLatticeError):
        LatticeSpec(())


def test_lattice_generators():
    gens = lattice_generators(LatticeSpec((1,)))
    assert len(gens) == 3
    assert np.allclose(gens[0].coords(), [1, 0, 0])
    assert np.allclose(gens[1].coords(), [0, 1, 0])
    assert np.allclose(gens[2].coords(), [0, 0, 1])

    gens = lattice_generators(LatticeSpec((1, 2)))
    assert len(gens) == 5
    assert np.allclose(gens[1].coords(), [0, 2, 0, 0, 0])  # exp(2 X_2)


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValueError):
        GroupElement([np.nan], [0.0], 0.0)
    with pytest.raises(ValueError):
        AlgebraVector([0.0], [np.inf], 0.0)


def _pair(v):
    return (v.p_x, v.p_y) if isinstance(v, Momentum) else (v.x, v.y)


@pytest.mark.parametrize("cls", [AlgebraVector, GroupElement, Momentum])
def test_constructor_copies_caller_arrays(cls):
    """A value owns read-only copies: the caller's arrays stay writable, and
    writing to them, or to the array they are views of, leaves it unchanged."""
    x, y = np.zeros(2), np.ones(2)
    v = cls(x, y, 0.0)
    assert x.flags.writeable and y.flags.writeable
    x[0] = 5.0
    y[1] = 7.0
    assert _pair(v)[0].tolist() == [0.0, 0.0] and _pair(v)[1].tolist() == [1.0, 1.0]
    w = np.zeros(4)
    v = cls(w[:2], w[2:], 0.0)
    assert w.flags.writeable
    w[0] = 5.0
    w[3] = 7.0
    assert _pair(v)[0].tolist() == [0.0, 0.0] and _pair(v)[1].tolist() == [0.0, 0.0]
    for arr in _pair(v):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize(
    "p_x, p_y, p_z, match",
    [
        ([np.nan], [0.0], 0.0, "momentum entries must be finite"),
        ([0.0], [np.inf], 0.0, "momentum entries must be finite"),
        ([0.0], [0.0], -np.inf, "momentum entries must be finite"),
        ([0.0, 1.0], [0.0], 0.0, "p_x and p_y must have equal length"),
        ([[0.0]], [[0.0]], 0.0, "p_x and p_y must have equal length"),
    ],
)
def test_momentum_rejects_bad_entries(p_x, p_y, p_z, match):
    with pytest.raises(ValueError, match=match):
        Momentum(p_x, p_y, p_z)
