"""The Heisenberg Lie algebra h_n and group H_n.

Coordinates are always exponential coordinates (x, y, z) with respect to the
fixed basis {X_1..X_n, Y_1..Y_n, Z}, where [X_i, Y_i] = Z and all other basis
brackets vanish.  The group law is Campbell--Baker--Hausdorff, which is exact
for a 2-step group:

    exp(U) * exp(V) = exp(U + V + [U, V] / 2).

All values are immutable and all operations are pure functions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLatticeError

__all__ = [
    "AlgebraVector",
    "GroupElement",
    "LatticeSpec",
    "bracket",
    "group_mul",
    "inverse",
    "commutator",
    "identity",
    "lattice_generators",
    "symplectic_pairing",
]


def _clean_coords(
    x,
    y,
    z,
    shape_msg="x and y must be length-n sequences of equal length",
    finite_msg="coordinates must be finite",
):
    """Read-only float64 copies of x and y and a float z; a copy, so the
    value neither aliases nor freezes the caller's arrays."""
    x = np.array(x, dtype=np.float64, ndmin=1)
    y = np.array(y, dtype=np.float64, ndmin=1)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(shape_msg)
    z = float(z)
    # per element in Python: on length-n vectors a numpy ufunc costs more
    if not all(map(math.isfinite, [*x.tolist(), *y.tolist(), z])):
        raise ValueError(finite_msg)
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y, z


@dataclass(frozen=True, eq=False)
class AlgebraVector:
    """Element of h_n: x_i X_i + y_i Y_i + z Z."""

    x: np.ndarray
    y: np.ndarray
    z: float

    def __post_init__(self):
        x, y, z = _clean_coords(self.x, self.y, self.z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n(self):
        return self.x.shape[0]

    def coords(self):
        """Full coordinate vector (x_1..x_n, y_1..y_n, z)."""
        return np.concatenate([self.x, self.y, [self.z]])

    def horizontal(self):
        """Projection onto v_0 = span{X_i, Y_i}: drops the z coordinate."""
        return np.concatenate([self.x, self.y])

    @classmethod
    def from_coords(cls, c):
        c = np.asarray(c, dtype=np.float64)
        n = (c.shape[0] - 1) // 2
        return cls(c[:n], c[n : 2 * n], c[2 * n])


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Element exp(x_i X_i + y_i Y_i + z Z) of H_n, stored by its logarithm."""

    x: np.ndarray
    y: np.ndarray
    z: float

    def __post_init__(self):
        x, y, z = _clean_coords(self.x, self.y, self.z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n(self):
        return self.x.shape[0]

    def coords(self):
        return np.concatenate([self.x, self.y, [self.z]])

    def log(self):
        return AlgebraVector(self.x, self.y, self.z)

    @classmethod
    def exp(cls, v: AlgebraVector):
        return cls(v.x, v.y, v.z)

    @classmethod
    def from_coords(cls, c):
        return cls.exp(AlgebraVector.from_coords(c))


def symplectic_pairing(u, v):
    """sum_i (u_x_i v_y_i - u_y_i v_x_i) for horizontal coordinate vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = u.shape[0] // 2
    return float(np.dot(u[:n], v[n:]) - np.dot(u[n:], v[:n]))


def bracket(u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
    """Lie bracket [u, v] = sum_i (u_x_i v_y_i - u_y_i v_x_i) Z."""
    z = float(np.dot(u.x, v.y) - np.dot(u.y, v.x))
    zeros = np.zeros_like(u.x)
    return AlgebraVector(zeros, zeros, z)


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """CBH product: g * h = exp(log g + log h + [log g, log h] / 2)."""
    z = g.z + h.z + 0.5 * float(np.dot(g.x, h.y) - np.dot(g.y, h.x))
    return GroupElement(g.x + h.x, g.y + h.y, z)


def inverse(g: GroupElement) -> GroupElement:
    """exp(U)^{-1} = exp(-U); forced by CBH since [U, -U] = 0."""
    return GroupElement(-g.x, -g.y, -g.z)


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group commutator g h g^{-1} h^{-1}; equals exp([log g, log h])."""
    return group_mul(group_mul(g, h), group_mul(inverse(g), inverse(h)))


def identity(n: int) -> GroupElement:
    z = np.zeros(n)
    return GroupElement(z, z, 0.0)


@dataclass(frozen=True)
class LatticeSpec:
    """Tuple r = (r_1, ..., r_n) of positive integers with r_i | r_{i+1}.

    Describes the lattice generated by r_i X_i, Y_i and Z.  Its elements
    are exactly the (x, y, z) with x_i in r_i*Z, y_i in Z and
    z - sum_i x_i y_i / 2 in Z.
    """

    r: tuple

    def __post_init__(self):
        r = tuple(int(v) for v in self.r)
        if len(r) == 0 or any(v <= 0 for v in r):
            raise InvalidLatticeError("r must be a nonempty tuple of positive integers")
        for a, b in zip(r, r[1:]):
            if b % a != 0:
                raise InvalidLatticeError(f"divisibility violated: {a} does not divide {b}")
        object.__setattr__(self, "r", r)

    @property
    def n(self):
        return len(self.r)

    def covolume_factor(self):
        """prod r_i: the covolume of the lattice in the Haar frame."""
        out = 1
        for v in self.r:
            out *= v
        return out


def lattice_generators(spec: LatticeSpec):
    """The 2n+1 generators exp(r_i X_i), exp(Y_i), exp(Z), in that order."""
    n = spec.n
    gens = []
    for i in range(n):
        x = np.zeros(n)
        x[i] = spec.r[i]
        gens.append(GroupElement(x, np.zeros(n), 0.0))
    for i in range(n):
        y = np.zeros(n)
        y[i] = 1.0
        gens.append(GroupElement(np.zeros(n), y, 0.0))
    gens.append(GroupElement(np.zeros(n), np.zeros(n), 1.0))
    return gens
