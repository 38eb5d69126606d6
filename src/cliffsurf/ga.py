"""Dense multivector arithmetic for the Euclidean Clifford algebras over R^2 and R^3.

Coefficients live in plain float64 arrays over a fixed blade order:

    R_2: (1, e1, e2, e12)
    R_3: (1, e1, e2, e3, e12, e23, e31, e123)

Each algebra is defined once, by the blade its slots hold, as a bitmask
of basis vectors (bit p - 1 for e_p), and by the orientation of the
stored blade against the ascending product of those vectors. Only R_3's
e31 is stored reversed (e31 = -e13). Everything rank-dependent follows
from the masks, by one rule for both algebras (Dorst, Fontijne & Mann,
Geometric Algebra for Computer Science, 2007, ch. 19):

* blade a times blade b is the blade a ^ b, with the sign (-1)^swaps
  times the three stored orientations, swaps being the count of pairs
  e_p of a, e_q of b with p > q (each is one e_p e_q = -e_q e_p on the
  way to ascending order; e_p e_p = +1 in the Euclidean signature);
* the wedge keeps the pairs with a & b == 0;
* the grade of a blade is the popcount of its mask;
* a grade-r blade commutes with the pseudoscalar I_k of R_k exactly when
  (k - 1) * r is even: e123 is central, and e12 anticommutes with vectors.

The product tables are precomputed when the classes are built, because
the blade-pair product is the hot inner kernel of the spectral operators
built on top of this module.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

BLADE_NAMES_2 = ("1", "e1", "e2", "e12")
BLADE_NAMES_3 = ("1", "e1", "e2", "e3", "e12", "e23", "e31", "e123")


def _reorder_sign(a: int, b: int) -> int:
    """(-1)^swaps for blade mask a times blade mask b: swaps counts p in a, q in b, p > q."""
    swaps = sum(bin(a >> shift & b).count("1") for shift in range(1, a.bit_length()))
    return -1 if swaps % 2 else 1


def _tables(masks, orient):
    """Geometric and wedge product tables of one algebra.

    Returns two (I, J, K, S) tuples of flat arrays meaning
    blade[I] * blade[J] = S * blade[K]; the wedge table keeps only the
    pairs with disjoint masks (for basis blades the geometric and outer
    products agree there, and the outer product vanishes otherwise).
    """
    slot = {m: k for k, m in enumerate(masks)}
    gp = []
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            k = slot[a ^ b]
            gp.append((i, j, k, _reorder_sign(a, b) * orient[i] * orient[j] * orient[k]))
    wedge = [row for row in gp if not masks[row[0]] & masks[row[1]]]

    def arrays(rows):
        i, j, k, s = (np.array(column) for column in zip(*rows))
        return i, j, k, s.astype(np.float64)

    return arrays(gp), arrays(wedge)


def _apply_table(table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear blade product over the trailing axis of broadcastable arrays."""
    ti, tj, tk, ts = table
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (a.shape[-1],))
    for i, j, k, s in zip(ti, tj, tk, ts):
        out[..., k] += s * a[..., i] * b[..., j]
    return out


class _Multivector:
    """Shared machinery; use the Multivector2 / Multivector3 subclasses.

    A subclass gives its blade names, masks and stored orientations; the
    grades, the pseudoscalar commutation and the product tables are
    derived from them when the subclass is built.
    """

    __slots__ = ("_c",)
    _NAMES: tuple = ()
    _MASKS: tuple = ()
    _ORIENT: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._GRADES = np.array([bin(m).count("1") for m in cls._MASKS])
        # a grade-r blade anticommutes with the pseudoscalar, the last slot, of
        # grade k, when (k - 1) * r is odd
        cls._ANTI = (cls._GRADES[-1] - 1) * cls._GRADES % 2 == 1
        cls._GP, cls._WEDGE = _tables(cls._MASKS, cls._ORIENT)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=np.float64)
        if c.shape != (len(self._NAMES),):
            raise ValueError(
                f"{type(self).__name__} needs {len(self._NAMES)} coefficients, "
                f"got shape {c.shape}"
            )
        c.setflags(write=False)
        self._c = c

    # construction helpers

    @classmethod
    def zero(cls):
        return cls(np.zeros(len(cls._NAMES)))

    @classmethod
    def from_scalar(cls, a: float):
        c = np.zeros(len(cls._NAMES))
        c[0] = a
        return cls(c)

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=np.float64)
        n = int(cls._GRADES[-1])  # the pseudoscalar's grade, the dimension
        if v.shape != (n,):
            raise ValueError(f"expected a length-{n} vector, got shape {v.shape}")
        c = np.zeros(len(cls._NAMES))
        c[cls._GRADES == 1] = v
        return cls(c)

    @classmethod
    def basis(cls, name: str):
        """Unit blade by name, e.g. Multivector3.basis('e23')."""
        try:
            idx = cls._NAMES.index(name)
        except ValueError:
            raise ValueError(f"unknown blade {name!r}; choose from {cls._NAMES}") from None
        c = np.zeros(len(cls._NAMES))
        c[idx] = 1.0
        return cls(c)

    # grade access

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array in canonical blade order."""
        return self._c

    @property
    def scalar(self) -> float:
        return float(self._c[0])

    @property
    def pseudoscalar(self) -> float:
        return float(self._c[-1])

    @property
    def vector(self) -> np.ndarray:
        return self._c[self._GRADES == 1]

    @property
    def bivector(self) -> np.ndarray:
        return self._c[self._GRADES == 2]

    def is_vector(self) -> bool:
        return bool(np.all(self._c[self._GRADES != 1] == 0.0))

    # arithmetic

    def __add__(self, other):
        self._check_same(other)
        return type(self)(self._c + other._c)

    def __sub__(self, other):
        self._check_same(other)
        return type(self)(self._c - other._c)

    def __neg__(self):
        return type(self)(-self._c)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return type(self)(self._c * float(other))
        self._check_same(other)
        return type(self)(_apply_table(self._GP, self._c, other._c))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return type(self)(self._c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        return type(self)(self._c / float(other))

    def __xor__(self, other):
        self._check_same(other)
        return type(self)(_apply_table(self._WEDGE, self._c, other._c))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    __hash__ = None  # mutable-free but float-exact equality; not for dict keys

    def isclose(self, other, atol: float = 1e-12) -> bool:
        self._check_same(other)
        return bool(np.allclose(self._c, other._c, rtol=0.0, atol=atol))

    def _check_same(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )

    def __repr__(self):
        terms = [
            f"{c:g}*{n}" if n != "1" else f"{c:g}"
            for c, n in zip(self._c, self._NAMES)
            if c != 0.0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"{type(self).__name__}({body})"


class Multivector2(_Multivector):
    """Element of the Clifford algebra of the Euclidean plane, blades (1, e1, e2, e12)."""

    __slots__ = ()
    _NAMES = BLADE_NAMES_2
    _MASKS = (0b00, 0b01, 0b10, 0b11)
    _ORIENT = (1, 1, 1, 1)


class Multivector3(_Multivector):
    """Element of the Clifford algebra of Euclidean 3-space.

    Blade order (1, e1, e2, e3, e12, e23, e31, e123). The pseudoscalar
    e123 squares to -1 and commutes with everything; the plane bivectors
    square to -1 as well.
    """

    __slots__ = ()
    _NAMES = BLADE_NAMES_3
    _MASKS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b110, 0b101, 0b111)
    _ORIENT = (1, 1, 1, 1, 1, 1, -1, 1)


def _algebra(dim: int) -> type[_Multivector]:
    """The multivector class of R^dim."""
    try:
        return {2: Multivector2, 3: Multivector3}[dim]
    except (KeyError, TypeError):
        raise ValueError(f"dim must be 2 or 3, got {dim}") from None


def _commutation_split(c: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(commuting, anticommuting) parts of c, blade coefficients over the trailing axis.

    The parts commute and anticommute with the pseudoscalar of R^dim, and
    sum back to c.
    """
    anti = _algebra(dim)._ANTI
    return np.where(anti, 0.0, c), np.where(anti, c, 0.0)


def geometric_product(a, b):
    """Geometric (Clifford) product of two multivectors of the same algebra.

    Bilinear and associative; on basis vectors it satisfies e_i e_i = 1 and
    e_i e_j = -e_j e_i for i != j. Total on all inputs.
    """
    return a * b


def wedge(a, b):
    """Outer product. For vectors x, y it equals (xy - yx)/2 and x ^ x = 0."""
    return a ^ b


def vector_dot(a, b) -> float:
    """Euclidean inner product of two pure vectors.

    Equals the scalar part of the symmetrized geometric product (xy + yx)/2.
    Raises if either argument carries non-vector blades.
    """
    if not (a.is_vector() and b.is_vector()):
        raise ValueError("vector_dot is defined for pure vectors only")
    return float(np.dot(a.vector, b.vector))


def pseudoscalar_square(dim: int) -> float:
    """Square of the unit pseudoscalar (e12 or e123), recomputed via the product table."""
    cls = _algebra(dim)
    i_n = cls.basis(cls._NAMES[-1])
    return (i_n * i_n).scalar


def exp_pseudoscalar(gamma: float, dim: int):
    """exp(i_n * gamma) = cos(gamma) + i_n sin(gamma).

    The closed form holds because the pseudoscalar squares to -1, so its
    exponential series splits into the cosine and sine series.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    cls = _algebra(dim)
    c = np.zeros(len(cls._NAMES))
    c[0] = np.cos(gamma)
    c[-1] = np.sin(gamma)
    return cls(c)


def commutes_with_pseudoscalar(m: Multivector2) -> tuple[Multivector2, Multivector2]:
    """Split a planar multivector by its commutation behavior with e12.

    Returns (commuting, anticommuting): the scalar+bivector part satisfies
    i2 c = c i2, the vector part satisfies i2 v = -v i2, and the two parts
    sum back to m. This split is what makes the planar spectral derivative
    rule two-sided (see the 2D gradient operator).
    """
    if type(m) is not Multivector2:
        raise TypeError(f"expected Multivector2, got {type(m).__name__}")
    com, anti = _commutation_split(m.coeffs, 2)
    return Multivector2(com), Multivector2(anti)


def geometric_product_field(a: np.ndarray, b: np.ndarray, dim: int = 3) -> np.ndarray:
    """Pointwise geometric product over the trailing blade axis.

    a and b are broadcast-compatible arrays whose last axis holds blade
    coefficients (4 for dim=2, 8 for dim=3). This is the vectorized kernel
    the spectral operators use to left-multiply whole spectra by multivector
    symbols without a Python-level loop over grid bins.
    """
    cls = _algebra(dim)
    n = len(cls._NAMES)
    if a.shape[-1] != n or b.shape[-1] != n:
        raise ValueError(f"trailing axis must have length {n} for dim={dim}")
    return _apply_table(cls._GP, a, b)
