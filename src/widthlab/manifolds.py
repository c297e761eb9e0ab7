"""Spectral data of compact two-point homogeneous spaces.

Laplace eigenvalues, eigenspace dimensions, and cumulative counts for the
five families: spheres and the projective spaces over the reals, complexes,
quaternions, and octonions, each named once in ``FAMILIES`` with its
constructor.  Eigenvalues follow the Jacobi parametrization
theta_k = k(k + alpha + beta + 1); real projective spaces carry only even
degrees, handled by internal reindexing.  Dimensions use the Jacobi-weight
closed form rather than just their k^(d-1) order, because multiplier
truncations need cumulative counts; it is evaluated exactly, in integers,
and a dimension beyond the float range raises ``BadDimensions``.  The
multiplier diagonals themselves, and the power rates of Sobolev
smoothness, are built here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BadDimensions

#: longest multiplier diagonal built, 64 MiB of float64
_MAX_DIAGONAL = 2**23
#: (2 alpha, 2 beta) -> the products of ``_jacobi_eigenspace_dim`` for
#: k = 0, 1, ..., in lowest terms: one step per new level, grown in place
_PRODUCTS: dict = {}


@lru_cache(maxsize=None)
def _jacobi_eigenspace_dim(alpha: float, beta: float, k: int) -> int:
    """(2k+alpha+beta+1)/(alpha+beta+1) * prod_(j<=k) (alpha+beta+j)(alpha+j)
    / (j(beta+j)); doubling every factor makes it a ratio of integers in
    a = 2 alpha and b = 2 beta."""
    a, b = round(2 * alpha), round(2 * beta)
    table = _PRODUCTS.setdefault((a, b), [(1, 1)])
    while len(table) <= k:
        j = 2 * len(table)
        num, den = table[-1]
        num, den = num * (a + b + j) * (a + j), den * (b + j) * j
        g = math.gcd(num, den)
        table.append((num // g, den // g))
    num, den = table[k]
    count = num * (4 * k + a + b + 2) // (den * (a + b + 2))  # exact: it is the dimension
    try:
        float(count)
    except OverflowError:
        raise BadDimensions(f"eigenspace dimension at degree {k} exceeds the float range") from None
    return count


@dataclass(frozen=True)
class TwoPointSpace:
    """A compact two-point homogeneous space reduced to its spectral data."""

    family: str
    d: int
    alpha: float
    beta: float
    even_only: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadDimensions(f"unknown family {self.family!r}")
        if abs(self.alpha - (self.d - 2) / 2.0) > 1e-12:
            raise BadDimensions("alpha must equal (d-2)/2 for these families")

    @property
    def name(self) -> str:
        return f"{self.family}-d{self.d}"

    def _degree(self, k: int) -> int:
        return 2 * k if self.even_only else k

    def eigenvalue(self, k: int) -> float:
        """k-th distinct Laplace eigenvalue (k >= 0); 0 at k=0."""
        if k < 0:
            raise BadDimensions("k must be >= 0")
        deg = self._degree(k)
        return float(deg * (deg + self.alpha + self.beta + 1.0))

    def eigenspace_dim(self, k: int) -> int:
        """Dimension of the k-th eigenspace (the exact closed form)."""
        if k < 0:
            raise BadDimensions("k must be >= 0")
        return _jacobi_eigenspace_dim(self.alpha, self.beta, self._degree(k))

    def tau(self, N: int) -> int:
        """Cumulative dimension of the eigenspaces through level N."""
        if N < 0:
            raise BadDimensions("N must be >= 0")
        return sum(self.eigenspace_dim(k) for k in range(N + 1))

    def weyl_ratio(self, N: int) -> float:
        """tau_N / theta_N^(d/2); stabilizes as N grows (eigenvalue counting)."""
        if N < 1:
            raise BadDimensions("N must be >= 1")
        return self.tau(N) / self.eigenvalue(N) ** (self.d / 2.0)


def sphere(d: int) -> TwoPointSpace:
    if d < 2:
        raise BadDimensions("spheres need d >= 2")
    a = (d - 2) / 2.0
    return TwoPointSpace("sphere", d, a, a)


def real_projective(d: int) -> TwoPointSpace:
    if d < 2:
        raise BadDimensions("real projective spaces need d >= 2")
    a = (d - 2) / 2.0
    return TwoPointSpace("real_projective", d, a, a, even_only=True)


def complex_projective(d: int) -> TwoPointSpace:
    if d < 4 or d % 2:
        raise BadDimensions("complex projective spaces need even d >= 4")
    return TwoPointSpace("complex_projective", d, (d - 2) / 2.0, 0.0)


def quaternionic_projective(d: int) -> TwoPointSpace:
    if d < 8 or d % 4:
        raise BadDimensions("quaternionic projective spaces need d in {8, 12, ...}")
    return TwoPointSpace("quaternionic_projective", d, (d - 2) / 2.0, 1.0)


def cayley_plane() -> TwoPointSpace:
    return TwoPointSpace("cayley_plane", 16, 7.0, 3.0)


#: family name -> its constructor of the dimension d; the Cayley plane has
#: d = 16 alone and ignores it
FAMILIES: dict[str, Callable[[int], TwoPointSpace]] = {
    "sphere": sphere,
    "real_projective": real_projective,
    "complex_projective": complex_projective,
    "quaternionic_projective": quaternionic_projective,
    "cayley_plane": lambda d: cayley_plane(),
}


def all_families() -> list[TwoPointSpace]:
    """One per family at its smallest admissible d, except real projective space at d = 3."""
    return [sphere(2), real_projective(3), complex_projective(4),
            quaternionic_projective(8), cayley_plane()]


def multiplier_diagonal(rate: Callable[[float], float], space: TwoPointSpace,
                        n: int) -> np.ndarray:
    """First n diagonal entries of the truncated multiplier operator.

    The rate at the k-th eigenvalue is repeated once per dimension of the
    k-th eigenspace, k >= 1 (the constant term is excluded), and the last
    block is cut at n.  Every eigenspace has dimension >= 1, so at most n
    levels are visited.
    """
    if not 1 <= n <= _MAX_DIAGONAL:
        raise BadDimensions(f"n must be in 1..{_MAX_DIAGONAL}, got {n}")
    rates, dims, total = [], [], 0
    while total < n:
        k = len(dims) + 1
        rates.append(float(rate(space.eigenvalue(k))))
        dims.append(min(space.eigenspace_dim(k), n - total))
        total += dims[-1]
    return np.repeat(rates, dims)


def sobolev_multiplier(gamma: float) -> Callable[[float], float]:
    """The rate t^(-gamma/2) of smoothness gamma: a power, hence regularly
    varying (a fixed dilation of t changes it by a constant factor)."""
    if gamma <= 0:
        raise BadDimensions("gamma must be positive")
    return lambda t: float(t) ** (-gamma / 2.0)
