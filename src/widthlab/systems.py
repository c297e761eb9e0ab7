"""Orthonormal systems on probability spaces, with quadrature-backed L_p norms.

A system is stored as a matrix of function values over the nodes of a
quadrature rule whose weights form a probability measure.  The rules shipped
here integrate products of any two system functions exactly, so the Gram
matrix is the identity to machine precision and the p=2 norm of a coefficient
vector coincides with its Euclidean norm.

The p=infinity norm is evaluated as a max over nodes.  That is a lower bound
on the true sup; node counts are chosen dense enough (and, on the sphere, the
poles are appended with weight zero) to keep the gap small for the shipped
systems.

The node-space oracles (``lp_norm_many`` here, ``InducedBall.gauge_grad_many``)
run over row blocks of about 2^15 node values: cache-sized temporaries, and
memory bounded by the output whatever the number of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, DimensionMismatch

# Freeing a mmapped chunk raises glibc's mmap threshold to its size and the
# trim threshold to twice that (dynamic threshold, mallopt(3)).  One 4 MiB
# array freed here so keeps the node-space blocks' temporaries on the heap,
# where they would otherwise be trimmed and refaulted on every call; other C
# libraries ignore it.
np.empty(1 << 19)

# node values per row block of a node-space oracle: 256 KiB of float64 fit in L2
_BLOCK_VALUES = 2**15


def _in_row_blocks(kernel, rows: np.ndarray, n_nodes: int, *args):
    """``kernel(block, *args)`` over row blocks of the 2-D ``rows``, outputs (or
    each member of tuple outputs) concatenated.  BLAS picks kernels by size and
    takes rows in groups of 4 or 8, so blocks are multiples of 8 rows and the
    last takes the tail: each row then rounds as in one call over all rows."""
    step = max(8, _BLOCK_VALUES // n_nodes // 8 * 8)
    if len(rows) <= step:
        return kernel(rows, *args)
    cuts = range(step, len(rows) - step + 1, step)
    parts = [kernel(block, *args) for block in np.split(rows, cuts)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(member) for member in zip(*parts))
    return np.concatenate(parts)


def abs_power(a: np.ndarray, p: float) -> np.ndarray:
    """|a|^p with cheap paths for small integer and half-integer exponents.

    Monte-Carlo loops evaluate this on large arrays; np.power with a float
    exponent dominates their run time otherwise.  The result is float.
    """
    return _power_in_place(np.abs(np.asarray(a, dtype=float)), p)


def _power_in_place(a: np.ndarray, p: float) -> np.ndarray:
    """a^p for a float array ``a`` of absolute values, by ``abs_power``'s
    steps, reusing ``a``'s buffer: p = 0, 1/2, 1, 2, 4, 8 and every p off
    the cheap paths make no other array, the rest one or two more."""
    twice = 2.0 * p
    if not (twice == int(twice) and 0 <= twice <= 17):
        return np.power(a, p, out=a)
    half = int(twice)
    k = half // 2
    root = np.sqrt(a, out=None if k else a) if half % 2 else None
    base = a
    acc = None
    while k:  # repeated squaring for the integer part
        if k & 1:
            acc = base if acc is None else np.multiply(acc, base, out=acc)
        k >>= 1
        if k:  # no square past the last bit
            base = np.multiply(base, base, out=None if acc is base else base)
    if acc is None:  # p = 0, or p = 1/2 with its root taken in place
        if root is None:
            a[...] = 1.0
        return a
    return acc if root is None else np.multiply(acc, root, out=acc)


def _next_prime(m: int) -> int:
    def is_prime(q: int) -> bool:
        if q < 2:
            return False
        for f in range(2, int(q**0.5) + 1):
            if q % f == 0:
                return False
        return True

    while not is_prime(m):
        m += 1
    return m


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and nonnegative weights summing to one (a probability measure)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(nodes):
            raise DimensionMismatch("need one weight per node")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise BadDimensions("quadrature weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise BadDimensions(f"weights must sum to 1, got {weights.sum()!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class OrthonormalSystem:
    """A finite orthonormal system with precomputed node values.

    ``values[k, i]`` is the k-th function at the i-th quadrature node.
    """

    name: str
    quadrature: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.quadrature):
            raise DimensionMismatch("values must be (n_functions, n_nodes)")
        if not np.all(np.isfinite(values)):
            raise BadDimensions("values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def key(self) -> tuple:
        return (self.name, self.n)

    def gram(self) -> np.ndarray:
        w = self.quadrature.weights
        return (self.values * w) @ self.values.T

    def lp_norm_many(self, coeffs: np.ndarray, p: float) -> np.ndarray:
        """Quadrature L_p norms of the functions with coefficient rows ``coeffs``."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.n:
            raise DimensionMismatch(
                f"coefficient length {coeffs.shape[-1]} != system size {self.n}"
            )
        if p < 1:
            raise BadDimensions(f"p must be >= 1, got {p}")
        norms = _in_row_blocks(self._lp_norm_block, coeffs.reshape(-1, self.n),
                               len(self.quadrature), p)
        return norms.reshape(coeffs.shape[:-1])[()]

    def _lp_norm_block(self, coeffs: np.ndarray, p: float) -> np.ndarray:
        f = coeffs @ self.values
        if np.isinf(p):
            return np.max(np.abs(f), axis=-1)
        w = self.quadrature.weights
        if p == 2.0:  # exact by quadrature construction, keep the fast path stable
            return np.sqrt((f * f) @ w)
        return (_power_in_place(np.abs(f, out=f), p) @ w) ** (1.0 / p)

    def prefix(self, n: int) -> "OrthonormalSystem":
        """Subsystem made of the first ``n`` functions (still orthonormal)."""
        if not 1 <= n <= self.n:
            raise BadDimensions(f"prefix size must be in 1..{self.n}")
        if n == self.n:
            return self
        return OrthonormalSystem(
            name=f"{self.name}[:{n}]",
            quadrature=self.quadrature,
            values=self.values[:n],
        )


def trig_system(max_degree: int) -> OrthonormalSystem:
    """Trigonometric system {1, sqrt2 cos k t, sqrt2 sin k t} on the circle.

    Normalized uniform measure on [0, 2*pi); the node count is a prime large
    enough that products of system functions integrate exactly and the
    node-max of every function is within 1% of its true sup.
    """
    if max_degree < 0:
        raise BadDimensions("max_degree must be >= 0")
    k = int(max_degree)
    # prime node count: every frequency then sweeps all m phases, so the
    # node-max of each function is within 1 - cos(pi/m) < 1% of its sup
    m = _next_prime(max(23 * k + 1, 4 * k + 1, 29))
    theta = 2.0 * np.pi * np.arange(m) / m
    weights = np.full(m, 1.0 / m)

    rows = [np.ones(m)]
    for deg in range(1, k + 1):
        rows.append(np.sqrt(2.0) * np.cos(deg * theta))
        rows.append(np.sqrt(2.0) * np.sin(deg * theta))

    return OrthonormalSystem(
        name=f"trig-{2 * k + 1}",
        quadrature=QuadratureRule(theta, weights),
        values=np.array(rows),
    )


def _legendre_rows(max_degree: int, t: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre functions at ``t``: ``P[k, m]`` is
    sqrt((2k+1)(k-m)!/(k+m)!) P_k^m(t), Condon-Shortley phase kept, for
    0 <= m <= k <= max_degree, and 0 above the diagonal.

    Sectoral, first off-sectoral and three-term recurrences in m and k
    (Holmes and Featherstone, J. Geodesy 76, 2002); no factorial is formed.
    """
    u = np.sqrt((1.0 - t) * (1.0 + t))
    P = np.zeros((max_degree + 1, max_degree + 1, len(t)))
    P[0, 0] = 1.0
    for m in range(max_degree + 1):
        if m:
            P[m, m] = -math.sqrt((2 * m + 1) / (2 * m)) * u * P[m - 1, m - 1]
        if m < max_degree:
            P[m + 1, m] = math.sqrt(2 * m + 3) * t * P[m, m]
        for k in range(m + 2, max_degree + 1):
            d = (k - m) * (k + m)
            a = math.sqrt((2 * k - 1) * (2 * k + 1) / d)
            b = math.sqrt((2 * k + 1) * (k + m - 1) * (k - m - 1) / (d * (2 * k - 3)))
            P[k, m] = a * t * P[k - 1, m] - b * P[k - 2, m]
    return P


def _real_harmonic_rows(max_degree: int, t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows of real spherical harmonics at points (cos polar = t, azimuth = phi).

    Orthonormal with respect to the *normalized* surface measure, so the
    constant is 1 and the degree-1 zonal is sqrt(3) * cos(polar angle).
    """
    legendre = _legendre_rows(max_degree, t)
    rows = []
    for k in range(max_degree + 1):
        for order in range(-k, k + 1):
            m = abs(order)
            base = legendre[k, m]
            if order == 0:
                rows.append(base)
            elif order > 0:
                rows.append(np.sqrt(2.0) * base * np.cos(m * phi))
            else:
                rows.append(np.sqrt(2.0) * base * np.sin(m * phi))
    return np.array(rows)


def sphere_harmonics_system(max_degree: int) -> OrthonormalSystem:
    """Real spherical harmonics on the 2-sphere through ``max_degree``.

    Gauss-Legendre nodes in the polar cosine crossed with a uniform azimuthal
    grid; exact for products of any two shipped harmonics.  The two poles are
    appended with weight zero so the node-max picks up the zonal peaks.
    """
    if not 0 <= max_degree <= 12:
        raise BadDimensions("max_degree must be in 0..12")
    k = int(max_degree)
    n_polar = 2 * k + 2
    n_azim = 4 * k + 3
    t_gl, w_gl = np.polynomial.legendre.leggauss(n_polar)
    phi_grid = 2.0 * np.pi * np.arange(n_azim) / n_azim

    t = np.repeat(t_gl, n_azim)
    phi = np.tile(phi_grid, n_polar)
    w = np.repeat(w_gl / 2.0, n_azim) / n_azim
    # zero-weight poles: the zonal harmonics attain their sup there
    t = np.concatenate([t, [1.0, -1.0]])
    phi = np.concatenate([phi, [0.0, 0.0]])
    w = np.concatenate([w, [0.0, 0.0]])
    w = w / w.sum()

    rows = _real_harmonic_rows(k, t, phi)

    return OrthonormalSystem(
        name=f"sphere-{(k + 1) ** 2}",
        quadrature=QuadratureRule(np.column_stack([t, phi]), w),
        values=rows,
    )


def trig_prefix_system(n: int) -> OrthonormalSystem:
    """Trigonometric system truncated to its first ``n`` functions.

    Any prefix of an orthonormal sequence is orthonormal, which provides
    coefficient spaces of every dimension, not only the odd 2k+1 sizes.
    """
    if n < 1:
        raise BadDimensions("n must be >= 1")
    return trig_system(math.ceil((n - 1) / 2)).prefix(n)
