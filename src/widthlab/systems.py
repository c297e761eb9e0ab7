"""Orthonormal systems on probability spaces, with quadrature-backed L_p norms.

A system is its values, a matrix of function values over a set of nodes,
plus one probability weight per node: the weights are a quadrature rule for
a probability measure.  The rules shipped here integrate products of any two
system functions exactly, so the Gram
matrix is the identity to machine precision and the p=2 norm of a coefficient
vector coincides with its Euclidean norm.

The p=infinity norm is evaluated as a max over nodes.  That is a lower bound
on the true sup; node counts are chosen dense enough (and, on the sphere, the
poles are appended with weight zero) to keep the gap small for the shipped
systems.

The node-space oracles (``lp_norm_many`` here, ``InducedBall.gauge_grad_many``
at p other than 2) run over cache-sized row blocks of about 2^15 node values.
``_lp_norms`` is the one weighted L_p norm of node values (and of the brackets
of ``bodies``); ``_rescued`` is the one range rescue of every induced oracle:
a row whose |f|^p leaves the float range is computed again over its top |f|.
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


def _in_row_blocks(kernel, rows: np.ndarray, n_nodes: int):
    """``kernel(block)`` over row blocks of the 2-D ``rows``, each member of
    its tuple output concatenated.  BLAS picks kernels by size and takes
    rows in groups of 4 or 8, so blocks are multiples of 8 rows and the last
    takes the tail: each row then rounds as in one call over all rows."""
    step = max(8, _BLOCK_VALUES // n_nodes // 8 * 8)
    if len(rows) <= step:
        return kernel(rows)
    cuts = range(step, len(rows) - step + 1, step)
    parts = [kernel(block) for block in np.split(rows, cuts)]
    return tuple(np.concatenate(member) for member in zip(*parts))


def _power_in_place(a: np.ndarray, p: float) -> np.ndarray:
    """a^p for a float array ``a`` of absolute values, reusing its buffer:
    p in {0, 1/2, ..., 17/2} takes repeated squaring and at most one square root,
    where np.power with a float exponent would dominate the L_p kernels.  p = 0,
    1/2, 1, 2, 4, 8 and p off the cheap paths make no other array, the rest one or two."""
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


def _lp_norms(f: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Weighted L_p norms of the rows of node values ``f`` (left unchanged); at
    p = inf the max over every node, zero-weight ones too, which can only raise it."""
    if np.isinf(p):
        return np.max(np.abs(f), axis=1)
    return (_power_in_place(np.abs(f), p) @ w) ** (1.0 / p)


def _rescued(kernel, rows: np.ndarray, basis: np.ndarray, p: float) -> tuple:
    """``kernel`` (a tuple, norms first) over row blocks of the 2-D ``rows``.  A row
    whose L_p norm is 0, inf or NaN, or has a subnormal p-th power, and whose
    largest |entry| of rows @ ``basis`` is finite and > 0, is computed again over
    that entry: its norm scales back, the other (0-homogeneous) members stay."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow, and inf * 0 at a zero weight
        out = _in_row_blocks(kernel, rows, basis.shape[1])
        low = 0.0 if np.isinf(p) else np.finfo(float).tiny ** (1.0 / p)
        redo = np.flatnonzero(~((out[0] > low) & (out[0] < np.inf)))
        if redo.size:
            top = np.max(np.abs(rows[redo] @ basis), axis=1, keepdims=True)
            fix = ((top > 0) & (top < np.inf))[:, 0]
            redo, top = redo[fix], top[fix]
            for a, fixed in zip(out, kernel(rows[redo] / top)):
                a[redo] = fixed
            out[0][redo] *= top[:, 0]
    return out


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
class OrthonormalSystem:
    """A finite orthonormal system with precomputed node values.

    ``values[k, i]`` is the k-th function at the i-th node, and ``weights[i]``
    the node's probability weight: finite, nonnegative, summing to one.
    """

    name: str
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatch("values must be (n_functions, n_nodes)")
        if weights.ndim != 1 or len(weights) != values.shape[1]:
            raise DimensionMismatch("need one weight per node")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise BadDimensions("quadrature weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise BadDimensions(f"weights must sum to 1, got {weights.sum()!r}")
        if not np.all(np.isfinite(values)):
            raise BadDimensions("values must be finite")
        for field, array in (("weights", weights), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, field, array)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def key(self) -> tuple:
        return (self.name, self.n)

    def gram(self) -> np.ndarray:
        return (self.values * self.weights) @ self.values.T

    def lp_norm_many(self, coeffs: np.ndarray, p: float) -> np.ndarray:
        """Quadrature L_p norms of the functions with coefficient rows ``coeffs``;
        a row whose |f|^p leaves the normal float range is computed again,
        scaled by its largest |f|, and every other row keeps its unscaled bits."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.n:
            raise DimensionMismatch(
                f"coefficient length {coeffs.shape[-1]} != system size {self.n}"
            )
        if not p >= 1:
            raise BadDimensions(f"p must be >= 1, got {p}")
        rows, w = coeffs.reshape(-1, self.n), self.weights
        norms, = _rescued(lambda b: (_lp_norms(b @ self.values, w, p),), rows, self.values, p)
        return norms.reshape(coeffs.shape[:-1])[()]

    def prefix(self, n: int) -> "OrthonormalSystem":
        """Subsystem made of the first ``n`` functions (still orthonormal)."""
        if not 1 <= n <= self.n:
            raise BadDimensions(f"prefix size must be in 1..{self.n}")
        if n == self.n:
            return self
        return OrthonormalSystem(
            name=f"{self.name}[:{n}]",
            weights=self.weights,
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

    rows = [np.ones(m)]
    for deg in range(1, k + 1):
        rows.append(np.sqrt(2.0) * np.cos(deg * theta))
        rows.append(np.sqrt(2.0) * np.sin(deg * theta))

    return OrthonormalSystem(
        name=f"trig-{2 * k + 1}",
        weights=np.full(m, 1.0 / m),
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

    return OrthonormalSystem(
        name=f"sphere-{(k + 1) ** 2}",
        weights=w,
        values=_real_harmonic_rows(k, t, phi),
    )


def trig_prefix_system(n: int) -> OrthonormalSystem:
    """Trigonometric system truncated to its first ``n`` functions.

    Any prefix of an orthonormal sequence is orthonormal, which provides
    coefficient spaces of every dimension, not only the odd 2k+1 sizes.
    """
    if n < 1:
        raise BadDimensions("n must be >= 1")
    return trig_system(math.ceil((n - 1) / 2)).prefix(n)
