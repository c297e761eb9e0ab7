"""Dense linear algebra at desk scale.

Orthonormal frames, orthogonal projection, the smallest singular value of
an invertible matrix, and Haar-distributed random subspaces.  Everything
here is written for dimensions up to :data:`MAX_DIM`; nothing is sparse.

Short row reductions (``_by_column``, and the row norms on top of it) run
by column in NumPy's own order: NumPy reduces a row of fewer than 8 entries
as ((a0 + a1) + a2) + ..., but starts its inner loop once per row, which
costs more than the arithmetic on the 2- to 7-column batches of the gauge
oracles and the ascent kernel.  One pass per column gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, DimensionMismatch, RankDeficient, SingularMatrix

#: orthonormality tolerance for frames (pairwise inner products vs Kronecker delta)
ORTHO_TOL = 1e-10
#: rank tolerance, relative to the largest singular value
RANK_TOL = 1e-10
#: hard cap on matrix dimensions; larger problems are out of scope
MAX_DIM = 64


def as_generator(seed) -> np.random.Generator:
    """Return ``seed`` unchanged if it is already a Generator, else seed one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: from this many entries on NumPy sums a row pairwise in blocks of 8, so
#: ``_by_column`` leaves the reduction to NumPy
_COLUMN_PASSES_BELOW = 8


def _by_column(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` bit for bit, by one ``ufunc`` pass per
    column when the last axis is 2 to 7 entries long and ``a`` has rows.

    Like NumPy it starts from the ufunc's identity, if it has one: 0 + -0 is
    +0, so a row of -0 sums to +0."""
    n = a.shape[-1]
    if a.ndim < 2 or not 2 <= n < _COLUMN_PASSES_BELOW:
        return ufunc.reduce(a, axis=-1)
    first = a[..., 0]
    out = first.copy() if ufunc.identity is None else ufunc(ufunc.identity, first)
    for j in range(1, n):
        ufunc(out, a[..., j], out=out)
    return out


def _two_norms(y: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``y``."""
    return np.sqrt(_by_column(np.add, y * y))


def _unit_rows(y: np.ndarray, out=None) -> np.ndarray:
    """Rows of ``y`` divided by their Euclidean norms (``np.linalg.norm``'s
    bits), zero rows left as they are; ``out`` may be ``y`` itself."""
    norms = _two_norms(y)[..., None]
    np.copyto(norms, 1.0, where=norms == 0)
    return np.divide(y, norms, out=out)


def _check_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise BadDimensions(f"dimension {a.shape[0]} exceeds the supported cap {MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix entries must be finite")
    return a


def min_singular_value(a) -> float:
    """Smallest singular value of an invertible matrix.

    This is the radius of the largest Euclidean ball contained in the image
    of the unit ball under ``a``; for a diagonal matrix it is the smallest
    absolute diagonal entry.

    Raises :class:`SingularMatrix` when it is at most :data:`RANK_TOL` times
    the largest one, a rule that does not depend on the scale of ``a``.
    """
    sv = np.linalg.svd(_check_matrix(a), compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise SingularMatrix("matrix is numerically singular")
    return float(sv[-1])


@dataclass(frozen=True)
class Subspace:
    """An s-dimensional subspace of R^n stored as an orthonormal frame.

    ``frame`` has shape (s, n); its rows are pairwise orthonormal to
    :data:`ORTHO_TOL`.
    """

    frame: np.ndarray

    def __post_init__(self):
        try:
            frame = np.array(self.frame, dtype=float)
        except ValueError:  # ragged rows: fail the 2-D test below
            frame = np.empty(0)
        if frame.ndim != 2:
            raise DimensionMismatch("frame must be a 2-D array of row vectors")
        s, n = frame.shape
        if not 1 <= s <= n:
            raise BadDimensions(f"need 1 <= dim <= ambient dim, got {s} and {n}")
        if not np.all(np.isfinite(frame)):
            raise DimensionMismatch("frame entries must be finite")
        gram = frame @ frame.T
        if np.max(np.abs(gram - np.eye(s))) > ORTHO_TOL:
            raise RankDeficient("frame rows are not orthonormal to tolerance")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[1]

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the subspace."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.ambient_dim:
            raise DimensionMismatch(
                f"vector has dimension {x.shape[-1]}, subspace ambient {self.ambient_dim}"
            )
        return (x @ self.frame.T) @ self.frame

    def complement(self) -> "Subspace":
        """Orthogonal complement, as a Subspace of dimension n - s."""
        s, n = self.frame.shape
        if s == n:
            raise BadDimensions("full space has no complement frame")
        # columns of the null space of the frame
        _, _, vt = np.linalg.svd(self.frame, full_matrices=True)
        return Subspace(vt[s:])


def _orthonormal(mats: np.ndarray) -> np.ndarray:
    """Gram-Schmidt frames of the rows of each matrix of a stack (row i pairs
    positively with row i): a Householder QR of each transpose, every column
    of Q multiplied by the sign, never 0, of R's matching diagonal entry."""
    q, r = np.linalg.qr(np.swapaxes(mats, -1, -2))
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
    return np.swapaxes(q, -1, -2) * sign[..., None]


def orthonormalize(vectors) -> Subspace:
    """Orthonormal frame spanning the given vectors, Gram-Schmidt's: row i
    has a positive inner product with vector i (:func:`_orthonormal`).

    Raises :class:`RankDeficient` when the numerical rank, measured against
    the largest singular value at :data:`RANK_TOL`, is below the count.
    """
    rows = [np.asarray(row, dtype=float) for row in vectors]
    if len({row.shape for row in rows}) != 1 or rows[0].ndim != 1:  # none, ragged or not vectors
        raise DimensionMismatch("need a nonempty list of equal-length vectors")
    v = np.array(rows)
    s, n = v.shape
    if s > n:
        raise RankDeficient(f"{s} vectors cannot be independent in dimension {n}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("vector entries must be finite")
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficient("vectors are numerically linearly dependent")
    return Subspace(_orthonormal(v))


def random_subspace(n: int, s: int, seed=0) -> Subspace:
    """Haar-distributed s-dimensional subspace of R^n.

    The sign-fixed QR frame (:func:`_orthonormal`) of s standard Gaussian
    vectors: Haar by Mezzadri (Notices AMS 54, 2007).  Deterministic per seed.
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(s, (int, np.integer))):
        raise BadDimensions("dimensions must be integers")
    if not 1 <= s <= n:
        raise BadDimensions(f"need 1 <= s <= n, got s={s}, n={n}")
    return Subspace(_orthonormal(as_generator(seed).standard_normal((s, n))))


def full_space(n: int) -> Subspace:
    """The whole of R^n as a Subspace (identity frame)."""
    return Subspace(np.eye(n))
