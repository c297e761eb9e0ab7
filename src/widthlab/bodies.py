"""Convex origin-symmetric bodies as gauge oracles.

A body is its Minkowski functional: membership, boundary points, volumes,
radii and expectations are all expressible through the gauge, which keeps
the dimension generic and avoids any vertex/facet bookkeeping.  Linear
images, sections and polars are thin wrappers over a base gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _optim
from .errors import BadDimensions, DimensionMismatch, SingularMatrix, SpectrumExhausted
from .linalg import RANK_TOL, Subspace, _by_column
from .systems import OrthonormalSystem, _in_row_blocks, _power_in_place


def _grad_scale(g: np.ndarray, p: float) -> np.ndarray:
    """g^(p-1), the divisor of an L_p gauge gradient, with inf for a zero gauge:
    such a row gets the subgradient 0, where 1e-300^(p-1) underflows from
    p of about 2.08 on and would give 0/0."""
    scale = np.maximum(g, 1e-300) ** (p - 1.0)
    scale[g == 0] = np.inf
    return scale


class Body:
    """Base class: a symmetric convex body in R^dim given by its gauge."""

    dim: int
    label: str

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gauge(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        return float(self.gauge_many(x[None, :])[0])

    def gauge_grad_many(self, points: np.ndarray):
        """Gauge values and (sub)gradients per row; needed by optimizers."""
        raise NotImplementedError(f"{self.label} has no gradient oracle")

    def __repr__(self):
        return f"<Body {self.label} dim={self.dim}>"


class LpBall(Body):
    """Coordinate ell_p ball; p=2 is the Euclidean ball, p=inf the cube."""

    def __init__(self, dim: int, p: float):
        if dim < 1:
            raise BadDimensions("dimension must be >= 1")
        if p < 1:
            raise BadDimensions("p must be >= 1")
        self.dim = int(dim)
        self.p = float(p)
        self.label = f"B_{'inf' if np.isinf(p) else p}^{dim}"

    def gauge_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.isinf(self.p):
            return _by_column(np.maximum, np.abs(pts))
        if self.p == 2.0:
            return np.sqrt(_by_column(np.add, pts * pts))
        if self.p == 1.0:
            return _by_column(np.add, np.abs(pts))
        return _by_column(np.add, np.abs(pts) ** self.p) ** (1.0 / self.p)

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self.gauge_many(pts)
        if np.isinf(self.p):
            idx = np.argmax(np.abs(pts), axis=1)
            grad = np.zeros_like(pts)
            rows = np.arange(len(pts))
            grad[rows, idx] = np.sign(pts[rows, idx])
            return g, grad
        if self.p == 1.0:
            return g, np.sign(pts)
        if self.p == 2.0:
            return g, pts / np.maximum(g, 1e-300)[:, None]
        scale = _grad_scale(g, self.p)
        grad = np.abs(pts) ** (self.p - 1.0) * np.sign(pts) / scale[:, None]
        return g, grad


def euclidean_ball(dim: int) -> LpBall:
    return LpBall(dim, 2.0)


class InducedBall(Body):
    """Unit ball of the L_p norm pulled back through an orthonormal system."""

    def __init__(self, system: OrthonormalSystem, p: float):
        if p < 1:
            raise BadDimensions("p must be >= 1")
        self.system = system
        self.p = float(p)
        self.dim = system.n
        self.label = f"B({system.name},p={p})"

    def gauge_many(self, points):
        return self.system.lp_norm_many(np.atleast_2d(np.asarray(points, dtype=float)), self.p)

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _in_row_blocks(self._gauge_grad_block, pts, len(self.system.quadrature))

    def _gauge_grad_block(self, pts):
        vals = self.system.values
        w = self.system.quadrature.weights
        f = pts @ vals
        p = self.p
        if np.isinf(p):
            g = np.max(np.abs(f), axis=1)
            idx = np.argmax(np.abs(f), axis=1)
            rows = np.arange(len(pts))
            grad = np.sign(f[rows, idx])[:, None] * vals[:, idx].T
            return g, grad
        if p == 1.0:
            g = np.abs(f) @ w
            grad = (np.sign(f) * w) @ vals.T
            return g, grad
        # |f|^p = t*f*f and |f|^(p-1)*sign(f) = t*f with t = |f|^(p-2):
        # one power evaluation feeds both the value and the gradient, and
        # every step works in place on f and one |f| buffer
        t = np.abs(f)
        np.maximum(t, 1e-300, out=t)
        t = _power_in_place(t, p - 2.0)
        t *= f
        f *= t
        g = (f @ w) ** (1.0 / p)
        scale = _grad_scale(g, p)
        t *= w
        grad = t @ vals.T
        grad /= scale[:, None]
        return g, grad


class LinearImageBody(Body):
    """Image A*V of a base body under an invertible matrix A."""

    def __init__(self, base: Body, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.shape != (base.dim, base.dim):
            raise DimensionMismatch("matrix shape must match the body dimension")
        if not np.all(np.isfinite(a)):
            raise DimensionMismatch("matrix entries must be finite")
        # rank relative to the largest singular value: scale-free, so A and
        # the polar's A^{-T} pass or fail together
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise SingularMatrix("linear image requires an invertible matrix")
        self.base = base
        self.matrix = a
        self.inverse = np.linalg.inv(a)
        self.dim = base.dim
        self.label = f"A*{base.label}"

    def gauge_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.base.gauge_many(pts @ self.inverse.T)

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g, grad = self.base.gauge_grad_many(pts @ self.inverse.T)
        return g, grad @ self.inverse


class SectionBody(Body):
    """A body intersected with a subspace, seen in frame coordinates."""

    def __init__(self, base: Body, subspace: Subspace):
        if subspace.ambient_dim != base.dim:
            raise DimensionMismatch("subspace ambient dimension must match the body")
        self.base = base
        self.subspace = subspace
        self.dim = subspace.dim
        self.label = f"{base.label} cap L{subspace.dim}"

    def gauge_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.base.gauge_many(pts @ self.subspace.frame)

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g, grad = self.base.gauge_grad_many(pts @ self.subspace.frame)
        return g, grad @ self.subspace.frame.T


class ProjectionBody(Body):
    """Orthogonal projection of a body onto a subspace, in frame coordinates.

    The gauge at u is min over the orthogonal complement z of
    base.gauge(u + z).  All rows of a call are one batched ascent call,
    ``_optim.offset_minima``; the values are achieved ones, so they bound the
    gauge from above and the projection volume from below.
    """

    def __init__(self, base: Body, subspace: Subspace):
        if subspace.ambient_dim != base.dim:
            raise DimensionMismatch("subspace ambient dimension must match the body")
        if subspace.dim == subspace.ambient_dim:
            raise BadDimensions("projection onto the full space is the body itself")
        self.base = base
        self.subspace = subspace
        self.comp = subspace.complement()
        self.dim = subspace.dim
        self.label = f"P(L{subspace.dim}){base.label}"

    def gauge_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _optim.offset_minima(self.base, pts @ self.subspace.frame, self.comp.frame)[0]


class PolarBody(Body):
    """Polar (dual) body; its gauge is the support function of the base.

    Evaluated by multistart ascent, so gauges are certified lower bounds;
    callers rely on that direction.  The gradient is Danskin's: the
    maximizer y* the ascent finds, signed to the side of the point.
    """

    def __init__(self, base: Body, restarts: int = 6, iters: int = 350, seed=0):
        self.base = base
        self.restarts = restarts
        self.iters = iters
        self.seed = seed
        self.dim = base.dim
        self.label = f"({base.label})^o"

    def gauge_many(self, points):
        return self.gauge_grad_many(points)[0]

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g, y = _optim.support_values(self.base, pts, restarts=self.restarts,
                                     iters=self.iters, seed=self.seed)
        return g, np.sign(_by_column(np.add, pts * y))[:, None] * y


def _polar(body: Body) -> Body:
    """The polar body, by structure where it shows: ell_p balls go to ell_p'
    balls, (A V)^o = A^{-T} V^o, and V^oo = V; any other body becomes a
    ``PolarBody``."""
    if isinstance(body, LpBall):
        p = body.p
        return LpBall(body.dim, np.inf if p == 1.0 else 1.0 if np.isinf(p) else p / (p - 1.0))
    if isinstance(body, LinearImageBody):
        return LinearImageBody(_polar(body.base), body.inverse.T)
    if isinstance(body, PolarBody):
        return body.base
    return PolarBody(body)


def induced_ball(system: OrthonormalSystem, p: float) -> InducedBall:
    """Unit ball in coefficient space of the system's L_p norm."""
    return InducedBall(system, p)


def linear_image(body: Body, matrix) -> LinearImageBody:
    """Image of a body under an invertible matrix; volume scales by |det|."""
    return LinearImageBody(body, matrix)


def support_function(body: Body, x, restarts: int = 32, iters: int = 400,
                     seed=0) -> float:
    """max{<x, y> : gauge(y) <= 1}: one ``_optim.support_values`` problem."""
    x = np.asarray(x, dtype=float)
    if x.shape != (body.dim,):
        raise DimensionMismatch(f"expected a vector of length {body.dim}")
    if np.linalg.norm(x) == 0:
        return 0.0
    return float(_optim.support_values(body, x[None, :], restarts=restarts,
                                       iters=iters, seed=seed)[0][0])


def dual_gauge(system: OrthonormalSystem, p: float, x, restarts: int = 32, seed=0) -> float:
    """Support function of the induced p-ball at x.

    Dominated by the induced p'-norm of x (1/p + 1/p' = 1): pairing through
    the orthonormal system is an L_2 inner product, so Hoelder applies.
    """
    return support_function(induced_ball(system, p), x, restarts=restarts, seed=seed)


@dataclass(frozen=True)
class MultiplierSpec:
    """A multiplier sequence: a positive rate function of the eigenvalue,
    or an explicit per-coordinate sequence.

    ``regularly_varying`` marks rates that decay like a power: decreasing,
    continuous, with lambda(C*t)/lambda(t) bounded below as t grows.
    """

    lambda_fn: Callable | None = None
    sequence: np.ndarray | None = None
    regularly_varying: bool = False

    def __post_init__(self):
        if self.lambda_fn is None and self.sequence is None:
            raise BadDimensions("need a rate function or an explicit sequence")
        if self.sequence is not None:
            seq = np.array(self.sequence, dtype=float)
            if np.any(seq <= 0):
                raise BadDimensions("multiplier entries must be positive")
            if self.regularly_varying and np.any(np.diff(seq) > 1e-12):
                raise BadDimensions("a regularly varying sequence must be nonincreasing")
            seq.setflags(write=False)
            object.__setattr__(self, "sequence", seq)

    def rate(self, t: float) -> float:
        if self.lambda_fn is None:
            raise BadDimensions("this spec has no rate function")
        return float(self.lambda_fn(t))


def multiplier_diagonal(spec: MultiplierSpec, spectral, n: int) -> np.ndarray:
    """First n diagonal entries of the truncated multiplier operator.

    With spectral data, the rate at the k-th eigenvalue is repeated once per
    eigenspace dimension, k >= 1 (the constant term is excluded).  Without
    spectral data an explicit sequence is consumed directly.
    """
    if n < 1:
        raise BadDimensions("n must be >= 1")
    if spectral is not None and spec.lambda_fn is not None:
        entries = []
        k = 1
        while len(entries) < n:
            if k > 100_000:
                raise SpectrumExhausted("eigenvalue index cap reached")
            entries.extend([spec.rate(spectral.eigenvalue(k))] * spectral.eigenspace_dim(k))
            k += 1
        return np.array(entries[:n])
    if spec.sequence is None:
        raise SpectrumExhausted("no spectral data and no explicit sequence")
    if len(spec.sequence) < n:
        raise SpectrumExhausted(f"sequence has {len(spec.sequence)} entries, need {n}")
    return np.array(spec.sequence[:n])
