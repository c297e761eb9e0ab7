"""Convex origin-symmetric bodies as gauge oracles.

A body is its Minkowski functional: membership, boundary points, volumes,
radii and expectations are all expressible through the gauge, which keeps
the dimension generic and avoids any vertex/facet bookkeeping.  Linear
images and polars are thin wrappers over a base gauge, a projection solves
a weighted L_p regression on its base's ``_lp_form``, and a section is the
maps of a ``_optim.ratio_ascent`` problem.
"""

from __future__ import annotations

import numpy as np

from . import _optim
from .errors import BadDimensions, DimensionMismatch, SingularMatrix
from .linalg import RANK_TOL, Subspace, _by_column
from .systems import OrthonormalSystem, _in_row_blocks, _power_in_place

IRLS_PASSES = 100  # reweighted least-squares passes of a projection gauge
_IRLS_FLOOR = 1e-6  # |residual| floor of the weights, relative to the row's largest |a|


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
        return _in_row_blocks(self._gauge_grad_block, pts, len(self.system.weights))

    def _gauge_grad_block(self, pts):
        vals = self.system.values
        w = self.system.weights
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


class ProjectionBody(Body):
    """Orthogonal projection of a body onto a subspace, in frame coordinates.

    The gauge at u is min over z of base.gauge(u F + z C), F and C the frames
    of the subspace and its complement: with the base's ``_lp_form``
    (M, w, p), a weighted L_p regression of a = u F M on the rows of B = C M.
    ``IRLS_PASSES`` reweighted least-squares passes solve every row at once,
    one m x m system per row and pass; for p > 2 the step is damped by
    1/(p - 1), or it diverges.  The gauge returned is the Hoelder dual bound
    <lambda, a>_w, lambda = r max(|r|, floor)^(p-2) from the last residual r
    projected onto B (w lambda) = 0 and scaled to weighted L_p' norm 1: a
    certified lower bound.  A base with no form (p = inf, polars,
    projections) raises BadDimensions.
    """

    def __init__(self, base: Body, subspace: Subspace):
        if subspace.ambient_dim != base.dim:
            raise DimensionMismatch("subspace ambient dimension must match the body")
        if subspace.dim == subspace.ambient_dim:
            raise BadDimensions("projection onto the full space is the body itself")
        form = _lp_form(base)
        if form is None:
            raise BadDimensions(f"{base.label} has no L_p form to project")
        self.base = base
        self.dim = subspace.dim
        self.label = f"P(L{subspace.dim}){base.label}"
        m, self._w, self._p = form
        self._anchor, self._offsets = subspace.frame @ m, subspace.complement().frame @ m

    def gauge_many(self, points):
        return self._regression(points)[1]

    def _regression(self, points):
        """IRLS minima (norms of the last residuals) and certified dual bounds per row."""
        a = np.atleast_2d(np.asarray(points, dtype=float)) @ self._anchor
        b, w, p = self._offsets, self._w, self._p
        scale = np.max(np.abs(a), axis=1)
        a = r = a / np.where(scale > 0, scale, 1.0)[:, None]  # a zero row stays 0
        outer = b[:, None] * b  # row k's B diag(c_k) B^T is c_k contracted with outer
        for _ in range(IRLS_PASSES):
            t = np.maximum(np.abs(r), _IRLS_FLOOR)
            c = w * (t / t.max(axis=1, keepdims=True)) ** (p - 2.0)  # at most w: no underflow
            step = np.linalg.solve(np.tensordot(c, outer, (1, 2)), ((c * r) @ b.T)[..., None])
            r = r - step[..., 0] @ b / max(p - 1.0, 1.0)
        t = np.maximum(np.abs(r), _IRLS_FLOOR)
        lam = r * (t / t.max(axis=1, keepdims=True)) ** (p - 2.0)
        lam -= (lam * w) @ b.T @ np.linalg.solve((b * w) @ b.T, b)  # one system for all rows
        q = _conjugate(p)
        norm = np.max(np.abs(lam), axis=1) if q == np.inf else (np.abs(lam) ** q @ w) ** (1.0 / q)
        value = (np.abs(r) ** p @ w) ** (1.0 / p)
        return value * scale, (lam * a) @ w / np.maximum(norm, 1e-300) * scale


class PolarBody(Body):
    """Polar (dual) body; its gauge is the support function of the base.

    Evaluated by one ``_optim.support_values`` ascent over ``restarts``
    starts per point, capped at ``_optim.MAX_ITERS`` passes, so gauges are
    certified lower bounds; callers rely on that direction.  Where the base
    has a support majorant the ascent also stops on its duality gap, and the
    gauge is still the best value achieved.  The gradient is Danskin's: the
    maximizer y* the ascent finds, signed to the side of the point.
    """

    def __init__(self, base: Body, restarts: int = 6, seed=0):
        self.base = base
        self.restarts = restarts
        self.seed = seed
        self.dim = base.dim
        self.label = f"({base.label})^o"

    def gauge_many(self, points):
        return self.gauge_grad_many(points)[0]

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g, y = _optim.support_values(self.base, pts, restarts=self.restarts, seed=self.seed)
        return g, np.sign(_by_column(np.add, pts * y))[:, None] * y


def _conjugate(p: float) -> float:
    """The Hoelder exponent p' with 1/p + 1/p' = 1 (1 and inf swap)."""
    return np.inf if p == 1.0 else 1.0 if np.isinf(p) else p / (p - 1.0)


def _polar(body: Body) -> Body:
    """The polar body, by structure where it shows: ell_p balls go to ell_p'
    balls, (A V)^o = A^{-T} V^o, and V^oo = V; any other body becomes a
    ``PolarBody``."""
    if isinstance(body, LpBall):
        return LpBall(body.dim, _conjugate(body.p))
    if isinstance(body, LinearImageBody):
        return LinearImageBody(_polar(body.base), body.inverse.T)
    if isinstance(body, PolarBody):
        return body.base
    return PolarBody(body)


def _lp_form(body: Body):
    """``(M, w, p)`` with gauge (sum_i w_i |(x M)_i|^p)^(1/p), or None: ell_p
    and induced p-balls for p < inf, and their linear images A V, whose M is
    A^{-T} M_V."""
    if isinstance(body, LpBall) and not np.isinf(body.p):
        return np.eye(body.dim), np.ones(body.dim), body.p
    if isinstance(body, InducedBall) and not np.isinf(body.p):
        return body.system.values, body.system.weights, body.p
    if isinstance(body, LinearImageBody) and (form := _lp_form(body.base)):
        return (body.inverse.T @ form[0],) + form[1:]
    return None


def _support_majorant(body: Body):
    """A gauge M with M >= h_K, the support function of ``body``, or None.

    ell_p balls give their dual ball (exact); an induced p-ball gives the
    induced p'-ball, since pairing through the system is the quadrature
    inner product and Hoelder applies (exact up to the Gram roundoff); and
    h_{A V}(x) = h_V(A^T x) <= M_V(A^T x), the gauge of A^{-T} M_V.
    """
    if isinstance(body, LpBall):
        return _polar(body)
    if isinstance(body, InducedBall):
        return InducedBall(body.system, _conjugate(body.p))
    if isinstance(body, LinearImageBody):
        base = _support_majorant(body.base)
        return None if base is None else LinearImageBody(base, body.inverse.T)
    return None


def induced_ball(system: OrthonormalSystem, p: float) -> InducedBall:
    """Unit ball in coefficient space of the system's L_p norm."""
    return InducedBall(system, p)


def linear_image(body: Body, matrix) -> LinearImageBody:
    """Image of a body under an invertible matrix; volume scales by |det|."""
    return LinearImageBody(body, matrix)
