"""Convex origin-symmetric bodies as gauge oracles.

A body is its Minkowski functional: membership, boundary points, volumes,
radii and expectations are all expressible through the gauge, which keeps
the dimension generic and avoids any vertex/facet bookkeeping.  A linear
image wraps a base gauge, a section is the maps of a ``_optim.ratio_ascent``
problem, and projections and polars are weighted minima on their base's
``_lp_form``, bracketed row by row by ``_irls`` in the norms of
``systems._lp_norms``.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimensions, DimensionMismatch, RankDeficient, SingularMatrix
from .linalg import RANK_TOL, Subspace, _by_column, _two_norms
from .systems import OrthonormalSystem, _lp_norms, _power_in_place, _rescued

IRLS_PASSES = 100  # cap on the reweighted least-squares passes of a row
BRACKET_RTOL = 1e-6  # a row stops once its bracket is this narrow, relative
_IRLS_FLOOR = 1e-6  # |entry| floor of the weights, relative to the row's largest
_END_EXPONENT = 64.0  # the exponent an infinite one iterates at
_CHECK_EVERY = 5  # passes per bracket evaluation, from the first
_PIVOTS = 64  # cap on the pivots of one vertex descent
_DUAL_TOL = 1e-13  # a basic dual within 1 + this is feasible
_CERT_FLOOR = 1e-3  # a certificate's projection below this share of its norm is roundoff


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

    def _rows(self, points) -> np.ndarray:
        """``points`` as float rows, which must have length ``dim``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.dim:
            raise DimensionMismatch(f"points of length {pts.shape[-1]} != dimension {self.dim}")
        return pts

    def __repr__(self):
        return f"<Body {self.label} dim={self.dim}>"


class LpBall(Body):
    """Coordinate ell_p ball; p=2 is the Euclidean ball, p=inf the cube."""

    def __init__(self, dim: int, p: float):
        if dim < 1:
            raise BadDimensions("dimension must be >= 1")
        if not p >= 1:
            raise BadDimensions("p must be >= 1")
        self.dim = int(dim)
        self.p = float(p)
        self.label = f"B_{'inf' if np.isinf(p) else p}^{dim}"

    def gauge_many(self, points):
        pts = self._rows(points)
        if np.isinf(self.p):
            return _by_column(np.maximum, np.abs(pts))
        if self.p == 2.0:
            return _two_norms(pts)
        return _by_column(np.add, np.abs(pts) ** self.p) ** (1.0 / self.p)

    def gauge_grad_many(self, points):
        pts = self._rows(points)
        g = self.gauge_many(pts)
        if np.isinf(self.p):
            idx = np.argmax(np.abs(pts), axis=1)
            grad = np.zeros_like(pts)
            rows = np.arange(len(pts))
            grad[rows, idx] = np.sign(pts[rows, idx])
            return g, grad
        if self.p == 2.0:
            return g, pts / np.maximum(g, 1e-300)[:, None]
        scale = _grad_scale(g, self.p)
        grad = np.abs(pts) ** (self.p - 1.0) * np.sign(pts) / scale[:, None]
        return g, grad


def euclidean_ball(dim: int) -> LpBall:
    return LpBall(dim, 2.0)


class InducedBall(Body):
    """Unit ball of the L_p norm pulled back through an orthonormal system.

    At p = 2 the norm is |x L|, L the Cholesky factor of the system's Gram
    matrix G = V diag(w) V^T, since ||x V||_{2,w}^2 = x G x^T: n columns
    where the node kernel takes one per node, and exact for any system whose
    functions are independent; dependent ones raise RankDeficient.
    """

    def __init__(self, system: OrthonormalSystem, p: float):
        if not p >= 1:
            raise BadDimensions("p must be >= 1")
        self.system = system
        self.p = float(p)
        self.dim = system.n
        self.label = f"B({system.name},p={p})"
        self._factor = None
        if self.p == 2.0:
            gram = system.gram()
            sv = np.linalg.svd(gram, compute_uv=False)
            if not sv[-1] > RANK_TOL * sv[0]:
                raise RankDeficient(f"{system.name} has numerically dependent functions")
            self._factor = np.linalg.cholesky(gram)

    def gauge_many(self, points):
        pts = self._rows(points)
        if self._factor is None:
            return self.system.lp_norm_many(pts, self.p)
        return self._rescued(lambda b: (_two_norms(b @ self._factor),), pts)[0]

    def gauge_grad_many(self, points):
        return self._rescued(self._gauge_grad_block, self._rows(points))

    def _rescued(self, kernel, pts):
        """systems._rescued of ``kernel`` over the rows of ``pts``: over x V, or x L at p = 2."""
        return _rescued(kernel, pts, self.system.values if self._factor is None else self._factor,
                        self.p)

    def _gauge_grad_block(self, pts):
        if self._factor is not None:  # p = 2: g = |x L|, gradient (x L / g) L^T
            y = pts @ self._factor
            g = _two_norms(y)
            y /= np.maximum(g, 1e-300)[:, None]
            return g, y @ self._factor.T
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
        return self.base.gauge_many(self._rows(points) @ self.inverse.T)

    def gauge_grad_many(self, points):
        g, grad = self.base.gauge_grad_many(self._rows(points) @ self.inverse.T)
        return g, grad @ self.inverse


class ProjectionBody(Body):
    """Orthogonal projection of a body onto a subspace, in frame coordinates.

    The gauge at u is min over z of base.gauge(u F + z C), F and C the frames
    of the subspace and its complement: with the base's ``_lp_form``
    (M, w, p), a weighted L_p regression of a = u F M on the rows of B = C M.
    The gauge is its bracket's lower end, a certified Hoelder dual bound.  At
    p = 1 the regression is a linear program and ``_irls`` takes the
    ``_vertex`` step, whose optimal vertex closes the bracket exactly under
    the same bound; other exponents bracket to ``BRACKET_RTOL``.  A base
    with no form or with p = inf raises BadDimensions.
    """

    def __init__(self, base: Body, subspace: Subspace):
        if subspace.ambient_dim != base.dim:
            raise DimensionMismatch("subspace ambient dimension must match the body")
        if subspace.dim == subspace.ambient_dim:
            raise BadDimensions("projection onto the full space is the body itself")
        form = _lp_form(base)
        if form is None or np.isinf(form[2]):
            raise BadDimensions(f"{base.label} has no L_p form to project")
        self.base = base
        self.dim = subspace.dim
        self.label = f"P(L{subspace.dim}){base.label}"
        m, self._w, self._p = form
        self._anchor, self._offsets = subspace.frame @ m, subspace.complement().frame @ m

    def gauge_many(self, points):
        return self._bracket(points)[1]

    def _bracket(self, points):
        """The ends of each row's bracket: IRLS (at p = 1 vertex) minima and
        certified dual bounds."""
        a = self._rows(points) @ self._anchor
        b, w = self._offsets, self._w
        outer = b[:, None] * b  # row k's B diag(c_k) B^T is c_k contracted with outer
        fit = np.linalg.solve((b * w) @ b.T, b)  # u - (u w B^T) fit: onto B (w u) = 0

        def solve(s, r):
            c = w * s
            step = np.linalg.solve(np.tensordot(c, outer, (1, 2)), ((c * r) @ b.T)[..., None])
            return r - step[..., 0] @ b

        def dual(u, rows):
            u = u - ((u * w) @ b.T) @ fit
            return u, (u * a[rows]) @ w

        vertex = (lambda r: _vertex(r, b, w)) if self._p == 1.0 else None
        return _irls(a, self._p, w, solve, dual, vertex)[:2]


class PolarBody(Body):
    """Polar (dual) body; its gauge is the support function of the base.

    By Hoelder duality the support function of a base with ``_lp_form``
    (M, w, p) is h(x) = min{||lambda||_{p',w} : M diag(w) lambda = x}
    (Rockafellar, *Convex Analysis*, 1970, section 16).  The gauge is its
    bracket's lower end <x, y> / g(y), so polar volumes err high, and the
    gradient Danskin's maximizer y / g(y), signed toward x.  A base with no
    form raises BadDimensions.  ``seed`` is ignored: nothing is drawn, and
    older callers still pass one.
    """

    def __init__(self, base: Body, seed=None):
        form = _lp_form(base)
        if form is None:
            raise BadDimensions(f"{base.label} has no L_p form to polarize")
        self.base = base
        self.dim = base.dim
        self.label = f"({base.label})^o"
        m, w, self._p = form
        keep = np.isinf(self._p) | (w > 0)  # a zero weight leaves its lambda_i free
        self._m, self._w = m[:, keep], w[keep]

    def gauge_many(self, points):
        return self.gauge_grad_many(points)[0]

    def gauge_grad_many(self, points):
        return self._bracket(points)[1:]

    def _bracket(self, points):
        """The ends of each row's bracket and the signed maximizer of the lower one."""
        x = self._rows(points)
        m, w, p = self._m, self._w, self._p
        pinv = np.linalg.solve((m * w) @ m.T, m)  # x pinv: the least 2-norm feasible lambda
        outer, fit = m[:, None] * m, (pinv * w).T  # u fit: the y of the best fit y M to u

        def solve(s, lam):
            target = lam @ (m * w).T  # the row's x, as the kernel scales it
            y = np.linalg.solve(np.tensordot(w / s, outer, (1, 2)), target[..., None])
            lam = (y[..., 0] @ m) / s
            return lam + (target - lam @ (m * w).T) @ pinv  # feasible to roundoff

        def dual(u, rows):
            y = u @ fit
            return y @ m, _by_column(np.add, y * x[rows])

        upper, lower, cert = _irls(x @ pinv, _conjugate(p), w, solve, dual)
        y = cert @ fit
        side = np.sign(_by_column(np.add, y * x)) / np.maximum(_lp_norms(y @ m, w, p), 1e-300)
        return upper, lower, side[:, None] * y


def _irls(v, e, w, solve, dual, vertex=None):
    """Bracket min ||v_k + z||_{e,w} over z in S, for every row k of ``v``
    (a point of each row's affine set, scaled here to largest |entry| 1).

    A pass reweights by s = max(|v| / max|v|, floor)^(e - 2), the floor
    raised past e = 4 to keep s within 1e12, and steps to ``solve(s, v)``,
    the minimizers of sum w s v^2, damped by 1/(e - 1) past e = 2.
    Every ``_CHECK_EVERY``-th pass brackets the rows: the upper end is the
    minimizer's norm, and a certificate u (s v, or s times the minimizer) gives
    the lower end |pairing| / ||u'||_{e',w} (Hoelder), ``dual(u, rows)``
    being u' projected w-orthogonally off S and its pairing with the data;
    ||u'|| is taken at least ``_CERT_FLOOR`` ||u||, since a u' of roundoff
    size (u nearly within S) pairs as noise and would "certify" anything.
    ``vertex(minimizers)``, if given (e = 1), adds one point of each affine
    set, whose norm is one more upper end, and one more certificate u: at an
    optimal vertex the two ends meet, so such a row closes at that check.
    A row stops once its best ends are ``BRACKET_RTOL`` close, or at the
    cap.  An infinite e iterates at ``_END_EXPONENT``; the ends take the
    true e.  Returns the upper and lower ends and each lower end's u.
    """
    ei, q = (_END_EXPONENT if np.isinf(e) else e), _conjugate(e)
    floor, damping = _IRLS_FLOOR ** (2.0 / max(ei - 2.0, 2.0)), max(ei - 1.0, 1.0)
    scale = np.maximum(np.max(np.abs(v), axis=1), 1e-300)  # a zero row stays 0
    v, upper, lower, cert = v / scale[:, None], np.empty(len(v)), np.empty(len(v)), np.empty_like(v)
    live, up, low, best = np.arange(len(v)), np.full(len(v), np.inf), np.full(len(v), -1.0), v
    for it in range(IRLS_PASSES):
        t = np.abs(v)
        t /= np.maximum(t.max(axis=1, keepdims=True), 1e-300)
        s = np.maximum(t, floor, out=t) ** (ei - 2.0)
        full, last = solve(s, v), it == IRLS_PASSES - 1
        if it % _CHECK_EVERY == 0 or last:
            np.fmin(up, _lp_norms(full, w, e), out=up)
            certs = [s * v, s * full]
            if vertex is not None:
                corner, u = vertex(full)
                np.fmin(up, _lp_norms(corner, w, e), out=up)
                certs.append(u)
            for u in certs:
                node, pair = dual(u, live)
                size = np.maximum(_lp_norms(node, w, q), _CERT_FLOOR * _lp_norms(u, w, q))
                ends = np.abs(pair) / scale[live] / np.maximum(size, 1e-300)
                best = np.where((ends > low)[:, None], u, best)
                np.fmax(low, ends, out=low)
            done = (up - low <= BRACKET_RTOL * up) | last
            if done.any():
                rows = live[done]
                upper[rows], lower[rows], cert[rows] = up[done], low[done], best[done]
                live, v, full, up, low, best = (a[~done] for a in (live, v, full, up, low, best))
                if not live.size:
                    break
        v = full if damping == 1.0 else v + (full - v) / damping
    return upper * scale, lower * scale, cert


def _vertex(r, b, w):
    """Vertex descent on min ||r + z B||_{1,w} from each row's residuals ``r``
    (Barrodale and Roberts, *SIAM J. Numer. Anal.* 10, 1973), batched over rows.

    The basis J is the k = len(B) smallest |r_i| over the nodes that may
    enter one: a zero weight never does, nor an offset column within
    ``RANK_TOL`` of 0 relative to ||B||_2.  The k x k solve zeroes r_J, and
    the basic duals lambda make u = (sign r off J, lambda on J) w-orthogonal
    to B.  A row whose lambda leaves [-1, 1] pivots its largest |lambda_j|
    out along the improving edge to the weighted-median breakpoint, whose
    node enters J.  Every basis is regular, |det B_J| > RANK_TOL ||B||_2^k,
    which bounds z and so the roundoff of the vertex.  Returns each row's
    last vertex and its u; ||u||_inf <= 1 certifies the vertex optimal.  A
    row at ``_PIVOTS``, or with no regular basis or entering node, keeps what
    it had reached (r and u = 0 before its first vertex).
    """
    k, corner, cert, every = len(b), r.copy(), np.zeros_like(r), np.arange(len(r))
    scale = np.linalg.norm(b, 2)
    floor = RANK_TOL * scale ** k
    barred = ~(w > 0) | (np.linalg.norm(b, axis=0) <= RANK_TOL * scale)  # |det| <= floor with it
    basis = np.argpartition(np.where(barred, np.inf, np.abs(r)), k - 1, axis=1)[:, :k]
    det = np.abs(np.linalg.det(b.T[basis]))
    live = np.flatnonzero(det > floor)
    basis, det = basis[live], det[live]
    for it in range(_PIVOTS + 1):
        if not live.size:
            break
        ix, inv, res = every[:len(live)], np.linalg.inv(b.T[basis]), corner[live]
        at = ix[:, None]
        res -= (inv @ res[at, basis][..., None])[..., 0] @ b  # r_J is 0 to roundoff, kept
        u = np.sign(res)
        u[at, basis] = 0.0
        lam = np.einsum("rl,rlm->rm", (u * w) @ b.T, inv) / -w[basis]
        u[at, basis] = lam
        corner[live], cert[live] = res, u
        out = np.argmax(np.abs(lam), axis=1)
        lam = lam[ix, out]
        pivot = np.abs(lam) > 1.0 + _DUAL_TOL
        if it == _PIVOTS or not pivot.any():
            break
        live, basis, det, inv, res, out, lam = (
            a[pivot] for a in (live, basis, det, inv, res, out, lam))
        ix, at = ix[:len(live)], at[:len(live)]
        edge = np.sign(lam)[:, None] * inv[ix, :, out] @ b  # on J, 0 but at out
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -res / edge
        t[~(t >= 0)] = np.inf  # behind
        t[det[:, None] * np.abs(edge) <= floor] = np.inf  # entering, node i scales |det| by |edge_i|
        t[:, barred] = t[at, basis] = np.inf
        order = np.argsort(t, axis=1)
        # the slope, w_out (1 - |lambda|) at 0, rises past each breakpoint: stop where it is >= 0
        rise = np.cumsum((w * np.abs(edge) * np.where(res == 0, 1.0, 2.0))[at, order], axis=1)
        drop = w[basis[ix, out]] * (np.abs(lam) - 1.0)
        first = np.argmax(rise >= drop[:, None], axis=1)
        enter = order[ix, first]
        basis[ix, out] = enter
        det *= np.abs(edge[ix, enter])
        found = (rise[ix, first] >= drop) & (t[ix, enter] < np.inf)
        live, basis, det = live[found], basis[found], det[found]
    return corner, cert


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
    and induced p-balls and their linear images A V, whose M is A^{-T} M_V;
    at p = inf the gauge is max_i |(x M)_i| over every node (sphere poles too)."""
    if isinstance(body, LpBall):
        return np.eye(body.dim), np.ones(body.dim), body.p
    if isinstance(body, InducedBall):
        values = body.system.values
        return values, np.ones(values.shape[1]) if np.isinf(body.p) else body.system.weights, body.p
    if isinstance(body, LinearImageBody) and (form := _lp_form(body.base)):
        return (body.inverse.T @ form[0],) + form[1:]
    return None


def induced_ball(system: OrthonormalSystem, p: float) -> InducedBall:
    """Unit ball in coefficient space of the system's L_p norm."""
    return InducedBall(system, p)


def linear_image(body: Body, matrix) -> LinearImageBody:
    """Image of a body under an invertible matrix; volume scales by |det|."""
    return LinearImageBody(body, matrix)
