"""Lorentzian metric fields on the lattice and their light-cone algebra.

A metric field stores the symmetric 2x2 components (g_tt, g_tx, g_xx) and a
time-orientation vector field X at every lattice point.  In 1+1 dimensions
the light cone at a point is determined by the two null slopes, so cone
inclusion, the cone preorder, cone-overlap witnesses and causal-chain
construction are all finite slope-interval computations rather than sampled
tests.  Internally each future half-cone is handled as an angular arc on the
unit circle of directions (theta = atan2(v_x, v_t)), which covers uniformly
the "cone opens around the spatial axis" case that appears in rotated
metrics on the cylinder.

Sign comparisons against zero use a pure round-off guard (relative 1e-12):
there is no sampling or modelling tolerance anywhere in this module.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import ScalarField, SpacetimeGrid

__all__ = [
    "ALIGNED",
    "REVERSED",
    "MetricField",
    "ParacausalChain",
    "classify_vector",
    "musical_sharp",
    "musical_flat",
    "inverse_metric",
    "cone_inclusion",
    "preceq",
    "convex_combination",
    "sharp_interpolation",
    "squeeze_metric",
    "cones_intersect_future",
    "paracausal_witness",
    "build_chain",
    "alpha_rescale",
    "tune_alpha",
    "causal_future",
    "closed_causal_exists",
    "metric_preset",
]

ALIGNED = "aligned"
REVERSED = "reversed"

_GUARD = 1e-12       # round-off guard for sign tests, relative to coefficient size
_DET_FLOOR = 1e-10   # metrics closer to degeneracy than this are rejected


class MetricField:
    """Per-point Lorentzian 2x2 metric with a chosen time orientation.

    Signature is (-, +): det g < 0 everywhere, and the orientation field X
    must be timelike (g(X,X) < 0); the future half-cone at each point is the
    connected component of the open cone containing X.
    """

    def __init__(self, grid: SpacetimeGrid, g_tt, g_tx, g_xx, orient_t, orient_x):
        shape = (grid.nt, grid.nx)
        comp = []
        for c in (g_tt, g_tx, g_xx, orient_t, orient_x):
            c = np.asarray(c, dtype=float)
            if c.shape == ():
                c = np.full(shape, float(c))
            if c.shape != shape:
                raise ValueError("metric component shape does not match grid")
            if not np.all(np.isfinite(c)):
                raise ValueError("metric and orientation components must be finite")
            comp.append(np.ascontiguousarray(c))
        self.grid = grid
        self.g_tt, self.g_tx, self.g_xx, self.orient_t, self.orient_x = comp
        det = self.det()
        if np.max(det) >= -_DET_FLOOR:
            raise ValueError("not Lorentzian: det g must be < -1e-10 at every point")
        qx = self.quad(self.orient_t, self.orient_x)
        if np.max(qx) >= 0.0:
            raise ValueError("orientation field must be timelike at every point")
        for c in comp:
            c.flags.writeable = False

    # -- pointwise algebra -------------------------------------------------

    def det(self) -> np.ndarray:
        return self.g_tt * self.g_xx - self.g_tx**2

    def quad(self, vt, vx) -> np.ndarray:
        """g(v, v) for a vector field with components (vt, vx)."""
        return self.g_tt * vt * vt + 2.0 * self.g_tx * vt * vx + self.g_xx * vx * vx

    def pair(self, ut, ux, vt, vx) -> np.ndarray:
        return self.g_tt * ut * vt + self.g_tx * (ut * vx + ux * vt) + self.g_xx * ux * vx

    def inverse_components(self):
        """g_sharp components (tt, tx, xx): the adjugate divided by det."""
        d = self.det()
        return self.g_xx / d, -self.g_tx / d, self.g_tt / d

    def volume_density(self) -> np.ndarray:
        return np.sqrt(-self.det())

    def scale(self) -> np.ndarray:
        return np.maximum.reduce([np.abs(self.g_tt), np.abs(self.g_tx), np.abs(self.g_xx)])

    def with_orientation(self, orient_t, orient_x) -> "MetricField":
        return MetricField(self.grid, self.g_tt, self.g_tx, self.g_xx, orient_t, orient_x)

    def time_reversed(self) -> "MetricField":
        return self.with_orientation(-self.orient_t, -self.orient_x)

    def null_slopes(self):
        """Roots of g_tt + 2 g_tx s + g_xx s^2, as a (lo, hi) pair where finite.

        Points with g_xx == 0 have a single finite root (the other null
        direction is the spatial axis); callers that need the complete
        boundary should use :func:`future_arcs` instead.
        """
        disc = np.sqrt(np.maximum(self.g_tx**2 - self.g_tt * self.g_xx, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = (-self.g_tx - disc) / self.g_xx
            r2 = (-self.g_tx + disc) / self.g_xx
        lo = np.minimum(r1, r2)
        hi = np.maximum(r1, r2)
        return lo, hi


# -- directions as angles ---------------------------------------------------

def _wrap_angle(a):
    """Wrap to (-pi, pi]."""
    return np.pi - np.mod(np.pi - a, 2.0 * np.pi)


def future_arcs(metric: MetricField):
    """Angular arc (center, halfwidth) of the future half-cone at every point.

    The four null rays are bracketed around the orientation direction; the
    future half is the open arc between the two bracketing rays.  Widths are
    strictly below pi for any Lorentzian metric.
    """
    a, b, c = metric.g_tt, metric.g_tx, metric.g_xx
    disc = np.sqrt(np.maximum(b * b - a * c, 0.0))
    safe_c = np.where(c != 0.0, c, 1.0)
    s1 = np.where(c != 0.0, (-b - disc) / safe_c, 0.0)
    s2 = np.where(c != 0.0, (-b + disc) / safe_c, 0.0)
    th1 = np.where(c != 0.0, np.arctan2(s1, 1.0), np.arctan2(-a, 2.0 * b))
    th2 = np.where(c != 0.0, np.arctan2(s2, 1.0), np.pi / 2.0)
    thX = np.arctan2(metric.orient_x, metric.orient_t)
    rays = np.stack([th1, th2, th1 + np.pi, th2 + np.pi])
    ahead = np.mod(rays - thX[None], 2.0 * np.pi)   # counterclockwise gap to each ray
    behind = np.mod(thX[None] - rays, 2.0 * np.pi)
    d_plus = ahead.min(axis=0)
    d_minus = behind.min(axis=0)
    center = _wrap_angle(thX + 0.5 * (d_plus - d_minus))
    halfwidth = 0.5 * (d_plus + d_minus)
    return center, halfwidth


def metric_from_arcs(grid: SpacetimeGrid, center, halfwidth) -> MetricField:
    """Lorentzian metric whose future cone is the given angular arc.

    Built from the two boundary null lines; components are normalized to
    max-abs 1 per point and the orientation is the arc bisector.
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (grid.nt, grid.nx))
    halfwidth = np.broadcast_to(np.asarray(halfwidth, dtype=float), (grid.nt, grid.nx))
    if np.any(halfwidth <= 0.0) or np.any(halfwidth >= np.pi / 2.0):
        raise ValueError("arc halfwidth must lie in (0, pi/2) for a Lorentzian cone")
    th1 = center - halfwidth
    th2 = center + halfwidth
    # l_i(v) = 0 on the boundary ray i: l_i = (-sin th_i, cos th_i) . (vt, vx)
    a = np.sin(th1) * np.sin(th2)
    b = -0.5 * (np.sin(th1) * np.cos(th2) + np.cos(th1) * np.sin(th2))
    c = np.cos(th1) * np.cos(th2)
    q_ctr = a * np.cos(center) ** 2 + 2 * b * np.cos(center) * np.sin(center) + c * np.sin(center) ** 2
    sign = np.where(q_ctr < 0.0, 1.0, -1.0)
    a, b, c = sign * a, sign * b, sign * c
    norm = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c)])
    return MetricField(grid, a / norm, b / norm, c / norm, np.cos(center), np.sin(center))


# -- pointwise classification and musical maps ------------------------------

def classify_vector(g: MetricField, p, v) -> str:
    """Causal character of a tangent vector at point p = (level, site)."""
    n, j = p
    vt, vx = float(v[0]), float(v[1])
    if not (math.isfinite(vt) and math.isfinite(vx)):
        raise ValueError("vector components must be finite")
    q = g.g_tt[n, j] * vt * vt + 2 * g.g_tx[n, j] * vt * vx + g.g_xx[n, j] * vx * vx
    if q > 0.0 or (vt == 0.0 and vx == 0.0):
        return "spacelike"
    # future iff g(X, v) < 0 for v in the closed cone
    gXv = (g.g_tt[n, j] * g.orient_t[n, j] * vt
           + g.g_tx[n, j] * (g.orient_t[n, j] * vx + g.orient_x[n, j] * vt)
           + g.g_xx[n, j] * g.orient_x[n, j] * vx)
    half = "future" if gXv < 0.0 else "past"
    return ("timelike-" if q < 0.0 else "null-") + half


def inverse_metric(g: MetricField) -> np.ndarray:
    """Per-point 2x2 inverse, shape (nt, nx, 2, 2)."""
    itt, itx, ixx = g.inverse_components()
    out = np.empty((g.grid.nt, g.grid.nx, 2, 2))
    out[..., 0, 0] = itt
    out[..., 0, 1] = itx
    out[..., 1, 0] = itx
    out[..., 1, 1] = ixx
    return out


def musical_sharp(g: MetricField, p, covector) -> np.ndarray:
    """Raise an index: the vector v with g(v, .) = omega."""
    n, j = p
    itt, itx, ixx = g.inverse_components()
    w0, w1 = float(covector[0]), float(covector[1])
    return np.array([itt[n, j] * w0 + itx[n, j] * w1, itx[n, j] * w0 + ixx[n, j] * w1])


def musical_flat(g: MetricField, p, vector) -> np.ndarray:
    """Lower an index: omega = g(v, .)."""
    n, j = p
    v0, v1 = float(vector[0]), float(vector[1])
    return np.array([g.g_tt[n, j] * v0 + g.g_tx[n, j] * v1,
                     g.g_tx[n, j] * v0 + g.g_xx[n, j] * v1])


# -- cone inclusion and the preorder ----------------------------------------

def _inclusion_mask(g: MetricField, gp: MetricField) -> np.ndarray:
    """Pointwise V^g subset V^g' as a boolean array.

    Exact three-evaluation test: the two rays bounding the future half of g
    must be g'-causal and the g-orientation must be g'-timelike.  Evenness of
    quadratic forms extends the verdict to the full (two-sided) cone.
    """
    center, halfwidth = future_arcs(g)
    eta = _GUARD * gp.scale()
    ok = np.ones((g.grid.nt, g.grid.nx), dtype=bool)
    for th in (center - halfwidth, center + halfwidth):
        ray_q = gp.quad(np.cos(th), np.sin(th))
        ok &= ray_q <= eta
    nrm = np.hypot(g.orient_t, g.orient_x)
    ok &= gp.quad(g.orient_t / nrm, g.orient_x / nrm) < 0.0
    return ok


def cone_inclusion(g: MetricField, gp: MetricField, p=None):
    """V^g_p subset V^{g'}_p, at one point or (p=None) at every point."""
    mask = _inclusion_mask(g, gp)
    if p is not None:
        return bool(mask[p[0], p[1]])
    return bool(mask.all())


def preceq(g: MetricField, gp: MetricField):
    """Cone preorder with orientation bookkeeping.

    Returns False, or ALIGNED / REVERSED according to whether the future
    halves correspond or are exchanged (g'(X_{g'}, X_g) < 0 means aligned).
    """
    if not cone_inclusion(g, gp):
        return False
    s = gp.pair(gp.orient_t, gp.orient_x, g.orient_t, g.orient_x)
    if np.all(s < 0.0):
        return ALIGNED
    if np.all(s > 0.0):
        return REVERSED
    return False


def _require_comparable(g, gp):
    r = preceq(g, gp)
    if r is not ALIGNED:
        raise ValueError("metrics are not cone-comparable with aligned futures (need g preceq g')")


def convex_combination(g: MetricField, gp: MetricField, chi: ScalarField) -> MetricField:
    """Pointwise blend (1-chi) g + chi g'; requires g preceq g' aligned."""
    _require_comparable(g, gp)
    w = chi.values
    if w.min() < 0.0 or w.max() > 1.0:
        raise ValueError("blend weight must take values in [0,1]")
    return MetricField(
        g.grid,
        (1.0 - w) * g.g_tt + w * gp.g_tt,
        (1.0 - w) * g.g_tx + w * gp.g_tx,
        (1.0 - w) * g.g_xx + w * gp.g_xx,
        g.orient_t, g.orient_x,
    )


def sharp_interpolation(g: MetricField, gp: MetricField, chi: ScalarField) -> MetricField:
    """The metric whose inverse is the blend of the two inverses.

    Points where the weight is exactly 0 or 1 copy the endpoint components
    bitwise (no double inversion), so operators built over the blend agree
    exactly with the endpoint operators outside the transition window.
    """
    _require_comparable(g, gp)
    w = chi.values
    if w.min() < 0.0 or w.max() > 1.0:
        raise ValueError("blend weight must take values in [0,1]")
    i0 = g.inverse_components()
    i1 = gp.inverse_components()
    btt, btx, bxx = ((1.0 - w) * i0[k] + w * i1[k] for k in range(3))
    d = btt * bxx - btx**2
    comp = [np.where(w == 0.0, c0, np.where(w == 1.0, c1, cb))
            for c0, c1, cb in zip((g.g_tt, g.g_tx, g.g_xx),
                                  (gp.g_tt, gp.g_tx, gp.g_xx),
                                  (bxx / d, -btx / d, btt / d))]
    return MetricField(g.grid, comp[0], comp[1], comp[2], g.orient_t, g.orient_x)


def squeeze_metric(g: MetricField, X, a) -> MetricField:
    """Narrow the cone of g around the timelike field X.

    g_a(v,w) = g(v,w) + (a-1) g(X,v) g(X,w) / g(X,X) with 0 < a <= 1; the
    squeezed cone closure sits inside the cone of g for a < 1, with X still
    interior.  a may be a scalar or a ScalarField.
    """
    Xt, Xx = (np.broadcast_to(np.asarray(c, dtype=float), (g.grid.nt, g.grid.nx)) for c in X)
    av = a.values if isinstance(a, ScalarField) else np.broadcast_to(np.asarray(a, dtype=float), (g.grid.nt, g.grid.nx))
    if av.min() <= 0.0 or av.max() > 1.0:
        raise ValueError("squeeze factor must lie in (0, 1]")
    qXX = g.quad(Xt, Xx)
    if np.max(qXX) >= 0.0:
        raise ValueError("squeeze axis must be timelike for g")
    wt = g.g_tt * Xt + g.g_tx * Xx   # covector g(X, .)
    wx = g.g_tx * Xt + g.g_xx * Xx
    f = (av - 1.0) / qXX
    return MetricField(g.grid, g.g_tt + f * wt * wt, g.g_tx + f * wt * wx,
                       g.g_xx + f * wx * wx, Xt, Xx)


# -- overlap witnesses and paracausal chains --------------------------------

def cones_intersect_future(g: MetricField, gp: MetricField):
    """Pointwise witness field inside both open future cones, or None.

    Returns (orient_t, orient_x) arrays of a common timelike future-directed
    field when the open future cones overlap everywhere; otherwise None, with
    the first failing point available via the second return slot.
    """
    c1, h1 = future_arcs(g)
    c2, h2 = future_arcs(gp)
    rel = _wrap_angle(c2 - c1)
    lo = np.maximum(-h1, rel - h2)
    hi = np.minimum(h1, rel + h2)
    ok = lo < hi
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        return None, (int(bad[0]), int(bad[1]))
    mid = c1 + 0.5 * (lo + hi)
    return (np.cos(mid), np.sin(mid)), None


def paracausal_witness(g: MetricField, gp: MetricField):
    """A metric h with h preceq g and h preceq g' (futures aligned), or None.

    h is a squeeze of g around a common future direction; the squeeze factor
    is tuned by pointwise bisection, shrunk by 0.95 and mollified with a
    3-cell moving minimum before the final validation.
    """
    X, _bad = cones_intersect_future(g, gp)
    if X is None:
        return None
    shape = (g.grid.nt, g.grid.nx)
    lo = np.full(shape, 1e-4)
    hi = np.ones(shape)

    def fits(av):
        h = squeeze_metric(g, X, np.clip(av, 1e-6, 1.0))
        return _inclusion_mask(h, g) & _inclusion_mask(h, gp)

    if not fits(lo).all():
        lo = np.full(shape, 1e-6)
        if not fits(lo).all():
            return None
    for _ in range(24):  # bisection to ~1e-3 resolution hazard-free
        mid = 0.5 * (lo + hi)
        good = fits(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    a = 0.95 * lo
    a = np.minimum(a, np.minimum(np.roll(a, 1, axis=1), np.roll(a, -1, axis=1)))
    amin = np.minimum(a[1:], a[:-1])
    a[1:] = np.minimum(a[1:], amin)
    a[:-1] = np.minimum(a[:-1], amin)
    for _ in range(8):
        h = squeeze_metric(g, X, np.clip(a, 1e-9, 1.0))
        if preceq(h, g) is ALIGNED and preceq(h, gp) is ALIGNED:
            return h
        a = 0.8 * a
    return None


class ParacausalChain:
    """Finite list of metrics with pairwise cone-comparable, future-aligned links."""

    FWD = "fwd"   # g_k preceq g_{k+1}
    REV = "rev"   # g_{k+1} preceq g_k

    def __init__(self, metrics, flags):
        if len(metrics) < 2 or len(flags) != len(metrics) - 1:
            raise ValueError("need >= 2 metrics and one direction flag per link")
        self.metrics = list(metrics)
        self.flags = list(flags)
        self.validate()

    def __len__(self):
        return len(self.metrics)

    def validate(self):
        for k, flag in enumerate(self.flags):
            a, b = self.metrics[k], self.metrics[k + 1]
            lo, hiw = (a, b) if flag == self.FWD else (b, a)
            if preceq(lo, hiw) is not ALIGNED:
                raise ValueError(f"chain link {k} fails the flagged cone inclusion")

    def reversed(self) -> "ParacausalChain":
        flip = {self.FWD: self.REV, self.REV: self.FWD}
        return ParacausalChain(self.metrics[::-1], [flip[f] for f in self.flags[::-1]])


class ChainObstruction:
    """Certificate that no chain was found, with a reason when provable."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail

    def __repr__(self):
        return f"ChainObstruction({self.reason!r})"


def _orientation_reversal_certificate(g, gp):
    """Detect the comparable-cones-but-reversed-futures obstruction."""
    fwd = preceq(g, gp)
    bwd = preceq(gp, g)
    if fwd is REVERSED or bwd is REVERSED:
        return ChainObstruction(
            "orientation-reversal",
            "cones are comparable but the future halves are exchanged; "
            "on the cylinder no globally hyperbolic rotation joins them",
        )
    return None


def build_chain(g: MetricField, gp: MetricField):
    """Best-effort paracausal chain from g to g'.

    Strategies, in order: direct comparability; pointwise future-cone
    overlap with a squeezed witness; an angular rotation bridge (wide cone
    followed by a narrow hand-off cone inside the target); the shared-time
    route through lapse-1 conformal rescaling and a tuned ultrastatic
    companion.  Returns a ParacausalChain, or a ChainObstruction whose
    reason is "orientation-reversal" when that obstruction is detected and
    "no-chain-found" otherwise (failure never proves the metrics unrelated).
    """
    r = preceq(g, gp)
    if r is ALIGNED:
        return ParacausalChain([g, gp], [ParacausalChain.FWD])
    r = preceq(gp, g)
    if r is ALIGNED:
        return ParacausalChain([g, gp], [ParacausalChain.REV])
    cert = _orientation_reversal_certificate(g, gp)
    if cert is not None:
        return cert

    X, _ = cones_intersect_future(g, gp)
    if X is not None:
        h = paracausal_witness(g, gp)
        if h is not None:
            return ParacausalChain([g, h, gp], [ParacausalChain.REV, ParacausalChain.FWD])

    chain = _rotation_bridge_chain(g, gp)
    if chain is not None:
        return chain
    chain = _shared_time_chain(g, gp)
    if chain is not None:
        return chain
    return ChainObstruction("no-chain-found", "all strategies failed; relation undecided")


def _rotation_bridge_chain(g, gp):
    """Join disjoint future cones by widening toward a sliver of the target.

    The bridge inserts a wide hull cone covering the cone of g plus a thin
    sliver just inside the target cone, then hands off through that sliver:
    [g, wide, sliver, g'].  The hull width stays below pi whenever the two
    arcs are not (anti-)aligned, so a single bridge suffices; the margin
    keeps every link strictly validated.
    """
    c1, h1 = future_arcs(g)
    c2, h2 = future_arcs(gp)
    rel = _wrap_angle(c2 - c1)
    margin = 1e-3
    eps = np.minimum(np.minimum(h1, h2) / 4.0, 0.2)
    sliver_c = c2 - np.sign(rel) * (h2 - eps - margin)
    rel_sl = _wrap_angle(sliver_c - c1)
    lo = np.minimum(-h1, rel_sl - eps) - margin
    hi = np.maximum(h1, rel_sl + eps) + margin
    width = hi - lo
    if np.max(width) >= np.pi - 1e-2:
        return None
    try:
        wide = metric_from_arcs(g.grid, c1 + 0.5 * (lo + hi), 0.5 * width)
        sliver = metric_from_arcs(g.grid, sliver_c, eps)
    except ValueError:
        return None
    if (preceq(g, wide) is ALIGNED and preceq(sliver, wide) is ALIGNED
            and preceq(sliver, gp) is ALIGNED):
        return ParacausalChain(
            [g, wide, sliver, gp],
            [ParacausalChain.FWD, ParacausalChain.REV, ParacausalChain.FWD])
    return None


def _orthogonal_form(g):
    return bool(np.max(np.abs(g.g_tx)) == 0.0)


def _t_forward(g):
    """Orientation points to increasing lattice time and slices are spacelike."""
    return bool(np.min(g.g_xx) > 0.0 and np.min(g.orient_t) > 0.0)


def _t_backward(g):
    return bool(np.min(g.g_xx) > 0.0 and np.max(g.orient_t) < 0.0)


def _lapse_one(g):
    """Conformal rescale to unit lapse: divide by -1/g_sharp^tt."""
    itt, _, _ = g.inverse_components()
    beta2 = -1.0 / itt
    return MetricField(g.grid, g.g_tt / beta2, g.g_tx / beta2, g.g_xx / beta2,
                       g.orient_t, g.orient_x)


def _ultrastatic(grid, h, orient_sign=1.0):
    return MetricField(grid, -1.0, 0.0, np.broadcast_to(np.asarray(h, dtype=float), (grid.nt, grid.nx)),
                       orient_sign, 0.0)


def _half_chain_to_flat(g):
    """[g, ghat, W1, g_lambda, U_lambda, U1] for spacelike-sliced, t-forward g.

    Orthogonal metrics use the lambda-interpolation against the flat
    ultrastatic; metrics with shift go through the alpha-tuned ultrastatic
    and a squeezed witness instead.
    """
    grid = g.grid
    lam = 0.5
    ghat = _lapse_one(g)
    if _orthogonal_form(g):
        hhat = ghat.g_xx
        w1 = _ultrastatic(grid, (1.0 - lam) * hhat)
        glam = _ultrastatic(grid, lam + (1.0 - lam) * hhat)
        ulam = _ultrastatic(grid, lam)
        u1 = _ultrastatic(grid, 1.0)
        mets = [g, ghat, w1, glam, ulam, u1]
        flags = [ParacausalChain.FWD, ParacausalChain.FWD, ParacausalChain.REV,
                 ParacausalChain.FWD, ParacausalChain.REV]
        return mets, flags
    u1 = _ultrastatic(grid, 1.0)
    alpha = tune_alpha(u1, ghat)
    ualpha = alpha_rescale(u1, alpha)
    h = paracausal_witness(ualpha, ghat)
    if h is None:
        return None
    mets = [g, ghat, h, ualpha, u1]
    flags = [ParacausalChain.FWD, ParacausalChain.REV, ParacausalChain.FWD,
             ParacausalChain.REV]
    return mets, flags


def _shared_time_chain(g, gp):
    """Meet in the middle at the flat ultrastatic -dt^2 + dx^2."""
    if not (_t_forward(g) and _t_forward(gp)) and not (_t_backward(g) and _t_backward(gp)):
        return None
    if _t_backward(g):
        rev = _shared_time_chain(g.time_reversed(), gp.time_reversed())
        if rev is None:
            return None
        return ParacausalChain([m.time_reversed() for m in rev.metrics], rev.flags)
    left = _half_chain_to_flat(g)
    right = _half_chain_to_flat(gp)
    if left is None or right is None:
        return None
    lm, lf = left
    rm, rf = right
    flip = {ParacausalChain.FWD: ParacausalChain.REV, ParacausalChain.REV: ParacausalChain.FWD}
    mets = lm + rm[::-1][1:]
    flags = lf + [flip[f] for f in rf[::-1]]
    try:
        return ParacausalChain(mets, flags)
    except ValueError:
        return None


# -- time-function tools -----------------------------------------------------

def alpha_rescale(g_split: MetricField, alpha) -> MetricField:
    """-dt^2 + alpha(t) h from a metric in orthogonal splitting form.

    h is the lapse-normalized spatial part g_xx / beta^2; alpha may be a
    1d array over time levels or a ScalarField.
    """
    if not _orthogonal_form(g_split):
        raise ValueError("input must be in orthogonal splitting form (g_tx = 0)")
    av = alpha.values if isinstance(alpha, ScalarField) else np.asarray(alpha, dtype=float)
    if av.ndim == 1:
        av = np.repeat(av[:, None], g_split.grid.nx, axis=1)
    if av.min() <= 0.0:
        raise ValueError("alpha must be positive")
    beta2 = -g_split.g_tt
    return MetricField(g_split.grid, -1.0, 0.0, av * g_split.g_xx / beta2,
                       g_split.orient_t, 0.0)


def tune_alpha(g_split: MetricField, gp: MetricField) -> ScalarField:
    """Per-time-level 1/alpha = max_x ||W||^2/|Z|^2 + 1, mollified.

    Z n + W is the split of the g'-normal of the constant-t slices against
    the ultrastatic normal; the returned alpha makes the cones of
    -dt^2 + alpha(t) h meet the cones of g' at every point.
    """
    itt, itx, _ = gp.inverse_components()
    if np.max(itt) >= 0.0:
        raise ValueError("constant-t slices are not spacelike for the target metric")
    # g'-normal of the slices: sharp of dt, normalized and future-directed
    nt = itt / np.sqrt(-itt)
    nx = itx / np.sqrt(-itt)
    s = gp.pair(gp.orient_t, gp.orient_x, nt, nx)
    flip = np.where(s < 0.0, 1.0, -1.0)
    nt, nx = nt * flip, nx * flip
    f = (nx / nt) ** 2
    u = f.max(axis=1) + 1.0
    # moving max then moving average keeps 1/alpha >= per-level requirement
    umax = u.copy()
    umax[1:] = np.maximum(umax[1:], u[:-1])
    umax[:-1] = np.maximum(umax[:-1], u[1:])
    usm = umax.copy()
    usm[1:-1] = (umax[:-2] + umax[1:-1] + umax[2:]) / 3.0
    usm = np.maximum(usm, u)
    return ScalarField(g_split.grid, np.repeat((1.0 / usm)[:, None], g_split.grid.nx, axis=1),
                       ScalarField.POSITIVE)


# -- discrete causal sets ----------------------------------------------------

def _cone_step_data(metric):
    """Classify every point's future cone for the discrete reachability step.

    Returns (lo, hi, t_forward, spatial_plus, spatial_minus): integer site
    offset bounds for one forward time step with the one-cell dilation
    tolerance, a mask of cones opening strictly toward increasing lattice
    time, and masks of cones whose closure contains the +x / -x spatial
    direction (those admit constant-time causal motion along the circle).
    """
    grid = metric.grid
    center, halfwidth = future_arcs(metric)
    th1, th2 = center - halfwidth, center + halfwidth
    guard = _GUARD * np.pi
    t_forward = (np.cos(th1) > 0.0) & (np.cos(th2) > 0.0) & (np.abs(_wrap_angle(center)) < np.pi / 2)
    t_backward = (np.cos(th1) < 0.0) & (np.cos(th2) < 0.0) & (np.abs(_wrap_angle(center)) > np.pi / 2)
    spatial_plus = np.abs(_wrap_angle(center - np.pi / 2)) <= halfwidth + guard
    spatial_minus = np.abs(_wrap_angle(center + np.pi / 2)) <= halfwidth + guard
    s1 = np.where(t_forward | t_backward, np.tan(th1), 0.0)
    s2 = np.where(t_forward | t_backward, np.tan(th2), 0.0)
    # for backward cones tan gives dx per (-dt); mirror to a forward window
    s1, s2 = np.where(t_backward, -s1, s1), np.where(t_backward, -s2, s2)
    lo = np.floor(np.minimum(s1, s2) * grid.dt / grid.dx).astype(int) - 1
    hi = np.ceil(np.maximum(s1, s2) * grid.dt / grid.dx).astype(int) + 1
    return lo, hi, t_forward, t_backward, spatial_plus, spatial_minus


def causal_future(g: MetricField, points):
    """Discrete forward causal set of a list of (level, site) seeds.

    Masks are dilated level by level through the per-point future slope
    windows, with one stencil cell of tolerance.  Cones whose closure
    contains a spatial direction also spread along their slice in that
    direction, which is how closed causal loops appear on the cylinder;
    cones that are not forward in lattice time spread conservatively over
    the adjacent slices they can reach.
    """
    grid = g.grid
    lo, hi, t_forward, t_backward, sp, sm = _cone_step_data(g)
    reach = np.zeros((grid.nt, grid.nx), dtype=bool)
    for (n, j) in points:
        reach[n, j] = True
    for _ in range(grid.nt * 2):
        before = reach.copy()
        # directional same-level spread through spatially open cells
        for _ in range(grid.nx):
            new = (np.roll(reach & sp, 1, axis=1) | np.roll(reach & sm, -1, axis=1)) & ~reach
            if not new.any():
                break
            reach |= new
        # one time step per level, toward the half the cone points into;
        # cones straddling a spatial direction flood the adjacent slice
        for n in range(grid.nt - 1):
            for j in np.where(reach[n])[0]:
                if t_forward[n, j]:
                    for o in range(lo[n, j], hi[n, j] + 1):
                        reach[n + 1, (j + o) % grid.nx] = True
                elif sp[n, j] or sm[n, j]:
                    reach[n + 1] |= True
        for n in range(grid.nt - 1, 0, -1):
            for j in np.where(reach[n])[0]:
                if t_backward[n, j]:
                    for o in range(lo[n, j], hi[n, j] + 1):
                        reach[n - 1, (j - o) % grid.nx] = True
                elif (sp[n, j] or sm[n, j]) and not t_forward[n, j]:
                    reach[n - 1] |= True
        if np.array_equal(before, reach):
            break
    return reach


def closed_causal_exists(g: MetricField) -> bool:
    """True iff some point lies in its own strict discrete future.

    Only spatial wrap-around can close a causal curve on the cylinder: the
    check succeeds when a whole slice admits constant-time causal motion in
    one direction (a closed null or timelike loop around the circle).
    """
    _, _, _, _, sp, sm = _cone_step_data(g)
    return bool(sp.all(axis=1).any() or sm.all(axis=1).any())


# -- presets -----------------------------------------------------------------

def metric_preset(name: str, grid: SpacetimeGrid, **params) -> MetricField:
    """Named metric constructions addressable from configs.

    Supported: minkowski, rotated-minkowski, conformal (mu), warped (amp),
    ultrastatic (h), squeezed (a), tilted (deg), time-reversed (inner=...).
    """
    key = name.strip().lower()
    if key == "minkowski":
        return MetricField(grid, -1.0, 0.0, 1.0, 1.0, 0.0)
    if key == "rotated-minkowski":
        return MetricField(grid, 1.0, 0.0, -1.0, 0.0, 1.0)
    if key == "conformal":
        mu = float(params.get("mu", 2.0))
        if mu <= 0:
            raise ValueError("conformal factor must be positive")
        return MetricField(grid, -mu, 0.0, mu, 1.0, 0.0)
    if key == "warped":
        amp = float(params.get("amp", 0.3))
        if not (0 <= amp < 1):
            raise ValueError("warp amplitude must lie in [0, 1)")
        t = grid.times
        f = 1.0 + amp * np.sin(2.0 * np.pi * (t - grid.t_min) / (grid.t_max - grid.t_min))
        return MetricField(grid, -1.0, 0.0, np.repeat(f[:, None], grid.nx, axis=1), 1.0, 0.0)
    if key == "ultrastatic":
        h = float(params.get("h", 1.0))
        if h <= 0:
            raise ValueError("spatial factor must be positive")
        return MetricField(grid, -1.0, 0.0, h, 1.0, 0.0)
    if key == "squeezed":
        a = float(params.get("a", 0.5))
        base = metric_preset("minkowski", grid)
        return squeeze_metric(base, (1.0, 0.0), a)
    if key == "tilted":
        deg = float(params.get("deg", 30.0))
        return metric_from_arcs(grid, math.radians(deg), math.pi / 4.0)
    if key == "time-reversed":
        inner = params.get("inner", "minkowski")
        inner_params = {k: v for k, v in params.items() if k != "inner"}
        return metric_preset(inner, grid, **inner_params).time_reversed()
    raise ValueError(f"unknown metric preset {name!r}")
