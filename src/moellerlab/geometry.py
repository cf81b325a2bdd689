"""Lorentzian metric fields on the lattice and their light-cone algebra.

A metric field stores the symmetric 2x2 components (g_tt, g_tx, g_xx) and a
time-orientation vector field X at every lattice point, each kept once per
level where it does not vary along x (:func:`stored_field`).  In 1+1 dimensions
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

from .lattice import ScalarField, SpacetimeGrid, periodic_shift

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


def _constant_along_x(c) -> bool:
    """True when every level of the (nt, nx) or (nt, 1) array c holds one value, bit for bit.

    The test compares bits, so -0.0 and 0.0 differ; an (nt, 1) column, or
    an array broadcast along x (stride 0), passes without a look.
    """
    if c.shape[1] == 1 or c.strides[1] == 0:
        return True
    bits = c.view(np.uint64)
    return bool((bits == bits[:, :1]).all())


def stored_field(grid: SpacetimeGrid, c) -> np.ndarray:
    """A new array holding c at the resolution it varies at.

    c is a scalar, an (nt, 1) column or an (nt, nx) field.  The result is
    (nt, 1) when every level is constant along x (:func:`_constant_along_x`),
    else an (nt, nx) field; either broadcasts against (nt, nx) fields.  This
    is the one place that decides how a field is stored.
    """
    c = np.asarray(c, dtype=float)
    if c.shape == ():
        c = np.full((grid.nt, 1), c)
    elif c.shape != (grid.nt, 1) and c.shape != (grid.nt, grid.nx):
        raise ValueError(f"field shape {c.shape} does not match grid")
    if _constant_along_x(c):
        return c[:, :1].copy()
    return c.copy() if c.shape[1] == grid.nx else np.repeat(c, grid.nx, axis=1)


class MetricField:
    """Per-point Lorentzian 2x2 metric with a chosen time orientation.

    Signature is (-, +): det g < 0 everywhere, and the orientation field X
    must be timelike (g(X,X) < 0); the future half-cone at each point is the
    connected component of the open cone containing X.

    Each component is a scalar, an (nt, 1) column or an (nt, nx) field, and
    is stored at the resolution it varies at (:func:`stored_field`): one
    value per level when it is constant along x, as every preset and every
    time-switched blend of presets is.  ``stored`` holds the five arrays as
    kept, in the order (g_tt, g_tx, g_xx, orient_t, orient_x); ``g_tt`` and
    the other component names are read-only (nt, nx) broadcast views of
    them, made when read, so reading one site is unchanged.  The pointwise
    algebra (``det``, ``inverse_components``, ``volume_density``, ``scale``,
    ``null_slopes``, ``null_speed``, ``quad``, ``pair``) and the cone algebra
    compute on the stored arrays: their results have the broadcast shape of
    what they read, (nt, 1) for a metric constant along x.
    """

    def __init__(self, grid: SpacetimeGrid, g_tt, g_tx, g_xx, orient_t, orient_x):
        stored = []
        for c in (g_tt, g_tx, g_xx, orient_t, orient_x):
            c = stored_field(grid, c)
            if not np.isfinite(c).all():
                raise ValueError("metric and orientation components must be finite")
            c.flags.writeable = False
            stored.append(c)
        self.grid = grid
        self.stored = tuple(stored)
        if self.det().max() >= -_DET_FLOOR:
            raise ValueError("not Lorentzian: det g must be < -1e-10 at every point")
        if self.quad(*self.stored[3:]).max() >= 0.0:
            raise ValueError("orientation field must be timelike at every point")

    def _whole(self, i):
        return np.broadcast_to(self.stored[i], (self.grid.nt, self.grid.nx))

    g_tt = property(lambda self: self._whole(0))
    g_tx = property(lambda self: self._whole(1))
    g_xx = property(lambda self: self._whole(2))
    orient_t = property(lambda self: self._whole(3))
    orient_x = property(lambda self: self._whole(4))

    # -- pointwise algebra -------------------------------------------------

    def det(self, rows=slice(None)) -> np.ndarray:
        """det g on the levels `rows` (an index or a slice; default all)."""
        tt, tx, xx = (c[rows] for c in self.stored[:3])
        return tt * xx - tx**2

    def quad(self, vt, vx) -> np.ndarray:
        """g(v, v) for a vector field with components (vt, vx)."""
        tt, tx, xx = self.stored[:3]
        return tt * vt * vt + 2.0 * tx * vt * vx + xx * vx * vx

    def pair(self, ut, ux, vt, vx) -> np.ndarray:
        tt, tx, xx = self.stored[:3]
        return tt * ut * vt + tx * (ut * vx + ux * vt) + xx * ux * vx

    def inverse_components(self, rows=slice(None)):
        """g_sharp components (tt, tx, xx): the adjugate divided by det.

        rows (an index or a slice of levels) computes those levels only.
        """
        tt, tx, xx = (c[rows] for c in self.stored[:3])
        d = tt * xx - tx**2
        return xx / d, -tx / d, tt / d

    def volume_density(self) -> np.ndarray:
        return np.sqrt(-self.det())

    def scale(self, rows=slice(None)) -> np.ndarray:
        """max(|g_tt|, |g_tx|, |g_xx|) at every point of the levels `rows`."""
        tt, tx, xx = (np.abs(c[rows]) for c in self.stored[:3])
        return np.maximum(np.maximum(tt, tx), xx)

    def with_orientation(self, orient_t, orient_x) -> "MetricField":
        return MetricField(self.grid, *self.stored[:3], orient_t, orient_x)

    def time_reversed(self) -> "MetricField":
        return self.with_orientation(-self.stored[3], -self.stored[4])

    def _null_roots(self, rows):
        """The roots of g_tt + 2 g_tx s + g_xx s^2 on the levels `rows`, larger modulus first.

        They are q / g_xx and g_tt / q with
        q = -(g_tx + sign(g_tx) sqrt(g_tx^2 - g_tt g_xx)), as in
        :func:`future_arcs`: neither is a difference of near-equal terms, so
        where g_xx is small against g_tx the small root keeps its digits.
        q / g_xx is (-g_tx -+ sqrt(...)) / g_xx bit for bit; it is infinite
        where g_xx == 0 (the spatial axis is null there).
        """
        g_tt, g_tx, g_xx = (c[rows] for c in self.stored[:3])
        q = -(g_tx + np.copysign(np.sqrt(np.maximum(g_tx**2 - g_tt * g_xx, 0.0)), g_tx))
        with np.errstate(divide="ignore"):
            big = q / g_xx
        return big, g_tt / q  # |q| >= sqrt(-det g) > 0

    def null_slopes(self, rows=slice(None)):
        """Roots of g_tt + 2 g_tx s + g_xx s^2, as a (lo, hi) pair (:meth:`_null_roots`).

        Points with g_xx == 0 have a single finite root (the other null
        direction is the spatial axis, slope +-inf); callers that need the
        complete boundary should use :func:`future_arcs` instead.  rows (an
        index or a slice of levels) computes those levels only.
        """
        big, small = self._null_roots(rows)
        return np.minimum(big, small), np.maximum(big, small)

    def null_speed(self, rows=slice(None)) -> np.ndarray:
        """The larger modulus of the two null slopes on the levels `rows`: |q / g_xx|."""
        return np.abs(self._null_roots(rows)[0])


# -- directions as angles ---------------------------------------------------

def _wrap_angle(a):
    """Wrap to (-pi, pi]."""
    return np.pi - np.mod(np.pi - a, 2.0 * np.pi)


def future_arcs(metric: MetricField):
    """Angular arc (center, halfwidth) of the future half-cone at every point.

    The four null rays are bracketed around the orientation direction; the
    future half is the open arc between the two bracketing rays.  Widths are
    strictly below pi for any Lorentzian metric.

    The null slopes, roots of a + 2 b s + c s^2, are taken as q / c and
    a / q with q = -(b + sign(b) sqrt(b^2 - a c)): no root is a difference
    of near-equal terms, so where |c| is small against |b| the small root
    keeps its digits and the boundary rays stay null to round-off.
    """
    a, b, c, ot, ox = metric.stored
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * c, 0.0)), b))
    safe_c = np.where(c != 0.0, c, 1.0)
    s1 = np.where(c != 0.0, q / safe_c, 0.0)
    s2 = np.where(c != 0.0, a / q, 0.0)  # |q| >= sqrt(-det g) > 0
    th1 = np.where(c != 0.0, np.arctan2(s1, 1.0), np.arctan2(-a, 2.0 * b))
    th2 = np.where(c != 0.0, np.arctan2(s2, 1.0), np.pi / 2.0)
    thX = np.arctan2(ox, ot)
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
    center, halfwidth = (stored_field(grid, np.broadcast_to(np.asarray(v, dtype=float),
                                                            (grid.nt, grid.nx)))
                         for v in (center, halfwidth))
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
    itt, itx, ixx = (np.broadcast_to(c, (g.grid.nt, g.grid.nx))[n, j] for c in g.inverse_components())
    w0, w1 = float(covector[0]), float(covector[1])
    return np.array([itt * w0 + itx * w1, itx * w0 + ixx * w1])


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
    ot, ox = g.stored[3:]
    nrm = np.hypot(ot, ox)
    ok = gp.quad(ot / nrm, ox / nrm) < 0.0
    for th in (center - halfwidth, center + halfwidth):
        ok = ok & (gp.quad(np.cos(th), np.sin(th)) <= eta)
    return ok


def cone_inclusion(g: MetricField, gp: MetricField, p=None):
    """V^g_p subset V^{g'}_p, at one point or (p=None) at every point."""
    mask = _inclusion_mask(g, gp)
    if p is not None:
        return bool(np.broadcast_to(mask, (g.grid.nt, g.grid.nx))[p[0], p[1]])
    return bool(mask.all())


def preceq(g: MetricField, gp: MetricField):
    """Cone preorder with orientation bookkeeping.

    Returns False, or ALIGNED / REVERSED according to whether the future
    halves correspond or are exchanged (g'(X_{g'}, X_g) < 0 means aligned).
    """
    if not cone_inclusion(g, gp):
        return False
    s = gp.pair(*gp.stored[3:], *g.stored[3:])
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
    w = stored_field(g.grid, chi.values)
    if w.min() < 0.0 or w.max() > 1.0:
        raise ValueError("blend weight must take values in [0,1]")
    return MetricField(g.grid, *((1.0 - w) * c0 + w * c1 for c0, c1 in zip(g.stored[:3], gp.stored[:3])),
                       *g.stored[3:])


def sharp_interpolation(g: MetricField, gp: MetricField, chi: ScalarField) -> MetricField:
    """The metric whose inverse is the blend of the two inverses.

    Points where the weight is exactly 0 or 1 copy the endpoint components
    bitwise (no double inversion), so operators built over the blend agree
    exactly with the endpoint operators outside the transition window.
    """
    _require_comparable(g, gp)
    w = stored_field(g.grid, chi.values)
    if w.min() < 0.0 or w.max() > 1.0:
        raise ValueError("blend weight must take values in [0,1]")
    i0 = g.inverse_components()
    i1 = gp.inverse_components()
    btt, btx, bxx = ((1.0 - w) * i0[k] + w * i1[k] for k in range(3))
    d = btt * bxx - btx**2
    comp = [np.where(w == 0.0, c0, np.where(w == 1.0, c1, cb))
            for c0, c1, cb in zip(g.stored[:3], gp.stored[:3], (bxx / d, -btx / d, btt / d))]
    return MetricField(g.grid, *comp, *g.stored[3:])


def squeeze_metric(g: MetricField, X, a) -> MetricField:
    """Narrow the cone of g around the timelike field X.

    g_a(v,w) = g(v,w) + (a-1) g(X,v) g(X,w) / g(X,X) with 0 < a <= 1; the
    squeezed cone closure sits inside the cone of g for a < 1, with X still
    interior.  a may be a scalar or a ScalarField.
    """
    Xt, Xx = (stored_field(g.grid, c) for c in X)
    av = stored_field(g.grid, a.values if isinstance(a, ScalarField) else a)
    if av.min() <= 0.0 or av.max() > 1.0:
        raise ValueError("squeeze factor must lie in (0, 1]")
    qXX = g.quad(Xt, Xx)
    if np.max(qXX) >= 0.0:
        raise ValueError("squeeze axis must be timelike for g")
    tt, tx, xx = g.stored[:3]
    wt = tt * Xt + tx * Xx   # covector g(X, .)
    wx = tx * Xt + xx * Xx
    f = (av - 1.0) / qXX
    return MetricField(g.grid, tt + f * wt * wt, tx + f * wt * wx, xx + f * wx * wx, Xt, Xx)


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
    shape = np.broadcast_shapes(*(c.shape for c in X))
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
    a = np.minimum(a, np.minimum(periodic_shift(a, 0, 1), periodic_shift(a, 0, -1)))
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
    return bool(np.max(np.abs(g.stored[1])) == 0.0)


def _t_forward(g):
    """Orientation points to increasing lattice time and slices are spacelike."""
    return bool(np.min(g.stored[2]) > 0.0 and np.min(g.stored[3]) > 0.0)


def _t_backward(g):
    return bool(np.min(g.stored[2]) > 0.0 and np.max(g.stored[3]) < 0.0)


def _lapse_one(g):
    """Conformal rescale to unit lapse: divide by -1/g_sharp^tt."""
    itt, _, _ = g.inverse_components()
    beta2 = -1.0 / itt
    return MetricField(g.grid, *(c / beta2 for c in g.stored[:3]), *g.stored[3:])


def _ultrastatic(grid, h, orient_sign=1.0):
    return MetricField(grid, -1.0, 0.0, h, orient_sign, 0.0)


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
        hhat = ghat.stored[2]
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
    av = stored_field(g_split.grid, av[:, None] if av.ndim == 1 else av)
    if av.min() <= 0.0:
        raise ValueError("alpha must be positive")
    tt, _, xx, ot, _ = g_split.stored
    return MetricField(g_split.grid, -1.0, 0.0, av * xx / -tt, ot, 0.0)


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
    s = gp.pair(*gp.stored[3:], nt, nx)
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
    the adjacent slices they can reach.  A seed outside the window is
    refused with a ValueError that names it.

    Each sweep takes one array step per level: the reached sites of a level
    mark their targets on the next level through a precomputed window of
    (site, offset) targets, and a reached site whose cone straddles a
    spatial direction floods the next level.  A sweep that no point can
    move is skipped.
    """
    grid = g.grid
    nt, nx = grid.nt, grid.nx
    reach = np.zeros((nt, nx), dtype=bool)
    for (n, j) in points:
        if not (0 <= n < nt and 0 <= j < nx):
            raise ValueError(f"seed {(n, j)} lies outside the {nt}x{nx} window")
        reach[n, j] = True
    lo, hi, t_forward, t_backward, sp, sm = (np.broadcast_to(c, (nt, nx)) for c in _cone_step_data(g))
    spatial = sp | sm
    # offsets lo..hi of each point, padded with hi (a repeated target); nx
    # consecutive offsets already reach every site
    width = min(int(np.max(hi - lo)) + 1, nx)
    offsets = np.minimum(lo[..., None] + np.arange(width), hi[..., None])
    sites = np.arange(nx)[:, None]
    # (level step, sites that mark targets, their targets, sites that flood)
    sweeps = [(+1, t_forward, (sites + offsets) % nx, spatial & ~t_forward),
              (-1, t_backward, (sites - offsets) % nx, spatial & ~t_forward & ~t_backward)]
    sweeps = [sw for sw in sweeps if sw[1].any() or sw[3].any()]
    for _ in range(nt * 2):
        before = reach.copy()
        # directional same-level spread through spatially open cells
        for _ in range(nx if spatial.any() else 0):
            new = (periodic_shift(reach & sp, 0, 1) | periodic_shift(reach & sm, 0, -1)) & ~reach
            if not new.any():
                break
            reach |= new
        # one time step per level, toward the half the cone points into;
        # cones straddling a spatial direction flood the adjacent slice
        for step, marks, targets, floods in sweeps:
            for n in range(nt - 1) if step > 0 else range(nt - 1, 0, -1):
                here = reach[n]
                if floods[n][here].any():
                    reach[n + step] = True
                else:
                    reach[n + step, targets[n][here & marks[n]]] = True
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
        return MetricField(grid, -1.0, 0.0, f[:, None], 1.0, 0.0)
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
