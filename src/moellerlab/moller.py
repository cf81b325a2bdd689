"""Scattering-style intertwiners between hyperbolic operators on one lattice.

For a cone-comparable pair g0 preceq g1 with operators N0, N1 the elementary
steps are

    R+ = Id - G+_{rho N_chi} (rho N_chi - N0)      rho  = vol_chi / vol_0
    R- = Id - G-_{rho' N_1} (rho' N_1 - rho N_chi) rho' = vol_1  / vol_0

built over a time-interpolating operator N_chi whose switch window [t0, t1]
sits strictly inside the lattice window.  Both are one signed step

    R = Id - G^s_{b N_hi} (b N_hi - a N_lo)

with (s, a, b) = (+1, 1, rho) for R+ and (-1, rho, rho') for R-, so every
action below is written once.  The difference D = b N_hi - a N_lo is built
once as one nine-offset stencil, each offset b C_hi - a C_lo, together with
its transpose.  Where chi is exactly 0 (resp. 1), b N_hi and a N_lo agree
bitwise and D is exactly zero; its active rows lo <= n < hi run from the
first to the last row where some offset is nonzero.  The step applies D on
those rows only; R+ marches G+ up from row lo, since the levels below it
stay zero, and R- marches G- down from row hi - 1.  The transposes march the
other way and stop at the last level D^T reads, lo going down and hi - 1
going up.  The inverse is the same step with its ends swapped,
Id - G^s_{a N_lo}(a N_lo - b N_hi), with stencil -D on the same rows; it is
built once per step.  The transposes are again marching compositions (in the
opposite direction) because every operator in the pipeline is exactly
volume-weighted self-adjoint.  Chains compose steps link by link; reversed
links use inverse steps.

Lattice-time marching imposes a real restriction mirrored from the causal
geometry: every metric along a link (endpoints and the interpolating family)
must keep exactly one coordinate axis timelike, with the same axis on both
ends (``greenhyp.axis_class``, the march's own test).  A link that crosses
from t-timelike to x-timelike cones passes through a metric whose
constant-time slices are characteristic (the inverse metric's tt component
changes sign), where no stable causal solve in lattice time exists; on the
spatial circle this is the same obstruction that makes the rotated flat
metric fail global hyperbolicity.  Such links raise
:class:`MollerObstruction` instead of producing garbage.  The march also
refuses a link whose ends keep dt timelike but have g^xx < 0 somewhere (dx
timelike too); a Moller operator exists there, and the obstruction's detail
says that this is a limit of the lattice march, not of the geometry.  The
detail names every refused link of a chain.
"""

from __future__ import annotations

import numpy as np

from .geometry import ALIGNED, MetricField, ParacausalChain, preceq, stored_field
from .greenhyp import (GreenSystem, HyperbolicOperator, axis_class, convex_operator,
                       principal_offsets, solve_cauchy, stencil_apply, stencil_transpose, sup_norms,
                       symplectic_form, wave_operator, worst_ratio)
from .lattice import periodic_shift, smooth_noise, smooth_step

__all__ = [
    "MollerObstruction",
    "MollerStep",
    "MollerOperator",
    "build_rplus",
    "build_rminus",
    "verify_intertwine",
    "compose_chain",
    "verify_moller_identities",
    "random_dictionary",
]


class MollerObstruction(RuntimeError):
    check = "moller_chain_marchable"

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


def _check_link_marchable(ga: MetricField, gb: MetricField):
    ca, cb = axis_class(ga), axis_class(gb)
    if ca == cb != 0:
        return
    if all(np.max(m.inverse_components()[0]) < 0.0 for m in (ga, gb)):
        detail = ("both ends keep dt timelike (g^tt < 0), so no constant-time "
                  "slice becomes characteristic and a Moller operator exists, "
                  "but g^xx < 0 somewhere on an end, which the lattice march "
                  "does not yet handle")
    else:
        detail = ("the interpolating metrics change which coordinate axis is "
                  "timelike, so some constant-time slice becomes characteristic "
                  "and no lattice-time causal solve exists (the cylinder analog "
                  "of losing global hyperbolicity under cone rotation)")
    raise MollerObstruction("characteristic-slice link", detail)


def _vol_ratio(g_from: MetricField, g_to: MetricField) -> np.ndarray:
    return g_to.volume_density() / g_from.volume_density()


class MollerStep:
    """One elementary scattering factor Id - G^s_{b N_hi}(b N_hi - a N_lo).

    kind "plus" (s = +1, a = 1, b = rho) fixes the past: output equals input
    below t0.  kind "minus" (s = -1, a = rho, b = rho') fixes the future above
    t1.  ``D`` is the difference b N_hi - a N_lo as one stencil and ``DT`` its
    transpose; ``rows`` = (lo, hi) are D's active rows lo <= n < hi, off which
    D u is exactly 0 for every u, and ``rows_t`` those of D^T.  ``apply``
    marches G^s_{N_hi} up from row lo (plus) or down from row hi - 1 (minus);
    ``transpose_apply`` marches in direction -s and stops at level lo (plus)
    or hi - 1 (minus), the last D^T reads.  ``inverse()`` swaps the ends
    (stencil -D, marching N_lo) and is built once.  Every action takes one
    (nt, nx) field or a (K, nt, nx) batch.

    The profiles ``a`` and ``b`` and every offset of D and D^T are kept at the
    resolution they vary at (``geometry.stored_field``): (nt, 1) columns
    along a chain of metrics constant along x, as every preset is.

    A step built from its ends checks its profiles.  That it is the identity
    on ``inert()`` is the ``identity_region`` law (``verify_moller_identities``),
    read by ``identity_defect``: it applies D and marches only on the rows
    that write the inert levels, and when D vanishes there, as it should, it
    marches nothing.  This is exact: the plus march runs up from row lo and
    the minus march down from row hi - 1, so both write the inert levels
    before any other, and the march computes each level from its source row
    and the two levels already written, bitwise as the full ``apply`` does.
    """

    def __init__(self, kind, op_lo, op_hi, a, b, t0_level, t1_level, stencils=None):
        self.kind = kind
        self.sign = +1 if kind == "plus" else -1
        self.op_lo = op_lo            # N0 for plus, N_chi for minus
        self.op_hi = op_hi            # N_chi for plus, N1 for minus
        self.grid = g = op_hi.grid
        self.a = stored_field(g, a)
        self.b = stored_field(g, b)
        self.t0_level = t0_level
        self.t1_level = t1_level
        check = stencils is None  # an inverse step comes with its stencils, unchecked
        if check:
            D = {k: self.b * op_hi.offsets.get(k, 0.0) - self.a * op_lo.offsets.get(k, 0.0)
                 for k in {**op_hi.offsets, **op_lo.offsets}}
            D = {k: stored_field(g, C) for k, C in D.items() if np.any(C)}
            stencils = D, stencil_transpose(D)
        self.D, self.DT = stencils
        self.rows, self.rows_t = (_active_rows(S, self.grid.nt) for S in stencils)
        self._inverse = None
        if check:
            self._check_profiles()

    def inert(self) -> slice:
        """Levels on which the step is the identity (below t0 / above t1)."""
        if self.sign > 0:
            return slice(0, max(self.t0_level - 1, 0))
        return slice(self.t1_level + 2, self.grid.nt)

    # difference operators ---------------------------------------------------

    def _diff_transpose(self, w):
        """(b N_hi - a N_lo)^T w; it reads w on the active rows only."""
        return stencil_apply(self.DT, w, self.rows_t)

    # realized actions ---------------------------------------------------------

    def apply(self, u):
        return self._apply(u, self.grid.nt - 1 if self.sign > 0 else 0)

    def _apply(self, u, reach):
        """``apply`` with the march stopped at level ``reach``; the levels beyond it are left as u.

        The march solves only the rows that write levels up to ``reach`` in its
        direction, and D is applied only on the active rows among them.
        """
        lo, hi = self.rows
        if self.sign > 0:
            rows, d_rows = (lo, reach), (lo, max(lo, min(hi, reach)))
        else:
            rows, d_rows = (reach + 1, hi), (min(hi, max(lo, reach + 1)), hi)
        d = stencil_apply(self.D, u, d_rows)
        d[..., slice(*d_rows), :] /= self.b[slice(*d_rows)]
        # the levels before the first active row (plus) or after the last (minus) stay zero
        out = self.op_hi.march(d, self.sign, rows=rows)
        return np.subtract(u, out, out=out)

    def transpose_apply(self, h):
        """Plain matrix transpose action, valid on window-compact sections.

        R^T = Id - D^T diag(1/b) V_hi G^{-s}_{hi} V_hi^{-1}, D = b N_hi - a N_lo.
        """
        hi_op, (lo, hi) = self.op_hi, self.rows
        # march only to the active rows: level lo going down, hi - 1 going up
        rows = (lo + 1, self.grid.nt - 1) if self.sign > 0 else (1, hi - 1)
        w = hi_op.weigh(hi_op.march(hi_op.unweigh(h), -self.sign, rows=rows))
        w[..., lo:hi, :] /= self.b[lo:hi]  # D^T has zero weight on every other level
        out = self._diff_transpose(w)
        return np.subtract(h, out, out=out)

    def identity_defect(self, u) -> float:
        """max |R u - u| on ``inert()``, with the march stopped at the last inert level."""
        inert = self.inert()
        reach = inert.stop - 1 if self.sign > 0 else inert.start  # last in marching order
        defect = self._apply(u, reach)[..., inert, :] - u[..., inert, :]
        return float(np.max(np.abs(defect), initial=0.0))

    def inverse(self) -> "MollerStep":
        """Id - G^s_{a N_lo}(a N_lo - b N_hi): the ends swapped, the inert side kept.

        Built once; its stencils are -D and -D^T, its active rows the step's.
        """
        if self._inverse is None:
            neg = tuple({k: -C for k, C in S.items()} for S in (self.D, self.DT))
            inv = MollerStep(self.kind, self.op_hi, self.op_lo, self.b, self.a,
                             self.t0_level, self.t1_level, stencils=neg)
            inv._inverse, self._inverse = self, inv
        return self._inverse

    # build-time invariants ------------------------------------------------------

    def _check_profiles(self):
        g = self.grid
        inert = self.inert()
        if np.max(np.abs((self.b - self.a)[inert]), initial=0.0) > 1e-12:
            raise ValueError("the scaling profiles must agree on the inert side")
        # the difference vanishes on the inert side (the other side carries
        # the metric mismatch); boundary rows carry no equation
        probe = np.zeros((g.nt, g.nx))
        probe[1:-1] = 1.0
        d = stencil_apply(self.D, probe)
        tol = 1e-10 * (1 + np.max(np.abs(d)))
        d[[0, -1]] = 0.0
        if np.max(np.abs(d[inert]), initial=0.0) > tol:
            raise ValueError("difference operator does not vanish on its inert side")


def _active_rows(offsets, nt):
    """(lo, hi): the rows lo <= n < hi span every nonzero entry of a stencil; (0, 0) if none."""
    nonzero = np.zeros(nt, bool)
    for C in offsets.values():
        nonzero |= C.any(axis=1)
    rows = np.flatnonzero(nonzero)
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def _window_levels(grid, t0, t1):
    """Levels l0 < l1 of the switch window, refused unless 3 <= l0 and l1 <= nt - 4."""
    nt = grid.nt
    l0, l1 = grid.level_of_time(t0), grid.level_of_time(t1)
    bounds = (("l0 >= 3", l0 >= 3), (f"l1 <= nt - 4 = {nt - 4}", l1 <= nt - 4), ("l0 < l1", l0 < l1))
    broken = [bound for bound, ok in bounds if not ok]
    if broken:
        raise ValueError(f"switch window must sit strictly inside the lattice window: nt = {nt} puts "
                         f"it on levels l0 = {l0} .. l1 = {l1}, which breaks {' and '.join(broken)}")
    return l0, l1


def _switch_window(grid, window=None):
    """The switch interval (t0, t1): window, or by default the middle third of the time extent."""
    if window is not None:
        return window
    span = grid.t_max - grid.t_min
    return grid.t_min + span / 3.0, grid.t_min + 2.0 * span / 3.0


def _volume_ratios(grid, *rhos):
    """rhos as stored fields (:func:`geometry.stored_field`), refused unless all positive."""
    out = [stored_field(grid, rho) for rho in rhos]
    if min(r.min() for r in out) <= 0.0:
        raise ValueError("volume ratio must be positive")
    return out


def build_rplus(N0: HyperbolicOperator, Nchi: HyperbolicOperator, rho,
                t0: float, t1: float) -> MollerStep:
    """Past-fixing step Id - G+_{rho N_chi}(rho N_chi - N0).

    rho is a positive scalar, (nt, 1) column or (nt, nx) field.
    """
    r = preceq(N0.metric, Nchi.metric)
    if r is not ALIGNED:
        raise ValueError("need N0's cone inside the interpolating cone with aligned futures")
    l0, l1 = _window_levels(N0.grid, t0, t1)
    rho, = _volume_ratios(N0.grid, rho)
    return MollerStep("plus", N0, Nchi, np.ones_like(rho), rho, l0, l1)


def build_rminus(Nchi: HyperbolicOperator, N1: HyperbolicOperator, rho,
                 rho_hi, t0: float, t1: float) -> MollerStep:
    """Future-fixing step Id - G-_{rho' N1}(rho' N1 - rho N_chi); rho, rho_hi as in build_rplus."""
    r = preceq(Nchi.metric, N1.metric)
    if r is not ALIGNED:
        raise ValueError("need the interpolating cone inside N1's cone with aligned futures")
    l0, l1 = _window_levels(N1.grid, t0, t1)
    return MollerStep("minus", Nchi, N1, *_volume_ratios(N1.grid, rho, rho_hi), l0, l1)


class MollerOperator:
    """Composed intertwiner along a paracausal chain.

    steps are stored in application order between the end operators
    op_start (metric g) and op_end (metric g'), whose metrics give
    c' = vol_g' / vol_g; the adjoint with respect to the end metrics is
    realized as V_g^{-1} R^T V_{g'} with the transpose folded through the
    steps in reverse.  Actions take one (nt, nx) field or a (K, nt, nx)
    batch.  The dense forms are built anew on each call and not kept.
    """

    def __init__(self, steps, op_start: HyperbolicOperator, op_end: HyperbolicOperator):
        self.steps = list(steps)
        self.op_start = op_start
        self.op_end = op_end
        self.c_prime = _vol_ratio(op_start.metric, op_end.metric)
        if np.min(self.c_prime) <= 0.0:
            raise ValueError("volume ratio must be positive")

    # actions ------------------------------------------------------------------

    def apply(self, u):
        v = np.array(u, dtype=float)
        for s in self.steps:
            v = s.apply(v)
        return v

    def inverse_apply(self, u):
        v = np.array(u, dtype=float)
        for s in reversed(self.steps):
            v = s.inverse().apply(v)
        return v

    def transpose_apply(self, h):
        """R^T h, the step transposes folded in reverse order, on window-compact sections.

        It is the plain matrix transpose on every section that vanishes on
        the boundary levels 0 and nt - 1, which carry no equation.  On unit
        columns of those levels the action is not R^T: it misses by 3.2e-3
        on a 16x16 minkowski -> conformal chain, and by at most 4.4e-16 on
        every other level.
        """
        v = np.array(h, dtype=float)
        for s in reversed(self.steps):
            v = s.transpose_apply(v)
        return v

    def adjoint_apply(self, h):
        """R^{dagger_{g g'}} h = V_g^{-1} R^T V_{g'} h on compact sections.

        Like ``transpose_apply``, it is the weighted transpose only on sections
        that vanish on the boundary levels 0 and nt - 1.
        """
        v = self.transpose_apply(self.op_end.weigh(np.asarray(h, dtype=float)))
        return self.op_start.unweigh(v)

    def inverse(self) -> "MollerOperator":
        return MollerOperator([s.inverse() for s in reversed(self.steps)],
                              self.op_end, self.op_start)

    # dense realizations ----------------------------------------------------------

    def _matrix_of(self, action) -> np.ndarray:
        """Dense matrix of a linear action, all unit columns in one batch."""
        g = self.op_start.grid
        n = g.n_points
        return action(np.eye(n).reshape(n, g.nt, g.nx)).reshape(n, n).T

    def as_matrix(self) -> np.ndarray:
        return self._matrix_of(self.apply)

    def adjoint_matrix(self) -> np.ndarray:
        """Definitional weighted transpose V_g^{-1} R^T V_{g'} of the realized matrix, marched anew.

        It weighs ``as_matrix()``; it is not the matrix of ``adjoint_apply``,
        which differs on the columns of the boundary levels.
        """
        return _weighted_transpose(self.as_matrix(), self.op_start, self.op_end)


def _weighted_transpose(T, op_g: HyperbolicOperator, op_gp: HyperbolicOperator) -> np.ndarray:
    """Dense V_g^{-1} T^T V_{g'}: the adjoint of the matrix T in the two volume pairings.

    V and V^{-1} are diagonal, so weighing a batch of rows multiplies from
    the right: T^T V' from the rows of T^T, then V^{-1} on its columns.
    """
    g = op_g.grid
    n, fields = g.n_points, (-1, g.nt, g.nx)
    tv = op_gp.weigh(T.T.reshape(fields)).reshape(n, n)
    return op_g.unweigh(tv.T.reshape(fields)).reshape(n, n).T


# -- chain composition ------------------------------------------------------------

def compose_chain(chain: ParacausalChain, operators=None, window=None, mass=1.0) -> MollerOperator:
    """Compose elementary steps along a validated chain.

    operators supplies one formally self-adjoint operator per chain metric
    (canonical massive wave operators are built when omitted); window is the
    shared switch interval (t0, t1), defaulting to the middle third of the
    lattice time extent.  Forward links contribute R- R+; reversed links
    contribute the inverse steps in mirrored order.  A link whose blended
    operator is not formally self-adjoint is refused, naming the link.
    When the wave operators are built here, each chain metric's principal
    stencil is built once and read by its operator and by the blends of both
    links it ends; it is dropped on return, so nothing keeps it.
    """
    grid = chain.metrics[0].grid
    principal = None  # operators given: each blend builds its ends' stencils, as before
    if operators is None:
        principal = [principal_offsets(m) for m in chain.metrics]
        operators = [wave_operator(m, mass=mass, principal=P) for m, P in zip(chain.metrics, principal)]
    if len(operators) != len(chain.metrics):
        raise ValueError("need one operator per chain metric")
    for op, m in zip(operators, chain.metrics):
        if op.metric is not m and any(np.any(getattr(op.metric, c) != getattr(m, c))
                                      for c in ("g_tt", "g_tx", "g_xx")):
            raise ValueError("operator metrics must match the chain metrics")
        if not op.self_adjoint:
            raise ValueError("chain operators must be formally self-adjoint")
    t0, t1 = _switch_window(grid, window)
    chi = smooth_step(grid, t0, t1)
    refused = []
    for k in range(len(chain.flags)):
        try:
            _check_link_marchable(chain.metrics[k], chain.metrics[k + 1])
        except MollerObstruction as e:
            refused.append(f"link {k}: {e.detail}")
    if refused:
        raise MollerObstruction("characteristic-slice link", "; ".join(refused))
    steps = []
    for k, flag in enumerate(chain.flags):
        ends = (k, k + 1) if flag == ParacausalChain.FWD else (k + 1, k)
        lo_op, hi_op = (operators[i] for i in ends)
        nchi = convex_operator(lo_op, hi_op, chi, principal=principal and [principal[i] for i in ends])
        if not nchi.self_adjoint:
            raise ValueError(f"link {k}: the blended operator is not formally self-adjoint "
                             f"(V-symmetry defect {nchi.v_symmetry_defect():.3g})")
        rho = _vol_ratio(lo_op.metric, nchi.metric)
        rho_hi = _vol_ratio(lo_op.metric, hi_op.metric)
        plus = build_rplus(lo_op, nchi, rho, t0, t1)
        minus = build_rminus(nchi, hi_op, rho, rho_hi, t0, t1)
        if flag == ParacausalChain.FWD:
            steps += [plus, minus]
        else:
            steps += [minus.inverse(), plus.inverse()]
    return MollerOperator(steps, operators[0], operators[-1])


# -- verification ------------------------------------------------------------------

def random_dictionary(grid, count=16, seed=0, window=None, smooth_passes=2):
    """Seeded compact test sections, lightly smoothed, support in `window`.

    Returns a read-only (count, nt, nx) array.
    """
    rng = np.random.default_rng(seed)
    lo, hi = window if window is not None else (2, grid.nt - 2)
    taper = np.sin(np.linspace(0.0, np.pi, hi - lo)) ** 2
    out = np.stack([smooth_noise(grid, rng, lo, hi, smooth_passes, taper) for _ in range(count)])
    out.flags.writeable = False
    return out


def verify_intertwine(obj, dictionary) -> dict:
    """Operator-level interchange residuals over a test dictionary.

    Steps report || b N_hi S f - a N_lo f || for a step S;
    composed operators report || c' N' R f - N f ||, both relative to the
    source term's size and measured on equation rows.  The dictionary, a
    (K, nt, nx) array, marches as one batch; the law reports its worst section.
    """
    u = np.asarray(dictionary, dtype=float)
    return {"intertwine": _intertwine_residual(obj, u, obj.apply(u))}


def _intertwine_residual(obj, u, image):
    """verify_intertwine's residual on the batch u, given obj's image of it."""
    if isinstance(obj, MollerStep):
        lhs = obj.b * obj.op_hi.apply(image)
        rhs = obj.a * obj.op_lo.apply(u)
    else:
        lhs = obj.c_prime * obj.op_end.apply(image)
        rhs = obj.op_start.apply(u)
    return worst_ratio(sup_norms((lhs - rhs)[:, 1:-1]), sup_norms(rhs))


def verify_moller_identities(R: MollerOperator, dictionary=None, seed=0,
                             dense=False, sympl_pairs=10) -> dict:
    """Every law of the moller suite on R, keyed by its ``reports.LAWS`` name, in report order.

    The ``moller_*`` laws: source interchange c' N' R = N; propagator
    transport R G R^dagger = G'; adjoint interchange R^dagger N' = N on
    compacts; two-sided inverse round trip; symplectic-flux preservation on
    solution pairs; the exact identity region of every step; and with
    dense, the propagator transport of the dense matrices.  Then R's
    adjoint laws, matrix-free, each section u paired with h, the same
    section moved nx // 3 sites along x, so a column's reading depends on
    its own section only and h stays compact in the window: the defining
    pairing <R u, h>_g' = <u, R^dagger h>_g; the adjoint of the inverse,
    (R^{-1})^dagger R^dagger h = h; each step's transpose against the plain
    pairing, sum (S v) w = sum v (S^T w), which makes the composed adjoint
    right; and the V-pairing symmetry <N u, h>_V = <u, N h>_V of both end
    operators.  A pairing residual is relative to the pairing of absolute
    values, the sum's own round-off scale, so no reading depends on a
    cancellation.

    The dictionary is a (K, nt, nx) array of sections (by default twelve of
    :func:`random_dictionary`), read and never written.  It marches through
    the steps once, as one batch: R u and, for a step, v (u as it enters
    the step) are read from that march, and w (V' h carried back through
    the steps after it) from the one march of the adjoint back.  Each law
    reports its worst section.
    """
    grid = R.op_start.grid
    if sympl_pairs < 1:
        raise ValueError(f"sympl_pairs must be at least 1, got {sympl_pairs}")
    if dictionary is None:
        dictionary = random_dictionary(grid, count=12, seed=seed,
                                       window=(3, grid.nt - 3))
    u = np.asarray(dictionary, dtype=float)
    fields = [u]  # u as it enters each step, then R u
    for s in R.steps:
        fields.append(s.apply(fields[-1]))
    Ru = fields[-1]

    # the adjoint laws pop each field of the march once they have read it
    start, end = R.op_start, R.op_end
    h = periodic_shift(u, 0, u.shape[-1] // 3)
    w, step_defects = end.weigh(h), []
    for s in reversed(R.steps):  # w: V' h as it leaves step s
        sv, sw = fields.pop(), s.transpose_apply(w)
        step_defects.append(_pairing_defect((_plain_pairing, sv, w), (_plain_pairing, fields[-1], sw)))
        w = sw
    adj_h = start.unweigh(w)  # R^dagger h = V^{-1} R^T V' h
    adjoint = {
        "adjoint_pairing": _pairing_defect((end.pairing, Ru, h), (start.pairing, u, adj_h)),
        "adjoint_inverse_roundtrip": worst_ratio(
            sup_norms(R.inverse().adjoint_apply(adj_h) - h), sup_norms(h)),
        "step_transpose_pairing": max(step_defects),
        "operator_pairing_symmetry": max(
            _pairing_defect((N.pairing, N.apply(u), h), (N.pairing, u, N.apply(h)))
            for N in (start, end)),
    }
    del h, sv, sw, w, adj_h  # not held while the laws below march (a chain has steps)
    rep = {"moller_intertwine": _intertwine_residual(R, u, Ru)}
    roundtrip = worst_ratio(sup_norms(R.inverse_apply(Ru) - u), sup_norms(u))
    del Ru  # no law below reads R u, so it is not held while they march
    Gn = GreenSystem(start)
    Gnp = GreenSystem(end)
    rhs = Gnp.propagator(u)
    rep["moller_propagator_transport"] = worst_ratio(
        sup_norms(R.apply(Gn.propagator(R.adjoint_apply(u))) - rhs), sup_norms(rhs))
    rhs = start.apply(u)
    rep["moller_adjoint_interchange"] = worst_ratio(
        sup_norms((R.adjoint_apply(end.apply(u)) - rhs)[:, 1:-1]), sup_norms(rhs))
    rep["moller_inverse_roundtrip"] = roundtrip

    # symplectic preservation on solution pairs seeded from the dictionary
    # (one Cauchy solve of the 2P columns psi_1, phi_1, psi_2, ... and one action of R)
    rng = np.random.default_rng(seed + 1)
    n_slice = grid.nt // 2
    data = rng.standard_normal((2 * sympl_pairs, 2, grid.nx))  # column, (values, velocities)
    sols = solve_cauchy(start, 3, data[:, 0], data[:, 1])
    moved = R.apply(sols)
    s0 = symplectic_form(start, sols[0::2], sols[1::2], n_slice)
    s1 = symplectic_form(end, moved[0::2], moved[1::2], n_slice)
    rep["moller_symplectic_preservation"] = worst_ratio(np.abs(s1 - s0), np.abs(s0))

    # identity region of every step (below t0 for plus-kind, above t1 for
    # minus-kind; inversion does not move the inert side)
    rng = np.random.default_rng(seed + 2)
    u = np.zeros((grid.nt, grid.nx))
    u[2:-2] = rng.standard_normal((grid.nt - 4, grid.nx))
    rep["moller_identity_region"] = max(s.identity_defect(u) for s in R.steps)

    if dense:
        Rm = R.as_matrix()
        Rd = _weighted_transpose(Rm, start, end)
        G, Gprime = (np.subtract(*S.kernel_matrices()) for S in (Gn, Gnp))  # G+ - G-
        sel = np.zeros(grid.n_points, bool)
        sel.reshape(grid.nt, grid.nx)[2:-2] = True
        lhs = (Rm @ G @ Rd)[:, sel]
        rhs = Gprime[:, sel]
        rep["moller_propagator_transport_dense"] = float(np.max(np.abs(lhs - rhs))) / max(
            float(np.max(np.abs(rhs))), 1e-300)
    return {**rep, **adjoint}


def _plain_pairing(f, h):
    """sum f h over the lattice, one number per column of a batch."""
    return np.einsum("...tx,...tx->...", f, h)


def _pairing_defect(lhs, rhs) -> float:
    """Worst |pair(f, h) - pair'(f', h')| over the columns, each (pair, f, h) a side.

    Relative to the larger side's pairing of absolute values.
    """
    (p, f, h), (q, g, k) = lhs, rhs
    scale = np.maximum(p(np.abs(f), np.abs(h)), q(np.abs(g), np.abs(k)))
    return worst_ratio(np.abs(p(f, h) - q(g, k)), scale)
