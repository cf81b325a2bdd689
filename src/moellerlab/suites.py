"""Verification suites: each turns one family of laws into check records.

These back both the command-line runner and the acceptance tests.  Every
check is named by what it verifies, carries its residual and the tolerance
it was held to, both judged by the law's row of ``reports.LAWS``, and never
silently skips: structural obstructions are reported as explicit outcomes.
A chain that cannot be built is a suite's own failed check.  A march the
lattice refuses (``greenhyp.MarchError``) or a link it cannot march
(``moller.MollerObstruction``) propagates out of the suite;
``cli.run_scenario`` catches it and records it as the suite's one failed
check.

The moller suite's auto chain and its Møller operator R are built by
:func:`_auto_chain`.  Inside :func:`chain_scope` (``cli.run_scenario`` opens
one per scenario) a chain is built once and shared: the ccr suite's chain is
the moller suite's default one, so the two suites of a scenario check the
same R.  Outside a scope every call builds its own chain.

Every key a config may give is declared once, in :data:`CONFIG`, with its
reader and its default.  :func:`read_scenario` reads a whole scenario before
any of its suites runs, so a suite gets its section complete and typed, and
refuses what the section's grids decide as well (:func:`_check_grids`).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from . import ccr as ccrmod
from . import geometry as geo
from . import greenhyp as gh
from . import hadamard as hd
from . import moller as mo
from .lattice import make_grid
from .reports import CheckResult

__all__ = [
    "random_comparable_pair",
    "suite_cones",
    "suite_paracausal",
    "suite_green",
    "suite_moller",
    "suite_ccr",
    "suite_hadamard",
    "suite_convergence",
    "SUITES",
    "CONFIG",
    "read_section",
    "read_scenario",
]


def random_metric(grid, rng, per_point=False):
    """Random Lorentzian field: arcs of varying center/width, conformal scale.

    With per_point=True every lattice point carries independent cone data,
    which lets one grid column stand in for one random scenario.
    """
    shape = (grid.nt, grid.nx)
    if per_point:
        center = rng.uniform(-1.2, 1.2, shape)
        halfw = rng.uniform(0.15, 1.35, shape)
        mu = np.exp(rng.uniform(-0.7, 0.7, shape))
    else:
        tt = grid.times[:, None] / max(grid.t_max - grid.t_min, 1e-9)
        xx = grid.sites[None, :] / grid.length
        center = np.clip(rng.uniform(-0.45, 0.45)
                         + 0.1 * np.sin(2 * np.pi * (xx + rng.uniform(0, 1))) * np.cos(np.pi * tt),
                         -1.2, 1.2)
        halfw = np.clip(rng.uniform(0.3, 1.1)
                        + 0.1 * np.cos(2 * np.pi * xx + rng.uniform(0, 6)), 0.15, 1.35)
        mu = np.exp(rng.uniform(-0.5, 0.5))
    m = geo.metric_from_arcs(grid, center, halfw)
    return geo.MetricField(grid, mu * m.g_tt, mu * m.g_tx, mu * m.g_xx,
                           m.orient_t, m.orient_x)


def random_comparable_pair(grid, rng, per_point=False):
    """(g_narrow, g) with the first squeezed inside the second."""
    g = random_metric(grid, rng, per_point)
    a = rng.uniform(0.25, 0.9, (grid.nt, grid.nx))
    ga = geo.squeeze_metric(g, (g.orient_t, g.orient_x), a)
    return ga, g


def suite_cones(cfg, rng) -> list:
    """Cone sandwich scan: blends of comparable pairs stay between them.

    Every lattice point carries an independent random comparable pair, so a
    grid with `pairs` points scans that many pairs in a handful of
    vectorized interval computations.
    """
    pairs = cfg["pairs"]
    nx = max(4, (pairs + 3) // 4)
    grid = make_grid(4, nx, 0.0, 1.0, 1.0)
    profiles = [0.0, 1.0, 0.5, rng.uniform(0.0, 1.0, (grid.nt, grid.nx)),
                np.linspace(0, 1, grid.nt)[:, None]]
    checks = []
    bad_det = bad_sandwich = 0
    glo, ghi = random_comparable_pair(grid, rng, per_point=True)
    for chi in profiles:
        for blend in (geo.convex_combination(glo, ghi, chi),
                      geo.sharp_interpolation(glo, ghi, chi)):
            if np.max(blend.det()) >= 0.0:
                bad_det += 1
            if geo.preceq(glo, blend) is not geo.ALIGNED or \
                    geo.preceq(blend, ghi) is not geo.ALIGNED:
                bad_sandwich += 1
    checks.append(CheckResult.judge("blend_lorentzian_everywhere", bad_det == 0,
                                    pairs=grid.n_points, failures=bad_det))
    checks.append(CheckResult.judge("blend_cone_sandwich", bad_sandwich == 0,
                                    pairs=grid.n_points, failures=bad_sandwich))

    # spot laws: conformal two-sidedness, inverse-cone duality
    g = random_metric(grid, rng, per_point=True)
    mu = np.exp(rng.uniform(-1, 1, (grid.nt, grid.nx)))
    gm = geo.MetricField(grid, mu * g.g_tt, mu * g.g_tx, mu * g.g_xx,
                         g.orient_t, g.orient_x)
    two_sided = (geo.preceq(g, gm) is geo.ALIGNED and geo.preceq(gm, g) is geo.ALIGNED)
    checks.append(CheckResult.judge("conformal_cones_coincide", two_sided))
    fwd = geo.cone_inclusion(glo, ghi)
    rev = _cotangent_inclusion(ghi, glo)
    checks.append(CheckResult.judge("inverse_metric_cone_duality", fwd == rev and fwd))
    return checks


def _cotangent_inclusion(g_a, g_b):
    """V^{a} subset V^{b} for the inverse-metric quadratics of g_a and g_b (unoriented).

    Each cotangent cone is oriented by the lowered orientation X_flat = g(X, .),
    which is timelike for g^-1: g^-1(X_flat, X_flat) = g(X, X) < 0.
    """
    cones = []
    for g in (g_a, g_b):
        tt, tx, xx, ot, ox = g.stored
        cones.append(geo.MetricField(g.grid, *g.inverse_components(),
                                     tt * ot + tx * ox, tx * ot + xx * ox))
    return geo.cone_inclusion(*cones)


def suite_paracausal(cfg, rng) -> list:
    """Chain fixtures: rotation succeeds geometrically, reversal certifies."""
    g = make_grid(cfg["nt"], cfg["nx"], 0.0, 0.5, 1.0)
    mink = geo.metric_preset("minkowski", g)
    rot = geo.metric_preset("rotated-minkowski", g)
    checks = []
    chain = geo.build_chain(mink, rot)
    ok = isinstance(chain, geo.ParacausalChain) and len(chain) <= 4
    checks.append(CheckResult.judge("rotation_chain_of_at_most_4", ok,
                                    length=len(chain) if ok else None))
    if ok:
        try:
            chain.validate()
            checks.append(CheckResult.judge("rotation_chain_links_validate", True))
        except ValueError as e:
            checks.append(CheckResult.judge("rotation_chain_links_validate", False, error=str(e)))
    back = geo.build_chain(rot, mink)
    checks.append(CheckResult.judge("chain_search_symmetric",
                                    isinstance(back, geo.ParacausalChain)))
    rev = geo.build_chain(mink, mink.time_reversed())
    cert = isinstance(rev, geo.ChainObstruction) and rev.reason == "orientation-reversal"
    checks.append(CheckResult.judge("reversal_obstruction_certificate", cert,
                                    reason=getattr(rev, "reason", "chain-found"),
                                    detail=getattr(rev, "detail", "")))
    checks.append(CheckResult.judge("rotation_intermediate_closed_causal",
                                    geo.closed_causal_exists(rot)))
    checks.append(CheckResult.judge("flat_cylinder_causally_open",
                                    not geo.closed_causal_exists(mink)))
    conf = geo.metric_preset("conformal", g, mu=2.0)
    two = geo.build_chain(mink, conf)
    checks.append(CheckResult.judge("comparable_pair_chain_of_2",
                                    isinstance(two, geo.ParacausalChain) and len(two) == 2))
    return checks


BATCH = 64  # samples marched together: memory stays bounded for any sample count


def _batches(count) -> list:
    """Sizes of the batches that march `count` samples, in draw order."""
    return [min(BATCH, count - i) for i in range(0, count, BATCH)]


def _green_operator(cfg, grid):
    return gh.wave_operator(geo.metric_preset(cfg["preset"], grid), mass=cfg["mass"])


# the exact-sequence window starts at level nt // 4 (gh.exactness_check), and N
# spreads it one level down, so its sources clear the margin from nt = 12 on
GREEN_MIN_NT = 4 * (gh.PAST_MARGIN + 1)


def _green_grid(cfg):
    """The grid of the green scenario."""
    return make_grid(cfg["nt"], cfg["nx"], 0.0, cfg["t_max"], 1.0)


def suite_green(cfg, rng) -> list:
    """Causal-inverse laws on one massive scalar scenario."""
    grid = _green_grid(cfg)
    nx = grid.nx
    N = _green_operator(cfg, grid)
    count = cfg["count"]
    checks = []
    Gs = gh.GreenSystem(N)
    lo, hi = 4, grid.nt - 4
    worst_fwd = worst_bwd = worst_inv = 0.0
    for k in _batches(count):
        h = np.concatenate([mo.random_dictionary(grid, 1, rng.integers(1 << 30), window=(lo, hi))
                            for _ in range(k)])
        f = N.apply(h)
        f[:, :1] = 0.0
        f[:, -1:] = 0.0
        scale, hs = gh.sup_norms(f), gh.sup_norms(h)
        up = Gs.plus(f)
        dn = Gs.minus(f)
        worst_fwd = max(worst_fwd, gh.worst_ratio(N.interior_residual(up, f), scale))
        worst_bwd = max(worst_bwd, gh.worst_ratio(N.interior_residual(dn, f), scale))
        worst_inv = max(worst_inv, gh.worst_ratio(gh.sup_norms(up - h), hs),
                        gh.worst_ratio(gh.sup_norms(dn - h), hs))
    checks.append(CheckResult.judge("retarded_right_inverse", worst_fwd))
    checks.append(CheckResult.judge("advanced_right_inverse", worst_bwd))
    checks.append(CheckResult.judge("green_left_inverse", worst_inv))
    del up, dn  # the last batch's solves, not held while the laws below march

    # support containment of a point source, one stencil cell of tolerance; the
    # metric's retarded solve is G- where its time orientation points to decreasing t
    past = bool(np.all(N.metric.orient_t < 0.0))
    point = (grid.nt - 6 if past else 5, nx // 3)
    src = np.zeros((grid.nt, grid.nx))
    src[point] = 1.0
    ret = (Gs.minus if past else Gs.plus)(src)
    reach = geo.causal_future(N.metric, [point])
    viol = (np.abs(ret) > 1e-13) & ~reach
    checks.append(CheckResult.judge("retarded_support_in_causal_future", not viol.any()))

    rep = gh.exactness_check(N, seed=int(rng.integers(1 << 30)), count=5)
    for k, v in rep.items():
        checks.append(CheckResult.judge(f"exact_sequence_{k}", v))

    # symplectic flux: slice independence and propagator pairing
    data = rng.standard_normal((2, 2, nx))  # (psi, phi) x (values, velocities)
    psi, phi = gh.solve_cauchy(N, 3, data[:, 0], data[:, 1])
    vals = gh.symplectic_form(N, psi, phi, range(grid.nt - 1))
    spread = float((vals.max() - vals.min()) / max(abs(vals.mean()), 1e-300))
    checks.append(CheckResult.judge("symplectic_slice_independence", spread))
    worst = 0.0
    for k in _batches(cfg["pairs"]):
        pairs = [mo.random_dictionary(grid, 2, rng.integers(1 << 30), window=(lo, hi))
                 for _ in range(k)]
        f1, h1 = (np.stack([p[i] for p in pairs]) for i in (0, 1))
        rep2 = gh.propagator_symplectic_identity(N, f1, h1)
        worst = max(worst, gh.worst_ratio(rep2["residual"], rep2["scale"]))
    checks.append(CheckResult.judge("symplectic_propagator_pairing", worst))

    f1, h1 = mo.random_dictionary(grid, 2, rng.integers(1 << 30), window=(lo, hi))
    rel = gh.green_adjoint_relation(N, f1, h1)
    checks.append(CheckResult.judge("green_weighted_transpose", max(rel.values())))
    return checks


def _chain_from_directive(directive, grid):
    """Explicit chain: its (preset, params) metrics with link directions inferred.

    A link whose metrics are comparable in neither order gives a
    ChainObstruction instead of a chain.
    """
    mets = [geo.metric_preset(name, grid, **params) for name, params in directive]
    flags = []
    for k, (a, b) in enumerate(zip(mets, mets[1:])):
        if geo.preceq(a, b) is geo.ALIGNED:
            flags.append(geo.ParacausalChain.FWD)
        elif geo.preceq(b, a) is geo.ALIGNED:
            flags.append(geo.ParacausalChain.REV)
        else:
            return geo.ChainObstruction(
                "non-comparable link",
                f"link {k}: neither end's cones lie inside the other's with "
                "aligned futures")
    return geo.ParacausalChain(mets, flags)


_chains = None  # the scenario's {key: (chain, R)} inside chain_scope, else None


@contextmanager
def chain_scope():
    """Share the chains :func:`_auto_chain` builds until the block ends.

    ``cli.run_scenario`` opens one per scenario, so no R outlives its
    scenario and two runs never share one.  A nested scope starts empty and
    the outer one is back when it ends.
    """
    global _chains
    outer, _chains = _chains, {}
    try:
        yield
    finally:
        _chains = outer


def _auto_chain(grid, target, params, window, mass):
    """(chain, R): minkowski to the preset target and its Møller operator.

    params are the target's, as a set of (name, value) items, so that the
    arguments are a key.

    R is None where no chain exists (chain is then the ChainObstruction).
    Inside :func:`chain_scope` the pair is built once per argument set; a
    refused march (``MarchError``, ``MollerObstruction``) is raised and not
    kept, so a later call raises again.
    """
    key = grid, mass, target, params, window
    if _chains is not None and key in _chains:
        return _chains[key]
    chain = geo.build_chain(geo.metric_preset("minkowski", grid),
                            geo.metric_preset(target, grid, **dict(params)))
    R = None
    if isinstance(chain, geo.ParacausalChain):
        R = mo.compose_chain(chain, window=window, mass=mass)
    if _chains is not None:
        _chains[key] = chain, R
    return chain, R


def suite_moller(cfg, rng) -> list:
    """Intertwiner laws along a chain (auto-built or an explicit directive)."""
    grid = make_grid(cfg["nt"], cfg["nx"], 0.0, cfg["t_max"], 1.0)
    window, mass = cfg["window"], cfg["mass"]
    if cfg["chain"] == "auto":
        chain, R = _auto_chain(grid, cfg["target_preset"], cfg["target_params"], window, mass)
        if R is None:
            return [CheckResult.judge("chain_exists", False, reason=chain.reason)]
    else:
        chain = _chain_from_directive(cfg["chain"], grid)
        if not isinstance(chain, geo.ParacausalChain):
            return [CheckResult.judge("chain_exists", False, reason=chain.reason,
                                      detail=chain.detail)]
        R = mo.compose_chain(chain, window=window, mass=mass)
    d = mo.random_dictionary(grid, cfg["dictionary"], int(rng.integers(1 << 30)),
                             window=(4, grid.nt - 4))
    rep = mo.verify_moller_identities(R, d, seed=int(rng.integers(1 << 30)), dense=cfg["dense"],
                                      sympl_pairs=cfg["sympl_pairs"])
    return [CheckResult.judge(law, v) for law, v in rep.items()]


def suite_ccr(cfg, rng) -> list:
    """Algebra layer: normal forms, states, transport along the moller suite's default R."""
    grid = make_grid(cfg["nt"], cfg["nx"], 0.0, 0.5, 1.0)
    _, R = _auto_chain(grid, "conformal", frozenset(), None, cfg["mass"])
    N = R.op_start
    secs = mo.random_dictionary(grid, cfg["dictionary"], int(rng.integers(1 << 30)),
                                window=(4, grid.nt - 4))
    D = ccrmod.FieldDictionary(secs, N)
    checks = []

    def rand_prod(deg, dd):
        el = ccrmod.AlgebraElement.identity(dd, complex(rng.standard_normal()))
        for _ in range(deg):
            el = el * ccrmod.field(dd, int(rng.integers(0, dd.size)))
        return el

    worst = 0.0
    for _ in range(cfg["triples"]):
        a, b, c = (rand_prod(2, D) for _ in range(3))
        worst = max(worst, ((a * b) * c - a * (b * c)).sup_coeff())
    checks.append(CheckResult.judge("normal_form_confluence", worst))

    om = ccrmod.vacuum_state(D)
    idx = list(rng.integers(0, D.size, 6))
    brute = _brute_npoint(om.W, idx)
    checks.append(CheckResult.judge("six_point_pairing_sum",
                                    abs(ccrmod.quasifree_npoint(om, idx) - brute)))

    neg = 0.0
    for _ in range(cfg["positivity_samples"]):
        a = ccrmod.AlgebraElement.identity(D, complex(rng.standard_normal(), rng.standard_normal()))
        a = a + rand_prod(1, D) * complex(rng.standard_normal(), rng.standard_normal())
        a = a + rand_prod(2, D) * complex(rng.standard_normal(), rng.standard_normal())
        neg = min(neg, ccrmod.state_eval(om, a.star() * a).real)
    checks.append(CheckResult.judge("state_positivity_degree2", -neg))

    Dp = ccrmod.FieldDictionary(secs, R.op_end)
    iso = ccrmod.star_isomorphism(R, Dp)
    checks.append(CheckResult.judge("commutator_table_transport", iso.commutator_mismatch))
    om_g = ccrmod.vacuum_state(iso.dict_image)
    om_p = ccrmod.pullback_state(om_g, iso)
    checks.append(CheckResult.judge("pullback_state_commutator_consistency",
                                    float(np.max(np.abs(om_p.W.imag - Dp.pairing / 2.0)))))
    neg = 0.0
    for _ in range(cfg["positivity_samples"]):
        a = ccrmod.AlgebraElement.identity(Dp, complex(rng.standard_normal()))
        a = a + rand_prod(1, Dp) * complex(rng.standard_normal(), rng.standard_normal())
        a = a + rand_prod(2, Dp) * complex(rng.standard_normal(), rng.standard_normal())
        neg = min(neg, ccrmod.state_eval(om_p, a.star() * a).real)
    checks.append(CheckResult.judge("pullback_positivity_degree2", -neg))
    return checks


def _brute_npoint(W, idx):
    def pairings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for k in range(1, len(rest)):
            for rem in pairings(rest[1:k] + rest[k + 1:]):
                yield [(a, rest[k])] + rem
    return sum(np.prod([W[i, j] for i, j in P]) for P in pairings([int(i) for i in idx]))


def _hadamard_chain(grid):
    mets = [geo.metric_preset("minkowski", grid),
            geo.metric_preset("conformal", grid, mu=1.4),
            geo.metric_preset("ultrastatic", grid, h=0.7)]
    return geo.ParacausalChain(mets, [geo.ParacausalChain.FWD, geo.ParacausalChain.FWD])


def _hadamard_residuals(nt, nx, mass):
    grid = make_grid(nt, nx, 0.0, 0.5, 1.0)
    chain = _hadamard_chain(grid)
    R = mo.compose_chain(chain, mass=mass)
    nu0 = hd.VacuumKernel(grid, mass)
    nup = hd.PullbackKernel(nu0, R)
    probes = hd.default_probes(grid, times=2)
    hyp = hd.ccr_hypothesis_check(nu0, R.op_start, probes)["sup"]
    ccr_p = hd.ccr_hypothesis_check(nup, R.op_end, probes)["sup"]
    bis_p = hd.bisolution_check(nup, R.op_end, probes)["sup_left"]
    return hyp, ccr_p, bis_p, (grid, chain, R, nu0, nup, probes)


def suite_hadamard(cfg, rng) -> list:
    """Kernel transport with convergence orders and the smoothness proxy."""
    nx, mass = cfg["nx"], cfg["mass"]
    rows = []
    for nt in cfg["nts"]:
        *sups, context = _hadamard_residuals(nt, nx, mass)
        rows.append(sups)
        if len(rows) == 2:  # the middle grid's objects serve the checks below
            grid, chain, R, nu0, nup, probes = context
        del context  # no other grid's kernels are held
    laws = ("vacuum_commutator_hypothesis_order", "transported_commutator_order",
            "transported_bisolution_order")
    checks = [CheckResult.judge(law, sups, sups=sups) for law, sups in zip(laws, map(list, zip(*rows)))]

    ref = hd.VacuumKernel(grid, mass, metric=chain.metrics[-1])
    verdict = hd.hadamard_verdict(nup, ref, R.op_end, probes)
    checks.append(CheckResult.judge("transported_kernel_smoothness_proxy",
                                    verdict["passes"], **verdict))

    t = grid.times
    x = grid.sites
    smooth = 0.05 * np.exp(-((t[:, None] - 0.25) ** 2) / 0.02) * np.sin(2 * np.pi * x[None, :])
    noise = 1e-3 * np.random.default_rng(int(rng.integers(1 << 30))).standard_normal((grid.nt, grid.nx))
    v_smooth = hd.hadamard_verdict(_PerturbedKernel(nu0, smooth), nu0, R.op_start, probes)
    v_rough = hd.hadamard_verdict(_PerturbedKernel(nu0, noise), nu0, R.op_start, probes)
    checks.append(CheckResult.judge("smooth_perturbation_passes_proxy", v_smooth["passes"]))
    checks.append(CheckResult.judge("rough_perturbation_fails_proxy", not v_rough["passes"]))

    nupp = hd.PullbackKernel(nup, R.inverse())
    worst = float(np.max(np.abs(nupp.columns(probes[:8]) - nu0.columns(probes[:8]))))
    checks.append(CheckResult.judge("kernel_transport_roundtrip", worst))
    return checks


class _PerturbedKernel:
    """Base kernel plus a separable perturbation b(p) b(q)."""

    def __init__(self, base, bump):
        self.base = base
        self.bump = np.asarray(bump)
        self.grid = base.grid

    def columns(self, qs):
        return self.base.columns(qs) + self.bump * self.bump.reshape(-1)[list(qs), None, None]


def _dalembert_reference(grid, F, rows=slice(None)):
    """d'Alembert's solution from values F = sin 4πx and zero velocity on level 1, on the levels rows.

    0.5 (sin 4π(x - t) + sin 4π(x + t)) is cos 4πt · sin 4πx, formed as the
    outer product of one cosine per level and F.
    """
    return np.outer(np.cos(4 * np.pi * (grid.times[rows] - grid.times[1])), F)


_REFERENCE_BLOCK = 32768  # floats of d'Alembert's solution formed at a time (256 KiB)


def _characteristics_error(nx):
    """Sup error of the massless Cauchy solution on an nt = 2 nx grid against d'Alembert's.

    One grid per call, so nothing of it is alive while the next is built.
    The exact solution is separable (:func:`_dalembert_reference`); it is
    formed a block of levels at a time, and the error taken in place in the
    block, so no second whole-window buffer is allocated next to the solution.
    """
    grid = make_grid(2 * nx, nx, 0.0, 0.5, 1.0)
    Nw = gh.wave_operator(geo.metric_preset("minkowski", grid), mass=0.0)
    F = np.sin(4 * np.pi * grid.sites)
    sol = gh.solve_cauchy(Nw, 1, F, np.zeros(nx))
    del Nw  # the operator and its march are freed before the exact solution is built
    levels = max(1, _REFERENCE_BLOCK // nx)
    worst = 0.0
    for r0 in range(0, grid.nt, levels):
        rows = slice(r0, r0 + levels)
        err = _dalembert_reference(grid, F, rows)
        np.subtract(sol[rows], err, out=err)
        worst = max(worst, float(np.max(np.abs(err, out=err))))
    return worst


def suite_convergence(cfg, rng) -> list:
    """Measured orders: characteristics solution and vacuum hypothesis."""
    errs = [_characteristics_error(nx) for nx in cfg["grids"]]
    return [CheckResult.judge("characteristics_solution_order", errs, errors=errs)]


def kernel_grid(cfg):
    """The grid of a green section's dense kernel files, refused past 1024 points."""
    grid = _green_grid(cfg)  # the grid of the report the files go with
    if grid.n_points > 1024:
        raise ValueError("dense kernels are limited to small grids")
    return grid


def dense_kernel_csvs(cfg) -> dict:
    """Retarded/advanced/causal kernels of a small green scenario, as CSV text."""
    from .reports import matrix_csv

    grid = kernel_grid(cfg)
    N = _green_operator(cfg, grid)
    Gp, Gm = gh.GreenSystem(N).kernel_matrices()
    return {
        "green_plus.csv": matrix_csv(Gp),
        "green_minus.csv": matrix_csv(Gm),
        "green_causal.csv": matrix_csv(Gp - Gm),
    }


# a plain dict of the suite functions, so that a tracer can rebind them
SUITES = {
    "cones": suite_cones,
    "paracausal": suite_paracausal,
    "green": suite_green,
    "moller": suite_moller,
    "ccr": suite_ccr,
    "hadamard": suite_hadamard,
    "convergence": suite_convergence,
}


# -- config: each reader takes a JSON value and its key, and returns the value
# the suites use or raises ValueError naming the key

def config_int(value, key) -> int:
    """The config value of key as an int; only a JSON integer (or a numpy integer) is taken.

    A bool, a float or a string is refused with a message naming key and
    value: int() would read true as 1, 200.9 as 200 and "300" as 300.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(value, key, least=1) -> int:
    count = config_int(value, key)
    if count < least:
        raise ValueError(f"{key} must be at least {least}, got {count}")
    return count


def _mass(value, key, read=geo.finite_number) -> float:
    """A field mass, refused where its square, the operator's mass term, leaves the float range."""
    mass = read(value, key)
    gh._square(mass, key)
    return mass


def _positive(value, key) -> float:
    if (number := geo.finite_number(value, key)) <= 0.0:
        raise ValueError(f"{key} must be positive, got {number!r}")
    return number


def _string(value, key) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _flag(value, key) -> bool:
    if not isinstance(value, bool):  # bool("false") is True
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _refinement_sizes(sizes, key) -> list:
    """Grid sizes of a refinement study, checked before any work starts."""
    if not isinstance(sizes, (list, tuple)):
        raise ValueError(f"{key} must be a list of integers, got {sizes!r}")
    sizes = [config_int(v, f"{key} entry") for v in sizes]
    if len(sizes) < 2:
        raise ValueError(f"{key} needs at least two grid sizes to measure an order, got {sizes}")
    if min(sizes) < 4:
        raise ValueError(f"{key} sizes must be positive, and at least 4 for a grid, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"{key} sizes must be strictly increasing, got {sizes}")
    return sizes


def _window(value, key):
    """A Møller chain's switch window (t0, t1); null leaves it on the middle third of the grid."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{key} must be two numbers [t0, t1], got {value!r}")
    return tuple(geo.finite_number(t, f"{key} entry") for t in value)


_PROBE = make_grid(4, 4, 0.0, 1.0, 1.0)


def _preset(value, key, params=()) -> str:
    """A metric preset's name, refused unless the preset builds with params on a 4 x 4 grid.

    So a refusal that does not depend on the grid (an unknown preset or param,
    a value out of range) comes when the config is read.
    """
    try:  # every preset builds with its defaults: a known name alone needs no build
        if params or not (isinstance(value, str) and value.strip().lower() in geo.PRESETS):
            geo.metric_preset(value, _PROBE, **dict(params))
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None
    return value


def _params(value, key) -> frozenset:
    """A target preset's params, as the hashable set of their (name, value) items."""
    if not isinstance(value, dict) or not all(isinstance(v, (str, int, float))
                                              for v in value.values()):
        raise ValueError(f"{key} must hold only numbers and strings, got {value!r}")
    return frozenset(value.items())


def _chain(value, key):
    """"auto", or an explicit chain: a preset name or {"preset": name, param: value, ...} per metric."""
    if value == "auto":
        return value
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise ValueError(f'{key} must be "auto" or a list of at least two metric presets, '
                         f'got {value!r}')
    specs = [(s.get("preset"), {k: v for k, v in s.items() if k != "preset"})
             if isinstance(s, dict) else (s, {}) for s in value]
    return tuple((_preset(name, key, params), params) for name, params in specs)


def _suite_names(value, key) -> list:
    if not isinstance(value, (list, tuple)) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{key} must be a list of suite names, got {value!r}")
    if not value:  # a run that checks no law must not read as a pass
        raise ValueError(f"{key} needs at least one suite, got {value!r}")
    unknown = [s for s in value if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown {key}: {unknown}; known: {sorted(SUITES)}")
    return list(value)


def read_section(raw, name, where=None) -> dict:
    """raw read by the rows of CONFIG[name]: each key by its reader, an absent one from its default.

    A key the section does not declare is refused, naming where (the
    ``name section`` by default).  The scenario's rows read its suite
    sections with this function.
    """
    where = where or f"{name} section"
    rows = CONFIG[name]
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(rows))
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}; {where} takes {sorted(rows)}")
    cfg = {key: read(raw.get(key, default), key) for key, (read, default) in rows.items()}
    if name == "moller" and cfg["target_params"]:  # the target's params must be its preset's
        _preset(cfg["target_preset"], "target_params", cfg["target_params"])
    if name == "moller" and cfg["window"] and not 0 < cfg["window"][0] < cfg["window"][1] < cfg["t_max"]:
        raise ValueError(f"window must satisfy 0 < t0 < t1 < t_max = {cfg['t_max']!r}, "
                         f"got {list(cfg['window'])}")
    _check_grids(name, cfg)
    return cfg


def _check_grids(name, cfg):
    """Refuse what the grids of a read section decide, so that no suite meets it.

    That is a time step whose square leaves the float range, green's
    nt >= GREEN_MIN_NT, moller's dense size limit, and the levels of the
    switch window of every chain the moller, ccr and hadamard suites compose.
    """
    if name in ("green", "moller", "ccr"):
        grid = make_grid(cfg["nt"], cfg["nx"], 0.0, cfg.get("t_max", 0.5), 1.0)
        gh._square(grid.dt, "the time step (t_max - t_min) / (nt - 1)")
    if name == "green" and grid.nt < GREEN_MIN_NT:
        raise ValueError(f"green needs nt >= {GREEN_MIN_NT}, got nt = {grid.nt}: the exact-sequence "
                         f"sources start at level nt // 4 - 1, which must clear the first "
                         f"{gh.PAST_MARGIN} time levels")
    if name == "moller" and cfg["dense"] and grid.n_points > 4096:
        raise ValueError("dense kernel mode is restricted to small grids")
    if name in ("moller", "ccr"):
        mo._window_levels(grid, *mo._switch_window(grid, cfg.get("window")))
    for nt in cfg["nts"] if name == "hadamard" else ():
        grid = make_grid(nt, cfg["nx"], 0.0, 0.5, 1.0)
        try:
            mo._window_levels(grid, *mo._switch_window(grid))
        except ValueError as e:
            raise ValueError(f"nts: {e}") from None


def read_scenario(raw) -> dict:
    """A scenario, read whole before any of its suites runs."""
    return read_section(raw, "scenario", "scenario")


_size = partial(_count, least=4)  # a grid's nt or nx: no lattice has fewer than 4 levels or sites
# Every config key: section -> {key: (reader, default)}.  A scenario takes
# one section per suite.
CONFIG = {
    "scenario": {"name": (_string, "scenario"), "seed": (partial(_count, least=0), 0),
                 "suites": (_suite_names, ["cones", "paracausal", "green"]),
                 **{s: (read_section, {}) for s in SUITES}},
    "cones": {"pairs": (_count, 1000)},
    "paracausal": {"nt": (_size, 16), "nx": (_size, 16)},
    "green": {"nt": (_size, 48), "nx": (_size, 48), "t_max": (_positive, 0.5),
              "preset": (_preset, "minkowski"), "mass": (_mass, 1.0),
              "count": (_count, 100), "pairs": (_count, 50)},
    "moller": {"nt": (_size, 32), "nx": (_size, 32), "t_max": (_positive, 0.5),
               "chain": (_chain, "auto"), "target_preset": (_preset, "conformal"),
               "target_params": (_params, {}), "window": (_window, None),
               "mass": (_mass, 1.0), "dictionary": (_count, 16), "sympl_pairs": (_count, 10),
               "dense": (_flag, False)},
    "ccr": {"nt": (_size, 32), "nx": (_size, 32), "mass": (_mass, 1.0),
            "dictionary": (_count, 16), "triples": (_count, 200),
            "positivity_samples": (_count, 100)},
    "hadamard": {"nx": (_size, 16), "mass": (partial(_mass, read=_positive), 1.0),
                 "nts": (_refinement_sizes, [64, 128, 256])},
    "convergence": {"grids": (_refinement_sizes, [32, 64, 128])},
}
