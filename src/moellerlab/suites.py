"""Verification suites: each turns one family of laws into check records.

These back both the command-line runner and the acceptance tests.  Every
check is named by what it verifies, carries its residual and the tolerance
it was held to, and never silently skips: structural obstructions are
reported as explicit outcomes.  A chain that cannot be built is a suite's
own failed check.  A march the lattice refuses (``greenhyp.MarchError``) or
a link it cannot march (``moller.MollerObstruction``) propagates out of the
suite; ``cli.run_scenario`` catches it and records it as the suite's one
failed check.
"""

from __future__ import annotations

import math

import numpy as np

from . import ccr as ccrmod
from . import geometry as geo
from . import greenhyp as gh
from . import hadamard as hd
from . import moller as mo
from .lattice import ScalarField, make_grid
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
    "SECTION_KEYS",
    "SUITES",
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
    a = ScalarField(grid, rng.uniform(0.25, 0.9, (grid.nt, grid.nx)))
    ga = geo.squeeze_metric(g, (g.orient_t, g.orient_x), a)
    return ga, g


def suite_cones(cfg, rng) -> list:
    """Cone sandwich scan: blends of comparable pairs stay between them.

    Every lattice point carries an independent random comparable pair, so a
    grid with `pairs` points scans that many pairs in a handful of
    vectorized interval computations.
    """
    pairs = int(cfg.get("pairs", 1000))
    nx = max(4, (pairs + 3) // 4)
    grid = make_grid(4, nx, 0.0, 1.0, 1.0)
    profiles = [ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 1.0),
                ScalarField.constant(grid, 0.5),
                ScalarField(grid, rng.uniform(0.0, 1.0, (grid.nt, grid.nx))),
                ScalarField(grid, np.linspace(0, 1, grid.nt)[:, None] * np.ones((1, grid.nx)))]
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
    checks.append(CheckResult.from_flag("blend_lorentzian_everywhere", bad_det == 0,
                                        pairs=grid.n_points, failures=bad_det))
    checks.append(CheckResult.from_flag("blend_cone_sandwich", bad_sandwich == 0,
                                        pairs=grid.n_points, failures=bad_sandwich))

    # spot laws: conformal two-sidedness, inverse-cone duality
    g = random_metric(grid, rng, per_point=True)
    mu = np.exp(rng.uniform(-1, 1, (grid.nt, grid.nx)))
    gm = geo.MetricField(grid, mu * g.g_tt, mu * g.g_tx, mu * g.g_xx,
                         g.orient_t, g.orient_x)
    two_sided = (geo.preceq(g, gm) is geo.ALIGNED and geo.preceq(gm, g) is geo.ALIGNED)
    checks.append(CheckResult.from_flag("conformal_cones_coincide", two_sided))
    fwd = geo.cone_inclusion(glo, ghi)
    rev = _cotangent_inclusion(ghi, glo)
    checks.append(CheckResult.from_flag("inverse_metric_cone_duality", fwd == rev and fwd))
    return checks


def _cotangent_inclusion(g_a, g_b):
    """V^{a} subset V^{b} for the inverse-metric quadratics of g_a and g_b (unoriented)."""
    cones = []
    for g in (g_a, g_b):
        itt, itx, ixx = g.inverse_components()
        cones.append(geo.MetricField(g.grid, itt, itx, ixx, *_any_timelike(itt, itx, ixx)))
    return geo.cone_inclusion(*cones)


def _any_timelike(att, atx, axx):
    # smallest-eigenvalue direction of the quadratic is timelike
    tr = att + axx
    dif = att - axx
    disc = np.sqrt(dif**2 + 4 * atx**2)
    lam = (tr - disc) / 2.0
    vt = np.where(np.abs(atx) > 1e-300, atx, 0.0)
    vx = np.where(np.abs(atx) > 1e-300, lam - att, 1.0)
    vt = np.where(np.abs(atx) > 1e-300, vt, np.where(att < axx, 1.0, 0.0))
    vx2 = np.where(np.abs(atx) > 1e-300, vx, np.where(att < axx, 0.0, 1.0))
    n = np.hypot(vt, vx2)
    return vt / n, vx2 / n


def suite_paracausal(cfg, rng) -> list:
    """Chain fixtures: rotation succeeds geometrically, reversal certifies."""
    g = make_grid(int(cfg.get("nt", 16)), int(cfg.get("nx", 16)), 0.0, 0.5, 1.0)
    mink = geo.metric_preset("minkowski", g)
    rot = geo.metric_preset("rotated-minkowski", g)
    checks = []
    chain = geo.build_chain(mink, rot)
    ok = isinstance(chain, geo.ParacausalChain) and len(chain) <= 4
    checks.append(CheckResult.from_flag("rotation_chain_of_at_most_4", ok,
                                        length=len(chain) if ok else None))
    if ok:
        try:
            chain.validate()
            checks.append(CheckResult.from_flag("rotation_chain_links_validate", True))
        except ValueError as e:
            checks.append(CheckResult.from_flag("rotation_chain_links_validate", False, error=str(e)))
    back = geo.build_chain(rot, mink)
    checks.append(CheckResult.from_flag("chain_search_symmetric",
                                        isinstance(back, geo.ParacausalChain)))
    rev = geo.build_chain(mink, mink.time_reversed())
    cert = isinstance(rev, geo.ChainObstruction) and rev.reason == "orientation-reversal"
    checks.append(CheckResult.from_flag("reversal_obstruction_certificate", cert))
    checks.append(CheckResult.from_flag("rotation_intermediate_closed_causal",
                                        geo.closed_causal_exists(rot)))
    checks.append(CheckResult.from_flag("flat_cylinder_causally_open",
                                        not geo.closed_causal_exists(mink)))
    conf = geo.metric_preset("conformal", g, mu=2.0)
    two = geo.build_chain(mink, conf)
    checks.append(CheckResult.from_flag("comparable_pair_chain_of_2",
                                        isinstance(two, geo.ParacausalChain) and len(two) == 2))
    return checks


BATCH = 64  # samples marched together: memory stays bounded for any sample count
MOLLER_TOLERANCES = {  # suite_moller's, one per law of moller.verify_moller_identities
    "intertwine": 1e-9, "propagator_transport": 1e-9,
    "adjoint_interchange": 1e-9, "inverse_roundtrip": 1e-9,
    "symplectic_preservation": 1e-8, "identity_region": 1e-10,
    "propagator_transport_dense": 1e-9,
}
ADJOINT_TOLERANCES = {  # suite_moller's, one per law of moller.verify_adjoint_laws
    "adjoint_pairing": 1e-10, "adjoint_inverse_roundtrip": 1e-10,
    "step_transpose_pairing": 1e-10, "operator_pairing_symmetry": 1e-12,
}


def _batches(count) -> list:
    """Sizes of the batches that march `count` samples, in draw order."""
    return [min(BATCH, count - i) for i in range(0, count, BATCH)]


def _sample_count(cfg, key, default) -> int:
    count = int(cfg.get(key, default))
    if count < 1:
        raise ValueError(f"{key} must be at least 1, got {count}")
    return count


def _refinement_sizes(sizes, key) -> list:
    """Grid sizes of a refinement study, checked before any work starts."""
    sizes = [int(v) for v in sizes]
    if len(sizes) < 2:
        raise ValueError(f"{key} needs at least two grid sizes to measure an order, got {sizes}")
    if min(sizes) <= 0:
        raise ValueError(f"{key} sizes must be positive, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"{key} sizes must be strictly increasing, got {sizes}")
    return sizes


def _scenario_operator(cfg, grid, preset="minkowski", **kw):
    met = geo.metric_preset(preset, grid, **kw)
    return gh.wave_operator(met, mass=float(cfg.get("mass", 1.0)))


# the exact-sequence window starts at level nt // 4 (gh.exactness_check), and N
# spreads it one level down, so its sources clear the margin from nt = 12 on
GREEN_MIN_NT = 4 * (gh.PAST_MARGIN + 1)


def _green_grid(cfg):
    """The grid of the green scenario, 48 x 48 unless the section says otherwise."""
    return make_grid(int(cfg.get("nt", 48)), int(cfg.get("nx", 48)), 0.0,
                     float(cfg.get("t_max", 0.5)), 1.0)


def suite_green(cfg, rng) -> list:
    """Causal-inverse laws on one massive scalar scenario."""
    grid = _green_grid(cfg)
    nx = grid.nx
    N = _scenario_operator(cfg, grid, cfg.get("preset", "minkowski"))
    N.check_march()  # a refused march is the suite's failed check, on any grid
    if grid.nt < GREEN_MIN_NT:
        raise ValueError(f"green needs nt >= {GREEN_MIN_NT}, got nt = {grid.nt}: the exact-sequence "
                         f"sources start at level nt // 4 - 1, which must clear the first "
                         f"{gh.PAST_MARGIN} time levels")
    count = _sample_count(cfg, "count", 100)
    checks = []
    Gs = gh.GreenSystem(N)
    lo, hi = 4, grid.nt - 4
    worst_fwd = worst_bwd = worst_inv = 0.0
    for k in _batches(count):
        h = np.stack([mo.random_dictionary(grid, 1, rng.integers(1 << 30), window=(lo, hi))[0].values
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
    checks.append(CheckResult.from_residual("retarded_right_inverse", worst_fwd, 1e-10))
    checks.append(CheckResult.from_residual("advanced_right_inverse", worst_bwd, 1e-10))
    checks.append(CheckResult.from_residual("green_left_inverse", worst_inv, 1e-10))

    # support containment of a point source, one stencil cell of tolerance
    src = np.zeros((grid.nt, grid.nx))
    src[5, nx // 3] = 1.0
    up = Gs.plus(src)
    reach = geo.causal_future(N.metric, [(5, nx // 3)])
    viol = (np.abs(up) > 1e-13) & ~reach
    checks.append(CheckResult.from_flag("retarded_support_in_causal_future", not viol.any()))

    rep = gh.exactness_check(N, seed=int(rng.integers(1 << 30)), count=5)
    for k, v in rep.items():
        checks.append(CheckResult.from_residual(f"exact_sequence_{k}", v, 1e-9))

    # symplectic flux: slice independence and propagator pairing
    data = rng.standard_normal((2, 2, nx))  # (psi, phi) x (values, velocities)
    psi, phi = gh.solve_cauchy(N, 3, data[:, 0], data[:, 1])
    vals = gh.symplectic_form(N, psi, phi, range(grid.nt - 1))
    spread = float((vals.max() - vals.min()) / max(abs(vals.mean()), 1e-300))
    checks.append(CheckResult.from_residual("symplectic_slice_independence", spread, 1e-9))
    worst = 0.0
    for k in _batches(_sample_count(cfg, "pairs", 50)):
        pairs = [mo.random_dictionary(grid, 2, rng.integers(1 << 30), window=(lo, hi))
                 for _ in range(k)]
        f1, h1 = (np.stack([p[i].values for p in pairs]) for i in (0, 1))
        rep2 = gh.propagator_symplectic_identity(N, f1, h1)
        worst = max(worst, gh.worst_ratio(rep2["residual"], np.abs(rep2["rhs"])))
    checks.append(CheckResult.from_residual("symplectic_propagator_pairing", worst, 1e-9))

    f1, h1 = mo.random_dictionary(grid, 2, rng.integers(1 << 30), window=(lo, hi))
    rel = gh.green_adjoint_relation(N, f1, h1)
    checks.append(CheckResult.from_residual("green_weighted_transpose",
                                            max(rel.values()), 1e-10))
    return checks


def _metric_from_spec(spec, grid):
    if isinstance(spec, str):
        return geo.metric_preset(spec, grid)
    params = {k: v for k, v in spec.items() if k != "preset"}
    return geo.metric_preset(spec["preset"], grid, **params)


def _chain_from_directive(directive, grid):
    """Explicit chain: list of metric specs with link directions inferred.

    A link whose metrics are comparable in neither order gives a
    ChainObstruction instead of a chain.
    """
    mets = [_metric_from_spec(s, grid) for s in directive]
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


def suite_moller(cfg, rng) -> list:
    """Intertwiner laws along a chain (auto-built or an explicit directive)."""
    nt = int(cfg.get("nt", 32))
    nx = int(cfg.get("nx", 32))
    grid = make_grid(nt, nx, 0.0, float(cfg.get("t_max", 0.5)), 1.0)
    directive = cfg.get("chain", "auto")
    dictionary = _sample_count(cfg, "dictionary", 16)
    sympl_pairs = _sample_count(cfg, "sympl_pairs", 10)
    checks = []
    if directive == "auto":
        mink = geo.metric_preset("minkowski", grid)
        target = geo.metric_preset(cfg.get("target_preset", "conformal"), grid,
                                   **cfg.get("target_params", {"mu": 2.0}))
        chain = geo.build_chain(mink, target)
        if not isinstance(chain, geo.ParacausalChain):
            return [CheckResult.from_flag("chain_exists", False, reason=chain.reason)]
    else:
        chain = _chain_from_directive(directive, grid)
        if not isinstance(chain, geo.ParacausalChain):
            return [CheckResult.from_flag("chain_exists", False, reason=chain.reason,
                                          detail=chain.detail)]
    window = tuple(cfg["window"]) if "window" in cfg else None
    R = mo.compose_chain(chain, window=window, mass=float(cfg.get("mass", 1.0)))
    d = mo.random_dictionary(grid, dictionary, int(rng.integers(1 << 30)), window=(4, grid.nt - 4))
    # one march of the dictionary through R serves every law: the adjoint laws
    # read the fields between the steps, the identities only R u
    carried = R.carry(np.stack([f.values for f in d]))
    image = carried[-1]
    adjoint = mo.verify_adjoint_laws(R, d, carried)  # pops carried down to u
    del carried
    rep = mo.verify_moller_identities(R, d, seed=int(rng.integers(1 << 30)),
                                      dense=bool(cfg.get("dense", False)),
                                      sympl_pairs=sympl_pairs, image=image)
    for k, v in rep.items():
        checks.append(CheckResult.from_residual(f"moller_{k}", v, MOLLER_TOLERANCES[k]))
    for k, v in adjoint.items():
        checks.append(CheckResult.from_residual(k, v, ADJOINT_TOLERANCES[k]))
    return checks


def suite_ccr(cfg, rng) -> list:
    """Algebra layer: rewriting, states, transport."""
    nt = int(cfg.get("nt", 32))
    nx = int(cfg.get("nx", 32))
    dictionary = _sample_count(cfg, "dictionary", 16)
    triples = _sample_count(cfg, "triples", 200)
    positivity_samples = _sample_count(cfg, "positivity_samples", 100)
    grid = make_grid(nt, nx, 0.0, 0.5, 1.0)
    chain = geo.build_chain(geo.metric_preset("minkowski", grid),
                            geo.metric_preset("conformal", grid, mu=2.0))
    R = mo.compose_chain(chain, mass=float(cfg.get("mass", 1.0)))
    N = R.op_start
    secs = mo.random_dictionary(grid, dictionary, int(rng.integers(1 << 30)),
                                window=(4, grid.nt - 4))
    D = ccrmod.FieldDictionary(secs, N)
    checks = []

    def rand_prod(deg, dd):
        el = ccrmod.AlgebraElement.identity(dd, complex(rng.standard_normal()))
        for _ in range(deg):
            el = el * ccrmod.field(dd, int(rng.integers(0, dd.size)))
        return el

    worst = 0.0
    for _ in range(triples):
        a, b, c = (rand_prod(2, D) for _ in range(3))
        worst = max(worst, ((a * b) * c - a * (b * c)).sup_coeff())
    checks.append(CheckResult.from_residual("normal_form_confluence", worst, 1e-10))

    om = ccrmod.vacuum_state(D)
    idx = list(rng.integers(0, D.size, 6))
    brute = _brute_npoint(om.W, idx)
    checks.append(CheckResult.from_residual(
        "six_point_pairing_sum", abs(ccrmod.quasifree_npoint(om, idx) - brute), 1e-12))

    neg = 0.0
    for _ in range(positivity_samples):
        a = ccrmod.AlgebraElement.identity(D, complex(rng.standard_normal(), rng.standard_normal()))
        a = a + rand_prod(1, D) * complex(rng.standard_normal(), rng.standard_normal())
        a = a + rand_prod(2, D) * complex(rng.standard_normal(), rng.standard_normal())
        neg = min(neg, ccrmod.state_eval(om, a.star() * a).real)
    checks.append(CheckResult.from_residual("state_positivity_degree2", -neg, 1e-12))

    Dp = ccrmod.FieldDictionary(secs, R.op_end)
    iso = ccrmod.star_isomorphism(R, Dp)
    checks.append(CheckResult.from_residual(
        "commutator_table_transport", iso.commutator_mismatch, 1e-9))
    om_g = ccrmod.vacuum_state(iso.dict_image)
    om_p = ccrmod.pullback_state(om_g, iso)
    checks.append(CheckResult.from_residual(
        "pullback_state_commutator_consistency",
        float(np.max(np.abs(om_p.W.imag - Dp.pairing / 2.0))), 1e-8))
    neg = 0.0
    for _ in range(positivity_samples):
        a = ccrmod.AlgebraElement.identity(Dp, complex(rng.standard_normal()))
        a = a + rand_prod(1, Dp) * complex(rng.standard_normal(), rng.standard_normal())
        a = a + rand_prod(2, Dp) * complex(rng.standard_normal(), rng.standard_normal())
        neg = min(neg, ccrmod.state_eval(om_p, a.star() * a).real)
    checks.append(CheckResult.from_residual("pullback_positivity_degree2", -neg, 1e-12))
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
    nu0 = hd.ultrastatic_vacuum(grid, mass)
    nup = hd.pullback_kernel(nu0, R)
    probes = hd.default_probes(grid, times=2)
    hyp = hd.ccr_hypothesis_check(nu0, R.op_start, probes)["sup"]
    ccr_p = hd.ccr_hypothesis_check(nup, R.op_end, probes)["sup"]
    bis_p = hd.bisolution_check(nup, R.op_end, probes)["sup_left"]
    return hyp, ccr_p, bis_p, (grid, chain, R, nu0, nup, probes)


def suite_hadamard(cfg, rng) -> list:
    """Kernel transport with convergence orders and the smoothness proxy."""
    nx = int(cfg.get("nx", 16))
    mass = float(cfg.get("mass", 1.0))
    nts = _refinement_sizes(cfg.get("nts", (64, 128, 256)), "nts")
    rows = []
    for nt in nts:
        *sups, context = _hadamard_residuals(nt, nx, mass)
        rows.append(sups)
        if len(rows) == 2:  # the middle grid's objects serve the checks below
            grid, chain, R, nu0, nup, probes = context
        del context  # no other grid's kernels are held
    checks = []

    def orders(vals):
        return [math.log2(vals[i] / vals[i + 1]) for i in range(len(vals) - 1)]

    hyp_orders = orders([r[0] for r in rows])
    checks.append(CheckResult.from_residual(
        "vacuum_commutator_hypothesis_order", -(min(hyp_orders) - 1.9), 0.0,
        orders=hyp_orders, sups=[r[0] for r in rows]))
    ccr_orders = orders([r[1] for r in rows])
    checks.append(CheckResult.from_residual(
        "transported_commutator_order", -(min(ccr_orders) - 1.5), 0.0,
        orders=ccr_orders, sups=[r[1] for r in rows]))
    bis_orders = orders([r[2] for r in rows])
    checks.append(CheckResult.from_residual(
        "transported_bisolution_order", -(min(bis_orders) - 1.5), 0.0,
        orders=bis_orders, sups=[r[2] for r in rows]))

    ref = hd.ultrastatic_vacuum(grid, mass, metric=chain.metrics[-1])
    verdict = hd.hadamard_verdict(nup, ref, R.op_end, probes)
    checks.append(CheckResult.from_flag("transported_kernel_smoothness_proxy",
                                        verdict["passes"], **verdict["difference_proxy"]))

    t = grid.times
    x = grid.sites
    smooth = 0.05 * np.exp(-((t[:, None] - 0.25) ** 2) / 0.02) * np.sin(2 * np.pi * x[None, :])
    noise = 1e-3 * np.random.default_rng(int(rng.integers(1 << 30))).standard_normal((grid.nt, grid.nx))
    v_smooth = hd.hadamard_verdict(_PerturbedKernel(nu0, smooth), nu0, R.op_start, probes)
    v_rough = hd.hadamard_verdict(_PerturbedKernel(nu0, noise), nu0, R.op_start, probes)
    checks.append(CheckResult.from_flag("smooth_perturbation_passes_proxy", v_smooth["passes"]))
    checks.append(CheckResult.from_flag("rough_perturbation_fails_proxy", not v_rough["passes"]))

    nupp = hd.pullback_kernel(nup, R.inverse())
    worst = float(np.max(np.abs(nupp.columns(probes[:8]) - nu0.columns(probes[:8]))))
    checks.append(CheckResult.from_residual("kernel_transport_roundtrip", worst, 1e-9))
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
    sol = gh.solve_cauchy(Nw, 1, F, np.zeros(nx)).values
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
    checks = []
    errs = [_characteristics_error(nx)
            for nx in _refinement_sizes(cfg.get("grids", (32, 64, 128)), "grids")]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    checks.append(CheckResult.from_residual(
        "characteristics_solution_order", -(min(orders) - 1.9), 0.0,
        orders=orders, errors=errs))
    return checks


def dense_kernel_csvs(cfg) -> dict:
    """Retarded/advanced/causal kernels of a small green scenario, as CSV text."""
    from .reports import matrix_csv

    grid = _green_grid(cfg)  # the grid of the report the files go with
    if grid.n_points > 1024:
        raise ValueError("dense kernels are limited to small grids")
    N = _scenario_operator(cfg, grid, cfg.get("preset", "minkowski"))
    Gp, Gm = gh.GreenSystem(N).kernel_matrices()
    return {
        "green_plus.csv": matrix_csv(Gp),
        "green_minus.csv": matrix_csv(Gm),
        "green_causal.csv": matrix_csv(Gp - Gm),
    }


# The keys each suite reads from its section, and the keys of the
# reversed-pair fixture scenario (``cli``): a config naming any other key is
# refused before a suite runs.  SUITES stays a dict of the suite functions,
# so that a tracer can rebind them.
SECTION_KEYS = {
    "cones": {"pairs"},
    "paracausal": {"nt", "nx"},
    "green": {"nt", "nx", "t_max", "preset", "mass", "count", "pairs"},
    "moller": {"nt", "nx", "t_max", "chain", "target_preset", "target_params", "window",
               "mass", "dictionary", "sympl_pairs", "dense"},
    "ccr": {"nt", "nx", "mass", "dictionary", "triples", "positivity_samples"},
    "hadamard": {"nx", "mass", "nts"},
    "convergence": {"grids"},
    "reversed-pair": {"name", "kind", "nt", "nx"},
}

SUITES = {
    "cones": suite_cones,
    "paracausal": suite_paracausal,
    "green": suite_green,
    "moller": suite_moller,
    "ccr": suite_ccr,
    "hadamard": suite_hadamard,
    "convergence": suite_convergence,
}
