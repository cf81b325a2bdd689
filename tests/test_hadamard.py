import math

import numpy as np
import pytest

from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab import hadamard as hd
from moellerlab import moller as mo
from moellerlab.lattice import make_grid
from moellerlab.suites import _PerturbedKernel


@pytest.fixture(scope="module")
def flat64():
    grid = make_grid(64, 16, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", grid), 1.0)
    nu = hd.VacuumKernel(grid, 1.0)
    return grid, N, nu


def test_equal_time_coincidence_value(flat64):
    grid, _, nu = flat64
    q = 5 * grid.nx + 3
    col = nu.column(q)
    want = float(np.sum(1.0 / (2.0 * nu.omega * grid.length)))
    assert col[5, 3].real == pytest.approx(want, rel=1e-12)
    assert abs(col[5, 3].imag) < 1e-14


def test_antisymmetric_part_vanishes_at_equal_time(flat64):
    grid, _, nu = flat64
    q = 6 * grid.nx + 4
    col = nu.column(q)
    # Im K(p, q) at the source level is the antisymmetric part over 2i
    assert np.max(np.abs(col[6].imag)) < 1e-13


def test_time_derivative_recovers_delta(flat64):
    # mode-sum identity: the staggered time derivative of the antisymmetric
    # part at the source is the sinc-regularized lattice delta
    grid, _, nu = flat64
    q = 8 * grid.nx + 0
    col = nu.column(q)
    deriv = (col[9].imag - col[7].imag) / (2 * grid.dt) * 2.0
    dx_idx = np.arange(grid.nx)
    want = np.zeros(grid.nx)
    for k, om in zip(nu.k, nu.omega):
        want += np.cos(k * grid.sites) * np.sin(om * grid.dt) / (om * grid.dt) / grid.length
    assert np.max(np.abs(deriv - want)) < 1e-10
    # and the regularized delta concentrates at the source site
    assert want[0] == pytest.approx(grid.nx / grid.length, rel=0.05)


def test_hermitian_columns(flat64):
    grid, _, nu = flat64
    p = 7 * grid.nx + 2
    q = 9 * grid.nx + 11
    assert nu.column(q).reshape(-1)[p] == pytest.approx(np.conj(nu.column(p).reshape(-1)[q]), abs=1e-15)


def test_ccr_hypothesis_second_order(flat64):
    def sup(nt):
        grid = make_grid(nt, 16, 0.0, 0.5, 1.0)
        N = gh.wave_operator(geo.metric_preset("minkowski", grid), 1.0)
        nu = hd.VacuumKernel(grid, 1.0)
        return hd.ccr_hypothesis_check(nu, N)["sup"]

    s48, s96 = sup(48), sup(96)
    assert math.log2(s48 / s96) > 1.9


def test_vacuum_requires_static_diagonal(flat64):
    grid, _, _ = flat64
    tilted = geo.metric_preset("tilted", grid, deg=10.0)
    with pytest.raises(ValueError):
        hd.VacuumKernel(grid, 1.0, metric=tilted)
    warped = geo.metric_preset("warped", grid, amp=0.2)
    with pytest.raises(ValueError):
        hd.VacuumKernel(grid, 1.0, metric=warped)
    with pytest.raises(ValueError):
        hd.VacuumKernel(grid, -1.0)


def test_generalized_vacuum_matches_its_operator():
    grid = make_grid(96, 16, 0.0, 0.5, 1.0)
    met = geo.metric_preset("ultrastatic", grid, h=0.7)
    N = gh.wave_operator(met, 1.0)
    nu = hd.VacuumKernel(grid, 1.0, metric=met)
    rep = hd.ccr_hypothesis_check(nu, N)
    assert rep["sup"] < 5e-3
    grid2 = make_grid(192, 16, 0.0, 0.5, 1.0)
    met2 = geo.metric_preset("ultrastatic", grid2, h=0.7)
    nu2 = hd.VacuumKernel(grid2, 1.0, metric=met2)
    rep2 = hd.ccr_hypothesis_check(nu2, gh.wave_operator(met2, 1.0))
    assert math.log2(rep["sup"] / rep2["sup"]) > 1.9


def test_bisolution_residual_is_time_discretization(flat64):
    grid, N, nu = flat64
    r = hd.bisolution_check(nu, N)
    # exact in space: killing the time part of the stencil leaves nothing
    off = {k: v for k, v in N.offsets.items() if k[0] == 0}
    spatial = gh.HyperbolicOperator(N.metric, off)
    col = nu.column(8 * grid.nx + 3)
    disp = spatial.apply(col.real) + 1j * spatial.apply(col.imag)
    want = (nu.omega[None, :] ** 2)  # spatial part contributes m^2 + disp^2 per mode
    assert r["sup_left"] > 0.0
    def sup(nt):
        g2 = make_grid(nt, 16, 0.0, 0.5, 1.0)
        N2 = gh.wave_operator(geo.metric_preset("minkowski", g2), 1.0)
        nu2 = hd.VacuumKernel(g2, 1.0)
        return hd.bisolution_check(nu2, N2)["sup_left"]
    assert math.log2(sup(48) / sup(96)) > 1.9


def test_smoothness_proxy_fixtures(flat64):
    grid, N, nu = flat64
    probes = hd.default_probes(grid, times=2)
    t, x = grid.times, grid.sites
    smooth = 0.05 * np.exp(-((t[:, None] - 0.25) ** 2) / 0.02) * np.sin(2 * np.pi * x[None, :])
    noise = 1e-3 * np.random.default_rng(0).standard_normal((grid.nt, grid.nx))
    v_eq = hd.hadamard_verdict(nu, nu, N, probes)
    assert v_eq["passes"] and v_eq["tail_ratio"] == 0.0
    v_smooth = hd.hadamard_verdict(_PerturbedKernel(nu, smooth), nu, N, probes)
    assert v_smooth["passes"]
    v_rough = hd.hadamard_verdict(_PerturbedKernel(nu, noise), nu, N, probes)
    assert not v_rough["passes"]
    assert v_rough["derivative_growth"] > 4.0
    assert v_eq["proxy_for"].startswith("wavefront")


def test_two_mass_difference_sensitivity(flat64):
    # the two-mass difference is smooth at every lattice separation except a
    # weak logarithmic short-distance channel; at desk resolution the fixed
    # thresholds do not flag it, but it is measurably the roughest of the
    # smooth family (documented proxy sensitivity fixture)
    grid, N, nu = flat64
    probes = hd.default_probes(grid, times=2)
    nu2 = hd.VacuumKernel(grid, 2.0)
    v = hd.hadamard_verdict(nu, nu2, N, probes)
    assert v["passes"]
    t, x = grid.times, grid.sites
    smooth = 0.05 * np.exp(-((t[:, None] - 0.25) ** 2) / 0.02) * np.sin(2 * np.pi * x[None, :])
    v_smooth = hd.hadamard_verdict(_PerturbedKernel(nu, smooth), nu, N, probes)
    assert v["tail_ratio"] > v_smooth["tail_ratio"]


def hadamard_chain(grid):
    mets = [geo.metric_preset("minkowski", grid),
            geo.metric_preset("conformal", grid, mu=1.4),
            geo.metric_preset("ultrastatic", grid, h=0.7)]
    return geo.ParacausalChain(mets, [geo.ParacausalChain.FWD, geo.ParacausalChain.FWD])


def test_pullback_conclusions_converge():
    def residuals(nt):
        grid = make_grid(nt, 16, 0.0, 0.5, 1.0)
        chain = hadamard_chain(grid)
        R = mo.compose_chain(chain)
        nup = hd.PullbackKernel(hd.VacuumKernel(grid, 1.0), R)
        probes = hd.default_probes(grid, times=2)
        c = hd.ccr_hypothesis_check(nup, R.op_end, probes)["sup"]
        b = hd.bisolution_check(nup, R.op_end, probes)["sup_left"]
        return c, b

    c64, b64 = residuals(64)
    c128, b128 = residuals(128)
    assert math.log2(c64 / c128) > 1.5
    assert math.log2(b64 / b128) > 1.5


def test_pullback_verdict_against_endpoint_vacuum():
    grid = make_grid(128, 16, 0.0, 0.5, 1.0)
    chain = hadamard_chain(grid)
    R = mo.compose_chain(chain)
    nup = hd.PullbackKernel(hd.VacuumKernel(grid, 1.0), R)
    ref = hd.VacuumKernel(grid, 1.0, metric=chain.metrics[-1])
    probes = hd.default_probes(grid, times=2)
    v = hd.hadamard_verdict(nup, ref, R.op_end, probes)
    assert v["passes"]
    assert v["proxy_for"].startswith("wavefront")


def test_kernel_roundtrip_through_inverse():
    grid = make_grid(48, 12, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", grid),
                                         geo.metric_preset("conformal", grid, mu=2.0)))
    nu = hd.VacuumKernel(grid, 1.0)
    back = hd.PullbackKernel(hd.PullbackKernel(nu, R), R.inverse())
    worst = max(float(np.max(np.abs(back.column(q) - nu.column(q))))
                for q in hd.default_probes(grid, times=2)[:10])
    assert worst < 1e-9


def test_identity_pullback_is_identity():
    grid = make_grid(32, 12, 0.0, 0.5, 1.0)
    mink = geo.metric_preset("minkowski", grid)
    R = mo.compose_chain(geo.ParacausalChain([mink, mink], [geo.ParacausalChain.FWD]))
    nu = hd.VacuumKernel(grid, 1.0)
    nup = hd.PullbackKernel(nu, R)
    q = 10 * grid.nx + 4
    assert np.max(np.abs(nup.column(q) - nu.column(q))) < 1e-9


def test_hadamard_suite_march_count_does_not_grow_with_probes(monkeypatch):
    # guards against a per-column loop: the bound counts suites and steps,
    # never probes (16 per grid here; a per-column march made 1992 calls)
    from moellerlab import suites

    calls = []
    march = gh.HyperbolicOperator.march

    def counted(self, f, *args, **kwargs):
        calls.append(1)
        return march(self, f, *args, **kwargs)

    monkeypatch.setattr(gh.HyperbolicOperator, "march", counted)
    nts = (16, 32)
    checks = suites.suite_hadamard(suites.read_section({"nx": 8, "nts": nts}, "hadamard"),
                                   np.random.default_rng(0))
    assert all(c.passed for c in checks)
    steps = 2 * len(suites._hadamard_chain(make_grid(16, 8, 0.0, 0.5, 1.0)).flags)
    # per grid: build-time identity checks (steps), the vacuum commutator
    # (2 Green solves), the transport of the vacuum's modes through R (steps)
    # and the transported commutator (2 Green solves); the bisolution check,
    # the smoothness verdicts and every probe block march nothing, and the
    # round trip transports the pulled-back modes through R^-1 (steps)
    per_grid = steps + 2 + steps + 2
    bound = len(nts) * per_grid + steps  # 28
    assert len(calls) <= bound  # measured: 28


def test_hadamard_suite_transports_the_modes_once_per_grid(monkeypatch):
    # one forward transport of the vacuum's modes per grid, then the round
    # trip through R^-1; kernel transport never needs R^T
    from moellerlab import suites

    calls = []

    def counting(name):
        action = getattr(mo.MollerOperator, name)

        def counted(self, u):
            calls.append(name)
            return action(self, u)
        return counted

    for name in ("apply", "transpose_apply"):
        monkeypatch.setattr(mo.MollerOperator, name, counting(name))
    nts = (32, 64, 128)
    checks = suites.suite_hadamard(suites.read_section({"nx": 16, "nts": nts}, "hadamard"),
                                   np.random.default_rng(0))
    assert all(c.passed for c in checks)
    assert calls == ["apply"] * (len(nts) + 1)  # 4, and no transpose_apply


def test_pullback_columns_match_the_dense_oracle():
    grid = make_grid(24, 8, 0.0, 0.5, 1.0)
    R = mo.compose_chain(hadamard_chain(grid))
    nu = hd.VacuumKernel(grid, 1.0)
    n = grid.n_points
    K = nu.columns(range(n)).reshape(n, n).T  # K[p, q] = K(p, q)
    Rm = R.as_matrix()
    oracle = Rm @ K @ Rm.T
    got = hd.PullbackKernel(nu, R).columns(range(n)).reshape(n, n).T
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_pullback_needs_a_mode_sum_kernel():
    grid = make_grid(24, 8, 0.0, 0.5, 1.0)
    R = mo.compose_chain(hadamard_chain(grid))
    nu = hd.VacuumKernel(grid, 1.0)
    with pytest.raises(ValueError, match="mode-sum kernel"):
        hd.PullbackKernel(_PerturbedKernel(nu, np.zeros((grid.nt, grid.nx))), R)


@pytest.mark.parametrize("static", [False, True], ids=["flat", "metric"])
def test_vacuum_modes_match_the_direct_phases(static):
    # the separable product exp(i w t) exp(i k x) against exp(i (w t + k x));
    # every mode field has modulus 1, so the error is relative
    grid = make_grid(128, 64, 0.0, 0.5, 1.0)
    met = geo.metric_preset("ultrastatic", grid, h=0.7) if static else None
    nu = hd.VacuumKernel(grid, 1.0, metric=met)
    direct = np.exp(1j * (nu.omega[None, None, :] * grid.times[:, None, None]
                          + nu.k[None, None, :] * grid.sites[None, :, None]))
    assert nu.modes.shape == (grid.n_points, grid.nx)
    assert np.max(np.abs(nu.modes - direct.reshape(grid.n_points, grid.nx))) <= 1e-13


def _max_mixed_derivative_oracle(data, dt, dx, order=3):
    """Each (a, b) divided difference built from the data on its own."""
    worst = 0.0
    for a in range(order + 1):
        for b in range(order + 1 - a):
            if a + b == 0 or a + b > order:
                continue
            d = data
            for _ in range(a):
                d = np.diff(d, axis=-2) / dt
            for _ in range(b):
                d = (np.roll(d, -1, axis=-1) - d) / dx
            if d.size:
                worst = max(worst, float(np.max(np.abs(d))))
    return worst


@pytest.mark.parametrize("shape, order", [((3, 32, 16), 3), ((24, 8), 3), ((2, 16), 3),
                                          ((4, 3, 8), 3), ((20, 12), 5)],
                         ids=["block", "field", "two-levels", "three-levels", "order-5"])
def test_max_mixed_derivative_equals_the_per_order_form(shape, order):
    # bitwise: every shared difference is the same operation in the same
    # order; two or three levels are too short for the higher t differences
    data = np.abs(np.random.default_rng(3).standard_normal(shape))
    got = hd._max_mixed_derivative(data, 0.03, 0.07, order)
    assert got == _max_mixed_derivative_oracle(data, 0.03, 0.07, order)
    assert got > 0.0


def test_bisolution_check_by_probe_level_equals_the_whole_block():
    # the columns are made and N applied one probe level at a time; N acts
    # on each column alone, so the sup is bitwise that of the whole block,
    # and the scratch is one level's: at four probe levels the peak stays
    # under 1.5 times the probe block (measured 0.90x; the whole-block form
    # peaked at 3.0x)
    from test_greenhyp import _traced

    grid = make_grid(64, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(hadamard_chain(grid))
    nup = hd.PullbackKernel(hd.VacuumKernel(grid, 1.0), R)
    N = R.op_end
    for probes in (hd.default_probes(grid, times=4), hd.default_probes(grid)[5:-6]):
        cols = nup.columns(probes)
        whole = N.apply(cols.real) + 1j * N.apply(cols.imag)
        rep, peak, _ = _traced(lambda: hd.bisolution_check(nup, N, probes))
        assert rep["sup_left"] == float(np.max(np.abs(whole[:, 1:-1])))
        if len(probes) == 4 * grid.nx:
            assert peak < 1.5 * cols.nbytes, peak / cols.nbytes


def _green_columns_per_probe(N, qs):
    """G(., q) with one unit source per probe, marched as one batch."""
    g = N.grid
    n, j = np.divmod(np.asarray(qs), g.nx)
    E = np.zeros((len(qs), g.nt, g.nx))
    E[np.arange(len(qs)), n, j] = 1.0
    return gh.GreenSystem(N).propagator(N.unweigh(E))


def _ripple_operator(grid):
    """The wave operator of a static metric whose g_xx varies along x."""
    g_xx = np.broadcast_to(1.0 + 0.3 * np.cos(2 * np.pi * grid.sites), (grid.nt, grid.nx))
    return gh.wave_operator(geo.MetricField(grid, -1.0, 0.0, g_xx, 1.0, 0.0), 1.0)


@pytest.mark.parametrize("nt", [32, 64, 128])
def test_green_kernel_columns_equal_the_per_probe_batch(nt):
    # the chain's ends are x-constant: one source per probe level, each
    # probe's column its level's shifted along x; the ripple varies along x
    # and the tilted operator takes the band path: one source per probe.
    # Every one is bitwise the one-source-per-probe batch, also on a probe
    # list that is out of level order and repeats a probe
    grid = make_grid(nt, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(hadamard_chain(grid))
    tilted = gh.wave_operator(geo.metric_preset("tilted", grid, deg=10.0), 1.0)
    probes = hd.default_probes(grid, times=3)
    shuffled = list(np.random.default_rng(nt).permutation(probes)[5:]) + probes[:2]
    for N in (R.op_start, R.op_end, _ripple_operator(grid), tilted):
        for qs in (probes, shuffled):
            G = hd._green_kernel_columns(N, qs)
            assert np.array_equal(G(qs), _green_columns_per_probe(N, qs))


def test_green_kernel_columns_march_one_source_per_probe_level(monkeypatch):
    # an x-constant operator on the site path marches one column per probe
    # level; an x-varying one, one per distinct probe
    grid = make_grid(32, 16, 0.0, 0.5, 1.0)
    widths = []
    march = gh.HyperbolicOperator.march

    def counted(self, f, *args, **kwargs):
        widths.append(len(f))
        return march(self, f, *args, **kwargs)

    monkeypatch.setattr(gh.HyperbolicOperator, "march", counted)
    probes = hd.default_probes(grid, times=3)
    hd._green_kernel_columns(gh.wave_operator(geo.metric_preset("minkowski", grid), 1.0), probes)
    hd._green_kernel_columns(_ripple_operator(grid), probes + probes[:4])
    assert widths == [3, 3, len(probes), len(probes)]  # a retarded and an advanced march each


def test_ccr_hypothesis_check_by_probe_level_equals_the_whole_block():
    # the residual is formed one probe level at a time, so the sup is
    # bitwise that of the whole block, and at four probe levels the peak
    # stays under the probe block (measured 0.45x; the whole-block form
    # peaked at 2.51x).  The ripple operator, which the kernel does not
    # solve, takes the one-source-per-probe path through the same reduction
    from test_greenhyp import _traced

    grid = make_grid(64, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(hadamard_chain(grid))
    nup = hd.PullbackKernel(hd.VacuumKernel(grid, 1.0), R)
    for N in (R.op_end, _ripple_operator(grid)):
        for probes in (hd.default_probes(grid, times=4), hd.default_probes(grid)[5:-6]):
            cols = nup.columns(probes)
            whole = 2.0 * cols.imag - _green_columns_per_probe(N, probes)
            rep, peak, _ = _traced(lambda: hd.ccr_hypothesis_check(nup, N, probes))
            assert rep["sup"] == float(np.max(np.abs(whole[:, 1:-1])))
            if N is R.op_end and len(probes) == 4 * grid.nx:
                assert peak < cols.nbytes, peak / cols.nbytes
