import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab import moller as mo
from moellerlab.lattice import ScalarField, Section, make_grid, smooth_step
from moellerlab.suites import random_metric

from conftest import window_section


# -- assembly and symbol -----------------------------------------------------

def test_flat_stencil_is_wave_operator(grid48, mink48):
    N = gh.build_operator(mink48)
    # exact action on a quadratic-in-time profile: d_tt(t^2/2) = 1
    t = grid48.times
    u = np.repeat((t**2 / 2.0)[:, None], grid48.nx, axis=1)
    out = N.apply(u)
    assert np.max(np.abs(out[1:-1] - 1.0)) < 1e-10
    # spatial part reproduces the discrete dispersion of the circle
    k = 2.0 * np.pi * 3
    x = grid48.sites
    u = np.repeat(np.cos(k * x)[None, :], grid48.nt, axis=0)
    disp2 = ((2.0 / grid48.dx) * np.sin(k * grid48.dx / 2.0)) ** 2
    out = N.apply(u)
    assert np.max(np.abs(out[1:-1] - disp2 * u[1:-1])) < 1e-9 * disp2


def test_mass_term_enters_zero_order(grid48, mink48):
    N = gh.wave_operator(mink48, mass=2.0)
    u = np.ones((grid48.nt, grid48.nx))
    out = N.apply(u)
    assert np.max(np.abs(out[1:-1] - 4.0)) < 1e-10


@pytest.mark.parametrize("shape", [(48, 48, 2, 2), (48, 48, 1, 1), (48,), (47, 48)],
                         ids=["block", "unit-block", "levels", "short"])
def test_block_coefficient_refused(mink48, shape):
    # a coefficient is a scalar or an (nt, nx) field; anything else, a
    # per-point block included, fails at construction
    with pytest.raises(ValueError, match="coefficient shape does not match grid"):
        gh.build_operator(mink48, B=np.ones(shape))


def test_row_coefficient_equals_its_broadcast_field():
    # a coefficient constant in t and varying in x, given as a (1, nx) row,
    # builds bit for bit the operator of the (nt, nx) field it broadcasts to;
    # a row that is constant along x is kept as a per-level column
    g = make_grid(24, 12, 0.0, 0.5, 1.0)
    m = geo.metric_preset("minkowski", g)
    x = g.sites[None, :]
    rows = {"A0": 0.4 * np.sin(2 * np.pi * x), "A1": 0.3 * np.cos(2 * np.pi * x),
            "B": np.full((1, g.nx), 1.5)}
    N = gh.build_operator(m, **rows)
    W = gh.build_operator(m, **{k: np.broadcast_to(v, (g.nt, g.nx)) for k, v in rows.items()})
    assert N.offsets.keys() == W.offsets.keys()
    for k, C in N.offsets.items():
        assert C.shape == W.offsets[k].shape and np.array_equal(C.view(np.uint64), W.offsets[k].view(np.uint64))
    A1 = gh.build_operator(m, A1=rows["A1"], B=1.0)  # mixed width: x-varying (0, +-1) only
    assert {k: C.shape[1] for k, C in A1.offsets.items()} == {
        (0, 0): 1, (1, 0): 1, (-1, 0): 1, (0, 1): g.nx, (0, -1): g.nx}
    for shape in ((g.nx,), (g.nt + 1, g.nx), (2, g.nx)):
        with pytest.raises(ValueError, match="coefficient shape does not match grid"):
            gh.build_operator(m, A1=np.ones(shape))


def test_symbol_mismatch_raises(grid48, mink48):
    # the stencil of a metric whose g^xx is 0.1 larger, checked against Minkowski
    wider = geo.MetricField(grid48, -1.0, 0.0, 1.0 / 1.1, 1.0, 0.0)
    with pytest.raises(gh.SymbolMismatch, match="level"):
        gh.HyperbolicOperator(mink48, gh.build_operator(wider).offsets).check_symbol()


def test_symbol_check_passes_varying_metric(grid48):
    warped = geo.metric_preset("warped", grid48, amp=0.3)
    gh.build_operator(warped)  # does not raise
    tilted = geo.metric_preset("tilted", grid48, deg=12.0)
    gh.build_operator(tilted)


@pytest.mark.parametrize("perturb", [{(1, 0): 1.0}, {(1, 1): 1.0}, {(1, 1): 1.0, (1, -1): -1.0}],
                         ids=["tt", "tt-tx-xx", "tx-only"])
def test_symbol_check_names_the_perturbed_level(grid48, perturb):
    # (1, 0) enters g^tt only; (1, 1) enters all three; the antisymmetric
    # (1, +-1) pair cancels in g^tt and g^xx, so only the cross check sees it
    tilted = geo.metric_preset("tilted", grid48, deg=12.0)
    N = gh.build_operator(tilted)  # the unperturbed operator passes
    level, site = 17, 5
    offsets = {k: np.broadcast_to(v, (grid48.nt, grid48.nx)).copy() for k, v in N.offsets.items()}
    for k, sign in perturb.items():
        offsets[k][level, site] += sign * 1e-3 * np.max(np.abs(N.offsets[(1, 1)]))
    bent = gh.HyperbolicOperator(tilted, offsets)
    if len(perturb) == 2:
        for i in (0, 2):
            assert np.allclose(bent.principal_coefficients()[i], N.principal_coefficients()[i],
                               rtol=0.0, atol=1e-12)
    with pytest.raises(gh.SymbolMismatch, match=f"level={level}, site={site}"):
        bent.check_symbol()


def _traced(fn):
    """(result of fn(), tracemalloc's peak during the call, bytes still held after it).

    tracemalloc counts numpy's allocations exactly, so a bound on them cannot flake.
    """
    import tracemalloc

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak - base, held - base


def _kept_bytes(N):
    """Bytes of the fields an operator keeps: its offsets, the volume and both weights."""
    return (sum(C.nbytes for C in N.offsets.values()) + N.vol.nbytes
            + N.weight.nbytes + N.weight_inv.nbytes)


def _warped_along_x(nt, nx):
    """A metric varying in t and in x, with g_tx = 0: the site-path march over whole fields."""
    g = make_grid(nt, nx, 0.0, 0.5, 1.0)
    t, x = g.times[:, None], g.sites[None, :]
    return geo.MetricField(g, -1.0, 0.0, (1.0 + 0.3 * np.sin(2 * np.pi * x)) * (1.0 + 0.5 * t), 1.0, 0.0)


def test_assembly_peak_within_a_few_fields():
    # on a metric that varies along x, wave_operator with its symbol check
    # and a first read of self_adjoint (the symmetry check) peaks at 1.38x
    # the kept bytes (whole fields read 2.14x when the checks made
    # whole-window temporaries), and afterwards the operator holds no more
    # than it keeps: the mass is added into the offsets, not kept as a field

    def build():
        N = gh.wave_operator(met, mass=1.0)
        assert N.self_adjoint
        return N

    met = _warped_along_x(512, 256)
    N, peak, held = _traced(build)
    kept = _kept_bytes(N)
    assert all(C.shape == (512, 256) for C in N.offsets.values())
    assert held <= 1.01 * kept, held / kept
    assert peak <= 1.6 * kept, peak / kept


def test_constant_along_x_operator_keeps_one_value_per_level():
    # Minkowski at 512x256: the five offsets, the volume and both weights
    # are one float a level each (32 KiB, where one field is 1 MiB); after
    # assembly and a first read of self_adjoint 9.1 such columns are held and
    # with its symbol and symmetry checks it peaks at 14.1

    def build():
        N = gh.wave_operator(met, mass=1.0)
        assert N.self_adjoint
        return N

    g = make_grid(512, 256, 0.0, 0.5, 1.0)
    met = geo.metric_preset("minkowski", g)
    column = 8 * g.nt
    N, peak, held = _traced(build)
    assert all(C.shape == (g.nt, 1) for C in N.offsets.values())
    assert _kept_bytes(N) == 8 * column
    assert held <= 12 * column, held / column
    assert peak <= 24 * column, peak / column


def test_march_peak_within_a_few_fields():
    # on a metric that varies along x, solve_cauchy on a kept operator peaks
    # at 1.23x the kept bytes, counting the operator itself: the march
    # stacks its known-level offsets a block of levels at a time, the zero
    # source is a broadcast view and the march checks read the metric a
    # block at a time.  A stacked whole-window copy of the known offsets
    # (four fields a direction) read 2.39x.
    met = _warped_along_x(512, 256)
    g = met.grid
    N = gh.wave_operator(met, mass=0.0)
    kept = _kept_bytes(N)
    _, peak, _ = _traced(lambda: gh.solve_cauchy(N, 1, np.sin(4 * np.pi * g.sites), np.zeros(g.nx)))
    assert kept + peak <= 1.5 * kept, (kept + peak) / kept


def test_convergence_suite_peak():
    # three cold solve_cauchy runs at nt = 2 nx up to 512x256, one grid at a
    # time: 1.7 MB of numpy allocations at the peak, held under 3 MB (2.2 MB
    # with d'Alembert's solution formed over the whole window at once, 4.2 MB
    # with it a sum of sines, 16.8 MB when the x-independent metrics and
    # operators were kept as whole fields, 25.3 MB with whole-window copies
    # in the march and the checks)
    from moellerlab.suites import suite_convergence

    checks, peak, _ = _traced(lambda: suite_convergence({"grids": [64, 128, 256]}, None))
    assert checks[0].passed
    assert peak < 3e6, peak / 1e6


def _divergence_form_dense(metric):
    """Dense (1/vol)[Dt^T Wtt Dt + Dx^T Wxx Dx + Ct^T Wtx Cx + Cx^T Wtx Ct].

    D^T is minus the divergence, so this is -(1/vol) div(vol g_sharp grad .).
    Dt: node -> t edge, Dx: node -> periodic x edge (forward differences);
    Ct, Cx: centered, with half-weight one-sided rows of Ct at both window ends.
    """
    g = metric.grid
    nt, nx = g.nt, g.nx
    itt, itx, ixx = (np.broadcast_to(c, (nt, nx)) for c in metric.inverse_components())
    vol = np.broadcast_to(metric.volume_density(), (nt, nx))
    Dt = (np.eye(nt - 1, nt, 1) - np.eye(nt - 1, nt)) / g.dt
    Dx = (np.roll(np.eye(nx), 1, axis=1) - np.eye(nx)) / g.dx
    Ct = np.zeros((nt, nt))
    for n in range(nt):
        Ct[n, min(n + 1, nt - 1)] += 0.5 / g.dt
        Ct[n, max(n - 1, 0)] -= 0.5 / g.dt
    Cx = (np.roll(np.eye(nx), 1, axis=1) - np.roll(np.eye(nx), -1, axis=1)) / (2.0 * g.dx)
    Dt, Ct = np.kron(Dt, np.eye(nx)), np.kron(Ct, np.eye(nx))
    Dx, Cx = np.kron(np.eye(nt), Dx), np.kron(np.eye(nt), Cx)
    vit, vix, vitx = vol * itt, vol * ixx, vol * itx
    Wtt = np.diag((0.5 * (vit[:-1] + vit[1:])).ravel())
    Wxx = np.diag((0.5 * (vix + np.roll(vix, -1, axis=1))).ravel())
    Wtx = np.diag(vitx.ravel())
    M = Dt.T @ Wtt @ Dt + Dx.T @ Wxx @ Dx + Ct.T @ Wtx @ Cx + Cx.T @ Wtx @ Ct
    return M / vol.reshape(-1, 1)


@pytest.mark.parametrize("shape", [(9, 5), (12, 8)])
@pytest.mark.parametrize("case", ["tilted", "varying-tilt", "warped", "minkowski-hxx"])
def test_stencil_equals_dense_divergence_form(shape, case):
    g = make_grid(*shape, 0.0, 0.5, 1.0)
    if case == "varying-tilt":
        T, X = np.meshgrid(g.times, g.sites, indexing="ij")
        m = geo.metric_from_arcs(g, 0.3 * np.sin(2 * np.pi * X) + 0.4 * T, 0.7 + 0.1 * np.cos(3 * T))
    elif case == "minkowski-hxx":  # g^xx, and with it the volume, varies point by point
        hxx = 1.0 + 0.2 * np.random.default_rng(4).uniform(size=(g.nt, g.nx))
        m = geo.MetricField(g, -1.0, 0.0, 1.0 / hxx, 1.0, 0.0)
    else:
        m = geo.metric_preset(case, g)
    N = gh.build_operator(m)
    want = _divergence_form_dense(m)
    assert np.max(np.abs(N.as_dense() - want)) <= 1e-13 * np.max(np.abs(want))
    # all-zero keys are dropped: the cross keys exist exactly when g^tx != 0
    assert len(N.offsets) == (9 if np.any(m.inverse_components()[1]) else 5)


@pytest.mark.parametrize("target", ["arcs", "conformal", "potential", "symmetrized"])
def test_convex_operator_is_bitwise_inert_off_the_switch(grid48, mink48, target):
    t, x = grid48.times[:, None], grid48.sites[None, :]
    if target in ("arcs", "symmetrized"):
        m1 = geo.metric_from_arcs(grid48, 0.15, 1.0)  # g^tx != 0 on this end only
    else:
        m1 = geo.metric_preset("conformal", grid48, mu=2.0)
    N0, N1 = gh.build_operator(mink48, B=1.0), gh.build_operator(m1, B=1.0)
    if target == "potential":  # a smooth potential on the start
        N0 = gh.build_operator(mink48, B=1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(3 * t))
    elif target == "symmetrized":  # first-order terms on the far end, made self-adjoint
        A1 = np.broadcast_to(0.3 * np.cos(2 * np.pi * x), (grid48.nt, grid48.nx))
        N1 = gh.symmetrize(gh.build_operator(m1, A0=0.4, A1=A1, B=1.0))
    chi = smooth_step(grid48, grid48.times[16], grid48.times[32])
    _assert_inert_off_the_switch(N0, N1, chi)


def _assert_inert_off_the_switch(N0, N1, chi):
    Nchi = gh.convex_operator(N0, N1, chi)
    w = chi.values
    zeros = np.flatnonzero(np.all(w == 0.0, axis=1))[:-1]  # the last one couples to the switch
    ones = np.flatnonzero(np.all(w == 1.0, axis=1))[1:]
    assert len(zeros) and len(ones)
    zero = np.zeros_like(Nchi.offsets[(0, 0)])
    for k in set(Nchi.offsets) | set(N0.offsets) | set(N1.offsets):
        C = Nchi.offsets.get(k, zero)
        for levels, N in ((zeros, N0), (ones, N1)):
            # an end may keep a per-level column where the blend keeps a field
            got, want = np.broadcast_arrays(C[levels], N.offsets.get(k, zero)[levels])
            assert np.array_equal(got, want), (k, N is N1)


def test_wave_operator_ends_stay_inert_at_fine_grid():
    # at nt = 1024 the stencil entries are ~6e6, so a one-ulp adjointness
    # defect (~1e-9) must not make an end or a blend read as not self-adjoint
    grid = make_grid(1024, 64, 0.0, 0.5, 1.0)
    mets = [geo.metric_preset("minkowski", grid),
            geo.metric_preset("conformal", grid, mu=1.4),
            geo.metric_preset("ultrastatic", grid, h=0.7)]
    ops = [gh.wave_operator(m, 1.0) for m in mets]
    chi = smooth_step(grid, grid.t_max / 3.0, 2.0 * grid.t_max / 3.0)
    for N0, N1 in zip(ops, ops[1:]):
        _assert_inert_off_the_switch(N0, N1, chi)
    fwd = geo.ParacausalChain.FWD
    R = mo.compose_chain(geo.ParacausalChain(mets, [fwd, fwd]), operators=ops)
    assert len(R.steps) == 4


@pytest.mark.parametrize("preset", ["minkowski", "rotated-minkowski", "conformal", "warped",
                                    "ultrastatic", "squeezed", "tilted", "time-reversed"])
def test_wave_operator_is_self_adjoint_on_every_preset(grid48, preset):
    # read off the stencil: the divergence form is V-symmetric by construction,
    # and a first-order term is not
    m = geo.metric_preset(preset, grid48)
    assert gh.wave_operator(m, 1.0).self_adjoint
    assert not gh.build_operator(m, A0=0.4, B=1.0).self_adjoint
    assert not gh.build_operator(m, A1=0.3, B=1.0).self_adjoint


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(16, 16), (24, 8), (12, 20)]))
def test_wave_operator_is_self_adjoint_on_random_metrics(seed, shape):
    m = random_metric(make_grid(*shape, 0.0, 0.5, 1.0), np.random.default_rng(seed))
    N = gh.wave_operator(m, 1.5)
    assert N.self_adjoint
    assert gh.symmetrize(gh.build_operator(m, A0=0.4, A1=0.3, B=1.0)).self_adjoint


def test_symmetrize_fixed_point(grid48, kg48):
    again = gh.symmetrize(kg48)
    worst = max(np.max(np.abs(again.offsets[k] - kg48.offsets[k])) for k in kg48.offsets)
    assert worst < 1e-14 * (1.0 / grid48.dt**2)


def test_symmetrize_restores_v_symmetry(grid48, mink48):
    rng = np.random.default_rng(0)
    N = gh.build_operator(mink48, A0=rng.standard_normal((grid48.nt, grid48.nx)),
                          A1=rng.standard_normal((grid48.nt, grid48.nx)), B=1.0)
    assert N.v_symmetry_defect() > 1.0
    Ns = gh.symmetrize(N)
    # V N symmetric at entry scale ~1/dt^2 means defect ~1e-12 absolute
    assert Ns.v_symmetry_defect() < 1e-9


def test_symmetrize_preserves_symbol(grid48, mink48):
    # constant first-order perturbations keep the stencil extraction sharp
    rng = np.random.default_rng(16)
    for _ in range(50):
        N = gh.build_operator(mink48, A0=float(rng.standard_normal()),
                              A1=float(rng.standard_normal()), B=1.0)
        Ns = gh.symmetrize(N)
        a0, b0, c0 = N.principal_coefficients()
        a1, b1, c1 = Ns.principal_coefficients()
        # rows 1 and nt-2 carry the one-sided bookkeeping of first-order
        # boundary couplings; the symbol itself lives on deep interior rows
        for u, v in ((a0, a1), (b0, b1), (c0, c1)):
            assert np.max(np.abs((u - v)[2:-2])) < 1e-10


def test_transpose_and_adjoint_are_exact():
    g = make_grid(8, 6, 0.0, 0.5, 1.0)
    m = geo.metric_preset("tilted", g, deg=10.0)
    rng = np.random.default_rng(1)
    N = gh.build_operator(m, A0=rng.standard_normal((8, 6)), B=0.7)
    D = N.as_dense()
    T = gh.HyperbolicOperator(m, N.transpose_offsets()).as_dense()
    assert np.max(np.abs(T - D.T)) == 0.0
    V = N.weight_dense()
    A = gh.HyperbolicOperator(m, N.adjoint_offsets()).as_dense()
    assert np.max(np.abs(A - np.linalg.solve(V, D.T @ V))) < 1e-10


def test_weight_api_matches_dense_weight():
    # V, V^{-1} and the V pairing against the dense diagonal weight
    N = gh.build_operator(geo.metric_preset("warped", make_grid(8, 6, 0.0, 0.5, 1.0), amp=0.3), B=1.0)
    V = N.weight_dense()
    assert np.ptp(N.vol) > 0.1  # V varies from point to point
    K = 4
    F, H = np.random.default_rng(6).standard_normal((2, K, N.grid.nt, N.grid.nx))
    f, h = F.reshape(K, -1), H.reshape(K, -1)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(N.weigh(F).reshape(K, -1), (V @ f.T).T) < 1e-13
    assert rel(N.unweigh(F).reshape(K, -1), np.linalg.solve(V, f.T).T) < 1e-13
    assert rel(N.pairing(F, H), np.einsum("ki,ij,kj->k", f, V, h)) < 1e-13
    assert rel(N.pairing(F[:, None], H), f @ V @ h.T) < 1e-13
    # one field is the K = 1 case
    assert np.array_equal(N.weigh(F[0]), N.weigh(F[:1])[0])
    assert np.array_equal(N.unweigh(F[0]), N.unweigh(F[:1])[0])
    assert N.pairing(F[0], H[0]) == N.pairing(F[:1], H[:1])[0]


def test_convex_operator_endpoints_and_symbol(grid48, mink48):
    conf = geo.metric_preset("conformal", grid48, mu=2.0)
    N0 = gh.wave_operator(mink48, 1.0)
    N1 = gh.wave_operator(conf, 1.0)
    assert gh.convex_operator(N0, N1, ScalarField.constant(grid48, 0.0)) is N0
    assert gh.convex_operator(N0, N1, ScalarField.constant(grid48, 1.0)) is N1
    rng = np.random.default_rng(2)
    chi = ScalarField(grid48, rng.uniform(0, 1, (grid48.nt, grid48.nx)))
    Nchi = gh.convex_operator(N0, N1, chi)
    # symbol extraction oracle against the blended inverse metric
    att, atx, axx = Nchi.principal_coefficients()
    itt, itx, ixx = Nchi.metric.inverse_components()
    assert np.max(np.abs(att + itt)[1:-1]) < 1e-6
    assert np.max(np.abs(axx + ixx)[1:-1]) < 1e-6
    want = [(1 - chi.values) * a + chi.values * b for a, b in zip(
        mink48.inverse_components(), conf.inverse_components())]
    got = Nchi.metric.inverse_components()
    assert all(np.max(np.abs(a - b)) < 1e-12 for a, b in zip(got, want))


def test_convex_operator_requires_comparability(grid48, mink48):
    rot = geo.metric_preset("rotated-minkowski", grid48)
    N0 = gh.wave_operator(mink48, 1.0)
    N1 = gh.wave_operator(rot, 1.0)
    with pytest.raises(ValueError):
        gh.convex_operator(N0, N1, ScalarField.constant(grid48, 0.5))


# -- Cauchy solves ---------------------------------------------------------------

def test_zero_data_zero_solution(kg48, grid48):
    sol = gh.solve_cauchy(kg48, 5, np.zeros(grid48.nx), np.zeros(grid48.nx))
    assert sol.sup_norm() == 0.0


def test_cauchy_residual_vanishes_on_equation_rows(kg48, grid48):
    rng = np.random.default_rng(3)
    sol = gh.solve_cauchy(kg48, 7, rng.standard_normal(grid48.nx),
                          rng.standard_normal(grid48.nx))
    assert kg48.interior_residual(sol.values) < 1e-10 * sol.sup_norm()


def test_point_bump_rides_characteristics():
    g = make_grid(64, 64, 0.0, 0.4, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", g), mass=0.0)
    h1 = np.zeros(g.nx)
    h1[20] = 1.0
    sol = gh.solve_cauchy(N, 2, h1, np.zeros(g.nx))
    # method-of-characteristics oracle: support stays on |dx| <= dt rays
    reach = geo.causal_future(geo.metric_preset("minkowski", g), [(2, 20)])
    late = np.abs(sol.values[3:]) > 1e-12
    assert np.all(~late | reach[3:])


def test_dalembert_convergence_order():
    def err(nx):
        g = make_grid(2 * nx, nx, 0.0, 0.5, 1.0)
        N = gh.wave_operator(geo.metric_preset("minkowski", g), mass=0.0)
        x = g.sites
        F = np.sin(4 * np.pi * x)
        sol = gh.solve_cauchy(N, 1, F, np.zeros(nx))
        ts = g.times - g.times[1]
        exact = 0.5 * (np.sin(4 * np.pi * (x[None, :] - ts[:, None]))
                       + np.sin(4 * np.pi * (x[None, :] + ts[:, None])))
        return float(np.max(np.abs(sol.values - exact)))

    e1, e2, e3 = err(32), err(64), err(128)
    assert math.log2(e1 / e2) > 1.9
    assert math.log2(e2 / e3) > 1.9


@pytest.mark.parametrize("nx", [64, 128, 256])
def test_separable_dalembert_reference_is_the_sum_of_sines(nx):
    # cos 4πt · sin 4πx, one outer product, against 0.5 (sin 4π(x - t) + sin 4π(x + t))
    from moellerlab.suites import _dalembert_reference

    g = make_grid(2 * nx, nx, 0.0, 0.5, 1.0)
    x, ts = g.sites, g.times - g.times[1]
    sines = 0.5 * (np.sin(4 * np.pi * (x[None, :] - ts[:, None]))
                   + np.sin(4 * np.pi * (x[None, :] + ts[:, None])))
    assert np.max(np.abs(_dalembert_reference(g, np.sin(4 * np.pi * x)) - sines)) <= 1e-14


def test_cfl_violation_raises():
    g = make_grid(8, 48, 0.0, 1.0, 1.0)  # dt = 1/7 >> dx
    N = gh.wave_operator(geo.metric_preset("minkowski", g), mass=1.0)
    with pytest.raises(gh.CFLError):
        gh.GreenSystem(N).plus(Section.zero(g))


def test_march_refuses_unstable_metrics():
    # g^tt < 0 but g^xx < 0 somewhere: the retarded march grows like 1e33 on
    # the rotated chain's sliver, so every march and Cauchy solve is refused
    grid = make_grid(128, 32, 0.0, 0.5, 1.0)
    chain = geo.build_chain(geo.metric_preset("minkowski", grid),
                            geo.metric_preset("rotated-minkowski", grid))
    sliver = chain.metrics[2]
    arcs = geo.metric_from_arcs(make_grid(256, 32, 0.0, 0.5, 1.0), 0.5, 0.2)
    for m in (sliver, arcs):
        assert np.max(m.inverse_components()[0]) < 0.0 and gh.axis_class(m) == 0
        N = gh.wave_operator(m, 1.0)
        f = np.zeros((m.grid.nt, m.grid.nx))
        f[2:-2] = 1.0
        with pytest.raises(gh.UnstableMarch, match=r"g\^xx in \[-"):
            gh.GreenSystem(N).plus(f)
        with pytest.raises(gh.MarchError):
            gh.solve_cauchy(N, 3, np.ones(m.grid.nx), np.zeros(m.grid.nx))
    # both ends are pure classes, which march (the x-class scheme is the
    # t-class one with m^2 -> -m^2; see test_x_timelike_preset_marches)
    assert [gh.axis_class(m) for m in (chain.metrics[0], chain.metrics[-1])] == [1, -1]


def test_fields_take_one_shape(kg48, grid48):
    # a field is (nt, nx), a batch (K, nt, nx) and Cauchy data (nx,) or
    # (K, nx): a trailing axis of length 1 is refused, naming the shape expected
    f = np.zeros((grid48.nt, grid48.nx, 1))
    with pytest.raises(ValueError, match=r"march source shape \(48, 48, 1\) is neither \(nt, nx\)"):
        kg48.march(f, 1)
    with pytest.raises(ValueError, match=r"source shape \(48, 48, 1\) is neither \(nt, nx\)"):
        gh.GreenSystem(kg48).plus(f)
    with pytest.raises(ValueError, match=r"source shape \(2, 48, 48, 1\) is neither \(nt, nx\)"):
        gh.GreenSystem(kg48).plus(np.zeros((2,) + f.shape))
    with pytest.raises(ValueError, match=r"Cauchy data shapes \(48, 1\), \(48,\) are not \(nx,\)"):
        gh.solve_cauchy(kg48, 5, np.zeros((grid48.nx, 1)), np.zeros(grid48.nx))
    with pytest.raises(ValueError, match=r"Cauchy source shape \(48, 48, 1\) is not \(nt, nx\)"):
        gh.solve_cauchy(kg48, 5, np.zeros(grid48.nx), np.zeros(grid48.nx), f)
    # a batch of Cauchy data is two (K, nx) arrays of one shape
    for h1, h2 in (((3, 48), (2, 48)), ((3, 48), (48,)), ((2, 3, 48), (2, 3, 48)), ((3, 47), (3, 47))):
        with pytest.raises(ValueError, match=re.escape(f"Cauchy data shapes {h1}, {h2} are not (nx,)")):
            gh.solve_cauchy(kg48, 5, np.zeros(h1), np.zeros(h2))
    assert gh.GreenSystem(kg48).plus(f[..., 0]).shape == (grid48.nt, grid48.nx)


@pytest.mark.parametrize("preset, kw", [("minkowski", {}), ("tilted", {"deg": 10.0})],
                         ids=["site", "band"])
def test_batched_cauchy_solve_matches_column_solves(preset, kw):
    # K pairs of data in one march; not bitwise, since the level einsum sums
    # a one-column contraction in another order than a batch
    g = make_grid(48, 24, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset(preset, g, **kw), 1.0)
    rng = np.random.default_rng(7)
    h1, h2 = rng.standard_normal((2, 5, g.nx))
    f = np.zeros((g.nt, g.nx))
    f[10:20] = rng.standard_normal((10, g.nx))
    for src in (None, f):
        batch = gh.solve_cauchy(N, 4, h1, h2, src)
        assert batch.shape == (5, g.nt, g.nx)
        for k in range(5):
            col = gh.solve_cauchy(N, 4, h1[k], h2[k], src)
            assert isinstance(col, Section)
            assert np.max(np.abs(batch[k] - col.values)) <= 1e-13 * np.max(np.abs(col.values))
    one = gh.solve_cauchy(N, 4, h1[:1], h2[:1])
    assert one.shape == (1, g.nt, g.nx)


def test_boundary_slice_rejected(kg48, grid48):
    with pytest.raises(ValueError):
        gh.solve_cauchy(kg48, 0, np.zeros(grid48.nx), np.zeros(grid48.nx))


# -- Green operators --------------------------------------------------------------

def test_green_inverse_property(kg48, grid48):
    rng = np.random.default_rng(4)
    G = gh.GreenSystem(kg48)
    for _ in range(10):
        h = window_section(grid48, rng, 5, grid48.nt - 5)
        f = kg48.apply(h.values)
        f[0] = 0.0
        f[-1] = 0.0
        up = G.plus(Section(grid48, f))
        assert np.max(np.abs(up - h.values)) < 1e-10 * h.sup_norm()
        dn = G.minus(Section(grid48, f))
        assert np.max(np.abs(dn - h.values)) < 1e-10 * h.sup_norm()
        assert kg48.interior_residual(up, f) < 1e-10 * np.max(np.abs(f))


def test_green_point_source_forward_cone(kg48, grid48):
    src = grid48.zeros()
    src[6, 10] = 1.0
    up = gh.GreenSystem(kg48).plus(Section(grid48, src))
    assert np.max(np.abs(up[:6])) == 0.0
    reach = geo.causal_future(kg48.metric, [(6, 10)])
    hot = np.abs(up) > 1e-13
    assert np.all(~hot | reach)


def test_green_time_reflection_symmetry(kg48, grid48):
    rng = np.random.default_rng(5)
    f = window_section(grid48, rng, 10, grid48.nt - 10)
    fr = Section(grid48, f.values[::-1].copy())
    G = gh.GreenSystem(kg48)
    up = G.plus(f)
    dn = G.minus(fr)
    assert np.max(np.abs(dn[::-1] - up)) < 1e-10 * np.max(np.abs(up))


def test_green_margin_enforced(kg48, grid48):
    bad = grid48.zeros()
    bad[0, 0] = 1.0
    with pytest.raises(ValueError, match="first"):
        gh.GreenSystem(kg48).plus(Section(grid48, bad))
    bad2 = grid48.zeros()
    bad2[-1, 0] = 1.0
    with pytest.raises(ValueError, match="last"):
        gh.GreenSystem(kg48).minus(Section(grid48, bad2))
    # the propagator checks both margins in one pass, the first levels first
    first = "source must vanish on the first 2 time levels"
    last = "source must vanish on the last 2 time levels"
    assert gh.PAST_MARGIN == 2
    with pytest.raises(ValueError, match=f"^{first}$"):
        gh.GreenSystem(kg48).propagator(Section(grid48, bad))
    with pytest.raises(ValueError, match=f"^{last}$"):
        gh.GreenSystem(kg48).propagator(Section(grid48, bad2))
    with pytest.raises(ValueError, match=f"^{first}$"):
        gh.GreenSystem(kg48).propagator(Section(grid48, bad + bad2))


def test_green_scaled_identities(kg48, grid48):
    # G_{rho N} f = G_N (f / rho), the identity a Moller step relies on when
    # it divides D u by b before marching
    rng = np.random.default_rng(6)
    f = window_section(grid48, rng, 5, grid48.nt - 5)
    rho = 1.0 + rng.uniform(0, 1, (grid48.nt, grid48.nx))
    got = gh.GreenSystem(kg48).plus(f.values / rho)
    # direct-assembly oracle: scale the stencil rows by rho and march that
    off = {k: v * rho for k, v in kg48.offsets.items()}
    direct = gh.HyperbolicOperator(kg48.metric, off)
    want = direct.march(f.values, +1)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# -- exact sequence -----------------------------------------------------------------

def test_exactness_residuals(kg48):
    rep = gh.exactness_check(kg48, seed=7, count=5)
    assert max(rep.values()) < 1e-9


def test_complex_property_many(kg48, grid48):
    rng = np.random.default_rng(8)
    G = gh.GreenSystem(kg48)
    for _ in range(20):
        h = window_section(grid48, rng, 5, grid48.nt - 5)
        f = kg48.apply(h.values)
        f[0] = 0.0
        f[-1] = 0.0
        assert np.max(np.abs(G.propagator(f))) < 1e-10 * np.max(np.abs(h.values))


# -- symplectic flux ------------------------------------------------------------------

def test_symplectic_antisymmetry(kg48, grid48):
    rng = np.random.default_rng(9)
    psi = gh.solve_cauchy(kg48, 4, rng.standard_normal(grid48.nx),
                          rng.standard_normal(grid48.nx))
    assert gh.symplectic_form(kg48, psi, psi, 10) == 0.0


def test_symplectic_mode_wronskian_oracle():
    # single-mode discrete solutions have a closed-form staggered Wronskian
    g = make_grid(64, 32, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", g), mass=1.0)
    k = 2.0 * np.pi * 2
    disp2 = ((2.0 / g.dx) * np.sin(k * g.dx / 2.0)) ** 2
    om2 = 1.0 + disp2
    om_disc = (2.0 / g.dt) * math.asin(math.sqrt(om2) * g.dt / 2.0)
    t, x = g.times[:, None], g.sites[None, :]
    psi = (np.cos(k * x) * np.cos(om_disc * t))
    phi = (np.cos(k * x) * np.sin(om_disc * t))
    assert N.interior_residual(psi) < 1e-9
    assert N.interior_residual(phi) < 1e-9
    got = gh.symplectic_form(N, Section(g, psi), Section(g, phi), 20)
    # staggered Wronskian of the exact mode pair, in this package's flux
    # orientation: -(L/2) sin(om~ dt)/dt, i.e. -(L om_k / 2) up to O(dt^2)
    want = -(g.length / 2.0) * math.sin(om_disc * g.dt) / g.dt
    assert got == pytest.approx(want, rel=1e-12)
    assert abs(got) == pytest.approx(g.length * om_disc / 2.0, rel=2e-3)
    vals = [gh.symplectic_form(N, Section(g, psi), Section(g, phi), n)
            for n in range(0, g.nt - 1, 5)]
    assert max(vals) - min(vals) < 1e-12 * abs(want)


def test_symplectic_slice_independence(kg48, grid48):
    rng = np.random.default_rng(10)
    psi = gh.solve_cauchy(kg48, 4, rng.standard_normal(grid48.nx),
                          rng.standard_normal(grid48.nx))
    phi = gh.solve_cauchy(kg48, 4, rng.standard_normal(grid48.nx),
                          rng.standard_normal(grid48.nx))
    vals = np.array([gh.symplectic_form(kg48, psi, phi, n) for n in range(grid48.nt - 1)])
    assert (vals.max() - vals.min()) <= 1e-9 * abs(vals.mean())


def test_symplectic_form_over_many_cuts_checks_the_solutions_once(kg48, grid48, monkeypatch):
    rng = np.random.default_rng(13)
    psi, phi = (gh.solve_cauchy(kg48, 4, rng.standard_normal(grid48.nx),
                                rng.standard_normal(grid48.nx)) for _ in range(2))
    cuts = range(grid48.nt - 1)
    one_by_one = [gh.symplectic_form(kg48, psi, phi, n) for n in cuts]
    checks = []
    residual = gh.HyperbolicOperator.interior_residual
    monkeypatch.setattr(gh.HyperbolicOperator, "interior_residual",
                        lambda self, u, f=None: checks.append(1) or residual(self, u, f))
    vals = gh.symplectic_form(kg48, psi, phi, cuts)
    assert np.array_equal(vals, one_by_one)
    assert len(checks) == 2
    # batches give one row of K fluxes per cut
    pair = np.stack([psi.values, phi.values])
    rows = gh.symplectic_form(kg48, pair, pair[::-1], [3, 20])
    assert rows.shape == (2, 2)
    assert np.allclose(rows[:, 0], [one_by_one[3], one_by_one[20]], rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError, match="successor"):
        gh.symplectic_form(kg48, psi, phi, [0, grid48.nt - 1])


def test_symplectic_needs_selfadjoint(grid48, mink48):
    N = gh.build_operator(mink48, A0=0.5, B=1.0)
    rng = np.random.default_rng(11)
    psi = gh.solve_cauchy(N, 4, rng.standard_normal(grid48.nx),
                          rng.standard_normal(grid48.nx))
    with pytest.raises(ValueError, match="self-adjoint"):
        gh.symplectic_form(N, psi, psi, 5)


def test_propagator_symplectic_identity(kg48, grid48):
    rng = np.random.default_rng(12)
    worst = 0.0
    pairs = [(window_section(grid48, rng, 5, 20), window_section(grid48, rng, 8, 30))
             for _ in range(10)]
    reps = [gh.propagator_symplectic_identity(kg48, f, h) for f, h in pairs]
    for rep in reps:
        worst = max(worst, rep["residual"] / max(abs(rep["rhs"]), 1e-300))
    assert worst < 1e-9
    # the pairs as one (K, nt, nx, r) batch give the same numbers per pair
    batch = gh.propagator_symplectic_identity(
        kg48, *(np.stack([p[k].values for p in pairs]) for k in (0, 1)))
    for key in ("lhs", "rhs"):
        want = np.array([rep[key] for rep in reps])
        assert batch[key].shape == (10,)
        assert np.max(np.abs(batch[key] - want)) <= 1e-12 * np.max(np.abs(want))
    f = window_section(grid48, rng, 5, 20)
    rep0 = gh.propagator_symplectic_identity(kg48, f, f)
    assert abs(rep0["lhs"]) < 1e-10 * f.sup_norm()**2
    # bilinearity: doubling one argument doubles both sides
    h = window_section(grid48, rng, 8, 30)
    r1 = gh.propagator_symplectic_identity(kg48, f, h)
    r2 = gh.propagator_symplectic_identity(kg48, Section(grid48, 2 * f.values), h)
    assert r2["lhs"] == pytest.approx(2 * r1["lhs"], rel=1e-12)


# -- adjoint relation -----------------------------------------------------------------

def test_green_adjoint_relation_selfadjoint(kg48, grid48):
    rng = np.random.default_rng(13)
    rel = gh.green_adjoint_relation(kg48, window_section(grid48, rng, 10, 30),
                                    window_section(grid48, rng, 5, 25))
    assert max(rel.values()) < 1e-10


def test_green_adjoint_relation_nonselfadjoint(grid48, mink48):
    rng = np.random.default_rng(14)
    N = gh.build_operator(mink48, A0=0.4 + 0.1 * rng.standard_normal((grid48.nt, grid48.nx)),
                          B=1.0)
    rel = gh.green_adjoint_relation(N, window_section(grid48, rng, 10, 30),
                                    window_section(grid48, rng, 5, 25))
    assert max(rel.values()) < 1e-10
    zero = gh.green_adjoint_relation(N, Section.zero(grid48),
                                     window_section(grid48, rng, 5, 25))
    assert max(zero.values()) == 0.0


def test_green_kernel_transpose_oracle():
    # dense-kernel oracle on a small grid: V G+ equals the transpose of V G-
    g = make_grid(16, 16, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", g), mass=1.0)
    n = g.n_dof
    Gp = np.zeros((n, n))
    Gm = np.zeros((n, n))
    e = np.zeros((g.nt, g.nx))
    flat = e.reshape(-1)
    sys_ = gh.GreenSystem(N)
    sel = np.zeros(n, bool)
    sel.reshape(g.nt, g.nx)[2:-2] = True
    for q in np.where(sel)[0]:
        flat[q] = 1.0
        Gp[:, q] = sys_.plus(e).reshape(-1)
        Gm[:, q] = sys_.minus(e).reshape(-1)
        flat[q] = 0.0
    V = N.weight_dense()
    A = (V @ Gp)[np.ix_(sel, sel)]
    B = (V @ Gm)[np.ix_(sel, sel)]
    assert np.max(np.abs(A - B.T)) < 1e-10 * np.max(np.abs(A))
    K = (V @ (Gp - Gm))[np.ix_(sel, sel)]
    assert np.max(np.abs(K + K.T)) < 1e-10 * np.max(np.abs(K))


# -- batched march ------------------------------------------------------------------

def _batch_operator(name):
    g = make_grid(32, 16, 0.0, 0.5, 1.0)
    if name == "conformal":
        return gh.wave_operator(geo.metric_preset("conformal", g, mu=2.0), 1.0)
    if name == "tilted":
        return gh.wave_operator(geo.metric_preset("tilted", g, deg=12.0), 1.0)
    return gh.wave_operator(geo.metric_preset("warped", g, amp=0.3), 1.0)


@pytest.mark.parametrize("name", ["conformal", "warped", "tilted"])
def test_batched_march_equals_stacked_single_marches(name):
    # a level's contraction adds its terms in the same order for every batch
    # width, so each column of a batch is its single-column march bit for bit,
    # on the site and the band path, both ways, over a row range and seeded
    N = _batch_operator(name)
    g = N.grid
    rng = np.random.default_rng(22)
    F = np.zeros((5, g.nt, g.nx))
    F[:, 2:-2] = rng.standard_normal((5, g.nt - 4, g.nx))
    h1, h2 = rng.standard_normal((2, 5, g.nx))
    s = g.nt // 2
    marches = [(direction, {"rows": rows}) for direction in (1, -1) for rows in (None, (7, 23))]
    marches.append((0, {"seed_level": s}))
    for direction, kw in marches:
        if "seed_level" in kw:
            batch = N.march(F, direction, seeds=(h1, h2), **kw)
            single = np.array([N.march(f, direction, seeds=(a, b), **kw) for f, a, b in zip(F, h1, h2)])
        else:
            batch = N.march(F, direction, **kw)
            single = np.array([N.march(f, direction, **kw) for f in F])
        assert batch.shape == F.shape
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64)), (direction, kw)
    assert isinstance(N._steps[1], gh._BandedStep if name == "tilted" else gh._SiteStep)
    assert np.max(np.abs(N.apply(F) - np.array([N.apply(f) for f in F]))) == 0.0


def test_batch_margin_checked_per_column(kg48, grid48):
    # the other columns are large, so a batch-wide round-off scale would
    # hide the one column that reaches into the margin
    F = np.zeros((4, grid48.nt, grid48.nx))
    F[:, 2:-2] = 1e7
    F[2] = 0.0
    F[2, 0, 3] = 1e-6
    with pytest.raises(ValueError, match="first"):
        gh.GreenSystem(kg48).plus(F)
    F[2, 0, 3] = 0.0
    F[2, -1, 5] = 1e-6
    with pytest.raises(ValueError, match="last"):
        gh.GreenSystem(kg48).minus(F)
    with pytest.raises(ValueError, match="last"):
        gh.GreenSystem(kg48).propagator(F)


def test_pullback_columns_equal_stacked_columns():
    from moellerlab import hadamard as hd
    from moellerlab import moller as mo

    g = make_grid(8, 8, 0.0, 0.5, 1.0)
    chain = geo.build_chain(geo.metric_preset("minkowski", g),
                            geo.metric_preset("conformal", g, mu=2.0))
    R = mo.compose_chain(chain, window=(3 * g.dt, 4 * g.dt))
    nup = hd.pullback_kernel(hd.ultrastatic_vacuum(g, 1.0), R)
    qs = list(range(2 * g.nx, (g.nt - 2) * g.nx))
    block = nup.columns(qs)
    stacked = np.array([nup.column(q) for q in qs])
    assert block.shape == (len(qs), g.nt, g.nx)
    assert np.max(np.abs(block - stacked)) <= 1e-12 * np.max(np.abs(stacked))


# -- banded level solve -------------------------------------------------------------

def _tilted_warp(nt, nx):
    """A metric varying in t and x, with g_tx (so g^tx) != 0 at every lattice point."""
    g = make_grid(nt, nx, 0.0, 0.5, 1.0)
    t, x = g.times[:, None], g.sites[None, :]
    gtx = (0.1 + 0.25 * np.sin(2 * np.pi * x)) * (1.0 + 0.5 * t)
    gxx = np.broadcast_to(1.0 + 0.3 * np.sin(4 * np.pi * t), gtx.shape)
    return geo.MetricField(g, -1.0, gtx, gxx, 1.0, 0.0)


def _level_operator(name):
    if name == "tilted-warp":
        return gh.wave_operator(_tilted_warp(24, 12), 1.0)
    return gh.wave_operator(geo.metric_preset("conformal", make_grid(16, 4, 0.0, 0.5, 1.0), mu=2.0), 1.0)


@pytest.mark.parametrize("name", ["tilted-warp", "nx4"])
def test_banded_level_solve_equals_dense_solve(name):
    # each level of the march, solved densely from the same known levels
    N = _level_operator(name)
    g = N.grid
    m = g.nx
    D = N.as_dense()
    rng = np.random.default_rng(32)
    F = np.zeros((2, g.nt, g.nx))
    F[:, 2:-2] = rng.standard_normal((2, g.nt - 4, g.nx))
    for direction in (1, -1):
        U = N.march(F, direction)
        for n in range(1, g.nt - 1):
            new = n + direction
            rows, cols = slice(n * m, (n + 1) * m), slice(new * m, (new + 1) * m)
            known = U.reshape(2, -1).copy()
            known[:, cols] = 0.0
            rhs = F[:, n].reshape(2, m) - known @ D[rows].T
            dense = np.linalg.solve(D[rows, cols], rhs.T).T
            assert np.max(np.abs(U[:, new].reshape(2, m) - dense)) <= 1e-12 * np.max(np.abs(dense))


def _marched_both_ways(N):
    g = N.grid
    f = np.zeros((g.nt, g.nx))
    f[2:-2] = 1.0
    N.march(f, 1)
    N.march(f, -1)
    return N._steps.values()


def test_cached_factors_are_linear_in_nx():
    # g^tx != 0 couples neighbouring sites on the new level: the band path
    counts = []
    for nx in (16, 32):
        N = gh.build_operator(_tilted_warp(64, nx), B=1.0)
        g = N.grid
        steps = _marched_both_ways(N)
        assert all(isinstance(step, gh._BandedStep) for step in steps)
        counts.append(sum(lu.size + piv.size for step in steps for lu, piv in step.factors.values()))
        # LAPACK band storage (2 kl + ku + 1 = 7 rows, kl = ku = 2) plus
        # pivots, per level and direction; a dense LU holds nx^2 a level
        assert counts[-1] == 2 * (g.nt - 2) * 8 * nx
    assert counts[1] == 2 * counts[0]


def test_shift_free_steps_cache_no_band_factors():
    # g^tx = 0: each new-level site stands alone, so no band is
    # factored and the solve divides by the stencil's own diagonal
    for nx in (32, 64):
        g = make_grid(64, nx, 0.0, 0.5, 1.0)
        N = gh.build_operator(geo.metric_preset("minkowski", g), B=1.0)
        steps = _marched_both_ways(N)
        assert all(isinstance(step, gh._SiteStep) and not hasattr(step, "factors") for step in steps)
        assert all(step.diag is N.offsets[(a, 0)] for a, step in N._steps.items())


def test_site_local_march_matches_band_march(kg48):
    # the band path is the reference: on a diagonal band dgbtrs divides by
    # the diagonal, so the two agree bitwise
    g = kg48.grid
    F = np.zeros((3, g.nt, g.nx))
    F[:, 2:-2] = np.random.default_rng(35).standard_normal((3, g.nt - 4, g.nx))
    for direction in (1, -1):
        site = kg48.march(F, direction)
        band = gh.HyperbolicOperator(kg48.metric, kg48.offsets)
        band._steps = {direction: gh._BandedStep(band, direction)}
        assert isinstance(kg48._steps[direction], gh._SiteStep)
        assert np.array_equal(site, band.march(F, direction))


@pytest.mark.parametrize("name", ["site", "band"])
def test_row_range_march_equals_full_march(kg48, name):
    # a source that vanishes below lo (above hi - 1) marched forward from row
    # lo (back from row hi - 1) gives the full march bitwise; a march cut
    # short agrees with the full one on the levels it writes, zero beyond
    N = kg48 if name == "site" else gh.wave_operator(_tilted_warp(24, 12), 1.0)
    g = N.grid
    lo, hi = g.nt // 3, 2 * g.nt // 3
    F = np.zeros((2, g.nt, g.nx))
    F[:, 2:-2] = np.random.default_rng(36).standard_normal((2, g.nt - 4, g.nx))
    for direction, rows, off in ((1, (lo, g.nt - 1), slice(0, lo)), (-1, (1, hi), slice(hi, g.nt))):
        f = F.copy()
        f[:, off] = 0.0
        assert np.array_equal(N.march(f, direction, rows=rows), N.march(f, direction))
    assert isinstance(N._steps[1], gh._SiteStep if name == "site" else gh._BandedStep)
    full_up, full_down = N.march(F, 1), N.march(F, -1)
    up = N.march(F, 1, rows=(1, hi))  # rows 1 .. hi-1 write levels 2 .. hi
    assert np.array_equal(up[:, :hi + 1], full_up[:, :hi + 1]) and not up[:, hi + 1:].any()
    down = N.march(F, -1, rows=(lo, g.nt - 1))  # rows nt-2 .. lo write levels nt-3 .. lo-1
    assert np.array_equal(down[:, lo - 1:], full_down[:, lo - 1:]) and not down[:, :lo - 1].any()


def _block_case_operator(name, g):
    if name == "tilted":
        return gh.wave_operator(geo.metric_preset("tilted", g, deg=12.0), 1.0)
    if name == "tilted-warp":  # varies along x: a width-nx block on the band path
        return gh.wave_operator(_tilted_warp(g.nt, g.nx), 1.0)
    m = geo.metric_preset("minkowski", g)
    if name == "mixed-A1":  # an (nt, 1) principal part, x-varying (0, +-1) offsets
        return gh.build_operator(m, A1=0.3 * np.cos(2 * np.pi * g.sites[None, :]), B=1.0)
    return gh.wave_operator(m, 1.0)


@pytest.mark.parametrize("K", [1, 23])
@pytest.mark.parametrize("name", ["minkowski-64x16", "tilted-48x32", "tilted-warp-48x32", "mixed-A1-64x16"])
def test_march_across_blocks_equals_one_block_march(monkeypatch, name, K):
    # a budget of a few levels makes every march stack its coefficient rows in
    # several blocks (6 levels on the site path, 4 on the band path); both
    # directions, a row range that starts and ends inside a block and both
    # legs of a seeded march are bitwise the marches whose one block holds
    # the whole window
    case, shape = name.rsplit("-", 1)
    nt, nx = map(int, shape.split("x"))
    g = make_grid(nt, nx, 0.0, 0.5, 1.0)
    rng = np.random.default_rng(37)
    f = np.zeros((K, nt, nx))
    f[:, 2:-2] = rng.standard_normal((K, nt - 4, nx))
    if K == 1:
        f = f[0]
    h1, h2 = rng.standard_normal((2, nx))
    lo, hi, s = 13, nt - 7, nt // 2 + 1

    def marches():
        N = _block_case_operator(case, g)
        out = [N.march(f, 1), N.march(f, -1), N.march(f, 1, rows=(lo, hi)), N.march(f, -1, rows=(lo, hi)),
               N.march(f, 0, seed_level=s, seeds=(h1, h2)), gh.solve_cauchy(N, s, h1, h2).values]
        return out, list(N._steps.values())

    whole, steps = marches()
    assert [step.levels for step in steps] == [nt, nt]
    width = 1 if case in ("minkowski", "tilted") else nx  # the widest known offset's
    assert all(step.buffer.shape[1] == width for step in steps)
    monkeypatch.setattr(gh, "_BLOCK_BYTES", 6 * 8 * width * 5)  # 6 levels of 4 offsets and the source
    blocked, steps = marches()
    site = case in ("minkowski", "mixed-A1")
    L = 6 if site else 4  # the band path reads 6 known offsets and the source
    assert [step.levels for step in steps] == [L, L]
    assert all(isinstance(step, gh._SiteStep if site else gh._BandedStep) for step in steps)
    assert lo % L and hi % L and s % L  # the ranges and the seed sit inside blocks
    for a, b in zip(whole, blocked, strict=True):
        assert np.array_equal(a, b)


def test_per_level_operator_stacks_its_window_once(monkeypatch):
    # a per-level operator's coefficient rows take m + 1 floats a level, so
    # the whole 512-level window is one block: both steps stack it once, and
    # every later march, a row range and a seeded one included, reads it
    g = make_grid(512, 256, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", g), 1.0)
    calls = []
    stack = gh._Step._stack
    monkeypatch.setattr(gh._Step, "_stack", lambda step, n: calls.append(step.a) or stack(step, n))
    f = np.zeros((g.nt, g.nx))
    f[2:-2] = np.random.default_rng(38).standard_normal((g.nt - 4, g.nx))
    N.march(f, 1)
    N.march(f, -1)
    N.march(f, 1, rows=(100, 400))
    N.march(f, 0, seed_level=200, seeds=(f[100], f[101]))
    assert sorted(calls) == [-1, 1]
    assert [N._steps[a].buffer.shape for a in (1, -1)] == [(g.nt, 1, 5)] * 2


@pytest.mark.parametrize("level", [16, 20, 46], ids=["first-row", "last-row", "last-block"])
def test_symbol_check_names_a_block_edge_level(grid48, monkeypatch, level):
    # with blocks of 5 equation rows (1..5, 6..10, ..., 41..45, 46) a mismatch
    # on the first or the last row of a block is named as when one block
    # holds the window, and before a second mismatch one level later; the
    # budget is 5 levels per float of stored width, so an x-varying operator
    # (whole-field offsets, one bent site) and one constant along x (a whole
    # level bent, named at site 0) both run in 5-level blocks
    tilted = geo.metric_preset("tilted", grid48, deg=12.0)
    N = gh.build_operator(tilted)
    kick = 1e-3 * np.max(np.abs(N.offsets[(1, 1)]))
    for width, site in ((grid48.nx, 5), (1, 0)):
        offsets = {k: np.broadcast_to(v, (grid48.nt, width)).copy() for k, v in N.offsets.items()}
        for n, j in ((level, site), (level + 1, 0)):
            offsets[(1, 0)][n, j] += kick
        bent = gh.HyperbolicOperator(tilted, offsets)
        for budget in (gh._BLOCK_BYTES, 5 * 8 * width):
            monkeypatch.setattr(gh, "_BLOCK_BYTES", budget)
            with pytest.raises(gh.SymbolMismatch, match=f"level={level}, site={site}\\)"):
                bent.check_symbol()
        blocks = [(rows.start, rows.stop) for rows in gh._row_blocks(1, grid48.nt - 1, width)]
        assert blocks[3] == (16, 21) and blocks[-2:] == [(41, 46), (46, 47)]
    for preset, params in (("warped", {"amp": 0.3}), ("tilted", {"deg": 12.0})):
        gh.build_operator(geo.metric_preset(preset, grid48, **params))  # blocks pass what passes


def test_symbol_check_blocks_at_the_stored_width(grid48, monkeypatch):
    # one budget of 5 nx-wide levels: an operator constant along x (offsets
    # and metric (nt, 1) columns) is checked as one block, while one whose
    # offsets vary along x, or whose metric does, is still blocked at nx
    monkeypatch.setattr(gh, "_BLOCK_BYTES", 5 * 8 * grid48.nx)
    seen = []
    check_rows = gh.HyperbolicOperator._check_symbol_rows
    monkeypatch.setattr(gh.HyperbolicOperator, "_check_symbol_rows",
                        lambda op, rows: seen.append((rows.start, rows.stop)) or check_rows(op, rows))
    tilted = geo.metric_preset("tilted", grid48, deg=12.0)
    N = gh.build_operator(tilted)
    whole = {k: np.broadcast_to(v, (grid48.nt, grid48.nx)).copy() for k, v in N.offsets.items()}
    five = [(r, min(r + 5, grid48.nt - 1)) for r in range(1, grid48.nt - 1, 5)]
    for op, blocks in ((N, [(1, grid48.nt - 1)]), (gh.HyperbolicOperator(tilted, whole), five),
                       (gh.wave_operator(_warped_along_x(grid48.nt, grid48.nx)), five)):
        seen.clear()
        op.check_symbol()
        assert seen == blocks


def _rolled_stencil_apply(offsets, u, rows):
    """Reference stencil action: one np.roll of the source levels per x offset."""
    nt = u.shape[-2]
    lo, hi = rows
    out = np.zeros_like(u)
    for (a, b), C in offsets.items():
        n0, n1 = max(lo, -a), min(hi, nt - a)
        if n0 >= n1:
            continue
        src = u[..., n0 + a:n1 + a, :]
        out[..., n0:n1, :] += C[n0:n1] * (np.roll(src, -b, axis=-1) if b else src)
    return out


@pytest.mark.parametrize("name", ["tilted-warp"])
def test_stencil_rows_equal_operator_rows(name):
    # the stencil on rows lo..hi-1 is those rows of the full action, zero
    # elsewhere; its neighbours, read from one halo copy, give the rolled
    # reference bitwise, on ranges touching level 0 and level nt - 1 alike
    N = _level_operator(name)
    g = N.grid
    u = np.random.default_rng(37).standard_normal((2, g.nt, g.nx))
    full = N.apply(u)
    for lo, hi in ((0, g.nt), (0, 1), (0, 3), (4, 9), (g.nt - 2, g.nt), (g.nt - 1, g.nt),
                   (5, 5), (0, 0)):
        part = gh.stencil_apply(N.offsets, u, (lo, hi))
        assert np.array_equal(part[:, lo:hi], full[:, lo:hi])
        assert not part[:, :lo].any() and not part[:, hi:].any()
        assert np.array_equal(part, _rolled_stencil_apply(N.offsets, u, (lo, hi)))
        assert np.array_equal(gh.stencil_apply(N.offsets, u[0], (lo, hi)),
                              _rolled_stencil_apply(N.offsets, u[0], (lo, hi)))


@pytest.mark.parametrize("name", ["minkowski", "tilted-warp"])
def test_singular_level_raises_naming_the_level(name):
    if name == "tilted-warp":
        N = gh.wave_operator(_tilted_warp(24, 12), 1.0)
    else:
        g = make_grid(24, 12, 0.0, 0.5, 1.0)
        N = gh.build_operator(geo.metric_preset("minkowski", g), B=1.0)
    offsets = {k: v.copy() for k, v in N.offsets.items()}
    for (a, b), C in offsets.items():
        if a == 1:
            C[7] = 0.0  # row 7 no longer reaches level 8
    bad = gh.HyperbolicOperator(N.metric, offsets)
    f = np.zeros((N.grid.nt, N.grid.nx))
    with pytest.raises(np.linalg.LinAlgError, match="the level-7 system of the march is singular"):
        bad.march(f, 1)
    assert np.max(np.abs(bad.march(f, -1))) == 0.0  # the backward march never solves row 7 for level 8


def test_green_plus_inverts_operator_at_fine_grid():
    N = gh.wave_operator(_tilted_warp(512, 256), 1.0)
    g = N.grid
    rng = np.random.default_rng(33)
    f = np.zeros((g.nt, g.nx))
    f[2:-2] = rng.standard_normal((g.nt - 4, g.nx))
    u = gh.GreenSystem(N).plus(f)
    assert N.interior_residual(u, f) <= 1e-10 * np.max(np.abs(f))  # N G+ = 1
    h = window_section(g, rng, 3, g.nt - 3, smooth=2).values
    Nh = N.apply(h)
    Nh[0] = Nh[-1] = 0.0
    rec = gh.GreenSystem(N).plus(Nh)
    assert np.max(np.abs(rec - h)) <= 1e-10 * np.max(np.abs(h))  # G+ N = 1


# -- storage at the resolution a field varies at --------------------------------------

def _storage_metric(case, g):
    if case == "warped-along-x":
        return _warped_along_x(g.nt, g.nx)
    params = {"conformal": {"mu": 2.0}, "tilted": {"deg": 12.0}, "ultrastatic": {"h": 0.7}}
    return geo.metric_preset(case, g, **params.get(case, {}))


def _storage_results(case):
    """Everything the storage may touch, computed for one metric of 48x16."""
    g = make_grid(48, 16, 0.0, 0.5, 1.0)
    m = _storage_metric(case, g)
    N = gh.wave_operator(m, 1.0)
    L = gh.build_operator(m, A0=0.2, A1=0.3, B=1.0)  # not self-adjoint
    rng = np.random.default_rng(41)
    F = np.zeros((23, g.nt, g.nx))
    F[:, 2:-2] = rng.standard_normal((23, g.nt - 4, g.nx))
    h1, h2 = rng.standard_normal((2, g.nx))
    out = {"offsets": list(N.offsets.items()), "L offsets": list(L.offsets.items()),
           "adjoint": list(L.adjoint_offsets().items()),
           "defects": [N.v_symmetry_defect(), L.v_symmetry_defect()]}
    messages = []
    bent = dict(N.offsets)
    bent[(1, 0)] = N.offsets[(1, 0)].copy()
    bent[(1, 0)][17] += 0.05 * np.max(np.abs(N.offsets[(1, 0)]))  # the whole level
    wide = {**N.offsets, **{(0, b): 1.1 * N.offsets[(0, b)] for b in (-1, 1)}}  # g^xx, everywhere
    for check in (N.check_symbol, gh.HyperbolicOperator(m, bent).check_symbol,
                  gh.HyperbolicOperator(m, wide).check_symbol):
        try:
            check()
            messages.append(None)
        except gh.SymbolMismatch as e:
            messages.append(str(e))
    assert messages[0] is None and messages[1] and messages[2]
    out["messages"] = messages
    out["marches"] = [N.march(f, d, rows=rows) for f in (F[0], F) for d in (1, -1)
                      for rows in (None, (13, 37))]
    psi, phi = gh.solve_cauchy(N, 5, h1, h2).values, gh.solve_cauchy(N, 7, h2, h1).values
    out["cauchy"] = [psi, phi]
    out["flux"] = gh.symplectic_form(N, psi, phi, [3, 24, 40])
    out["pairing"] = [N.pairing(F, F[::-1]), N.pairing(F[:, None], F[:4])]
    m2 = geo.MetricField(g, *(1.5 * c for c in m.stored[:3]), *m.stored[3:])
    R = mo.compose_chain(geo.ParacausalChain([m, m2], [geo.ParacausalChain.FWD]))
    out["moller"] = R.apply(F[:5])
    return out, N


def _bits(a, shape=None):
    a = np.asarray(a, dtype=float)
    return np.ascontiguousarray(np.broadcast_to(a, a.shape if shape is None else shape)).view(np.uint64)


@pytest.mark.parametrize("case", ["minkowski", "conformal", "warped", "tilted", "ultrastatic",
                                  "warped-along-x"])
def test_compact_storage_equals_whole_fields_bitwise(monkeypatch, case):
    # with the x-constancy test switched off every metric and operator keeps
    # whole fields, as before per-level storage; the results are the same bits
    compact, N = _storage_results(case)
    levels = (48, 16) if case == "warped-along-x" else (48, 1)
    assert all(C.shape == levels for C in N.offsets.values())
    assert N.vol.shape == N.weight.shape == levels
    monkeypatch.setattr(geo, "_constant_along_x", lambda c: False)
    whole, N = _storage_results(case)
    assert all(C.shape == (48, 16) for C in N.offsets.values())
    assert compact.keys() == whole.keys()
    for name in compact:
        a, b = compact[name], whole[name]
        if name == "messages":
            assert a == b
            continue
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            if isinstance(x, tuple):  # (key, offset): the key order too
                assert x[0] == y[0], name
                x, y = x[1], y[1]
            y = np.asarray(y)
            assert np.array_equal(_bits(x, y.shape), _bits(y)), name


def test_constant_along_x_is_a_bitwise_test():
    g = make_grid(8, 4, 0.0, 0.5, 1.0)
    col = np.linspace(1.0, 2.0, g.nt)[:, None]
    assert geo.stored_field(g, np.repeat(col, g.nx, axis=1)).shape == (g.nt, 1)
    assert geo.stored_field(g, 0.0).shape == (g.nt, 1)
    signed = np.zeros((g.nt, g.nx))
    signed[3, 2] = -0.0  # equal to 0.0, but not the same bits
    kept = geo.stored_field(g, signed)
    assert kept.shape == (g.nt, g.nx) and np.signbit(kept[3, 2])
    m = geo.MetricField(g, -1.0, signed, 1.0, 1.0, 0.0)
    assert m.stored[1].shape == (g.nt, g.nx) and m.stored[0].shape == (g.nt, 1)
    assert m.g_tt.shape == (g.nt, g.nx) and not m.g_tt.flags.writeable
    with pytest.raises(ValueError, match=r"field shape \(4,\) does not match grid"):
        geo.MetricField(g, -1.0, 0.0, np.ones(g.nx), 1.0, 0.0)


def test_into_writes_into_A_exactly_when_the_broadcast_shape_is_As():
    # A is written in place when broadcasting B against it gives A's shape,
    # and a new array is made otherwise; either way the values are ufunc(A, B)
    shapes = [(), (1,), (5,), (4, 1), (1, 5), (4, 5), (3, 4, 5), (3, 1, 1), (2, 4, 5)]
    for sa in shapes[1:]:
        for sb in shapes:
            try:
                into = np.broadcast_shapes(sa, sb) == sa
            except ValueError:
                continue  # shapes that do not broadcast are the ufunc's to refuse
            A, B = np.full(sa, 2.0), np.full(sb, 3.0)
            out = gh._into(np.subtract, A, B)
            assert (out is A) == into, (sa, sb)
            assert np.array_equal(out, np.full(np.broadcast_shapes(sa, sb), -1.0))
    A = np.ones((4, 1))
    assert gh._into(np.add, A, 2.0) is A and A[0, 0] == 3.0  # a Python scalar too


def test_build_operator_reads_a_given_principal_stencil_without_writing_it(grid48):
    # lower-order terms of every kind, added to a principal stencil the
    # caller built, give the offsets of a build from the metric alone, bit
    # for bit, and leave the caller's stencil as it was
    met = geo.metric_preset("tilted", grid48, deg=12.0)
    rng = np.random.default_rng(9)
    terms = dict(A0=rng.standard_normal((grid48.nt, 1)), A1=rng.standard_normal((1, grid48.nx)), B=2.25)
    P = gh.principal_offsets(met)
    before = {k: C.copy() for k, C in P.items()}
    shared, own = gh.build_operator(met, principal=P, **terms), gh.build_operator(met, **terms)
    assert shared.offsets.keys() == own.offsets.keys()
    assert all(np.array_equal(_bits(shared.offsets[k]), _bits(own.offsets[k])) for k in own.offsets)
    assert P.keys() == before.keys() and all(np.array_equal(_bits(P[k]), _bits(before[k])) for k in P)
