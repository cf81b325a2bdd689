import numpy as np
import pytest

from moellerlab import cli
from moellerlab import geometry as geo
from moellerlab.lattice import ScalarField, make_grid
from moellerlab.suites import random_comparable_pair, random_metric


@pytest.fixture
def g8():
    return make_grid(8, 8, 0.0, 1.0, 1.0)


def diag_metric(grid, tt, xx, ot=1.0, ox=0.0):
    return geo.MetricField(grid, tt, 0.0, xx, ot, ox)


# -- classification ----------------------------------------------------------

def test_classify_minkowski(g8):
    mink = geo.metric_preset("minkowski", g8)
    assert geo.classify_vector(mink, (0, 0), (1.0, 0.0)) == "timelike-future"
    assert geo.classify_vector(mink, (0, 0), (-1.0, 0.0)) == "timelike-past"
    assert geo.classify_vector(mink, (0, 0), (0.0, 1.0)) == "spacelike"
    assert geo.classify_vector(mink, (0, 0), (1.0, 1.0)) == "null-future"
    assert geo.classify_vector(mink, (0, 0), (-1.0, 1.0)) == "null-past"
    assert geo.classify_vector(mink, (0, 0), (0.0, 0.0)) == "spacelike"  # zero vector convention


def test_classify_rotated(g8):
    rot = geo.metric_preset("rotated-minkowski", g8)
    assert geo.classify_vector(rot, (0, 0), (1.0, 0.0)) == "spacelike"
    assert geo.classify_vector(rot, (0, 0), (0.0, 1.0)) == "timelike-future"


# -- musical maps --------------------------------------------------------------

def test_sharp_of_dt_minkowski(g8):
    mink = geo.metric_preset("minkowski", g8)
    v = geo.musical_sharp(mink, (0, 0), (1.0, 0.0))
    assert np.allclose(v, [-1.0, 0.0], atol=0)


def test_flat_sharp_roundtrip(g8):
    rng = np.random.default_rng(0)
    g = random_metric(g8, rng)
    worst = 0.0
    for _ in range(100):
        w = rng.standard_normal(2)
        back = geo.musical_flat(g, (2, 3), geo.musical_sharp(g, (2, 3), w))
        worst = max(worst, float(np.max(np.abs(back - w))))
    assert worst <= 1e-12


def test_inverse_metric_matches_adjugate(g8):
    rng = np.random.default_rng(1)
    g = random_metric(g8, rng, per_point=True)
    inv = geo.inverse_metric(g)
    # adjugate-formula oracle
    det = g.g_tt * g.g_xx - g.g_tx**2
    assert np.allclose(inv[..., 0, 0], g.g_xx / det, rtol=1e-13)
    assert np.allclose(inv[..., 0, 1], -g.g_tx / det, rtol=1e-13)
    assert np.allclose(inv[..., 1, 1], g.g_tt / det, rtol=1e-13)


# -- cone inclusion -------------------------------------------------------------

def angular_inclusion_oracle(g, gp, n, j, samples=3600):
    """Dense direction scan: every g-timelike direction is g'-timelike."""
    th = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    vt, vx = np.cos(th), np.sin(th)
    qg = g.g_tt[n, j] * vt**2 + 2 * g.g_tx[n, j] * vt * vx + g.g_xx[n, j] * vx**2
    qgp = gp.g_tt[n, j] * vt**2 + 2 * gp.g_tx[n, j] * vt * vx + gp.g_xx[n, j] * vx**2
    inside = qg < -1e-9
    return bool(np.all(qgp[inside] < 0.0))


def test_cone_inclusion_reflexive(g8):
    rng = np.random.default_rng(2)
    g = random_metric(g8, rng, per_point=True)
    assert geo.cone_inclusion(g, g)


def test_cone_inclusion_wider_lightspeed(g8):
    g = diag_metric(g8, -1.0, 1.0)
    wider = diag_metric(g8, -4.0, 1.0)  # null slopes +-2
    assert geo.cone_inclusion(g, wider)
    assert not geo.cone_inclusion(wider, g)


def test_cone_inclusion_rotated_disjoint(g8):
    mink = geo.metric_preset("minkowski", g8)
    rot = geo.metric_preset("rotated-minkowski", g8)
    assert not geo.cone_inclusion(mink, rot)
    assert not geo.cone_inclusion(rot, mink)


def test_cone_inclusion_against_angular_oracle(g8):
    rng = np.random.default_rng(3)
    agree = 0
    for _ in range(50):
        glo, ghi = random_comparable_pair(g8, rng)
        a = random_metric(g8, rng)
        for pair in ((glo, ghi), (ghi, glo), (glo, a), (a, ghi)):
            got = geo.cone_inclusion(*pair, p=(3, 4))
            want = angular_inclusion_oracle(*pair, 3, 4)
            assert got == want
            agree += 1
    assert agree == 200


def test_preceq_conformal_both_ways(g8):
    rng = np.random.default_rng(4)
    g = random_metric(g8, rng)
    mu = rng.uniform(0.2, 5.0, (g8.nt, g8.nx))
    gm = geo.MetricField(g8, mu * g.g_tt, mu * g.g_tx, mu * g.g_xx, g.orient_t, g.orient_x)
    assert geo.preceq(g, gm) is geo.ALIGNED
    assert geo.preceq(gm, g) is geo.ALIGNED


def test_preceq_orientation_reversal(g8):
    mink = geo.metric_preset("minkowski", g8)
    assert geo.preceq(mink, mink.time_reversed()) is geo.REVERSED


def test_preceq_one_way(g8):
    g = diag_metric(g8, -1.0, 1.0)
    narrow = diag_metric(g8, -1.0, 4.0)  # null slopes +-1/2
    assert geo.preceq(narrow, g) is geo.ALIGNED
    assert geo.preceq(g, narrow) is False


def test_cone_inclusion_antisymmetric_up_to_equality(g8):
    # mutual inclusion forces equal null slopes (cones coincide)
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = random_metric(g8, rng, per_point=True)
        mu = np.exp(rng.uniform(-1, 1, (g8.nt, g8.nx)))
        gm = geo.MetricField(g8, mu * g.g_tt, mu * g.g_tx, mu * g.g_xx,
                             g.orient_t, g.orient_x)
        assert geo.cone_inclusion(g, gm) and geo.cone_inclusion(gm, g)
        lo1, hi1 = g.null_slopes()
        lo2, hi2 = gm.null_slopes()
        assert np.max(np.abs(lo1 - lo2)) < 1e-10 and np.max(np.abs(hi1 - hi2)) < 1e-10
        narrow = geo.squeeze_metric(g, (g.orient_t, g.orient_x), 0.8)
        assert geo.cone_inclusion(narrow, g) and not geo.cone_inclusion(g, narrow)


# (g_tt, g_tx, g_xx, orient_t, orient_x) at points of the bundled cone scan
# where g_xx is small against g_tx (g_tx^2 / |g_tt g_xx| ~ 1e4): the textbook
# quadratic formula loses about 4 digits of the small null slope there, and
# the cone was not inside itself, nor inside a conformal rescaling of itself
SMALL_GXX_POINTS = [
    (-0.5817801861512967, 0.9701967923502683, 8.273891828446081e-05, 0.8022569196310917, -0.596978923333171),
    (-0.9404816562312663, 0.7958203544734311, 8.073872711449281e-05, 0.868547156873533, -0.49560653374113456),
    (-0.34320745627271126, 0.8000340398807538, 0.00010293373863414899, 0.7777484692874475, -0.6285756267316069),
]


@pytest.mark.parametrize("point", SMALL_GXX_POINTS)
def test_cone_inclusion_holds_where_g_xx_is_small(g8, point):
    g = geo.MetricField(g8, *point)
    assert geo.cone_inclusion(g, g)
    for mu in (0.37, 1.974643670557583, 2.7):
        gm = geo.MetricField(g8, mu * g.g_tt, mu * g.g_tx, mu * g.g_xx, g.orient_t, g.orient_x)
        assert geo.preceq(g, gm) is geo.ALIGNED and geo.preceq(gm, g) is geo.ALIGNED
    center, halfwidth = geo.future_arcs(g)
    for th in (center - halfwidth, center + halfwidth):  # the boundary rays are null to round-off
        assert np.all(np.abs(g.quad(np.cos(th), np.sin(th))) <= 1e-15 * g.scale())


def _exact_quad(point, s):
    """g(v, v) along the unit direction v of (1, s), in exact rational arithmetic of the floats given."""
    from fractions import Fraction

    a, b, c = (Fraction(float(x)) for x in point[:3])
    s = Fraction(float(s))
    return float((a + 2 * b * s + c * s * s) / (1 + s * s))


@pytest.mark.parametrize("point", SMALL_GXX_POINTS)
def test_null_slopes_are_null_where_g_xx_is_small(g8, point):
    # both roots are null to round-off, the small one included (1.3e-12 at
    # the first point from (-g_tx + sqrt(...)) / g_xx); the larger-modulus
    # root, the only one the CFL bound reads, is that formula's bit for bit
    g = geo.MetricField(g8, *point)
    lo, hi = (float(np.ravel(r)[0]) for r in g.null_slopes())
    scale = float(np.max(g.scale()))
    for s in (lo, hi):
        assert abs(_exact_quad(point, s)) <= 1e-15 * scale, s
    g_tt, g_tx, g_xx = point[:3]
    disc = np.sqrt(g_tx**2 - g_tt * g_xx)
    textbook = ((-g_tx - disc) / g_xx, (-g_tx + disc) / g_xx)
    big = max(textbook, key=abs)
    assert big in (lo, hi) and float(np.ravel(g.null_speed())[0]) == abs(big)


def test_null_slopes_keep_the_finite_root_where_g_xx_is_zero(g8):
    # with g_xx = 0 the spatial axis is null: one slope is infinite and the
    # other is the root -g_tt / (2 g_tx) of the linear equation
    for g_tx in (0.75, -0.75):
        g = geo.MetricField(g8, -0.5, g_tx, 0.0, 1.0, 0.0)
        lo, hi = (np.ravel(r) for r in g.null_slopes())
        finite = hi if g_tx > 0 else lo
        assert np.all(finite == 0.5 / (2 * g_tx)) and np.all(np.isinf(lo if g_tx > 0 else hi))
        assert np.all(np.isinf(g.null_speed()))


@pytest.mark.parametrize("seed", [73, 277, 341, 353, 450, 452, 693, 739, 829, 1002, 1003, 1047,
                                  1056, 1185])
def test_cone_suite_passes_at_small_g_xx_seeds(seed):
    # the self-test's cone scan at the config seeds whose pairs reach such points
    report = cli.run_scenario({"seed": seed, "suites": ["cones"], "cones": {"pairs": 200}})
    assert report["pass"], [c["law"] for c in report["suites"]["cones"]["checks"] if not c["pass"]]


def test_preceq_transitive_on_random_triples(g8):
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_metric(g8, rng)
        a1 = ScalarField(g8, rng.uniform(0.3, 0.9, (g8.nt, g8.nx)))
        a2 = ScalarField(g8, rng.uniform(0.3, 0.9, (g8.nt, g8.nx)))
        g1 = geo.squeeze_metric(g, (g.orient_t, g.orient_x), a1)
        g2 = geo.squeeze_metric(g1, (g1.orient_t, g1.orient_x), a2)
        assert geo.preceq(g2, g1) is geo.ALIGNED
        assert geo.preceq(g1, g) is geo.ALIGNED
        assert geo.preceq(g2, g) is geo.ALIGNED


def test_preceq_inverse_metric_duality(g8):
    # cone order reverses on the inverse quadratics
    rng = np.random.default_rng(6)
    from moellerlab.suites import _cotangent_inclusion
    for _ in range(200):
        glo, ghi = random_comparable_pair(g8, rng, per_point=True)
        assert geo.cone_inclusion(glo, ghi)
        assert _cotangent_inclusion(ghi, glo)


# -- blends ----------------------------------------------------------------------

def test_convex_combination_endpoints_exact(g8):
    rng = np.random.default_rng(7)
    glo, ghi = random_comparable_pair(g8, rng)
    blend0 = geo.convex_combination(glo, ghi, ScalarField.constant(g8, 0.0))
    blend1 = geo.convex_combination(glo, ghi, ScalarField.constant(g8, 1.0))
    assert np.array_equal(blend0.g_tt, glo.g_tt) and np.array_equal(blend0.g_xx, glo.g_xx)
    assert np.array_equal(blend1.g_tt, ghi.g_tt) and np.array_equal(blend1.g_xx, ghi.g_xx)


def test_convex_combination_requires_comparability(g8):
    mink = geo.metric_preset("minkowski", g8)
    rot = geo.metric_preset("rotated-minkowski", g8)
    with pytest.raises(ValueError):
        geo.convex_combination(mink, rot, ScalarField.constant(g8, 0.5))
    with pytest.raises(ValueError):
        geo.sharp_interpolation(mink, rot, ScalarField.constant(g8, 0.5))


def test_sharp_interpolation_conformal_hand_value(g8):
    # g' = 4g at chi = 1/2 blends the inverses 1 and 1/4 to 5/8: metric (8/5) g
    g = geo.metric_preset("minkowski", g8)
    g4 = diag_metric(g8, -4.0, 4.0)
    gs = geo.sharp_interpolation(g, g4, ScalarField.constant(g8, 0.5))
    assert np.allclose(gs.g_tt, -1.6, rtol=1e-14)
    assert np.allclose(gs.g_xx, 1.6, rtol=1e-14)


def test_sharp_interpolation_is_inverse_blend(g8):
    rng = np.random.default_rng(8)
    glo, ghi = random_comparable_pair(g8, rng, per_point=True)
    chi = ScalarField(g8, rng.uniform(0, 1, (g8.nt, g8.nx)))
    gs = geo.sharp_interpolation(glo, ghi, chi)
    w = chi.values
    want = [(1 - w) * a + w * b for a, b in zip(
        glo.inverse_components(), ghi.inverse_components())]
    got = gs.inverse_components()
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(1 + np.abs(b))


def test_blend_sandwich_scan(g8):
    rng = np.random.default_rng(9)
    glo, ghi = random_comparable_pair(g8, rng, per_point=True)
    for c in (0.25, 0.5, 0.75):
        chi = ScalarField.constant(g8, c)
        for blend in (geo.convex_combination(glo, ghi, chi),
                      geo.sharp_interpolation(glo, ghi, chi)):
            assert np.max(blend.det()) < 0.0
            assert geo.preceq(glo, blend) is geo.ALIGNED
            assert geo.preceq(blend, ghi) is geo.ALIGNED


# -- squeezing --------------------------------------------------------------------

def test_squeeze_identity_at_one(g8):
    g = geo.metric_preset("minkowski", g8)
    sq = geo.squeeze_metric(g, (1.0, 0.0), 1.0)
    assert np.array_equal(sq.g_tt, g.g_tt) and np.array_equal(sq.g_xx, g.g_xx)


def test_squeeze_quarter_null_slopes(g8):
    # slope oracle: diag(-1/4, 1) has null slopes +-1/2
    g = geo.metric_preset("minkowski", g8)
    sq = geo.squeeze_metric(g, (1.0, 0.0), 0.25)
    assert np.allclose(sq.g_tt, -0.25) and np.allclose(sq.g_xx, 1.0)
    lo, hi = sq.null_slopes()
    assert np.allclose(lo, -0.5) and np.allclose(hi, 0.5)


def test_squeeze_out_of_range(g8):
    g = geo.metric_preset("minkowski", g8)
    with pytest.raises(ValueError):
        geo.squeeze_metric(g, (1.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        geo.squeeze_metric(g, (0.0, 1.0), 0.5)  # spacelike axis


def test_squeeze_strict_and_monotone(g8):
    rng = np.random.default_rng(10)
    for _ in range(20):
        g = random_metric(g8, rng)
        X = (g.orient_t, g.orient_x)
        s1 = geo.squeeze_metric(g, X, 0.4)
        s2 = geo.squeeze_metric(g, X, 0.9)
        assert geo.cone_inclusion(s1, s2)
        assert geo.cone_inclusion(s2, g)


# -- overlap witnesses and chains ---------------------------------------------------

def test_cones_intersect_self(g8):
    g = geo.metric_preset("minkowski", g8)
    X, bad = geo.cones_intersect_future(g, g)
    assert bad is None
    assert np.max(np.abs(X[0] - 1.0)) < 1e-12  # bisector is the orientation


def test_cones_disjoint_rotated(g8):
    mink = geo.metric_preset("minkowski", g8)
    rot = geo.metric_preset("rotated-minkowski", g8)
    X, bad = geo.cones_intersect_future(mink, rot)
    assert X is None and bad == (0, 0)


def test_cones_intersect_nested(g8):
    g = diag_metric(g8, -1.0, 1.0)
    wide = diag_metric(g8, -1.0, 0.25)  # slopes +-2
    X, bad = geo.cones_intersect_future(g, wide)
    assert bad is None
    # interval-overlap oracle: the witness is timelike for both
    assert np.max(g.quad(X[0], X[1])) < 0.0
    assert np.max(wide.quad(X[0], X[1])) < 0.0


def test_paracausal_witness_self(g8):
    g = geo.metric_preset("minkowski", g8)
    h = geo.paracausal_witness(g, g)
    assert h is not None
    assert geo.preceq(h, g) is geo.ALIGNED


def test_paracausal_witness_sheared_pair(g8):
    t1 = geo.metric_preset("tilted", g8, deg=15.0)
    t2 = geo.metric_preset("tilted", g8, deg=-20.0)
    h = geo.paracausal_witness(t1, t2)
    assert h is not None
    assert geo.preceq(h, t1) is geo.ALIGNED and geo.preceq(h, t2) is geo.ALIGNED


def test_paracausal_witness_disjoint_none(g8):
    mink = geo.metric_preset("minkowski", g8)
    rot = geo.metric_preset("rotated-minkowski", g8)
    assert geo.paracausal_witness(mink, rot) is None


def test_build_chain_rotated_four(g8):
    mink = geo.metric_preset("minkowski", g8)
    rot = geo.metric_preset("rotated-minkowski", g8)
    chain = geo.build_chain(mink, rot)
    assert isinstance(chain, geo.ParacausalChain)
    assert len(chain) <= 4
    chain.validate()
    back = geo.build_chain(rot, mink)
    assert isinstance(back, geo.ParacausalChain)


def test_build_chain_reversed_certificate(g8):
    mink = geo.metric_preset("minkowski", g8)
    out = geo.build_chain(mink, mink.time_reversed())
    assert isinstance(out, geo.ChainObstruction)
    assert out.reason == "orientation-reversal"
    out2 = geo.build_chain(mink.time_reversed(), mink)
    assert isinstance(out2, geo.ChainObstruction)


def test_build_chain_conformal_length_two(g8):
    g = geo.metric_preset("minkowski", g8)
    mu = geo.metric_preset("conformal", g8, mu=3.0)
    chain = geo.build_chain(g, mu)
    assert isinstance(chain, geo.ParacausalChain) and len(chain) == 2


def test_build_chain_shared_time_route(g8):
    # disjoint tilted cones with spacelike slices go through the flat middle
    t1 = geo.metric_preset("tilted", g8, deg=38.0)
    sq = geo.squeeze_metric(t1, (t1.orient_t, t1.orient_x), 0.05)
    t2 = geo.metric_preset("tilted", g8, deg=-38.0)
    sq2 = geo.squeeze_metric(t2, (t2.orient_t, t2.orient_x), 0.05)
    X, _ = geo.cones_intersect_future(sq, sq2)
    chain = geo.build_chain(sq, sq2)
    assert isinstance(chain, geo.ParacausalChain)
    chain.validate()


def test_chain_invariants_self_validating(g8):
    mink = geo.metric_preset("minkowski", g8)
    wide = diag_metric(g8, -4.0, 1.0)
    with pytest.raises(ValueError):
        geo.ParacausalChain([wide, mink], [geo.ParacausalChain.FWD])


# -- time-function tools --------------------------------------------------------------

def test_alpha_rescale_identity(g8):
    u = geo.metric_preset("ultrastatic", g8, h=1.7)
    out = geo.alpha_rescale(u, np.ones(g8.nt))
    assert np.array_equal(out.g_xx, u.g_xx)
    assert np.array_equal(out.g_tt, u.g_tt)


def test_alpha_rescale_requires_orthogonal(g8):
    t1 = geo.metric_preset("tilted", g8, deg=15.0)
    with pytest.raises(ValueError):
        geo.alpha_rescale(t1, np.ones(g8.nt))


def test_tune_alpha_makes_cones_meet(g8):
    u1 = geo.metric_preset("ultrastatic", g8, h=1.0)
    boosted = geo.metric_preset("tilted", g8, deg=35.0)
    alpha = geo.tune_alpha(u1, boosted)
    ua = geo.alpha_rescale(u1, alpha)
    X, bad = geo.cones_intersect_future(ua, boosted)
    assert bad is None


def test_tune_alpha_respects_strip_bound(g8):
    u1 = geo.metric_preset("ultrastatic", g8, h=1.0)
    boosted = geo.metric_preset("tilted", g8, deg=35.0)
    alpha = geo.tune_alpha(u1, boosted)
    itt, itx, _ = boosted.inverse_components()
    nt = itt / np.sqrt(-itt)
    nx = itx / np.sqrt(-itt)
    f = (nx / nt) ** 2
    # mollification never dips below the per-level requirement
    assert np.all(1.0 / alpha.values >= f.max(axis=1)[:, None] + 1.0 - 1e-12)


def test_tune_alpha_rejects_timelike_slices(g8):
    u1 = geo.metric_preset("ultrastatic", g8, h=1.0)
    rot = geo.metric_preset("rotated-minkowski", g8)
    with pytest.raises(ValueError):
        geo.tune_alpha(u1, rot)


# -- causal sets --------------------------------------------------------------------

def test_causal_future_diamond():
    g = make_grid(16, 16, 0.0, 0.4, 1.0)
    mink = geo.metric_preset("minkowski", g)
    reach = geo.causal_future(mink, [(3, 8)])
    for n in range(3, g.nt):
        for j in range(g.nx):
            dxs = min((j - 8) % g.nx, (8 - j) % g.nx) * g.dx
            steps = n - 3
            # true cone is always reached; reach stays within the cone
            # dilated by the per-step stencil-cell tolerance
            if dxs <= steps * g.dt:
                assert reach[n, j]
            if reach[n, j]:
                assert dxs <= steps * (g.dt + 2 * g.dx) + 1e-12


def _causal_future_loop(g, points):
    """Reference causal_future: the site-by-site sweeps, one stencil cell of tolerance."""
    grid = g.grid
    lo, hi, t_forward, t_backward, sp, sm = (np.broadcast_to(c, (grid.nt, grid.nx))
                                             for c in geo._cone_step_data(g))
    reach = np.zeros((grid.nt, grid.nx), dtype=bool)
    for (n, j) in points:
        reach[n, j] = True
    for _ in range(grid.nt * 2):
        before = reach.copy()
        for _ in range(grid.nx):
            new = (np.roll(reach & sp, 1, axis=1) | np.roll(reach & sm, -1, axis=1)) & ~reach
            if not new.any():
                break
            reach |= new
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


def _random_arcs(grid, rng, per_point):
    """Cones of any direction and width: forward, backward and spatial ones."""
    shape = (grid.nt, grid.nx) if per_point else (grid.nt, 1)
    center = rng.uniform(-np.pi, np.pi, shape)
    return geo.metric_from_arcs(grid, center, rng.uniform(0.1, 1.45, shape))


_CAUSAL_CASES = [("minkowski", {}), ("tilted", {"deg": 30.0}), ("tilted", {"deg": -30.0}),
                 ("rotated-minkowski", {}), ("time-reversed", {}),
                 ("time-reversed", {"inner": "tilted", "deg": 20.0}), ("conformal", {}),
                 ("warped", {}), ("squeezed", {}), ("random", {}), ("per-point", {}),
                 ("reversed-per-point", {}), ("suite-random", {})]


@pytest.mark.parametrize("shape", [(16, 16), (12, 20), (20, 8)])
@pytest.mark.parametrize("name, params", _CAUSAL_CASES)
def test_causal_future_equals_site_loop(shape, name, params):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    g = make_grid(*shape, 0.0, 0.4 * shape[0] / 16, 1.0)
    if name in ("random", "per-point", "reversed-per-point"):
        m = _random_arcs(g, rng, per_point=name != "random")
        m = m.time_reversed() if name.startswith("reversed") else m
    elif name == "suite-random":
        m = random_metric(g, rng, per_point=True)
    else:
        m = geo.metric_preset(name, g, **params)
    for _ in range(3):
        seeds = [(int(rng.integers(g.nt)), int(rng.integers(g.nx))) for _ in range(int(rng.integers(1, 4)))]
        assert np.array_equal(geo.causal_future(m, seeds), _causal_future_loop(m, seeds)), seeds


@pytest.mark.parametrize("seed", [(-1, 3), (16, 0), (3, 8), (0, -1)])
def test_causal_future_rejects_a_seed_outside_the_window(seed):
    g = make_grid(16, 8, 0.0, 0.4, 1.0)
    with pytest.raises(ValueError, match=rf"seed \({seed[0]}, {seed[1]}\) lies outside"):
        geo.causal_future(geo.metric_preset("minkowski", g), [(2, 2), seed])


def test_closed_causal_of_rotation_intermediate(g8):
    rot = geo.metric_preset("rotated-minkowski", g8)
    assert geo.closed_causal_exists(rot)
    assert not geo.closed_causal_exists(geo.metric_preset("minkowski", g8))


def test_causal_future_time_reversed_marches_backward():
    g = make_grid(16, 16, 0.0, 0.4, 1.0)
    rev = geo.metric_preset("time-reversed", g, inner="minkowski")
    reach = geo.causal_future(rev, [(10, 8)])
    assert not reach[11:].any()          # nothing above the seed
    assert reach[9, 8] and reach[9, 7] and reach[9, 9]
    assert reach[:10].sum() > 0


def test_narrow_cone_future_inside_flat(g8):
    mink = geo.metric_preset("minkowski", g8)
    narrow = geo.squeeze_metric(mink, (1.0, 0.0), 0.25)
    r_narrow = geo.causal_future(narrow, [(2, 3)])
    r_flat = geo.causal_future(mink, [(2, 3)])
    assert np.all(~r_narrow | r_flat)


# -- presets / serialization -----------------------------------------------------------

def test_metric_presets(g8):
    for name in ("minkowski", "rotated-minkowski", "conformal", "warped",
                 "ultrastatic", "squeezed", "tilted", "time-reversed"):
        m = geo.metric_preset(name, g8)
        assert np.max(m.det()) < 0
    with pytest.raises(ValueError):
        geo.metric_preset("nope", g8)


def test_cone_data(g8):
    # the rotated cone holds the spatial axis (g_xx < 0), its null slopes are -1 and 1
    rot = geo.metric_preset("rotated-minkowski", g8)
    lo, hi = rot.null_slopes()
    assert rot.g_xx[0, 0] < 0.0
    assert lo[0, 0] == pytest.approx(-1.0)
    assert hi[0, 0] == pytest.approx(1.0)


def test_degenerate_metric_rejected(g8):
    with pytest.raises(ValueError, match="Lorentzian"):
        geo.MetricField(g8, 1e-12, 0.0, 1e-12, 1.0, 0.0)
