import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moellerlab import cli
from moellerlab import geometry as geo
from moellerlab.lattice import make_grid
from moellerlab.suites import random_comparable_pair, random_metric, read_scenario


@pytest.fixture
def g8():
    return make_grid(8, 8, 0.0, 1.0, 1.0)


def diag_metric(grid, tt, xx, ot=1.0, ox=0.0):
    return geo.MetricField(grid, tt, 0.0, xx, ot, ox)


# -- inverse metric --------------------------------------------------------------

def test_inverse_metric_matches_adjugate(g8):
    rng = np.random.default_rng(1)
    g = random_metric(g8, rng, per_point=True)
    itt, itx, ixx = g.inverse_components()
    # adjugate-formula oracle
    det = g.g_tt * g.g_xx - g.g_tx**2
    assert np.allclose(itt, g.g_xx / det, rtol=1e-13)
    assert np.allclose(itx, -g.g_tx / det, rtol=1e-13)
    assert np.allclose(ixx, g.g_tt / det, rtol=1e-13)


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


def test_future_arcs_are_computed_once_per_metric(g8, monkeypatch):
    computed = []
    compute = geo._arcs_of
    monkeypatch.setattr(geo, "_arcs_of", lambda m: computed.append(m) or compute(m))
    glo, g = random_comparable_pair(g8, np.random.default_rng(4), per_point=True)
    center, halfwidth = geo.future_arcs(glo)
    for _ in range(3):  # each preceq reads the arcs of its first metric
        assert geo.preceq(glo, g) is geo.ALIGNED
    again = geo.future_arcs(glo)
    assert computed == [glo] and again[0] is center and again[1] is halfwidth
    for v in again:
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0
    # the same bits as a new metric built from the same stored arrays
    fresh = geo.future_arcs(geo.MetricField(g8, *glo.stored))
    for a, b in zip(again, fresh):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    # the time-reversed metric gets its own arcs: the opposite half-cones
    rev = glo.time_reversed()
    rc, rh = geo.future_arcs(rev)
    assert computed[-1] is rev and len(computed) == 3
    assert np.allclose(rh, halfwidth, rtol=0.0, atol=1e-12)
    assert np.allclose(np.cos(rc - center), -1.0, atol=1e-12)


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
    scenario = read_scenario({"seed": seed, "suites": ["cones"], "cones": {"pairs": 200}})
    report = cli.run_scenario(scenario)
    assert report["pass"], [c["law"] for c in report["suites"]["cones"]["checks"] if not c["pass"]]


def test_preceq_transitive_on_random_triples(g8):
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_metric(g8, rng)
        a1 = rng.uniform(0.3, 0.9, (g8.nt, g8.nx))
        a2 = rng.uniform(0.3, 0.9, (g8.nt, g8.nx))
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
    blend0 = geo.convex_combination(glo, ghi, 0.0)
    blend1 = geo.convex_combination(glo, ghi, 1.0)
    assert np.array_equal(blend0.g_tt, glo.g_tt) and np.array_equal(blend0.g_xx, glo.g_xx)
    assert np.array_equal(blend1.g_tt, ghi.g_tt) and np.array_equal(blend1.g_xx, ghi.g_xx)


def test_convex_combination_requires_comparability(g8):
    mink = geo.metric_preset("minkowski", g8)
    rot = geo.metric_preset("rotated-minkowski", g8)
    with pytest.raises(ValueError):
        geo.convex_combination(mink, rot, 0.5)
    with pytest.raises(ValueError):
        geo.sharp_interpolation(mink, rot, 0.5)


def test_sharp_interpolation_conformal_hand_value(g8):
    # g' = 4g at chi = 1/2 blends the inverses 1 and 1/4 to 5/8: metric (8/5) g
    g = geo.metric_preset("minkowski", g8)
    g4 = diag_metric(g8, -4.0, 4.0)
    gs = geo.sharp_interpolation(g, g4, 0.5)
    assert np.allclose(gs.g_tt, -1.6, rtol=1e-14)
    assert np.allclose(gs.g_xx, 1.6, rtol=1e-14)


def test_sharp_interpolation_is_inverse_blend(g8):
    rng = np.random.default_rng(8)
    glo, ghi = random_comparable_pair(g8, rng, per_point=True)
    w = rng.uniform(0, 1, (g8.nt, g8.nx))
    gs = geo.sharp_interpolation(glo, ghi, w)
    want = [(1 - w) * a + w * b for a, b in zip(
        glo.inverse_components(), ghi.inverse_components())]
    got = gs.inverse_components()
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(1 + np.abs(b))


def test_blend_sandwich_scan(g8):
    rng = np.random.default_rng(9)
    glo, ghi = random_comparable_pair(g8, rng, per_point=True)
    for chi in (0.25, 0.5, 0.75):
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


def test_build_chain_bridges_thin_disjoint_tilted_cones(g8):
    # disjoint tilted cones with spacelike slices meet through the rotation bridge
    t1 = geo.metric_preset("tilted", g8, deg=38.0)
    sq = geo.squeeze_metric(t1, (t1.orient_t, t1.orient_x), 0.05)
    t2 = geo.metric_preset("tilted", g8, deg=-38.0)
    sq2 = geo.squeeze_metric(t2, (t2.orient_t, t2.orient_x), 0.05)
    chain = geo.build_chain(sq, sq2)
    assert isinstance(chain, geo.ParacausalChain) and len(chain) == 4
    chain.validate()


def test_build_chain_shared_time_route():
    # a near-half-plane cone at one site and thin ones elsewhere, against the
    # swapped field: the witness needs a squeeze that puts det h under the
    # det floor at the thin sites, the bridge's hull would pass pi at the wide
    # site, and the pair meets at the flat ultrastatic (the past-directed
    # pair by way of its time reversal, ending at the metrics given)
    grid = make_grid(4, 4, 0.0, 0.5, 1.0)
    hw, hw_swapped = np.full((grid.nt, grid.nx), 0.005), np.full((grid.nt, grid.nx), 1.565)
    hw[0, 0], hw_swapped[0, 0] = 1.565, 0.005
    g = geo.metric_from_arcs(grid, 0.0, hw)
    gp = geo.metric_from_arcs(grid, 0.0, hw_swapped)
    assert geo.paracausal_witness(g, gp) is None
    for a, b in ((g, gp), (gp, g), (g.time_reversed(), gp.time_reversed())):
        chain = geo.build_chain(a, b)
        assert isinstance(chain, geo.ParacausalChain) and len(chain) == 11
        assert chain.metrics[0] is a and chain.metrics[-1] is b
        flat = chain.metrics[5]
        assert np.all(flat.g_tt == -1.0) and np.all(flat.g_tx == 0.0) and np.all(flat.g_xx == 1.0)
        assert np.all(flat.orient_t == a.orient_t[0, 0])
    # a cone edge 1e-6 short of the x axis gives g_xx ~ 1e-8 there, and the
    # lapse-1 rescaling, of det g_xx^2 / det g, falls under the det floor:
    # no chain, and no raise
    center = np.zeros((grid.nt, grid.nx))
    center[1, 1] = np.pi / 2 - 1.565 - 1e-6
    edge = geo.metric_from_arcs(grid, center, hw_swapped)
    out = geo.build_chain(g, edge)
    assert isinstance(out, geo.ChainObstruction) and out.reason == "no-chain-found"


def test_build_chain_arcs_touching_at_one_site():
    # the arcs share only a boundary ray at site 0, so the common direction
    # of the witness route is null there and its squeeze is refused: that
    # route finds no witness, and the rotation bridge joins the pair
    grid = make_grid(4, 4, 0.0, 0.5, 1.0)
    center = np.zeros((grid.nt, grid.nx))
    center[0, 0] = -0.3
    g = geo.metric_from_arcs(grid, center, 0.3)
    gp = geo.metric_from_arcs(grid, 0.3, 0.3)
    assert geo.paracausal_witness(g, gp) is None
    chain = geo.build_chain(g, gp)
    assert isinstance(chain, geo.ParacausalChain) and len(chain) == 4
    assert chain.metrics[0] is g and chain.metrics[-1] is gp


def test_paracausal_witness_refuses_a_squeeze_below_the_det_floor():
    # thin cones have |det g| ~ halfwidth^2, so the smallest squeeze factors
    # give det h above -1e-10; such a squeeze finds no witness
    grid = make_grid(4, 4, 0.0, 0.5, 1.0)
    g = geo.metric_from_arcs(grid, 0.0, 8e-4)
    gp = geo.metric_from_arcs(grid, 8e-4, 8e-4)
    assert geo.paracausal_witness(g, gp) is None
    chain = geo.build_chain(g, gp)
    assert isinstance(chain, geo.ParacausalChain) and len(chain) == 4
    assert chain.metrics[0] is g and chain.metrics[-1] is gp
    # thinner still, the bridge's sliver is refused too: no chain, no raise
    thin, thin_p = geo.metric_from_arcs(grid, 0.0, 3e-4), geo.metric_from_arcs(grid, 3e-4, 3e-4)
    out = geo.build_chain(thin, thin_p)
    assert isinstance(out, geo.ChainObstruction) and out.reason == "no-chain-found"


def test_build_chain_decides_each_cone_relation_once(g8, monkeypatch):
    calls = []
    decide = geo.preceq
    monkeypatch.setattr(geo, "preceq", lambda a, b: calls.append((a, b)) or decide(a, b))
    mink = geo.metric_preset("minkowski", g8)
    rev = mink.time_reversed()
    # the certificate reads the two verdicts the direct route already holds
    out = geo.build_chain(mink, rev)
    assert isinstance(out, geo.ChainObstruction) and out.reason == "orientation-reversal"
    assert calls == [(mink, rev), (rev, mink)]
    # disjoint cones: two verdicts, then no relation is decided twice
    calls.clear()
    rot = geo.metric_preset("rotated-minkowski", g8)
    chain = geo.build_chain(mink, rot)
    assert isinstance(chain, geo.ParacausalChain) and len(chain) == 4
    assert calls[:2] == [(mink, rot), (rot, mink)]
    assert len(calls) == len({(id(a), id(b)) for a, b in calls})


@st.composite
def arc_fields(draw, grid, side):
    """A per-point metric_from_arcs field whose cone lies on one side of the x axis."""
    n = grid.nt * grid.nx
    halfwidth = np.array(draw(st.lists(st.floats(0.005, 1.565), min_size=n, max_size=n)))
    # the cone's place between the two halves of the x axis, from -1 to 1;
    # an upright field (place 0 at every site) has g_tx = 0 when side is 0
    if draw(st.booleans()):
        place = np.zeros(n)
    else:
        place = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    center = side + place * (np.pi / 2 - halfwidth)
    return geo.metric_from_arcs(grid, center.reshape(grid.nt, grid.nx),
                                halfwidth.reshape(grid.nt, grid.nx))


@settings(max_examples=25, deadline=None)
@given(st.data(), st.sampled_from([0.0, np.pi]))
def test_build_chain_finds_a_chain_or_an_obstruction(data, side):
    grid = make_grid(4, 4, 0.0, 0.5, 1.0)
    g, gp = data.draw(arc_fields(grid, side)), data.draw(arc_fields(grid, side))
    out = geo.build_chain(g, gp)
    if isinstance(out, geo.ParacausalChain):
        assert out.metrics[0] is g and out.metrics[-1] is gp
    else:
        assert isinstance(out, geo.ChainObstruction)


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
    alpha = geo.tune_alpha(boosted)
    ua = geo.alpha_rescale(u1, alpha)
    X, bad = geo.cones_intersect_future(ua, boosted)
    assert bad is None


def test_tune_alpha_respects_strip_bound(g8):
    boosted = geo.metric_preset("tilted", g8, deg=35.0)
    alpha = geo.tune_alpha(boosted)
    itt, itx, _ = boosted.inverse_components()
    nt = itt / np.sqrt(-itt)
    nx = itx / np.sqrt(-itt)
    f = (nx / nt) ** 2
    # mollification never dips below the per-level requirement
    assert np.all(1.0 / alpha >= f.max(axis=1)[:, None] + 1.0 - 1e-12)


def test_tune_alpha_rejects_timelike_slices(g8):
    rot = geo.metric_preset("rotated-minkowski", g8)
    with pytest.raises(ValueError):
        geo.tune_alpha(rot)


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


@pytest.mark.parametrize("name, params, message", [
    ("conformal", {"m": 3}, "metric preset 'conformal' takes no param 'm'; it takes ['mu']"),
    ("minkowski", {"mu": 2.0}, "metric preset 'minkowski' takes no param 'mu'; it takes []"),
    ("time-reversed", {"inner": "conformal", "deg": 3.0},
     "metric preset 'conformal' takes no param 'deg'; it takes ['mu']"),
    ("conformal", {"mu": True}, "mu must be a finite number, got True"),
    ("tilted", {"deg": "30"}, "deg must be a finite number, got '30'"),
    ("warped", {"amp": float("nan")}, "amp must be a finite number, got nan"),
    ("time-reversed", {"inner": "conformal", "mu": [2.0]}, "mu must be a finite number, got [2.0]"),
    (5, {}, "unknown metric preset 5"),
    ("time-reversed", {"inner": {"preset": "minkowski"}}, "unknown metric preset {'preset'"),
])
def test_metric_preset_refuses_a_param_it_does_not_read(g8, name, params, message):
    # a param the preset does not read, or one that is not a real number, is
    # named; time-reversed reads its inner preset's params too
    with pytest.raises(ValueError) as refused:
        geo.metric_preset(name, g8, **params)
    assert str(refused.value).startswith(message)


def test_time_reversed_preset_reads_its_inner_params(g8):
    m = geo.metric_preset("time-reversed", g8, inner="conformal", mu=3.0)
    assert np.array_equal(m.g_xx, geo.metric_preset("conformal", g8, mu=3.0).g_xx)
    assert np.all(m.orient_t == -1.0)


def test_metric_whose_det_leaves_the_float_range_is_refused(g8):
    # mu^2 overflows: refused as not Lorentzian, with no overflow warning
    with pytest.raises(ValueError, match="det g must be finite"):
        geo.metric_preset("conformal", g8, mu=1e200)


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
