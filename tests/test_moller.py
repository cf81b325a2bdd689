import weakref

import numpy as np
import pytest

from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab import moller as mo
from moellerlab.lattice import ScalarField, Section, make_grid, smooth_step
from moellerlab.suites import ADJOINT_TOLERANCES, MOLLER_TOLERANCES

from conftest import dense_adjoint, window_section


@pytest.fixture
def grid32():
    return make_grid(32, 32, 0.0, 0.5, 1.0)


@pytest.fixture
def pair32(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    return gh.wave_operator(mink, 1.0), gh.wave_operator(conf, 1.0)


def canonical_link(N0, N1, t0=None, t1=None):
    grid = N0.grid
    span = grid.t_max - grid.t_min
    t0 = grid.t_min + span / 3.0 if t0 is None else t0
    t1 = grid.t_min + 2 * span / 3.0 if t1 is None else t1
    chi = smooth_step(grid, t0, t1)
    nchi = gh.convex_operator(N0, N1, chi)
    rho = ScalarField(grid, nchi.metric.volume_density() / N0.metric.volume_density(),
                      ScalarField.POSITIVE)
    rho_hi = ScalarField(grid, N1.metric.volume_density() / N0.metric.volume_density(),
                         ScalarField.POSITIVE)
    plus = mo.build_rplus(N0, nchi, rho, t0, t1)
    minus = mo.build_rminus(nchi, N1, rho, rho_hi, t0, t1)
    return plus, minus, nchi, rho, rho_hi, (t0, t1)


# -- elementary steps ------------------------------------------------------------

def test_trivial_interpolation_gives_identity(grid32, pair32):
    N0, _ = pair32
    chi0 = ScalarField.constant(grid32, 0.0)
    nchi = gh.convex_operator(N0, N0, chi0)
    rho = ScalarField.constant(grid32, 1.0, ScalarField.POSITIVE)
    step = mo.build_rplus(N0, nchi, rho, 0.17, 0.34)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((grid32.nt, grid32.nx))
    assert np.max(np.abs(step.apply(u) - u)) == 0.0


def test_identity_regions_exact(grid32, pair32):
    plus, minus, *_ , window = canonical_link(*pair32)
    t0, t1 = window
    rng = np.random.default_rng(1)
    u = rng.standard_normal((grid32.nt, grid32.nx))
    l0 = grid32.level_of_time(t0)
    l1 = grid32.level_of_time(t1)
    out = plus.apply(u)
    assert np.max(np.abs((out - u)[:l0 - 1])) <= 1e-10 * np.max(np.abs(u))
    out = minus.apply(u)
    assert np.max(np.abs((out - u)[l1 + 2:])) <= 1e-10 * np.max(np.abs(u))


def test_difference_operator_support(grid32, pair32):
    plus, minus, *_, window = canonical_link(*pair32)
    t0, t1 = window
    rng = np.random.default_rng(2)
    l0, l1 = grid32.level_of_time(t0), grid32.level_of_time(t1)
    for _ in range(20):
        f = rng.standard_normal((grid32.nt, grid32.nx))
        d = plus._diff(f)
        assert np.max(np.abs(d[1:l0 - 1])) == 0.0       # inert below the window
        e = minus._diff(f)
        assert np.max(np.abs(e[l1 + 2:-1])) == 0.0      # inert above the window


def test_step_inverses_round_trip(grid32, pair32):
    plus, minus, *_ = canonical_link(*pair32)
    rng = np.random.default_rng(3)
    for step in (plus, minus):
        inv = mo.build_inverses(step)
        for _ in range(10):
            f = window_section(grid32, rng, 3, grid32.nt - 3)
            rt = inv.apply(step.apply(f.values))
            assert np.max(np.abs(rt - f.values)) < 1e-9 * f.sup_norm()
            rt = step.apply(inv.apply(f.values))
            assert np.max(np.abs(rt - f.values)) < 1e-9 * f.sup_norm()


def test_step_inverse_swaps_ends(grid32, pair32):
    # Id - G^s_{a N_lo}(a N_lo - b N_hi) is, bitwise, Id + G^s_{a N_lo}(b N_hi - a N_lo),
    # and it keeps the step's inert side
    plus, minus, *_ = canonical_link(*pair32)
    u = window_section(grid32, np.random.default_rng(5), 3, grid32.nt - 3).values
    for step in (plus, minus):
        inv = step.inverse()
        assert (inv.kind, inv.op_lo, inv.op_hi) == (step.kind, step.op_hi, step.op_lo)
        assert inv.inert() == step.inert()
        d = step._diff(u)
        d /= step.a
        assert np.array_equal(inv.apply(u), u + step.op_lo.march(d, step.sign))
        assert np.array_equal(inv.inverse().apply(u), step.apply(u))


def test_telescoping_identity(grid32, pair32):
    # G-_{rho' N1}(rho' N1 - rho N_chi) G-_{rho N_chi} = G-_{rho N_chi} - G-_{rho' N1}
    N0, N1 = pair32
    plus, minus, nchi, rho, rho_hi, _ = canonical_link(N0, N1)
    rng = np.random.default_rng(4)
    # G-_{rho N} f is G-_N (f / rho)
    sys_chi, sys_one = gh.GreenSystem(nchi), gh.GreenSystem(N1)
    rho, rho_hi = rho.values, rho_hi.values
    for _ in range(10):
        f = window_section(grid32, rng, 3, grid32.nt - 3).values
        gchi = sys_chi.minus(f / rho)
        lhs = sys_one.minus(minus._diff(gchi) / rho_hi)
        rhs = gchi - sys_one.minus(f / rho_hi)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs) + 1)


def test_intertwine_per_step(grid32, pair32):
    plus, minus, *_ = canonical_link(*pair32)
    d = mo.random_dictionary(grid32, 8, seed=5, window=(4, grid32.nt - 4))
    assert mo.verify_intertwine(plus, d)["intertwine"] < 1e-9
    assert mo.verify_intertwine(minus, d)["intertwine"] < 1e-9


def generic_link(N0, N1):
    """Steps with the admissible profile 1 + 0.7 bump, not the volume ratio."""
    grid = N0.grid
    t0, t1 = grid.t_max / 3.0, 2 * grid.t_max / 3.0
    chi = smooth_step(grid, t0, t1)
    nchi = gh.convex_operator(N0, N1, chi)
    # the bump chi is 0 below t0 and 1 above t1
    rho = ScalarField(grid, 1.0 + 0.7 * chi.values, ScalarField.POSITIVE)
    return mo.build_rplus(N0, nchi, rho, t0, t1), mo.build_rminus(nchi, N1, rho, rho, t0, t1)


def test_intertwine_generic_admissible_profile(grid32, pair32):
    # the interchange law does not need the canonical volume-ratio profile
    plus, minus = generic_link(*pair32)
    d = mo.random_dictionary(grid32, 6, seed=6, window=(4, grid32.nt - 4))
    assert mo.verify_intertwine(plus, d)["intertwine"] < 1e-9
    assert mo.verify_intertwine(minus, d)["intertwine"] < 1e-9


def _matrix(action, grid):
    n = grid.n_dof
    return action(np.eye(n).reshape(n, grid.nt, grid.nx)).reshape(n, n).T


@pytest.mark.parametrize("profile", ["canonical", "generic"])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_step_actions_match_dense_algebra(kind, profile):
    # the inverse and both transposes of a step against dense linear algebra
    # on its realized matrix; transposes on the columns at levels 2..nt-3
    g16 = make_grid(16, 16, 0.0, 0.5, 1.0)
    N0 = gh.wave_operator(geo.metric_preset("minkowski", g16), 1.0)
    N1 = gh.wave_operator(geo.metric_preset("conformal", g16, mu=2.0), 1.0)
    plus, minus = canonical_link(N0, N1)[:2] if profile == "canonical" else generic_link(N0, N1)
    step = plus if kind == "plus" else minus
    R = _matrix(step.apply, g16)
    R_inv = np.linalg.inv(R)
    cols = np.zeros((g16.nt, g16.nx), bool)
    cols[2:-2] = True
    cols = cols.reshape(-1)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(_matrix(step.inverse().apply, g16), R_inv) < 1e-12
    assert rel(_matrix(step.transpose_apply, g16)[:, cols], R.T[:, cols]) < 1e-12
    assert rel(_matrix(step.inverse().transpose_apply, g16)[:, cols], R_inv.T[:, cols]) < 1e-12


def _two_operator_actions(s, a, b, op_lo, op_hi):
    """Actions of Id - G^s_{b N_hi}(b N_hi - a N_lo) with b N_hi and a N_lo applied separately.

    Each maps its input to (value, scale): a difference is compared at the
    size of the two terms it cancels, an action at the size of its value.
    """
    def transposed(op):
        return gh.HyperbolicOperator(op.metric, op.transpose_offsets())

    def terms(u):
        return b * op_hi.apply(u), a * op_lo.apply(u)

    def terms_transpose(w):
        return transposed(op_hi).apply(b * w), transposed(op_lo).apply(a * w)

    def diff(pair):
        return pair[0] - pair[1], max(np.max(np.abs(t)) for t in pair)

    def action(value):
        return value, np.max(np.abs(value))

    def apply(u):
        return action(u - op_hi.march(diff(terms(u))[0] / b, s))

    def transpose_apply(h):
        w = op_hi.weigh(op_hi.march(op_hi.unweigh(h), -s)) / b
        return action(h - diff(terms_transpose(w))[0])

    return {"_diff": lambda u: diff(terms(u)),
            "_diff_transpose": lambda w: diff(terms_transpose(w)),
            "apply": apply, "transpose_apply": transpose_apply}


@pytest.mark.parametrize("link", ["canonical", "generic", "tilted"])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_fused_stencil_matches_two_operator_formula(grid32, pair32, kind, link):
    # D = b N_hi - a N_lo as one stencil on its active rows, and the marches
    # cut to those rows, against the two operators applied on every row
    if link == "tilted":
        mink = geo.metric_preset("minkowski", grid32)
        R = mo.compose_chain(geo.build_chain(mink, geo.metric_preset("tilted", grid32, deg=8.0)))
        plus, minus = R.steps[2:]  # the forward link: g^tx != 0, band-solved levels
        assert (1, 1) in plus.D and (1, 1) in minus.D
    else:
        plus, minus = (canonical_link(*pair32)[:2] if link == "canonical"
                       else generic_link(*pair32))
    step = plus if kind == "plus" else minus
    u = np.random.default_rng(41).standard_normal((3, grid32.nt, grid32.nx))
    h = np.stack([window_section(grid32, np.random.default_rng(42 + i), 2, grid32.nt - 2).values
                  for i in range(3)])
    cases = [(step, _two_operator_actions(step.sign, step.a, step.b, step.op_lo, step.op_hi)),
             (step.inverse(), _two_operator_actions(step.sign, step.b, step.a, step.op_hi, step.op_lo))]
    for fused, ref in cases:
        for name, want in ref.items():
            x = h if "transpose" in name else u
            value, scale = want(x)
            assert np.max(np.abs(getattr(fused, name)(x) - value)) <= 1e-13 * scale, name


def test_step_inverse_is_cached(grid32, pair32):
    # one inverse per step, holding -D bitwise on the same active rows, and no
    # transposed operators: both stencils are the step's own
    for step in canonical_link(*pair32)[:2]:
        inv = step.inverse()
        assert step.inverse() is inv and inv.inverse() is step
        assert inv.rows == step.rows and inv.rows_t == step.rows_t
        for mine, theirs in ((inv.D, step.D), (inv.DT, step.DT)):
            assert mine.keys() == theirs.keys()
            assert all(np.array_equal(mine[k], -theirs[k]) for k in mine)
        held = [v for v in vars(step).values() if isinstance(v, gh.HyperbolicOperator)]
        assert len(held) == 2 and held[0] is step.op_lo and held[1] is step.op_hi


def _study_chains():
    """The chains of the hadamard study (nt 32, 64, 128 at nx 16) and of `moller --seed 3`."""
    from moellerlab.suites import _hadamard_chain
    for nt in (32, 64, 128):
        yield mo.compose_chain(_hadamard_chain(make_grid(nt, 16, 0.0, 0.5, 1.0)))
    g = make_grid(32, 32, 0.0, 0.5, 1.0)
    yield mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g),
                                           geo.metric_preset("conformal", g, mu=2.0)))


def test_written_levels_miss_the_inert_side():
    # a plus step writes the levels above its first active row, a minus step
    # those below its last; neither D nor D^T reaches the inert side, so the
    # step and its transpose are exactly the identity there
    for R in _study_chains():
        for step in R.steps + [s.inverse() for s in R.steps]:
            g = step.grid
            lo, hi = step.rows
            written = range(lo + 1, g.nt) if step.sign > 0 else range(0, hi - 1)
            inert = range(g.nt)[step.inert()]
            assert lo < hi and len(inert) > 0
            assert not set(written) & set(inert)
            assert not set(range(*step.rows_t)) & set(inert)
            u = np.random.default_rng(43).standard_normal((2, g.nt, g.nx))
            assert np.array_equal(step.apply(u)[:, step.inert()], u[:, step.inert()])
            assert np.array_equal(step.transpose_apply(u)[:, step.inert()], u[:, step.inert()])


def _inert_reach(step):
    """The last inert level in marching order, where the build-time check stops its march."""
    inert = step.inert()
    return inert.stop - 1 if step.sign > 0 else inert.start


def test_identity_check_march_equals_apply_on_inert_levels():
    # the build-time check marches only until the inert levels are written;
    # they are those of the full apply bitwise, for every step and inverse
    for R in _study_chains():
        for step in R.steps + [s.inverse() for s in R.steps]:
            g = step.grid
            u = np.random.default_rng(45).standard_normal((2, g.nt, g.nx))
            inert = step.inert()
            reach = _inert_reach(step)
            assert np.array_equal(step._apply(u, reach)[:, inert], step.apply(u)[:, inert])
            assert np.array_equal(step._apply(u[0], reach)[inert], step.apply(u[0])[inert])


def test_identity_defect_is_the_inert_part_of_apply():
    # the build-time check and the identity_region law share this measurement;
    # it equals, bitwise, the inert part of the full apply
    chains = list(_study_chains())
    for R in (chains[0], chains[-1]):  # the hadamard chain at nt 32, the moller chain
        ends = (R.steps[0], R.steps[-1])
        for step in ends + tuple(s.inverse() for s in ends):
            g = step.grid
            u = np.random.default_rng(47).standard_normal((g.nt, g.nx))
            want = np.max(np.abs((step.apply(u) - u)[step.inert()]))
            assert step.identity_defect(u) == want


@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_difference_on_an_inert_row_raises_at_build(grid32, pair32, kind, monkeypatch):
    # a profile broken on the inert level whose row writes the last inert level
    # (plus) or the first (minus) makes D nonzero there: the profile check
    # refuses it, and so does the trimmed identity march alone, whose inert
    # levels are still those of the full apply bitwise
    plus, minus, *_ = canonical_link(*pair32)
    step = plus if kind == "plus" else minus
    inert = range(grid32.nt)[step.inert()]
    b = step.b.copy()
    b[inert[-2] if kind == "plus" else inert[1]] *= 1.5

    def build():
        return mo.MollerStep(kind, step.op_lo, step.op_hi, step.a, b,
                             step.t0_level, step.t1_level)

    with pytest.raises(ValueError, match="profiles must agree"):
        build()
    monkeypatch.setattr(mo.MollerStep, "_check_profiles", lambda self: None)
    with pytest.raises(AssertionError, match="identity region violated at build time"):
        build()
    monkeypatch.setattr(mo.MollerStep, "_check_identity_region", lambda self: None)
    broken = build()
    u = np.random.default_rng(46).standard_normal((2, grid32.nt, grid32.nx))
    got = broken._apply(u, _inert_reach(broken))[:, broken.inert()]
    assert np.array_equal(got, broken.apply(u)[:, broken.inert()])
    assert not np.array_equal(got, u[:, broken.inert()])
    want = np.max(np.abs((broken.apply(u[0]) - u[0])[broken.inert()]))
    assert broken.identity_defect(u[0]) == want > 0.0


def test_build_rplus_rejects_bad_profile(grid32, pair32):
    N0, N1 = pair32
    span = grid32.t_max
    t0, t1 = span / 3.0, 2 * span / 3.0
    chi = smooth_step(grid32, t0, t1)
    nchi = gh.convex_operator(N0, N1, chi)
    rho_bad = ScalarField.constant(grid32, 2.0, ScalarField.POSITIVE)
    with pytest.raises(ValueError, match="profile"):
        mo.build_rplus(N0, nchi, rho_bad, t0, t1)


def test_build_steps_require_comparability(grid32, pair32):
    N0, _ = pair32
    narrow = gh.wave_operator(
        geo.squeeze_metric(N0.metric, (1.0, 0.0), 0.5), 1.0)
    with pytest.raises(ValueError, match="cone"):
        mo.build_rplus(N0, narrow, ScalarField.constant(grid32, 1.0, ScalarField.POSITIVE),
                       0.17, 0.34)


# -- composed operators ------------------------------------------------------------

def test_degenerate_chain_is_identity(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    chain = geo.ParacausalChain([mink, mink], [geo.ParacausalChain.FWD])
    R = mo.compose_chain(chain)
    rng = np.random.default_rng(7)
    f = window_section(grid32, rng, 4, grid32.nt - 4)
    assert np.max(np.abs(R.apply(f.values) - f.values)) < 1e-9 * f.sup_norm()


def test_two_step_structure(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    assert len(R.steps) == 2
    assert R.steps[0].kind == "plus" and R.steps[1].kind == "minus"


def test_full_identity_battery_action_mode(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    d = mo.random_dictionary(grid32, 12, seed=8, window=(4, grid32.nt - 4))
    rep = mo.verify_moller_identities(R, d, sympl_pairs=5)
    assert rep["intertwine"] < 1e-9
    assert rep["propagator_transport"] < 1e-9
    assert rep["adjoint_interchange"] < 1e-9
    assert rep["inverse_roundtrip"] < 1e-9
    assert rep["symplectic_preservation"] < 1e-8
    assert rep["identity_region"] < 1e-10


@pytest.mark.parametrize("target", ["conformal", "tilted"])
def test_batched_laws_equal_worst_of_single_sections(grid32, target):
    # each law marches the whole dictionary as one batch; looped one section
    # at a time, the worst section must give the same number
    mink = geo.metric_preset("minkowski", grid32)
    other = (geo.metric_preset("tilted", grid32, deg=8.0) if target == "tilted"
             else geo.metric_preset("conformal", grid32, mu=2.0))
    R = mo.compose_chain(geo.build_chain(mink, other))
    d = mo.random_dictionary(grid32, 5, seed=23, window=(4, grid32.nt - 4))
    for obj in [s for s in R.steps if isinstance(s, mo.MollerStep)] + [R]:
        batch = mo.verify_intertwine(obj, d)["intertwine"]
        looped = max(mo.verify_intertwine(obj, [f])["intertwine"] for f in d)
        assert abs(batch - looped) <= 1e-13
    batch = mo.verify_moller_identities(R, d, sympl_pairs=1)
    singles = [mo.verify_moller_identities(R, [f], sympl_pairs=1) for f in d]
    assert set(batch) == set(singles[0])
    for law, value in batch.items():
        assert abs(value - max(rep[law] for rep in singles)) <= 1e-13, law


def test_full_identity_battery_dense_mode():
    g16 = make_grid(16, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g16),
                                         geo.metric_preset("conformal", g16, mu=2.0)))
    d = mo.random_dictionary(g16, 6, seed=9, window=(4, 12))
    rep = mo.verify_moller_identities(R, d, dense=True, sympl_pairs=3)
    assert rep["propagator_transport_dense"] < 1e-9


def test_propagator_transport_as_v_congruence():
    # the kernel-value matrices obey R (G V0^-1) R^T = G' V1^-1 on the
    # admissible block, the congruence form of the transport law
    g16 = make_grid(16, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g16),
                                         geo.metric_preset("conformal", g16, mu=2.0)))
    G = np.subtract(*gh.GreenSystem(R.op_start).kernel_matrices())
    Gp = np.subtract(*gh.GreenSystem(R.op_end).kernel_matrices())
    V0 = R.op_start.weight_dense()
    V1 = R.op_end.weight_dense()
    Rm = R.as_matrix()
    sel = np.zeros(g16.n_dof, bool)
    sel.reshape(g16.nt, g16.nx)[2:-2] = True
    lhs = (Rm @ np.linalg.solve(V0.T, G.T).T @ Rm.T)[np.ix_(sel, sel)]
    rhs = np.linalg.solve(V1.T, Gp.T).T[np.ix_(sel, sel)]
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale
    # and both kernel-value matrices are antisymmetric on that block
    assert np.max(np.abs(lhs + lhs.T)) < 1e-9 * scale


def test_time_dependent_metric_in_chain():
    grid = make_grid(40, 32, 0.0, 0.5, 1.0)
    warped = geo.metric_preset("warped", grid, amp=0.2)
    wide = geo.metric_preset("ultrastatic", grid, h=0.6)
    chain = geo.build_chain(warped, wide)
    assert isinstance(chain, geo.ParacausalChain)
    R = mo.compose_chain(chain)
    d = mo.random_dictionary(grid, 6, seed=21, window=(4, grid.nt - 4))
    rep = mo.verify_moller_identities(R, d, sympl_pairs=3)
    assert rep["intertwine"] < 1e-9
    assert rep["propagator_transport"] < 1e-9
    assert rep["symplectic_preservation"] < 1e-8


def test_inverse_is_intertwiner_for_reversed_chain(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    Rinv = R.inverse()
    d = mo.random_dictionary(grid32, 8, seed=10, window=(4, grid32.nt - 4))
    rep = mo.verify_moller_identities(Rinv, d, sympl_pairs=3)
    assert rep["intertwine"] < 1e-9
    assert rep["propagator_transport"] < 1e-9


def test_group_like_composition(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    c2 = geo.metric_preset("conformal", grid32, mu=2.0)
    c3 = geo.metric_preset("conformal", grid32, mu=3.0)
    RA = mo.compose_chain(geo.build_chain(mink, c2))
    RB = mo.compose_chain(geo.build_chain(c2, c3))
    RAB = mo.compose_chain(geo.ParacausalChain([mink, c2, c3], [geo.ParacausalChain.FWD] * 2))
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = window_section(grid32, rng, 4, grid32.nt - 4)
        v1 = RAB.apply(f.values)
        v2 = RB.apply(RA.apply(f.values))
        assert np.max(np.abs(v1 - v2)) < 1e-9 * np.max(np.abs(v2))


def test_reversed_link_chain(grid32):
    # wide -> narrow uses inverse steps
    mink = geo.metric_preset("minkowski", grid32)
    narrow = geo.squeeze_metric(mink, (1.0, 0.0), 0.6)
    chain = geo.build_chain(mink, narrow)
    assert chain.flags == [geo.ParacausalChain.REV]
    R = mo.compose_chain(chain)
    d = mo.random_dictionary(grid32, 8, seed=12, window=(4, grid32.nt - 4))
    rep = mo.verify_moller_identities(R, d, sympl_pairs=3)
    assert rep["intertwine"] < 1e-9
    assert rep["propagator_transport"] < 1e-9


def test_tilted_chain_with_cross_terms(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    tilted = geo.metric_preset("tilted", grid32, deg=8.0)
    chain = geo.build_chain(mink, tilted)
    R = mo.compose_chain(chain)
    d = mo.random_dictionary(grid32, 6, seed=13, window=(4, grid32.nt - 4))
    rep = mo.verify_moller_identities(R, d, sympl_pairs=3)
    assert rep["propagator_transport"] < 1e-9
    assert rep["inverse_roundtrip"] < 1e-9


def test_rotated_chain_is_obstructed(grid32):
    # transporting onto the rotated flat metric would need solves across a
    # characteristic-slice interpolation; the composer must refuse
    mink = geo.metric_preset("minkowski", grid32)
    rot = geo.metric_preset("rotated-minkowski", grid32)
    chain = geo.build_chain(mink, rot)
    assert isinstance(chain, geo.ParacausalChain)
    with pytest.raises(mo.MollerObstruction, match="characteristic-slice"):
        mo.compose_chain(chain)


def test_x_timelike_link_composes(grid32):
    # both ends have g^tt > 0 and g^xx < 0 (x-class): the march is stable
    # there, so the link composes and intertwines like a t-class one
    rot = geo.metric_preset("rotated-minkowski", grid32)
    rot2 = geo.MetricField(grid32, 2 * rot.g_tt, 2 * rot.g_tx, 2 * rot.g_xx,
                           rot.orient_t, rot.orient_x)
    chain = geo.build_chain(rot, rot2)
    assert isinstance(chain, geo.ParacausalChain)
    R = mo.compose_chain(chain)
    d = mo.random_dictionary(grid32, 3, seed=24, window=(4, grid32.nt - 4))
    assert mo.verify_intertwine(R, d)["intertwine"] < 1e-10


def test_obstruction_detail_tells_lattice_limit_from_characteristic_slice():
    # link 1 (wide <- sliver) keeps dt timelike on both ends, so an operator
    # exists and the refusal is a limit of the march (the sliver has
    # g^xx < 0); link 2 (sliver -> rotated) crosses a characteristic slice
    grid = make_grid(64, 32, 0.0, 0.5, 1.0)
    chain = geo.build_chain(geo.metric_preset("minkowski", grid),
                            geo.metric_preset("rotated-minkowski", grid))
    details = []
    for k in (1, 2):
        link = geo.ParacausalChain(chain.metrics[k:k + 2], [chain.flags[k]])
        with pytest.raises(mo.MollerObstruction) as info:
            mo.compose_chain(link)
        assert info.value.reason == "characteristic-slice link"
        details.append(info.value.detail)
    middle, last = details
    assert middle.startswith("link 0: both ends keep dt timelike")
    assert "g^xx < 0" in middle and "Moller operator exists" in middle
    assert "change which coordinate axis" not in middle
    assert "becomes characteristic and no lattice-time causal solve exists" in last
    with pytest.raises(mo.MollerObstruction) as info:
        mo.compose_chain(chain)
    assert info.value.detail == "; ".join(
        [middle.replace("link 0", "link 1"), last.replace("link 0", "link 2")])


def test_restrict_to_solutions(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    rng = np.random.default_rng(14)
    mapped = mo.restrict_to_solutions(R, kind="ker")
    zero = mapped(Section.zero(grid32))
    assert zero.sup_norm() == 0.0
    for _ in range(5):
        psi = gh.solve_cauchy(R.op_start, 3, rng.standard_normal(grid32.nx),
                              rng.standard_normal(grid32.nx))
        out = mapped(psi)
        assert R.op_end.interior_residual(out.values) < 1e-8 * psi.sup_norm()
    with pytest.raises(ValueError, match="homogeneous"):
        mapped(window_section(grid32, rng, 4, grid32.nt - 4))


def test_sol_restriction_source_relation(grid32):
    # N'(R psi) = (1/c') N psi for solutions with compact source
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    rng = np.random.default_rng(15)
    f = window_section(grid32, rng, 6, grid32.nt - 6)
    psi = gh.GreenSystem(R.op_start).plus(f)
    out = R.apply(psi)
    lhs = R.op_end.apply(out)
    rhs = f.values / R.c_prime
    assert np.max(np.abs((lhs - rhs)[1:-1])) < 1e-9 * np.max(np.abs(rhs))


def test_sol_restriction_checks_source_and_image(grid32):
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    rng = np.random.default_rng(17)
    mapped = mo.restrict_to_solutions(R, kind="sol")
    psi = Section(grid32, gh.GreenSystem(R.op_start).plus(
        window_section(grid32, rng, 6, grid32.nt - 6)))
    assert np.array_equal(mapped(psi).values, R.apply(psi.values))
    # a section whose source N u reaches equation row 1 is no compact-source solution
    with pytest.raises(ValueError, match="rows 1 and nt-2"):
        mapped(window_section(grid32, rng, 1, grid32.nt - 6))


def test_adjoint_maps_compacts_to_compacts(grid32):
    # support growth of the adjoint is bounded by the hull of the input
    # support and the switch window; the window boundaries stay clear
    mink = geo.metric_preset("minkowski", grid32)
    conf = geo.metric_preset("conformal", grid32, mu=2.0)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    rng = np.random.default_rng(16)
    l0 = grid32.level_of_time(0.5 / 3.0)
    l1 = grid32.level_of_time(1.0 / 3.0)
    f = window_section(grid32, rng, l0 + 2, l0 + 4)
    out = R.adjoint_apply(f.values)
    tiny = 1e-12 * f.sup_norm()
    assert np.max(np.abs(out[:2])) < tiny
    assert np.max(np.abs(out[-2:])) < tiny
    assert np.max(np.abs(out[l1 + 3:])) < tiny  # nothing above the hull
    # the forward map, by contrast, lands in solutions and spreads in time:
    # only the weighted transpose is required to preserve window compactness
    out2 = R.apply(f.values)
    assert np.max(np.abs(out2[-2:])) > tiny


# -- matrix-free adjoint laws -----------------------------------------------------------

def _selftest_chain():
    """The self-test's 32x32 minkowski -> conformal mu = 2 chain and an 8-section dictionary."""
    g = make_grid(32, 32, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g),
                                         geo.metric_preset("conformal", g, mu=2.0)))
    return R, mo.random_dictionary(g, 8, seed=5, window=(4, 28))


def _scaled_d(R):  # step 0's D x 1.001, its D^T kept
    s = R.steps[0]
    s.D = {k: 1.001 * C for k, C in s.D.items()}


def _scaled_inverse_dt(R):  # the first inverse step's D^T x 1.001
    s = R.steps[0].inverse()
    s.DT = {k: 1.001 * C for k, C in s.DT.items()}


def _scaled_end_offset(R):  # one offset of N' x 1.001, on a copy the steps do not share
    end = R.op_end
    R.op_end = gh.HyperbolicOperator(end.metric, {**end.offsets, (0, 1): 1.001 * end.offsets[(0, 1)]})


@pytest.mark.parametrize("defect, laws", [
    (_scaled_d, {"adjoint_pairing", "step_transpose_pairing"}),
    (_scaled_inverse_dt, {"adjoint_inverse_roundtrip"}),
    (_scaled_end_offset, {"operator_pairing_symmetry"}),
], ids=["step-D", "inverse-step-DT", "end-offset"])
def test_adjoint_laws_fail_a_seeded_defect(defect, laws):
    # the clean chain holds every law to round-off (<= 9.3e-16); each defect
    # breaks the laws that read it by at least 1e3 times their tolerance
    # (1.6e-7, 7.9e-7 and 1.7e-5 here) and leaves the others as they were
    R, d = _selftest_chain()
    clean = mo.verify_adjoint_laws(R, d)
    assert set(clean) == set(ADJOINT_TOLERANCES)
    assert max(clean.values()) <= 1e-14
    defect(R)
    rep = mo.verify_adjoint_laws(R, d)
    for law, value in rep.items():
        if law in laws:
            assert value >= 1e3 * ADJOINT_TOLERANCES[law], (law, value)
        else:
            assert value == clean[law], law


@pytest.mark.parametrize("target", ["conformal", "tilted"])
def test_adjoint_laws_batch_equals_worst_single_section(grid32, target):
    mink = geo.metric_preset("minkowski", grid32)
    other = (geo.metric_preset("tilted", grid32, deg=8.0) if target == "tilted"
             else geo.metric_preset("conformal", grid32, mu=2.0))
    R = mo.compose_chain(geo.build_chain(mink, other))
    d = mo.random_dictionary(grid32, 5, seed=23, window=(4, grid32.nt - 4))
    batch = mo.verify_adjoint_laws(R, d)
    singles = [mo.verify_adjoint_laws(R, [f]) for f in d]
    for law, value in batch.items():
        assert abs(value - max(rep[law] for rep in singles)) <= 1e-13, law


def test_laws_read_one_carried_march_bit_for_bit(monkeypatch):
    # R.carry ends on R u bit for bit, each law keeps its bits when it reads
    # R u from a carried batch, and suite_moller marches its dictionary
    # through R once: R.apply runs only on the propagator's and the
    # symplectic law's own batches
    from moellerlab import suites
    R, d = _selftest_chain()
    u = np.stack([f.values for f in d])
    carried = R.carry(u)
    assert len(carried) == len(R.steps) + 1
    assert np.array_equal(carried[-1].view(np.uint64), R.apply(u).view(np.uint64))
    assert (mo.verify_moller_identities(R, d, seed=3, sympl_pairs=2, image=carried[-1])
            == mo.verify_moller_identities(R, d, seed=3, sympl_pairs=2))
    assert mo.verify_adjoint_laws(R, d, carried) == mo.verify_adjoint_laws(R, d)
    assert len(carried) == 1  # popped down to u as the laws read it
    calls = []
    for name in ("apply", "carry"):
        one = getattr(mo.MollerOperator, name)
        monkeypatch.setattr(mo.MollerOperator, name,
                            lambda self, v, one=one, name=name: calls.append(name) or one(self, v))
    suites.suite_moller({"dictionary": 4, "sympl_pairs": 2}, np.random.default_rng(0))
    assert sorted(calls) == ["apply", "apply", "carry"]


def test_adjoint_apply_is_the_weighted_transpose_off_the_boundary_levels():
    # on the unit columns of levels 1 .. nt - 2 the matrix of adjoint_apply is
    # the dense weighted transpose to round-off; levels 0 and nt - 1 are left
    # out (see the adjoint_apply docstring)
    g16 = make_grid(16, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g16),
                                         geo.metric_preset("conformal", g16, mu=2.0)))
    gap = np.abs(R._matrix_of(R.adjoint_apply) - R.adjoint_matrix()).reshape(-1, g16.nt, g16.nx)
    per_level = gap.max(axis=(0, 2))  # over the rows and the sites of each column level
    assert per_level[1:-1].max() <= 1e-15


# -- dense adjoint calculus ------------------------------------------------------------

def test_adjoint_identity_and_selfadjoint_fixed():
    g16 = make_grid(16, 16, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", g16), mass=1.0)
    ident = np.eye(g16.n_dof)
    assert np.max(np.abs(dense_adjoint(ident, N, N) - ident)) < 1e-12
    assert np.max(np.abs(dense_adjoint(N, N, N) - N.as_dense())) < 1e-10


def test_adjoint_operator_matches_dense_solve():
    # V_g^{-1} T^T V_g' by row and column weighing (what adjoint_matrix and the
    # dense law use), against the dense solve, with two different weights that
    # vary from point to point
    g = make_grid(8, 6, 0.0, 0.5, 1.0)
    op_g = gh.build_operator(geo.metric_preset("warped", g, amp=0.3), B=1.0)
    op_gp = gh.build_operator(geo.metric_preset("warped", g, amp=0.6), B=1.0)
    n = op_g.grid.n_dof
    T = np.random.default_rng(7).standard_normal((n, n))
    want = dense_adjoint(T, op_g, op_gp)
    got = mo._weighted_transpose(T, op_g, op_gp)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_adjoint_calculus_matrix_identities():
    g16 = make_grid(16, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g16),
                                         geo.metric_preset("conformal", g16, mu=2.0)))
    V0 = R.op_start.weight_dense()
    V1 = R.op_end.weight_dense()
    Rm = R.as_matrix()
    Rd = R.adjoint_matrix()
    # double adjoint returns the original map
    assert np.max(np.abs(dense_adjoint(Rd, R.op_end, R.op_start) - Rm)) < 1e-10
    # adjoint of the inverse is the inverse of the adjoint
    inv_adj = np.linalg.solve(V1, R.inverse().as_matrix().T @ V0)
    assert np.max(np.abs(inv_adj - np.linalg.inv(Rd))) < 1e-10
    # composition reverses with metric chaining
    P = R._matrix_of(R.steps[0].apply)
    M = R._matrix_of(R.steps[1].apply)
    lhs = np.linalg.solve(V0, (M @ P).T @ V1)
    rhs = np.linalg.solve(V0, P.T @ V0) @ np.linalg.solve(V0, M.T @ V1)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    # linearity of the adjoint
    lin = dense_adjoint(2.0 * P + 0.5 * M, R.op_start, R.op_start)
    want = 2.0 * dense_adjoint(P, R.op_start, R.op_start) \
        + 0.5 * dense_adjoint(M, R.op_start, R.op_start)
    assert np.max(np.abs(lin - want)) < 1e-10


def test_dense_views_are_built_anew_and_not_kept():
    # a dense matrix is an oracle view: each call builds the same matrix
    # again, and dropping it frees it
    g = make_grid(16, 8, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", g),
                                         geo.metric_preset("conformal", g, mu=2.0)))
    for view in (R.as_matrix, R.op_start.as_dense):
        first = view()
        assert np.array_equal(view(), first)
        dropped = weakref.ref(first)
        del first
        assert dropped() is None
        dropped = weakref.ref(view())  # a call whose result nobody keeps
        assert dropped() is None


@pytest.mark.parametrize("dense", [False, True])
def test_suite_moller_marches_each_dense_matrix_once(monkeypatch, dense):
    # the adjoint laws are matrix-free, and the dense law weighs the matrix R
    # it holds instead of marching it again: no dense march, one with the dense law
    from moellerlab.suites import suite_moller

    calls = []
    matrix_of = mo.MollerOperator._matrix_of
    monkeypatch.setattr(mo.MollerOperator, "_matrix_of",
                        lambda self, action: calls.append(1) or matrix_of(self, action))
    cfg = {"nt": 16, "nx": 16, "dictionary": 4, "sympl_pairs": 2, "dense": dense}
    checks = suite_moller(cfg, np.random.default_rng(3))
    assert all(c.passed for c in checks)
    assert len(calls) == int(dense)


def test_steps_keep_profiles_and_stencils_per_level(monkeypatch):
    # on a chain of presets, constant along x, every step and inverse keeps
    # a, b, D and D^T as (nt, 1) columns (at 512x128 whole fields held 12.6 MB
    # next to 41 KB for the operators), and acts as with whole fields, bitwise
    g = make_grid(512, 128, 0.0, 0.5, 1.0)
    chain = geo.build_chain(geo.metric_preset("minkowski", g),
                            geo.metric_preset("conformal", g, mu=2.0))

    def steps(R):
        return R.steps + [s.inverse() for s in R.steps]

    def kept(step):
        return [step.a, step.b, *step.D.values(), *step.DT.values()]

    compact = steps(mo.compose_chain(chain))
    assert all(A.shape == (g.nt, 1) for s in compact for A in kept(s))
    monkeypatch.setattr(mo, "stored_field",
                        lambda grid, c: np.broadcast_to(c, (grid.nt, grid.nx)).copy())
    whole = steps(mo.compose_chain(chain))
    assert all(A.shape == (g.nt, g.nx) for s in whole for A in kept(s))
    u = np.zeros((2, g.nt, g.nx))
    u[:, 3:-3] = np.random.default_rng(48).standard_normal((2, g.nt - 6, g.nx))
    for a, b in zip(compact, whole, strict=True):
        assert a.rows == b.rows and a.rows_t == b.rows_t
        for action in ("apply", "transpose_apply"):
            assert np.array_equal(getattr(a, action)(u), getattr(b, action)(u)), action


@pytest.mark.parametrize("components", [(-2.0, 0.0, 1.5), (-2.0, 0.3, 2.0)],
                         ids=["g_xx", "g_tx"])
def test_compose_chain_rejects_operator_on_another_metric(grid32, components):
    # the operator keeps the chain metric's g_tt (conformal, mu = 2) but not
    # its other components, so c' read from the chain would be wrong
    mink = geo.metric_preset("minkowski", grid32)
    chain = geo.build_chain(mink, geo.metric_preset("conformal", grid32, mu=2.0))
    other = geo.MetricField(grid32, *components, 1.0, 0.0)
    ops = [gh.wave_operator(mink, 1.0), gh.wave_operator(other, 1.0)]
    with pytest.raises(ValueError, match="operator metrics must match the chain metrics"):
        mo.compose_chain(chain, operators=ops)


def test_operator_inverse_swaps_ends_without_chain_checks(grid32, monkeypatch):
    chain = geo.build_chain(geo.metric_preset("minkowski", grid32),
                            geo.metric_preset("conformal", grid32, mu=2.0))
    R = mo.compose_chain(chain)
    calls = []
    preceq = geo.preceq
    monkeypatch.setattr(geo, "preceq", lambda *a: calls.append(1) or preceq(*a))
    Ri = R.inverse()
    assert calls == []
    assert (Ri.op_start, Ri.op_end) == (R.op_end, R.op_start)
    assert [s.inverse() for s in Ri.steps] == R.steps[::-1]
    np.testing.assert_allclose(Ri.c_prime, 1.0 / R.c_prime, rtol=1e-15)


# -- a pair of operators: each end with its own lower-order terms -------------------

def _potential_end(m):
    g = m.grid
    t, x = g.times[:, None], g.sites[None, :]
    return gh.build_operator(m, B=1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(3 * t))


def _symmetrized_a1_end(m):
    A1 = np.broadcast_to(0.3 * np.cos(2 * np.pi * m.grid.sites), (m.grid.nt, m.grid.nx))
    return gh.symmetrize(gh.build_operator(m, B=1.0, A1=A1))


FAR_ENDS = {"potential": _potential_end, "mass-2": lambda m: gh.wave_operator(m, 2.0),
            "symmetrized-A1": _symmetrized_a1_end}


def _chain_to(end, far_end):
    """The 64x32 chain from Minkowski at m = 1 to `end`, whose operator is far_end(metric)."""
    grid = make_grid(64, 32, 0.0, 0.5, 1.0)
    target = geo.metric_preset(end, grid, **({"mu": 2.0} if end == "conformal" else {}))
    chain = geo.build_chain(geo.metric_preset("minkowski", grid), target)
    return chain, [gh.wave_operator(m, 1.0) for m in chain.metrics[:-1]] + [far_end(target)]


@pytest.mark.parametrize("far", FAR_ENDS)
@pytest.mark.parametrize("end", ["conformal", "warped", "minkowski"])
def test_chain_to_an_end_with_its_own_lower_order_terms(end, far):
    # the paper's pair of normally hyperbolic operators: the far end has a
    # smooth potential, a second mass or a symmetrized first-order term
    # (the first and third were refused before self-adjointness was read
    # off the stencil); minkowski -> minkowski is pure potential scattering
    chain, ops = _chain_to(end, FAR_ENDS[far])
    R = mo.compose_chain(chain, operators=ops)
    d = mo.random_dictionary(chain.metrics[0].grid, 8, seed=31, window=(4, 60))
    rep = mo.verify_moller_identities(R, d, seed=32, sympl_pairs=4)
    assert len(rep) == 6
    for law, value in rep.items():
        assert value <= MOLLER_TOLERANCES[law], (law, value)
    rep = mo.verify_adjoint_laws(R, d)
    assert len(rep) == 4
    for law, value in rep.items():
        assert value <= ADJOINT_TOLERANCES[law], (law, value)


def test_chain_refuses_a_link_whose_blend_is_not_self_adjoint():
    # the symmetrized A0 d_t + 1 on the warped end is self-adjoint, but its
    # blend across the time switch is not (V-symmetry defect 0.025); composed
    # anyway, the chain failed propagator transport at 1.1e-5
    chain, ops = _chain_to("warped", lambda m: gh.symmetrize(gh.build_operator(m, B=1.0, A0=0.4)))
    assert len(chain.flags) == 2 and ops[-1].self_adjoint
    with pytest.raises(ValueError, match="link 1: the blended operator is not formally self-adjoint"):
        mo.compose_chain(chain, operators=ops)


@pytest.mark.parametrize("pairs", [0, -1])
def test_moller_identities_refuse_fewer_than_one_symplectic_pair(grid32, pairs):
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", grid32),
                                         geo.metric_preset("conformal", grid32, mu=2.0)))
    with pytest.raises(ValueError, match=f"sympl_pairs must be at least 1, got {pairs}"):
        mo.verify_moller_identities(R, sympl_pairs=pairs)


def test_chain_builds_each_principal_stencil_once(grid32, monkeypatch):
    # a two-link chain (one forward link, one reversed) builds each of its
    # three metrics' principal stencils once, for its wave operator and the
    # blends on either side, and one per blend: 5 builds, where each blend
    # building its own ends' made 9.  Operators passed in are used as before,
    # each blend building its ends' stencils (6).  The shared stencils are
    # read, not written, and every offset and action keeps its bits
    def same(S, T):
        return S.keys() == T.keys() and all(np.array_equal(S[k].view(np.uint64), T[k].view(np.uint64))
                                            for k in S)

    tilted = geo.metric_preset("tilted", grid32, deg=8.0)
    metrics = [geo.MetricField(grid32, *(mu * c for c in tilted.stored[:3]), *tilted.stored[3:])
               for mu in (1.0, 1.5, 2.0)]
    chain = geo.ParacausalChain(metrics, [geo.ParacausalChain.FWD, geo.ParacausalChain.REV])
    built = []
    principal = gh.principal_offsets

    def counting(metric):
        built.append((metric, principal(metric)))
        return built[-1][1]

    monkeypatch.setattr(gh, "principal_offsets", counting)
    monkeypatch.setattr(mo, "principal_offsets", counting)
    R = mo.compose_chain(chain)
    assert len(built) == 5 and [m for m, _ in built[:3]] == metrics
    for metric, P in built[:3]:  # the shared ones, as built: nothing wrote into them
        assert same(P, principal(metric))
    ops = [gh.wave_operator(m) for m in metrics]
    built.clear()
    given = mo.compose_chain(chain, operators=ops)
    assert len(built) == 6
    for op, own in zip((R.op_start, R.op_end), (ops[0], ops[-1])):
        assert same(op.offsets, own.offsets)
    for s, t in zip(R.steps, given.steps, strict=True):
        assert same(s.D, t.D) and same(s.DT, t.DT) and same(s.op_hi.offsets, t.op_hi.offsets)
    u = np.stack([f.values for f in mo.random_dictionary(grid32, 3, seed=4, window=(4, 28))])
    assert same({0: R.apply(u)}, {0: given.apply(u)})
