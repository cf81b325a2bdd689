import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

from moellerlab import ccr
from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab import moller as mo
from moellerlab.lattice import Section, make_grid


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(32, 32, 0.0, 0.5, 1.0)
    mink = geo.metric_preset("minkowski", grid)
    N = gh.wave_operator(mink, 1.0)
    secs = mo.random_dictionary(grid, 8, seed=3, window=(4, grid.nt - 4))
    D = ccr.FieldDictionary(secs, N)
    return grid, N, D


def rand_product(D, rng, deg):
    el = ccr.AlgebraElement.identity(D, complex(rng.standard_normal()))
    for _ in range(deg):
        el = el * ccr.field(D, int(rng.integers(0, D.size)))
    return el


def test_pairing_table_antisymmetric(setup):
    _, _, D = setup
    assert np.max(np.abs(D.pairing + D.pairing.T)) < 1e-12 * (1 + np.max(np.abs(D.pairing)))


def test_ccr_defining_relation(setup):
    _, _, D = setup
    p0, p1 = ccr.field(D, 0), ccr.field(D, 1)
    comm = p0 * p1 - p1 * p0
    assert set(comm.terms) == {()}
    assert comm.coefficient(()) == pytest.approx(1j * D.pairing[0, 1], abs=1e-18)


def test_involution_and_ccr(setup):
    _, _, D = setup
    p0, p1 = ccr.field(D, 0), ccr.field(D, 1)
    st = (p0 * p1).star()
    expect = p0 * p1 - ccr.AlgebraElement.identity(D, 1j * D.pairing[0, 1])
    assert st.is_close(expect, 1e-15)
    # involution is antilinear
    a = (2.0 + 3.0j) * p0
    assert a.star().is_close((2.0 - 3.0j) * p0, 1e-15)


def test_normal_form_idempotent_and_confluent(setup):
    _, _, D = setup
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        a, b, c = (rand_product(D, rng, 2) for _ in range(3))
        worst = max(worst, ((a * b) * c - a * (b * c)).sup_coeff())
    assert worst < 1e-10
    w = (3, 1, 2, 0)
    once = ccr.AlgebraElement(D, ccr._normal_order(D, w, 1.0))
    for word in once.terms:
        assert list(word) == sorted(word)


def _element(D, terms):
    """Sum of coefficient times generator-word products, normal-ordered as built."""
    el = ccr.AlgebraElement(D, {})
    for word, k in terms:
        prod = ccr.AlgebraElement.identity(D, k)
        for i in word:
            prod = prod * ccr.field(D, i)
        el = el + prod
    return el


# up to two words of at most two generators (of 8), each with a coefficient
TERMS = st.lists(st.tuples(st.lists(st.integers(0, 7), max_size=2),
                           st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))),
                 min_size=1, max_size=2)


@settings(max_examples=40, deadline=None)
@given(terms=st.tuples(TERMS, TERMS, TERMS))
def test_normal_form_confluence_property(setup, terms):
    _, _, D = setup
    a, b, c = (_element(D, t) for t in terms)
    assert ((a * b) * c - a * (b * c)).sup_coeff() < 1e-10
    assert ((a * b).star() - b.star() * a.star()).sup_coeff() < 1e-10
    ab = a * b
    again = {}
    for w, k in ab.terms.items():
        assert list(w) == sorted(w)
        for wn, kn in ccr._normal_order(D, w, k).items():
            again[wn] = again.get(wn, 0.0) + kn
    assert again == ab.terms


def test_degree3_products_match_fock_oracle(setup):
    # truncated mode representation with matching commutator table
    _, _, D = setup
    rng = np.random.default_rng(1)
    G = D.pairing
    T, Q = schur(G, output="real")
    modes = []
    i = 0
    while i < D.size - 1:
        if abs(T[i, i + 1]) > 1e-12:
            lam, q1, q2 = T[i, i + 1], Q[:, i], Q[:, i + 1]
            if lam < 0:
                lam, q1, q2 = -lam, q2, q1
            modes.append((lam, q1, q2))
            i += 2
        else:
            i += 1
    modes = sorted(modes, key=lambda m: -m[0])[:2]
    cut = 6
    a1 = np.zeros((cut, cut))
    for n in range(1, cut):
        a1[n - 1, n] = np.sqrt(n)
    ops = [np.kron(a1, np.eye(cut)), np.kron(np.eye(cut), a1)]
    G2 = np.zeros_like(G)
    for (lam, q1, q2) in modes:
        G2 += lam * (np.outer(q1, q2) - np.outer(q2, q1))

    class TwoModeDict:
        pairing = G2
        size = D.size

    def phi(i):
        M = np.zeros((cut * cut, cut * cut), dtype=complex)
        for (lam, q1, q2), a in zip(modes, ops):
            c = np.sqrt(lam / 2) * (q1[i] - 1j * q2[i])
            M += c * a + np.conj(c) * a.conj().T
        return M

    occ = np.add.outer(np.arange(cut), np.arange(cut)).reshape(-1)
    sel = occ <= cut - 4
    FD = TwoModeDict()
    for _ in range(5):
        idx = rng.integers(0, D.size, 3)
        el = ccr.AlgebraElement.identity(FD)
        direct = np.eye(cut * cut, dtype=complex)
        for i in idx:
            el = el * ccr.AlgebraElement(FD, {(int(i),): 1.0 + 0j})
            direct = direct @ phi(int(i))
        nf = np.zeros((cut * cut, cut * cut), dtype=complex)
        for w, c in el.terms.items():
            P = np.eye(cut * cut, dtype=complex)
            for i in w:
                P = P @ phi(i)
            nf += c * P
        assert np.max(np.abs((nf - direct)[np.ix_(sel, sel)])) < 1e-12


def test_on_shell_reduction(setup):
    grid, N, _ = setup
    secs = mo.random_dictionary(grid, 4, seed=5, window=(5, grid.nt - 5))
    hs = mo.random_dictionary(grid, 2, seed=6, window=(6, grid.nt - 6))
    nulls = []
    for h in hs:
        v = N.apply(h.values)
        v[0] = 0.0
        v[-1] = 0.0
        nulls.append(Section(grid, v))
    D = ccr.FieldDictionary(secs, N, null_sections=nulls)
    phi_null = ccr.field(D, D.null_start)
    assert ccr.on_shell_reduce(D, phi_null).sup_coeff() == 0.0
    mix = ccr.field(D, 0) + phi_null
    red = ccr.on_shell_reduce(D, mix)
    assert red.is_close(ccr.on_shell_reduce(D, ccr.field(D, 0)), 1e-12)
    # pairing against the null block vanishes, so reduction keeps pairings
    assert np.max(np.abs(D.pairing[D.null_start:, :])) < 1e-10
    with pytest.raises(ValueError):
        ccr.FieldDictionary(secs, N).projection


def test_quasifree_npoint_basics(setup):
    _, _, D = setup
    om = ccr.vacuum_state(D)
    assert ccr.quasifree_npoint(om, [0, 1, 2]) == 0.0
    assert ccr.quasifree_npoint(om, [0, 1]) == om.W[0, 1]
    v4 = ccr.quasifree_npoint(om, [0, 1, 2, 3])
    want = (om.W[0, 1] * om.W[2, 3] + om.W[0, 2] * om.W[1, 3]
            + om.W[0, 3] * om.W[1, 2])
    assert v4 == pytest.approx(want, rel=1e-14)


def test_six_point_vs_partition_enumeration(setup):
    _, _, D = setup
    rng = np.random.default_rng(2)
    om = ccr.vacuum_state(D)

    def pairings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for k in range(1, len(rest)):
            for rem in pairings(rest[1:k] + rest[k + 1:]):
                yield [(a, rest[k])] + rem

    for _ in range(5):
        idx = [int(i) for i in rng.integers(0, D.size, 6)]
        brute = sum(np.prod([om.W[i, j] for i, j in P]) for P in pairings(idx))
        assert abs(ccr.quasifree_npoint(om, idx) - brute) < 1e-12


def test_state_normalization_and_ccr_pairing(setup):
    _, _, D = setup
    om = ccr.vacuum_state(D)
    assert ccr.state_eval(om, ccr.AlgebraElement.identity(D)) == 1.0
    p0, p1 = ccr.field(D, 0), ccr.field(D, 1)
    val = ccr.state_eval(om, p0 * p1 - p1 * p0)
    assert val == pytest.approx(1j * D.pairing[0, 1], abs=1e-18)


def test_state_positivity_sampling(setup):
    _, _, D = setup
    rng = np.random.default_rng(3)
    om = ccr.vacuum_state(D)
    for _ in range(100):
        a = ccr.AlgebraElement.identity(D, complex(rng.standard_normal(), rng.standard_normal()))
        a = a + rand_product(D, rng, 1) * complex(rng.standard_normal(), rng.standard_normal())
        a = a + rand_product(D, rng, 2) * complex(rng.standard_normal(), rng.standard_normal())
        v = ccr.state_eval(om, a.star() * a)
        assert v.real >= -1e-12 * max(1.0, abs(v))
        assert abs(v.imag) <= 1e-10 * max(1.0, abs(v))


def test_quasifree_consistency_normal_order(setup):
    # evaluating a word before and after normal ordering agrees
    _, _, D = setup
    rng = np.random.default_rng(4)
    om = ccr.vacuum_state(D)
    for _ in range(10):
        idx = [int(i) for i in rng.integers(0, D.size, 4)]
        direct = ccr.quasifree_npoint(om, idx)
        el = ccr.AlgebraElement.identity(D)
        for i in idx:
            el = el * ccr.field(D, i)
        assert abs(ccr.state_eval(om, el) - direct) < 1e-12 * max(1, abs(direct))


def test_state_invariants_enforced(setup):
    _, _, D = setup
    W = np.zeros((D.size, D.size), dtype=complex)
    with pytest.raises(AssertionError, match="commutator"):
        ccr.QuasifreeState(D, W)
    bad = ccr.vacuum_state(D).W.copy()
    bad[0, 0] = -1.0
    with pytest.raises(AssertionError):
        ccr.QuasifreeState(D, bad)


def make_transport(grid, secs, mu=2.0):
    mink = geo.metric_preset("minkowski", grid)
    conf = geo.metric_preset("conformal", grid, mu=mu)
    R = mo.compose_chain(geo.build_chain(mink, conf))
    Dp = ccr.FieldDictionary(secs, R.op_end)
    return R, Dp, ccr.star_isomorphism(R, Dp)


def test_star_isomorphism_identity_map(setup):
    grid, N, D = setup
    mink = geo.metric_preset("minkowski", grid)
    chain = geo.ParacausalChain([mink, mink], [geo.ParacausalChain.FWD])
    R = mo.compose_chain(chain)
    Dp = ccr.FieldDictionary(D.sections, R.op_end)
    iso = ccr.star_isomorphism(R, Dp)
    a = ccr.field(Dp, 0) * ccr.field(Dp, 1)
    assert iso.map(a).sup_coeff() == pytest.approx((a).sup_coeff(), rel=1e-9)


def test_star_isomorphism_commutators_match(setup):
    grid, _, D = setup
    R, Dp, iso = make_transport(grid, D.sections)
    assert iso.commutator_mismatch < 1e-9 * (1 + np.max(np.abs(Dp.pairing)))


def test_star_isomorphism_homomorphism(setup):
    # map-then-multiply equals multiply-then-map on random low-degree elements
    grid, _, D = setup
    rng = np.random.default_rng(5)
    R, Dp, iso = make_transport(grid, D.sections)
    for _ in range(10):
        a = rand_product(Dp, rng, 2)
        b = rand_product(Dp, rng, 1)
        lhs = iso.map(a * b)
        rhs = iso.map(a) * iso.map(b)
        assert (lhs - rhs).sup_coeff() < 1e-10 * max(1.0, rhs.sup_coeff())
        assert (iso.map(a.star()) - iso.map(a).star()).sup_coeff() < 1e-10


def test_pullback_state(setup):
    grid, _, D = setup
    R, Dp, iso = make_transport(grid, D.sections)
    om = ccr.vacuum_state(iso.dict_image)
    omp = ccr.pullback_state(om, iso)
    assert np.max(np.abs(omp.W.imag - Dp.pairing / 2.0)) < 1e-8
    eigs = np.linalg.eigvalsh(omp.W)
    assert eigs.min() > -1e-10 * (1 + eigs.max())
    with pytest.raises(ValueError):
        ccr.pullback_state(ccr.vacuum_state(Dp), iso)


def test_pullback_functorial_through_chains(setup):
    grid, _, D = setup
    mink = geo.metric_preset("minkowski", grid)
    c2 = geo.metric_preset("conformal", grid, mu=2.0)
    c3 = geo.metric_preset("conformal", grid, mu=3.0)
    RA = mo.compose_chain(geo.build_chain(mink, c2))
    RB = mo.compose_chain(geo.build_chain(c2, c3))
    RAB = mo.compose_chain(geo.ParacausalChain([mink, c2, c3], [geo.ParacausalChain.FWD] * 2))
    secs = D.sections
    D3 = ccr.FieldDictionary(secs, RB.op_end)
    iso_ab = ccr.star_isomorphism(RAB, D3)
    om = ccr.vacuum_state(iso_ab.dict_image)
    omp_direct = ccr.pullback_state(om, iso_ab)
    # sequential: pull through RB after transporting the dictionary once
    iso_b = ccr.star_isomorphism(RB, D3)
    iso_a = ccr.star_isomorphism(RA, iso_b.dict_image)
    om_seq = ccr.QuasifreeState(iso_a.dict_image, om.W, check=False)
    om_mid = ccr.pullback_state(om_seq, iso_a)
    om_seq2 = ccr.QuasifreeState(iso_b.dict_image, om_mid.W, check=False)
    omp_seq = ccr.pullback_state(om_seq2, iso_b)
    assert np.max(np.abs(omp_direct.W - omp_seq.W)) < 1e-9 * (1 + np.max(np.abs(om.W)))


def test_element_json_roundtrip(setup):
    _, _, D = setup
    a = ccr.field(D, 0) * ccr.field(D, 1) + ccr.AlgebraElement.identity(D, 2.0)
    import json
    payload = json.loads(a.to_json())
    assert {"word": [0, 1], "re": 1.0, "im": 0.0} in payload
