"""Cylinders, mixed norms, rescaling factors, smallness search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import geometry
from holderlab.errors import (
    CylinderOutsideDomain,
    EmptyIntersection,
    InvalidScaleParameter,
    NonPositiveRadius,
    ScaledDomainEscapes,
    SmallnessSearchFailed,
)
from holderlab.exponents import (
    EquationKind,
    EquationParams,
    HomogeneousExponent,
    SourceIntegrability,
    check_admissibility,
    dnl_theta,
    sharp_exponents,
)
from holderlab.fields import (
    GridSpec,
    Rectangle,
    SpaceTimeField,
    _cell_average,
    _region_cells,
    covered_measure,
    expression,
    integrate_region,
    interpolate_eval,
    rough_power_cap,
    sample,
)
from holderlab.geometry import (
    AnisotropicScaling,
    IntrinsicCylinder,
    ScalingKind,
    apply_scaling,
    build_scaling,
    lqr_norm,
    make_cylinder,
    p_avg_norm,
    pparabolic_smallness,
    scaling_norm_factor,
    smallness,
    sup_oscillation,
)
from holderlab.solvers import BarenblattPME, PowerProfile, SolverConfig, residual, sample_reference, stable_dt


def g1_grid(nx=201, nt=101):
    """Grid exactly covering the unit cylinder (-1, 0) x B_1 in 1D."""
    return GridSpec.one_d(-1.0, 1.0, nx, -1.0, 0.0, nt)


# -- cylinders ----------------------------------------------------------------


def test_make_cylinder_examples():
    c = make_cylinder((0.0, 0.0), 1.0, 2.25)
    assert c.time_window() == (-1.0, 0.0)
    c2 = make_cylinder((0.0, 0.0), 0.5, 2.0)
    assert c2.time_window() == (-0.25, 0.0)
    c3 = make_cylinder((0.0, 0.0), 0.5, 1.5)
    assert c3.time_extent == pytest.approx(0.5**1.5, abs=1e-15)
    with pytest.raises(NonPositiveRadius):
        make_cylinder((0.0, 0.0), 0.0, 2.0)


def test_cylinder_nesting():
    c = make_cylinder((0.1, -0.2), 0.4, 1.8)
    inner = make_cylinder((0.1, -0.2), 0.2, 1.8)
    (lo_o, hi_o), = c.space_bounds()
    (lo_i, hi_i), = inner.space_bounds()
    assert lo_o < lo_i and hi_i < hi_o
    assert c.time_window()[0] < inner.time_window()[0]


def test_sup_oscillation_constant():
    f = sample(expression("constant", value=7.0), g1_grid())
    osc, sup = sup_oscillation(f, make_cylinder((0.0, 0.0), 0.5, 2.0))
    assert osc == 0.0 and sup == 7.0


def test_sup_oscillation_linear():
    f = sample(expression("affine", slopes=(1.0,)), g1_grid(401, 51))
    osc, sup = sup_oscillation(f, make_cylinder((0.0, 0.0), 0.5, 2.0))
    assert osc == pytest.approx(1.0, abs=1e-12)
    assert sup == pytest.approx(0.5, abs=1e-12)


def test_sup_oscillation_power_ladder():
    g = g1_grid(1601, 41)
    f = sample(PowerProfile(0.75).eval, g)
    dx = g.dx[0]
    for k in range(5):
        tau = 0.5 * 0.5**k
        osc, _ = sup_oscillation(f, make_cylinder((0.0, 0.0), tau, 2.0))
        assert abs(osc - tau**0.75) <= 2 * dx


def test_sup_oscillation_monotone_in_tau():
    rng = np.random.default_rng(31)
    g = g1_grid(301, 61)
    f = SpaceTimeField(g, rng.normal(size=(g.nt, g.nx[0])))
    prev_osc, prev_sup = math.inf, math.inf
    for tau in (0.9, 0.7, 0.5, 0.3, 0.1, 0.03):
        osc, sup = sup_oscillation(f, make_cylinder((0.0, 0.0), tau, 2.0))
        assert osc <= prev_osc + 1e-15 and sup <= prev_sup + 1e-15
        prev_osc, prev_sup = osc, sup


def test_sup_oscillation_outside_domain():
    f = sample(expression("zero"), g1_grid())
    with pytest.raises(CylinderOutsideDomain):
        sup_oscillation(f, make_cylinder((0.9, 0.0), 0.5, 2.0))
    with pytest.raises(CylinderOutsideDomain):
        sup_oscillation(f, make_cylinder((0.0, -0.5), 0.9, 1.0))  # time window escapes
    sup_oscillation(f, make_cylinder((0.0, 0.0), 1.0, 2.0))  # touches the edges exactly


# -- averaged and mixed norms -------------------------------------------------


def test_p_avg_constant_both_routes():
    g = g1_grid()
    f = sample(expression("constant", value=3.0), g)
    cyl = make_cylinder((0.0, 0.0), 0.5, 2.0)
    direct = p_avg_norm(f, cyl, 2.0).value
    assert direct == pytest.approx(3.0, abs=1e-12)
    other = (integrate_region(f, cyl, 2.0) / covered_measure(f, cyl)) ** 0.5
    assert abs(direct - other) <= 1e-12


def test_p_avg_x_on_unit_interval():
    g = GridSpec.one_d(0.0, 1.0, 801, 0.0, 1.0, 11)
    f = sample(expression("affine", slopes=(1.0,)), g)
    got = p_avg_norm(f, Rectangle.full_domain(g), 2.0).value
    assert got == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-4)


def test_p_avg_routes_agree_on_random_fields():
    rng = np.random.default_rng(5)
    g = g1_grid(midnx := 241, 61)
    for _ in range(5):
        f = SpaceTimeField(g, rng.normal(size=(g.nt, g.nx[0])))
        cyl = make_cylinder((0.0, 0.0), float(rng.uniform(0.2, 0.9)), 2.0)
        p = float(rng.uniform(1.0, 4.0))
        direct = p_avg_norm(f, cyl, p).value
        other = (integrate_region(f, cyl, p) / covered_measure(f, cyl)) ** (1.0 / p)
        assert abs(direct - other) <= 1e-10


def test_lqr_constant_exact():
    g = g1_grid()
    f = sample(expression("constant", value=1.0), g)
    cyl = make_cylinder((0.0, 0.0), 1.0, 2.0)
    for q in (1.0, 2.0, 5.0):
        assert lqr_norm(f, cyl, q, 7.0).value == pytest.approx(2.0 ** (1.0 / q), abs=1e-12)


def test_lqr_fubini_q_equals_r():
    rng = np.random.default_rng(7)
    g = g1_grid(161, 81)
    for _ in range(4):
        f = SpaceTimeField(g, rng.normal(size=(g.nt, g.nx[0])))
        q = float(rng.uniform(1.0, 6.0))
        cyl = make_cylinder((0.0, 0.0), 0.8, 2.0)
        mixed = lqr_norm(f, cyl, q, q).value
        plain = integrate_region(f, cyl, q) ** (1.0 / q)
        assert abs(mixed - plain) <= 1e-10 * max(1.0, plain)


def test_lqr_separable_product():
    g = g1_grid(401, 201)
    f = sample(lambda x, t: np.cos(0.5 * np.pi * x) * (2.0 + t), g)
    cyl = make_cylinder((0.0, 0.0), 1.0, 2.0)
    q, r = 3.0, 2.0
    got = lqr_norm(f, cyl, q, r).value
    xs = np.linspace(-1, 1, 20001)
    g_norm = (np.trapezoid(np.abs(np.cos(0.5 * np.pi * xs)) ** q, xs)) ** (1 / q)
    ts = np.linspace(-1, 0, 20001)
    h_norm = (np.trapezoid(np.abs(2.0 + ts) ** r, ts)) ** (1 / r)
    assert got == pytest.approx(g_norm * h_norm, rel=2e-3)


def test_lqr_infinity_exponents():
    g = g1_grid(201, 101)
    f = sample(lambda x, t: np.abs(x) * (1.0 - t), g)
    cyl = make_cylinder((0.0, 0.0), 1.0, 2.0)
    got = lqr_norm(f, cyl, math.inf, math.inf).value
    cells_max = float(np.abs(f.cell_values()).max())
    assert got == pytest.approx(cells_max, abs=1e-12)


# -- scalings -----------------------------------------------------------------


def test_build_scaling_ppoisson_normalize():
    sc = build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=3.0, m=1.0, a=0.0)
    assert (sc.space_factor, sc.time_factor, sc.amplitude_factor, sc.source_factor) == (
        1.0, 0.5, 0.5, 0.25)
    assert sc.time_factor == sc.amplitude_factor ** (3.0 - 2.0)
    assert sc.source_factor == sc.amplitude_factor ** (3.0 - 1.0)


def test_build_scaling_pme_zoom():
    sc = build_scaling(ScalingKind.ZOOM, lam=0.25, k=1, p=2.0, m=2.0, gamma=0.5)
    assert sc.space_factor == 0.25
    assert sc.time_factor == pytest.approx(0.25**1.5, abs=1e-15)
    assert sc.amplitude_factor == pytest.approx(2.0, abs=1e-15)
    # source transforms with the same contraction that multiplies the
    # operator under the zoom: lam^(2 - m gamma)
    assert sc.source_factor == pytest.approx(0.25, abs=1e-15)
    assert sc.time_factor == sc.space_factor**1.5
    assert sc.amplitude_factor == sc.space_factor**-0.5


def test_build_scaling_pme_normalize():
    sc = build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=2.0, m=2.0, a=1.0)
    assert sc.space_factor == 0.5
    assert sc.time_factor == 0.5 ** ((2.0 - 1.0) + 2.0)
    assert sc.amplitude_factor == 0.5
    assert sc.source_factor == 0.5 ** (2.0 + 2.0)


def test_build_scaling_identity():
    for kind, params in [
        (ScalingKind.NORMALIZE, dict(rho=1.0, p=3.0, m=1.0, a=0.0)),
        (ScalingKind.ZOOM, dict(lam=1.0, k=1, p=2.0, m=2.0, gamma=0.5)),
        (ScalingKind.NORMALIZE, dict(rho=1.0, p=2.0, m=2.0, a=1.0)),
        (ScalingKind.NORMALIZE, dict(rho=1.0, p=3.0, m=2.0, a=1.0)),
    ]:
        sc = build_scaling(kind, **params)
        assert (sc.space_factor, sc.time_factor, sc.amplitude_factor, sc.source_factor) == (
            1.0, 1.0, 1.0, 1.0)


def test_build_scaling_validation():
    for kind, params, match in [
        (ScalingKind.NORMALIZE, dict(rho=1.5, p=3.0, m=1.0, a=0.0), "rho must lie"),
        (ScalingKind.NORMALIZE, dict(rho=0.0, p=3.0, m=1.0, a=0.0), "rho must lie"),
        (ScalingKind.NORMALIZE, dict(rho=0.5, p=2.0, m=2.0, a=-1.0), "a must be nonnegative"),
        (ScalingKind.NORMALIZE, dict(rho=0.5, p=1.5, m=1.0, a=0.0), "p must be >= 2"),
        (ScalingKind.NORMALIZE, dict(rho=0.5, p=2.0, m=0.5, a=1.0), "m must be >= 1"),
        (ScalingKind.ZOOM, dict(lam=1.5, p=2.0, m=2.0, gamma=0.5), "lam must lie"),
        (ScalingKind.ZOOM, dict(lam=0.5, k=0, p=2.0, m=2.0, gamma=0.5), "k must be a positive integer"),
        (ScalingKind.ZOOM, dict(lam=0.5, k=1.5, p=2.0, m=2.0, gamma=0.5), "k must be a positive integer"),
        (ScalingKind.ZOOM, dict(lam=0.5, p=2.0, m=2.0, gamma=0.0), "gamma must be positive"),
        (ScalingKind.ZOOM, dict(lam=0.5, p=2.0, m=0.5, gamma=0.5), "m must be >= 1"),
        # C = p - (m + p - 3) gamma = 0 here, and a zoomed cylinder needs theta >= 1
        (ScalingKind.ZOOM, dict(lam=0.5, p=2.0, m=3.0, gamma=1.0), "theta must be >= 1"),
        # a key the kind does not read, such as the old zoom's theta and alpha, is no silent no-op
        (ScalingKind.ZOOM, dict(lam=0.5, p=2.0, m=2.0, gamma=0.5, theta=3.0, alpha=0.2),
         r"zoom does not read \['alpha', 'theta'\]"),
        (ScalingKind.NORMALIZE, dict(rho=0.5, p=3.0, m=1.0, a=0.0, k=3), r"normalize does not read \['k'\]"),
    ]:
        with pytest.raises(InvalidScaleParameter, match=match):
            build_scaling(kind, **params)
    # every exponent but k is required: p and m have no default
    for kind, params in [(ScalingKind.NORMALIZE, dict(rho=0.5, p=3.0, m=1.0, a=0.0)),
                         (ScalingKind.ZOOM, dict(lam=0.5, p=2.0, m=2.0, gamma=0.5))]:
        for missing in params:
            with pytest.raises(InvalidScaleParameter, match=f"{kind.value} needs"):
                build_scaling(kind, **{k: v for k, v in params.items() if k != missing})
    # the family rows: the time factors are rho^(p - 2) at (a, m) = (0, 1) and rho^(m - 1 + 2a) at p = 2
    assert build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=3.0, m=1.0, a=0.0).time_factor == 0.5
    assert build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=2.0, m=2.0, a=1.0).time_factor == 0.125


def test_unknown_scaling_kind_raises_value_error():
    with pytest.raises(ValueError):
        build_scaling("pme_rotate", rho=0.5)
    sc = AnisotropicScaling("pme_rotate", 1.0, 1.0, 1.0, 1.0, {})
    with pytest.raises(ValueError):
        scaling_norm_factor(sc, 2.0, 2.0, 1)
    by_value = build_scaling("normalize", rho=0.5, p=2.0, m=2.0, a=1.0)
    assert by_value.kind is ScalingKind.NORMALIZE


def test_apply_scaling_identity_and_linear():
    g = g1_grid(101, 41)
    f = sample(expression("affine", slopes=(1.0,)), g)
    ident = build_scaling(ScalingKind.NORMALIZE, rho=1.0, p=3.0, m=1.0, a=0.0)
    same = apply_scaling(f, ident, grid=g)
    assert np.allclose(same.values, f.values, atol=1e-14)

    sc = build_scaling(ScalingKind.ZOOM, lam=0.5, k=1, p=2.0, m=2.0, gamma=0.5)
    v = apply_scaling(f, sc, grid=g)
    xs = g.x_nodes(0)
    expected = sc.amplitude_factor * sc.space_factor * xs
    assert np.max(np.abs(v.values[0] - expected)) <= 1e-12


@pytest.mark.parametrize("grid", [
    g1_grid(101, 41),
    GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 41, 33, -1.0, 0.0, 21),
])
def test_apply_scaling_equals_per_level_interp(grid):
    f = sample(lambda *a: np.sin(3.0 * sum(a[:-1]) + a[-1]) + np.abs(a[0] - 0.013) ** 0.6, grid)
    sc = build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=2.0, m=2.0, a=1.0)
    v = apply_scaling(f, sc, grid=grid)
    mesh = [np.clip(x * sc.space_factor, *grid.x_extent[a]) for a, x in enumerate(grid.node_mesh())]
    t_lo, t_hi = grid.t_extent
    for level, t in enumerate(grid.t_nodes):
        t_mapped = min(max(t * sc.time_factor, t_lo), t_hi)
        expected = sc.amplitude_factor * f.interp(*mesh, np.full(grid.spatial_shape(), t_mapped))
        assert np.array_equal(v.values[level], expected)


def test_apply_scaling_escape_raises():
    g = g1_grid(101, 41)
    f = sample(expression("zero"), g)
    sc = build_scaling(ScalingKind.ZOOM, lam=0.5, k=1, p=2.0, m=2.0, gamma=0.5)
    big = GridSpec.one_d(-4.0, 4.0, 11, -1.0, 0.0, 5)
    with pytest.raises(ScaledDomainEscapes):
        apply_scaling(f, sc, grid=big)


def test_pme_zoom_preserves_equation():
    # zoomed Barenblatt still solves the homogeneous porous-medium equation
    ref = BarenblattPME(m=2.0, n=1, mass=1.0)
    g = GridSpec.one_d(-3.0, 3.0, 1025, 1.0, 2.0, 401)
    u = sample_reference(ref, g)
    params = EquationParams.pme(2.0, 1)
    sc = build_scaling(ScalingKind.ZOOM, lam=0.5, k=1, p=2.0, m=2.0, gamma=0.5)
    v = apply_scaling(u, sc)  # default preimage grid
    r_u = residual(u, params).max_residual
    r_v = residual(v, params).max_residual
    assert r_v <= 3.0 * r_u


def test_scaling_norm_factor_examples():
    sc = build_scaling(ScalingKind.ZOOM, lam=0.5, k=1, p=2.0, m=2.0, gamma=0.5)
    rep = scaling_norm_factor(sc, 10.0, 10.0, 1)
    assert rep.exponent_e == pytest.approx(7.5, abs=1e-12)
    assert rep.exponent_nonnegative
    assert rep.factor == pytest.approx(0.5**0.75, rel=1e-12)

    sn = build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=2.0, m=2.0, a=1.0)
    rep2 = scaling_norm_factor(sn, 10.0, 10.0, 1)
    assert rep2.exponent_e == pytest.approx(36.0, abs=1e-12)
    assert rep2.exponent_nonnegative

    ident = build_scaling(ScalingKind.ZOOM, lam=1.0, k=1, p=2.0, m=2.0, gamma=0.5)
    assert scaling_norm_factor(ident, 10.0, 10.0, 1).factor == 1.0


# (kind, params, base b, the (p, m) whose operator the row keeps)
_contraction = st.floats(1e-3, 1.0)
_P, _M = st.floats(2.0, 12.0), st.floats(1.0, 6.0)
_ROWS = st.one_of(
    st.builds(lambda rho, p, m, a: (ScalingKind.NORMALIZE, dict(rho=rho, p=p, m=m, a=a), rho, (p, m)),
              _contraction, _P, _M, st.floats(0.0, 5.0)),
    st.builds(lambda lam, k, p, m, gamma: (ScalingKind.ZOOM, dict(lam=lam, k=k, p=p, m=m, gamma=gamma),
                                           lam ** float(k), (p, m)),
              _contraction, st.integers(1, 3), _P, _M, st.floats(0.05, 1.0))
    .filter(lambda row: dnl_theta(*row[3], row[1]["gamma"]) >= 1.0),
)


@settings(max_examples=300, deadline=None)
@given(row=_ROWS, q=st.floats(1.0, 100.0), r=st.one_of(st.floats(1.01, 100.0), st.just(math.inf)),
       n=st.sampled_from([1, 2]))
def test_rescaling_identities(row, q, r, n):
    kind, params, b, (p, m) = row
    sc = build_scaling(kind, **params)
    rel = dict(rel=1e-12, abs=0.0)
    assert sc.source_factor == pytest.approx(sc.amplitude_factor * sc.time_factor, **rel)
    assert sc.time_factor == pytest.approx(
        sc.amplitude_factor ** (m + p - 3.0) * sc.space_factor**p, **rel)
    rep = scaling_norm_factor(sc, q, r, n)
    e_over_r = rep.exponent_e if math.isinf(r) else rep.exponent_e / r
    assert rep.factor == pytest.approx(b**e_over_r, **rel)
    assert rep.exponent_nonnegative == (rep.exponent_e >= 0.0)


def test_the_predicted_theta_is_the_zoom_rows_time_exponent():
    """The zoom by lam with gamma = ``alpha_space`` has time factor lam^``theta`` bitwise:
    its C = (m + p - 3)(-gamma) + p rounds as ``dnl_theta``'s p - (m + p - 3) gamma."""
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 300:
        p = 2.0 if rng.random() < 0.25 else float(rng.uniform(2.0, 8.0))
        m = 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 5.0))
        ir = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 0.95))
        params = EquationParams(EquationKind.DOUBLY_NONLINEAR, int(rng.integers(1, 5)), p=p, m=m)
        integ = SourceIntegrability(1.0 / rng.uniform(0.01, 0.95), math.inf if ir == 0.0 else 1.0 / ir)
        if not check_admissibility(params, integ).admissible:
            continue
        report = sharp_exponents(params, integ, HomogeneousExponent(float(rng.uniform(0.05, 1.0))))
        if report.theta < 1.0:  # a zoom row needs theta >= 1
            continue
        sc = build_scaling(ScalingKind.ZOOM, lam=0.5, p=p, m=m, gamma=report.alpha_space)
        assert sc.time_factor == 0.5**report.theta
        checked += 1


def _normalize_exponent(p, m, a, n, q, r):
    sc = build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=p, m=m, a=float(a))
    return scaling_norm_factor(sc, q, r, n).exponent_e


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.just(2.0), st.floats(2.0, 10.0)),
       m=st.one_of(st.just(1.0), st.floats(1.0, 6.0)), n=st.sampled_from([1, 2, 3]),
       q=st.one_of(st.floats(1.0, 100.0), st.just(math.inf)),
       r=st.one_of(st.floats(1.01, 100.0), st.just(math.inf)))
def test_no_a_above_one_makes_a_nonpositive_source_exponent_positive(p, m, n, q, r):
    # e(a) = r (1 + C - a n/q) - C with C = (m + p - 3) + p a is affine in a,
    # so e(0) = 2 e(1) - e(2), and e(0) > 0 makes the slope negative once e(1) <= 0
    e1, e2 = (_normalize_exponent(p, m, a, n, q, r) for a in (1, 2))
    e0 = 2.0 * e1 - e2
    assert e0 == pytest.approx(m + p - 2.0 if math.isinf(r) else (r - 1.0) * (m + p - 2.0) + 1.0,
                               rel=1e-9, abs=1e-9 * abs(e2))
    assert e0 > 0.0
    if e1 <= 0.0:
        assert all(_normalize_exponent(p, m, a, n, q, r) <= 0.0 for a in range(2, 65))


def test_smallness_search_pparabolic():
    g = g1_grid(201, 101)
    u = sample(lambda x, t: 40.0 * np.cos(0.5 * np.pi * x) * (1.0 + 0.5 * t), g)
    f = sample(lambda x, t: 25.0 * np.sin(np.pi * x) * (1.0 + t), g)
    res = pparabolic_smallness(u, f, p=3.0, q=4.0, r=4.0, epsilon=1e-2)
    assert 0.0 < res.rho < 1.0
    assert res.v_norm <= 1.0
    assert res.f_norm <= 1e-2
    assert res.iterations <= 60


def test_smallness_search_pme():
    g = g1_grid(201, 101)
    u = sample(lambda x, t: 15.0 * np.cos(0.5 * np.pi * x), g)
    f = sample(lambda x, t: 30.0 * np.cos(0.5 * np.pi * x) * (1.0 - t), g)
    res = smallness(EquationParams.pme(2.0, 1), u, f, 10.0, 10.0, epsilon=1e-2)
    assert res.a == 1  # admissible (q, r) always admit the smallest integer
    assert res.v_norm <= 1.0 and res.f_norm <= 1e-2
    # the scaling's own norm-factor prediction must hold on the output
    assert 0.0 < res.rho < 1.0


# -- smallness search against the full-grid loop -----------------------------


def _full_grid_search(params, a, v_power, u, f, q, r, epsilon=1e-2, max_iter=60):
    """The smallness bisection that rescales both whole fields at every candidate."""
    g1 = IntrinsicCylinder((0.0,) * u.grid.dim, 0.0, 1.0, 2.0)
    best, lo, hi = None, 0.0, 1.0
    for it in range(1, max_iter + 1):
        rho = 0.5 * (lo + hi)
        sc = build_scaling(ScalingKind.NORMALIZE, rho=rho, **params)
        v = apply_scaling(u, sc, grid=u.grid)
        f_scaled = apply_scaling(f, sc, grid=f.grid, role="source")
        v_norm = p_avg_norm(v, g1, v_power).value
        f_norm = lqr_norm(f_scaled, g1, q, r).value
        if v_norm <= 1.0 and f_norm <= epsilon:
            best = (rho, a, sc, v, f_scaled, v_norm, f_norm, it)
            lo = rho
        else:
            hi = rho
    return best


# the first grid has the witness's time levels, t in [-16, 0] with 201 levels,
# which put a G1 cell centre on the t = -1 face (to rounding)
SMALLNESS_GRIDS = [
    GridSpec.one_d(-4.0, 4.0, 201, -16.0, 0.0, 201),
    GridSpec.two_d((-2.0, 2.0), (-1.5, 2.5), 33, 29, -4.0, 0.5, 25),
]


def _smallness_fields(g):
    u = sample(lambda *a: 5.0 + 20.0 * np.cos(0.7 * sum(a[:-1])) * (1.0 - 0.1 * a[-1]), g)
    f = sample(lambda *a: 30.0 * np.sin(1.3 * a[0] + 0.2) * (1.0 - a[-1]) + 0.5 * a[-2] ** 2, g)
    return u, f


def _rough_smallness_fields(g):
    """A small u and the capped rough_power source near the origin, which binds the search."""
    u = sample(lambda *a: 0.5 + 0.2 * np.cos(0.7 * sum(a[:-1])) * (1.0 - 0.1 * a[-1]), g)
    cap = rough_power_cap(0.4, g.dx[0])
    f = sample(expression("rough_power", sigma=0.4, cap=cap, center=0.3 * g.dx[0]), g)
    return u, f


def test_witness_time_levels_put_a_g1_cell_centre_on_the_bottom_face():
    centres = SMALLNESS_GRIDS[0].t_cell_centers
    assert np.abs(centres + 1.0).min() < 1e-12


@pytest.mark.parametrize("g", SMALLNESS_GRIDS, ids=["1d_witness_times", "2d"])
@pytest.mark.parametrize("family", ["pparabolic", "pme", "dnl", "dnl_rough"])
def test_smallness_search_equals_full_grid_loop(g, family):
    u, f = _smallness_fields(g)
    if family == "dnl":
        res = smallness(EquationParams.doubly_nonlinear(3.0, 2.0, g.dim), u, f, 10.0, 10.0)
        ref = _full_grid_search(dict(p=3.0, m=2.0, a=1.0), 1, math.inf,
                                u, f, 10.0, 10.0)
    elif family == "pparabolic":
        res = pparabolic_smallness(u, f, p=3.0, q=4.0, r=4.0)
        ref = _full_grid_search(dict(p=3.0, m=1.0, a=0.0), 0, 3.0,
                                u, f, 4.0, 4.0)
    elif family == "dnl_rough":
        u, f = _rough_smallness_fields(g)
        res = smallness(EquationParams.doubly_nonlinear(3.0, 2.0, g.dim), u, f, 10.0, 10.0)
        ref = _full_grid_search(dict(p=3.0, m=2.0, a=1.0), 1, math.inf,
                                u, f, 10.0, 10.0)
        assert res.v_norm < 0.5  # the source, not v, stops the search
    else:
        res = smallness(EquationParams.pme(2.0, g.dim), u, f, 10.0, 10.0)
        ref = _full_grid_search(dict(p=2.0, m=2.0, a=1.0), 1, math.inf,
                                u, f, 10.0, 10.0)
    rho, a, sc, v, f_scaled, v_norm, f_norm, it = ref
    assert 1 < it <= 60  # a search that moved, not the first candidate
    assert (res.rho, res.a, res.v_norm, res.f_norm, res.iterations) == (
        rho, a, v_norm, f_norm, it)
    assert res.scaling.params == sc.params and res.scaling.kind is sc.kind
    for got, want in ((res.v, v), (res.f_scaled, f_scaled)):
        assert got.grid == want.grid and got.provenance == want.provenance
        assert got.values.tobytes() == want.values.tobytes()


def test_smallness_search_rescales_the_full_fields_twice(monkeypatch):
    u, f = _smallness_fields(SMALLNESS_GRIDS[0])
    calls = []
    real = geometry.apply_scaling
    monkeypatch.setattr(geometry, "apply_scaling",
                        lambda *args, **kw: calls.append(kw.get("role")) or real(*args, **kw))
    pparabolic_smallness(u, f, p=3.0, q=4.0, r=4.0)
    smallness(EquationParams.pme(2.0, 1), u, f, 10.0, 10.0)
    assert calls == [None, "source"] * 2


@pytest.mark.parametrize("g, search", [
    # the time image (-2 T, -0.5 T) of a contraction T < 1 leaves (-2, -0.5)
    (GridSpec.one_d(-2.0, 2.0, 41, -2.0, -0.5, 31),
     lambda u, f: pparabolic_smallness(u, f, p=3.0, q=4.0, r=4.0)),
    # the space image (0.5 S, 3 S) of a contraction S < 1 leaves (0.5, 3)
    (GridSpec.one_d(0.5, 3.0, 41, -1.0, 0.0, 31),
     lambda u, f: smallness(EquationParams.pme(2.0, 1), u, f, 10.0, 10.0)),
], ids=["pparabolic_time", "pme_space"])
def test_smallness_search_escaping_grid_raises(g, search):
    g1 = IntrinsicCylinder((0.0,), 0.0, 1.0, 2.0)
    g1_cells = _region_cells(sample(expression("zero"), g), g1)
    assert g1_cells.size > 0
    u, f = _smallness_fields(g)
    with pytest.raises(ScaledDomainEscapes):
        search(u, f)


def test_smallness_search_without_g1_cells_raises_before_any_candidate(monkeypatch):
    g = GridSpec.one_d(2.0, 3.0, 21, -1.0, 0.0, 11)
    u, f = _smallness_fields(g)
    calls = []
    real = geometry.build_scaling
    monkeypatch.setattr(geometry, "build_scaling",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    with pytest.raises(EmptyIntersection):
        pparabolic_smallness(u, f, p=3.0, q=4.0, r=4.0)
    assert calls == []


def test_pme_smallness_without_a_positive_exponent_raises_before_any_candidate(monkeypatch):
    # m = 2, n = 2, q = 1, r = 1.01: the exponent (m + 2a) r - a (n r/q + 2) - (m - 1)
    # is 1.02 - 2a, so -0.98, -2.98, ...
    assert [_normalize_exponent(2.0, 2.0, a, 2, 1.0, 1.01) for a in (1, 2)] == \
        pytest.approx([-0.98, -2.98], abs=1e-12)
    u, f = _smallness_fields(GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 11, 11, -1.0, 0.0, 6))
    calls = []
    real = geometry.build_scaling
    monkeypatch.setattr(geometry, "build_scaling",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    with pytest.raises(SmallnessSearchFailed, match=r"e\(0\) > 0, so that rules out every a >= 1"):
        smallness(EquationParams.pme(2.0, 2), u, f, 1.0, 1.01)
    with pytest.raises(SmallnessSearchFailed, match="exponent is -0.98 <= 0 at a = 1"):
        smallness(EquationParams.pme(2.0, 2), u, f, 1.0, 1.01)
    assert calls == []


def test_smallness_rejects_params_of_another_dimension():
    u, f = _smallness_fields(SMALLNESS_GRIDS[1])
    with pytest.raises(ValueError, match="params.n = 1"):
        smallness(EquationParams.doubly_nonlinear(3.0, 2.0, 1), u, f, 10.0, 10.0)


@pytest.mark.parametrize("u_grid, f_grid", [(0, 1), (1, 0)], ids=["1d_u_2d_f", "2d_u_1d_f"])
def test_smallness_rejects_a_source_of_another_dimension(u_grid, f_grid):
    u, _ = _smallness_fields(SMALLNESS_GRIDS[u_grid])
    _, f = _smallness_fields(SMALLNESS_GRIDS[f_grid])
    n = u.grid.dim
    with pytest.raises(ValueError, match=f"u is {n}D and f is {3 - n}D"):
        smallness(EquationParams.p_parabolic(3.0, n), u, f, 4.0, 4.0)


def test_pparabolic_smallness_with_unreachable_epsilon_fails_after_max_iter():
    # the source norm on G1 falls like rho^2 here, to about 2e-35 at the last step's
    # rho = 2^-60, so no candidate reaches epsilon = 1e-300
    u, f = _smallness_fields(g1_grid(41, 21))
    with pytest.raises(SmallnessSearchFailed, match="after 60 bisection steps"):
        pparabolic_smallness(u, f, p=3.0, q=4.0, r=4.0, epsilon=1e-300)


# -- range checks -------------------------------------------------------------


def _unit_field():
    return sample(expression("constant", value=1.0), g1_grid(21, 11))


@pytest.mark.parametrize("call, error", [
    (lambda: make_cylinder((0.0, 0.0), math.nan, 2.0), NonPositiveRadius),
    (lambda: make_cylinder((0.0, 0.0), 0.5, math.nan), InvalidScaleParameter),
    (lambda: p_avg_norm(_unit_field(), Rectangle.one_d(-1, 1, -1, 0), math.nan), ValueError),
    (lambda: lqr_norm(_unit_field(), Rectangle.one_d(-1, 1, -1, 0), math.nan, 2.0), ValueError),
    (lambda: SolverConfig(flux_regularization_eps=math.nan), ValueError),
    (lambda: BarenblattPME(m=math.nan), ValueError),
    (lambda: stable_dt(g1_grid(21, 11), math.nan, 1.0, EquationParams.pme(2.0, 1), SolverConfig()),
     ValueError),
], ids=["cylinder_tau", "cylinder_theta", "p_avg_p", "lqr_q", "solver_eps", "barenblatt_m",
        "stable_dt_bound"])
def test_range_checks_reject_nan(call, error):
    with pytest.raises(error):
        call()


# -- region reads against a whole-field reference -----------------------------


def _whole_field_rows(values, t, mesh, region):
    """Rows of the whole time-outer ``values`` in the region's time window, each
    reduced to the ``mesh`` points in its space mask; None if either set is empty."""
    t0, t1 = region.time_window()
    rows = np.nonzero((t >= t0) & (t <= t1))[0]
    mask = region.space_mask(*mesh)
    if rows.size == 0 or not mask.any():
        return None
    return values[rows[0]:rows[-1] + 1][:, mask]


def _random_regions(g, rng, n=24):
    """Cylinders inside the domain (every fourth touching its low corner and its
    last time), then cylinders and rectangles anywhere, some holding no point."""
    (t_lo, t_hi), regions = g.t_extent, []
    for i in range(n):
        tau = float(rng.uniform(0.003, 0.45))
        x0 = [lo + tau if i % 4 == 0 else rng.uniform(lo + tau, hi - tau) for lo, hi in g.x_extent]
        t0 = t_hi if i % 4 == 0 else rng.uniform(t_lo + tau**2, t_hi)
        regions.append(make_cylinder((*x0, t0), tau, 2.0))
    for i in range(n):
        x0 = [rng.uniform(lo - 0.2, hi + 0.2) for lo, hi in g.x_extent]
        regions.append(make_cylinder((*x0, rng.uniform(t_lo - 0.1, t_hi + 0.1)),
                                     rng.choice([1e-3, rng.uniform(1e-3, 1.5)]), rng.uniform(1.0, 3.0)))
        width = 1e-3 if i % 3 == 0 else rng.uniform(0.0, 1.0)  # narrow ones can miss every point
        x_ext = tuple((a, a + width) for a in (rng.uniform(lo - 0.3, hi) for lo, hi in g.x_extent))
        t_a = rng.uniform(t_lo - 0.2, t_hi)
        regions.append(Rectangle(x_ext, (t_a, t_a + (1e-3 if i % 4 == 1 else rng.uniform(0.0, 1.0)))))
    outside = tuple((hi + 0.1, hi + 0.5) for _, hi in g.x_extent)
    return regions + [Rectangle.full_domain(g), Rectangle(outside, g.t_extent),
                      Rectangle(g.x_extent, (t_lo + 0.25 * g.dt, t_lo + 0.75 * g.dt))]


REGION_GRIDS = [GridSpec.one_d(-1.0, 1.0, 161, 0.0, 1.0, 57),
                GridSpec.two_d((-1.0, 1.0), (-0.5, 1.5), 41, 37, 0.0, 1.0, 23)]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("g", REGION_GRIDS, ids=["1d", "2d"])
def test_region_cells_equal_whole_field_reference(g):
    rng = np.random.default_rng(17 + g.dim)
    f = SpaceTimeField(g, rng.normal(size=(g.nt, *g.nx)))
    all_cells = _cell_average(f.values)
    regions, empty = _random_regions(g, rng), 0
    for region in regions:
        want = _whole_field_rows(all_cells, g.t_cell_centers, g.cell_mesh(), region)
        if want is None:
            empty += 1
            with pytest.raises(EmptyIntersection):
                _region_cells(f, region)
            continue
        assert _same_bits(_region_cells(f, region), want)
    assert empty >= 5 and len(regions) - empty >= 20  # both outcomes are covered


@pytest.mark.parametrize("g", REGION_GRIDS, ids=["1d", "2d"])
def test_sup_oscillation_equals_whole_field_reference(g):
    rng = np.random.default_rng(29 + g.dim)
    f = SpaceTimeField(g, rng.normal(size=(g.nt, *g.nx)))
    cylinders = [c for c in _random_regions(g, rng) if isinstance(c, IntrinsicCylinder) and c.contained_in(g)]
    empty = 0
    for cyl in cylinders:
        center = interpolate_eval(f, (*cyl.x0, cyl.t0))
        nodes = _whole_field_rows(f.values, g.t_nodes, g.node_mesh(), cyl)
        if nodes is None:
            empty += 1
            want = (0.0, abs(center))
        else:
            vmax, vmin = max(float(nodes.max()), center), min(float(nodes.min()), center)
            want = (vmax - vmin, max(abs(vmax), abs(vmin)))
        assert sup_oscillation(f, cyl) == want
    assert len(cylinders) >= 24 and empty >= 1


def _copy(f):
    return SpaceTimeField(f.grid, np.array(f.values))


@pytest.mark.parametrize("g", REGION_GRIDS, ids=["1d", "2d"])
def test_sup_oscillation_of_a_one_row_field_matches_its_copy(g):
    rng = np.random.default_rng(31 + g.dim)
    f = SpaceTimeField(g, np.broadcast_to(rng.normal(size=g.nx), (g.nt, *g.nx)))
    copy = _copy(f)
    cylinders = [c for c in _random_regions(g, rng) if isinstance(c, IntrinsicCylinder) and c.contained_in(g)]
    assert len(cylinders) >= 12
    for cyl in cylinders:
        assert sup_oscillation(f, cyl) == sup_oscillation(copy, cyl)


@pytest.mark.parametrize("g", SMALLNESS_GRIDS, ids=["1d_witness_times", "2d"])
@pytest.mark.parametrize("params", [lambda n: EquationParams.p_parabolic(3.0, n),
                                    lambda n: EquationParams.pme(2.0, n),
                                    lambda n: EquationParams.doubly_nonlinear(3.0, 2.0, n)],
                         ids=["pparabolic", "pme", "dnl"])
def test_smallness_of_one_row_fields_matches_their_copies(g, params):
    u = sample(lambda *a: 0.5 + 0.2 * np.cos(0.7 * sum(a[:-1])), g)
    f = sample(expression("rough_power", sigma=0.4, cap=rough_power_cap(0.4, g.dx[0]),
                          center=0.3 * g.dx[0]), g)
    assert u.values.strides[0] == 0 and f.values.strides[0] == 0
    eq = params(g.dim)
    res = smallness(eq, u, f, 10.0, 10.0)
    ref = smallness(eq, _copy(u), _copy(f), 10.0, 10.0)
    assert 1 < res.iterations <= 60
    assert repr((res.rho, res.a, res.v_norm, res.f_norm, res.iterations)) == repr(
        (ref.rho, ref.a, ref.v_norm, ref.f_norm, ref.iterations))
    for got, want in ((res.v, ref.v), (res.f_scaled, ref.f_scaled)):
        assert _same_bits(got.values, want.values)


@pytest.mark.parametrize("call, error, match", [
    (lambda: apply_scaling(_unit_field(), build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=3.0, m=1.0, a=0.0),
                           role="bogus"), ValueError, "role"),
    (lambda: AnisotropicScaling(ScalingKind.ZOOM, 1.0, 0.0, 1.0, 1.0, {}), InvalidScaleParameter,
     "time_factor"),
    (lambda: pparabolic_smallness(*_smallness_fields(g1_grid(41, 21)), p=3.0, q=0.0, r=4.0),
     ValueError, "q and r must be >= 1"),
    (lambda: pparabolic_smallness(*_smallness_fields(g1_grid(41, 21)), p=3.0, q=4.0, r=0.0),
     ValueError, "q and r must be >= 1"),
    (lambda: pparabolic_smallness(*_smallness_fields(g1_grid(41, 21)), p=3.0, q=4.0, r=4.0,
                                  epsilon=0.0), ValueError, "epsilon must be positive"),
    (lambda: smallness(EquationParams.pme(2.0, 1), *_smallness_fields(g1_grid(41, 21)), 10.0, 10.0,
                       epsilon=math.nan), ValueError, "epsilon must be positive"),
    (lambda: scaling_norm_factor(build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=3.0, m=1.0, a=0.0),
                                 0.0, 2.0, 1), ValueError, "q and r must be >= 1"),
    (lambda: scaling_norm_factor(build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=3.0, m=1.0, a=0.0),
                                 2.0, 0.0, 1), ValueError, "q and r must be >= 1"),
    (lambda: scaling_norm_factor(build_scaling(ScalingKind.NORMALIZE, rho=0.5, p=3.0, m=1.0, a=0.0),
                                 0.5, 2.0, 1), ValueError, "q and r must be >= 1"),
], ids=["apply_scaling_role", "zero_time_factor", "smallness_q_0", "smallness_r_0",
        "smallness_epsilon_0", "smallness_epsilon_nan", "norm_factor_q_0", "norm_factor_r_0",
        "norm_factor_q_half"])
def test_scalings_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_pme_smallness_exponent_at_infinite_r_is_the_limit_over_r():
    # e = (m + 2a) r - a (n r/q + 2) - (m - 1); its limit e/r is m + 2a - a n/q = 3.75 here
    for m, a, n, q, r in [(2.0, 1, 1, 4.0, 3.0), (3.0, 2, 2, 1.5, 10.0), (1.5, 1, 3, 5.0, 1.01)]:
        assert _normalize_exponent(2.0, m, a, n, q, r) == pytest.approx(
            (m + 2 * a) * r - a * (n * r / q + 2) - (m - 1), rel=1e-12, abs=1e-12)
    assert _normalize_exponent(2.0, 2.0, 1, 1, 4.0, math.inf) == 3.75
    r = 1e9
    assert _normalize_exponent(2.0, 2.0, 1, 1, 4.0, r) / r == pytest.approx(3.75, rel=1e-8)
