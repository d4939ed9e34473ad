"""Solver validation against closed-form oracles and scheme invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab.errors import (
    BlowUp,
    EvaluationFailure,
    GridTooCoarse,
    OutsideValidity,
    UnstableConfig,
)
from holderlab.exponents import EquationKind, EquationParams
from holderlab.fields import ClosedForm, GridSpec, SourceTerm, expression, sample
from holderlab.solvers import (
    BarenblattPME,
    Boundary,
    HeatSeparable,
    PowerProfile,
    SolverConfig,
    residual,
    sample_reference,
    solve,
    stable_dt,
)


def heat_grid(nx, t_end=0.05, nt=26):
    return GridSpec.one_d(0.0, 1.0, nx, 0.0, t_end, nt)


# -- stable_dt ---------------------------------------------------------------


def test_stable_dt_heat_formula():
    g = GridSpec.one_d(0.0, 1.0, 101, 0.0, 1.0, 2)  # dx = 0.01
    got = stable_dt(g, 1.0, 1.0, EquationParams.heat(1), SolverConfig())
    assert got == pytest.approx(0.4 * 1e-4 / 2.0, rel=1e-12)


def test_stable_dt_degenerate_fallback():
    g = GridSpec.one_d(0.0, 1.0, 101, 0.0, 1.0, 2)
    got = stable_dt(g, 0.0, 0.0, EquationParams.pme(2.0, 1), SolverConfig())
    assert got == pytest.approx(0.4 * 1e-4, rel=1e-12)


def test_stable_dt_pparabolic():
    g = GridSpec.one_d(0.0, 1.0, 101, 0.0, 1.0, 2)
    cfg = SolverConfig(flux_regularization_eps=0.0)
    got = stable_dt(g, 1.0, 2.0, EquationParams.p_parabolic(4.0, 1), cfg)
    assert got == pytest.approx(cfg.cfl_safety * 1e-4 / 8.0, rel=1e-12)


# -- reference solutions -----------------------------------------------------


def test_barenblatt_compact_support_and_outside_zero():
    ref = BarenblattPME(m=2.0, n=1, mass=1.0)
    rf = ref.free_boundary_radius(1.0)
    assert float(ref.eval(rf * 1.01, 1.0)) == 0.0
    assert float(ref.eval(rf * 0.99, 1.0)) > 0.0
    with pytest.raises(OutsideValidity):
        ref.eval(0.0, 0.0)


def test_barenblatt_mass_conservation_quadrature():
    ref = BarenblattPME(m=2.0, n=1, mass=1.0)
    for t in (1.0, 2.0):
        rf = ref.free_boundary_radius(t)
        xs = np.linspace(-1.2 * rf, 1.2 * rf, 200_001)
        mass = np.trapezoid(ref.eval(xs, np.full_like(xs, t)), xs)
        assert abs(mass - 1.0) <= 1e-6


def test_barenblatt_free_boundary_exponent_closed_form():
    for m in (2.0, 3.0):
        ref = BarenblattPME(m=m, n=1, mass=1.0)
        t = 1.5
        rf = ref.free_boundary_radius(t)
        d = np.logspace(-6, -2, 30)
        vals = ref.eval(rf - d, np.full_like(d, t))
        slope = np.polyfit(np.log(d), np.log(vals), 1)[0]
        assert abs(slope - 1.0 / (m - 1.0)) <= 0.02


def test_power_profile():
    ref = PowerProfile(s=0.75)
    assert float(ref.eval(0.5, 3.0)) == pytest.approx(0.5**0.75)


def test_power_profile_default_center_is_the_origin_in_2d():
    x, y = GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 9, 11, 0.0, 1.0, 2).node_mesh()
    np.testing.assert_allclose(PowerProfile(s=0.75).eval(x, y, 0.0), np.hypot(x, y) ** 0.75,
                               rtol=1e-14, atol=0.0)


# -- solve: oracle errors ----------------------------------------------------


def test_heat_vs_separable_oracle_and_convergence():
    params = EquationParams.heat(1)
    oracle = HeatSeparable(n=1)
    errs = []
    for nx in (65, 129):
        g = heat_grid(nx)
        got = solve(params, None, lambda x: np.sin(np.pi * x), g,
                    SolverConfig(boundary=Boundary.DIRICHLET_ZERO))
        exact = sample_reference(oracle, g)
        errs.append(float(np.abs(got.values - exact.values).max()))
    assert errs[-1] <= 5e-4
    assert errs[0] / errs[1] >= 1.5


def test_pme_vs_barenblatt_coarse():
    ref = BarenblattPME(m=2.0, n=1, mass=1.0)
    g = GridSpec.one_d(-3.0, 3.0, 257, 1.0, 1.5, 26)
    got = solve(EquationParams.pme(2.0, 1), None,
                lambda x: ref.eval(x, np.full_like(x, 1.0)), g,
                SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE), oracle=ref)
    exact = sample_reference(ref, g)
    err = float(np.abs(got.values - exact.values).max())
    assert err <= 4e-2  # first order at the free boundary; tightened in acceptance


def test_reduction_lattice_bitwise():
    rng = np.random.default_rng(23)
    init = rng.uniform(0.1, 1.0, 65)
    init[0] = init[-1] = 0.0
    g = GridSpec.one_d(0.0, 1.0, 65, 0.0, 0.01, 6)
    src = SourceTerm(ClosedForm("sin_product", {"k": (1.0,)}), q=5.0, r=5.0)
    cfg = SolverConfig(flux_regularization_eps=0.0)

    heat = solve(EquationParams.heat(1), src, init, g, cfg)
    pparab2 = solve(EquationParams(EquationKind.P_PARABOLIC, 1, p=2.0), src, init, g, cfg)
    pme1 = solve(EquationParams(EquationKind.PME, 1, m=1.0), src, init, g, cfg)
    assert np.array_equal(heat.values, pparab2.values)
    assert np.array_equal(heat.values, pme1.values)

    dnl_m1 = solve(EquationParams(EquationKind.DOUBLY_NONLINEAR, 1, p=3.0, m=1.0), src, init, g, cfg)
    pparab3 = solve(EquationParams.p_parabolic(3.0, 1), src, init, g, cfg)
    assert np.array_equal(dnl_m1.values, pparab3.values)

    dnl_p2 = solve(EquationParams(EquationKind.DOUBLY_NONLINEAR, 1, p=2.0, m=2.0), src, init, g, cfg)
    pme2 = solve(EquationParams.pme(2.0, 1), src, init, g, cfg)
    assert np.array_equal(dnl_p2.values, pme2.values)


def test_face_diffusivity_exact_reductions():
    # exercise the generic formula path at the reduction points
    from holderlab.solvers import _face_diffusivity

    forged = object.__new__(EquationParams)
    object.__setattr__(forged, "kind", EquationKind.P_PARABOLIC)
    object.__setattr__(forged, "n", 1)
    object.__setattr__(forged, "p", 2.0)
    object.__setattr__(forged, "m", 1.0)
    cfg = SolverConfig(flux_regularization_eps=0.0)
    g2 = np.array([0.0, 0.3, 7.1])
    assert np.array_equal(_face_diffusivity(forged, cfg, g2, g2, g2), np.ones(3))

    object.__setattr__(forged, "kind", EquationKind.DOUBLY_NONLINEAR)
    u = np.array([0.5, 2.0, 3.0])
    got = _face_diffusivity(forged, cfg, u, u, g2)  # m=1, p=2
    assert np.array_equal(got, np.ones(3))


@pytest.mark.parametrize("params", [
    EquationParams.heat(1),
    EquationParams.p_parabolic(3.0, 1),
    EquationParams.pme(2.0, 1),
    EquationParams.doubly_nonlinear(3.0, 2.0, 1),
], ids=lambda params: params.kind.value)
def test_face_diffusivity_is_the_one_closed_form(params):
    """D = m |u_face|^(m-1) (|grad u|^2 + eps^2)^((p-2)/2), bitwise, with a factor
    that is exactly 1 left out."""
    from holderlab.solvers import _face_diffusivity

    rng = np.random.default_rng(11)
    u_lo, u_hi = rng.uniform(-1.0, 2.0, (2, 64))
    grad2 = rng.uniform(0.0, 3.0, 64)
    eps, p, m = 1e-3, params.p, params.m
    cfg = SolverConfig(flux_regularization_eps=eps)
    amp = m * np.abs(0.5 * (u_lo + u_hi)) ** (m - 1.0)
    grad_factor = (grad2 + eps**2) ** ((p - 2.0) / 2.0)
    want = {
        EquationKind.HEAT: np.ones(64),
        EquationKind.P_PARABOLIC: grad_factor,
        EquationKind.PME: amp,
        EquationKind.DOUBLY_NONLINEAR: amp * grad_factor,
    }[params.kind]
    assert _face_diffusivity(params, cfg, u_lo, u_hi, grad2).tobytes() == want.tobytes()
    if p == 2.0:  # |grad u|^2 is read only for p != 2
        assert _face_diffusivity(params, cfg, u_lo, u_hi, None).tobytes() == want.tobytes()


def test_conservation_periodic():
    g = GridSpec.one_d(-1.0, 1.0, 101, 0.0, 0.02, 11)
    init = 1.0 + 0.5 * np.cos(np.pi * g.x_nodes(0))
    init[-1] = init[0]
    got = solve(EquationParams.pme(2.0, 1), None, init, g,
                SolverConfig(boundary=Boundary.PERIODIC))
    dx = g.dx[0]
    masses = got.values[:, :-1].sum(axis=1) * dx  # unique periodic nodes
    assert np.abs(masses - masses[0]).max() <= 5e-8


def test_conservation_compact_support_dirichlet_zero():
    g = GridSpec.one_d(-2.0, 2.0, 201, 0.0, 0.005, 6)
    init = np.asarray(expression("bump", x_support=((-0.5, 0.5),), t_support=(-1.0, 1.0))(g.x_nodes(0), 0.0))
    got = solve(EquationParams.heat(1), None, init, g, SolverConfig())
    masses = got.values.sum(axis=1) * g.dx[0]
    assert np.abs(masses - masses[0]).max() <= 1e-9


def test_max_principle():
    rng = np.random.default_rng(4)
    g = GridSpec.one_d(-1.0, 1.0, 129, 0.0, 0.01, 21)
    init = rng.uniform(-1.0, 1.0, 129)
    init[-1] = init[0]
    got = solve(EquationParams.p_parabolic(3.0, 1), None, init, g,
                SolverConfig(boundary=Boundary.PERIODIC))
    maxes = got.values.max(axis=1)
    mins = got.values.min(axis=1)
    assert np.all(np.diff(maxes) <= 1e-13)
    assert np.all(np.diff(mins) >= -1e-13)


def test_eps_robustness_below_noise_floor():
    params = EquationParams.p_parabolic(3.0, 1)
    g = heat_grid(129)
    oracle_err = None
    fields = {}
    for eps in (1e-3, 5e-4):
        cfg = SolverConfig(flux_regularization_eps=eps, boundary=Boundary.DIRICHLET_ZERO)
        fields[eps] = solve(params, None, lambda x: np.sin(np.pi * x), g, cfg)
    diff = float(np.abs(fields[1e-3].values - fields[5e-4].values).max())
    # compare against the discretization error proxy: distance to a refined run
    g_fine = heat_grid(257)
    fine = solve(params, None, lambda x: np.sin(np.pi * x), g_fine,
                 SolverConfig(flux_regularization_eps=5e-4, boundary=Boundary.DIRICHLET_ZERO))
    coarse_on_fine = fields[5e-4].interp(g_fine.x_nodes(0),
                                         np.full(g_fine.nx[0], g.t_extent[1]))
    oracle_err = float(np.abs(coarse_on_fine - fine.values[-1]).max())
    assert diff <= oracle_err


def test_blowup_reported():
    g = GridSpec.one_d(0.0, 1.0, 33, 0.0, 0.01, 3)
    init = np.where(np.arange(33) % 2 == 0, 1e160, -1e160)  # grad^2 overflows
    with np.errstate(over="ignore"):
        with pytest.raises(BlowUp) as exc:
            solve(EquationParams.p_parabolic(4.0, 1), None, init, g, SolverConfig())
    assert exc.value.step_index >= 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("params", [
    EquationParams.heat(1), EquationParams.heat(2),
    EquationParams.p_parabolic(3.0, 1), EquationParams.pme(2.0, 1),
    EquationParams.doubly_nonlinear(3.0, 1.5, 1), EquationParams.p_parabolic(3.0, 2),
    EquationParams.pme(2.0, 2), EquationParams.doubly_nonlinear(3.0, 1.5, 2),
], ids=lambda p: f"{p.kind.value}-{p.n}d")
def test_non_finite_init_blows_up_at_step_0(params, bad):
    # every family, also heat, whose D never reads u: init is checked before any flux
    g = GridSpec(params.n, ((0.0, 1.0),) * params.n, (9,) * params.n, (0.5, 0.6), 3)
    init = np.full(g.spatial_shape(), 0.25)
    init[(4,) * params.n] = bad
    with pytest.raises(BlowUp) as exc:
        solve(params, None, init, g)
    assert (exc.value.step_index, exc.value.time) == (0, 0.5)


def test_mid_run_overflow_blows_up_at_the_end_of_its_level():
    # heat's D is 1, so d_max stays finite and only the end-of-level check sees the inf
    g = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 0.01, 3)
    init = np.where(np.arange(21) % 2 == 0, 1e308, -1e308)
    init[[0, -1]] = 0.0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUp) as exc:
        solve(EquationParams.heat(1), None, init, g)
    assert (exc.value.step_index, exc.value.time) == (3, 0.005)


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_leaves_the_callers_init_unchanged(dim):
    g = GridSpec(dim, ((0.0, 1.0),) * dim, (17,) * dim, (0.0, 0.01), 3)
    init = 0.6 * np.prod([np.sin(np.pi * x) for x in g.node_mesh()], axis=0) + 0.1
    before = init.copy()
    got = solve(EquationParams.pme(2.0, dim), None, init, g)
    assert np.array_equal(init, before) and not np.array_equal(got.values[-1], before)


def test_non_finite_source_raises_evaluation_failure():
    # heat's D never reads u, so the d_max check would not see the inf node of f
    g = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 0.01, 3)
    source = SourceTerm(ClosedForm("rough_power", {"sigma": 0.4}))  # uncapped: inf at x = 0
    with pytest.raises(EvaluationFailure):
        solve(EquationParams.heat(1), source, np.zeros(21), g)


def test_unstable_config_step_budget():
    g = GridSpec.one_d(0.0, 1.0, 257, 0.0, 0.1, 3)
    cfg = SolverConfig(max_steps=10)
    with pytest.raises(UnstableConfig):
        solve(EquationParams.heat(1), None, lambda x: np.sin(np.pi * x), g, cfg)


# -- residual ----------------------------------------------------------------


def test_residual_constant_zero():
    g = GridSpec.one_d(0.0, 1.0, 33, 0.0, 1.0, 5)
    f = sample_reference(PowerProfile(s=0.0), g)  # u == 1
    rep = residual(f, EquationParams.heat(1))
    assert rep.max_residual == 0.0


def test_residual_rate_on_sampled_heat():
    params = EquationParams.heat(1)
    vals = []
    for nx, nt in ((33, 33), (65, 65), (129, 129)):
        g = GridSpec.one_d(0.0, 1.0, nx, 0.0, 0.1, nt)
        f = sample_reference(HeatSeparable(n=1), g)
        vals.append(residual(f, params).max_residual)
    assert vals[0] / vals[1] >= 1.8
    assert vals[1] / vals[2] >= 1.8


def test_residual_solver_vs_sampled_barenblatt():
    ref = BarenblattPME(m=2.0, n=1, mass=1.0)
    g = GridSpec.one_d(-3.0, 3.0, 257, 1.0, 1.2, 41)
    params = EquationParams.pme(2.0, 1)
    solved = solve(params, None, lambda x: ref.eval(x, np.full_like(x, 1.0)), g,
                   SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE), oracle=ref)
    sampled = sample_reference(ref, g)
    r_solved = residual(solved, params).max_residual
    r_sampled = residual(sampled, params).max_residual
    assert r_solved <= 10.0 * r_sampled


def test_residual_grid_too_coarse():
    g = GridSpec.one_d(0.0, 1.0, 33, 0.0, 1.0, 2)
    f = sample_reference(PowerProfile(s=0.0), g)
    with pytest.raises(GridTooCoarse):
        residual(f, EquationParams.heat(1))


def test_two_d_heat_smoke():
    g = GridSpec.two_d((0.0, 1.0), (0.0, 1.0), 33, 33, 0.0, 0.01, 5)
    oracle = HeatSeparable(n=2)
    got = solve(EquationParams.heat(2), None,
                lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), g,
                SolverConfig(boundary=Boundary.DIRICHLET_ZERO))
    exact = sample_reference(oracle, g)
    assert float(np.abs(got.values - exact.values).max()) <= 5e-3


def test_two_d_periodic_heat_exact_mode():
    def max_error(n, t_end=0.005):
        g = GridSpec.two_d((0.0, 1.0), (0.0, 1.0), n, n, 0.0, t_end, 2)
        got = solve(EquationParams.heat(2), None,
                    lambda x, y: 1.0 + np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y), g,
                    SolverConfig(boundary=Boundary.PERIODIC))
        x, y = g.node_mesh()
        decay = math.exp(-8.0 * math.pi**2 * t_end)
        exact = 1.0 + decay * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return float(np.abs(got.values[-1] - exact).max())  # edge nodes included

    coarse, fine = max_error(33), max_error(65)
    assert coarse <= 5e-4
    assert coarse / fine >= 3.0


# -- one stepper for every dimension ------------------------------------------


def test_residual_rate_on_sampled_heat_2d():
    params = EquationParams.heat(2)
    vals = []
    for n in (17, 33, 65):
        g = GridSpec.two_d((0.0, 1.0), (0.0, 1.0), n, n, 0.0, 0.1, n)
        f = sample_reference(HeatSeparable(n=2), g)
        vals.append(residual(f, params).max_residual)
    assert vals[0] / vals[1] >= 1.8
    assert vals[1] / vals[2] >= 1.8


def test_residual_rate_pparabolic_2d_tangential_term():
    # u = sin x sin y e^-t and f = u_t - div(|grad u|^2 grad u) (p = 4) in closed
    # form; both u_x and u_y are nonzero inside, so the face |grad u|^2 needs
    # the tangential difference of the other axis to converge
    def u_exact(x, y, t):
        return np.sin(x) * np.sin(y) * np.exp(-t)

    def f_exact(x, y, t):
        e = np.exp(-t)
        u = u_exact(x, y, t)
        ux, uy = np.cos(x) * np.sin(y) * e, np.sin(x) * np.cos(y) * e
        grad2_u = ux**2 + uy**2
        div = (-2.0 * grad2_u * u
               + e**2 * (np.sin(2 * x) * np.cos(2 * y) * ux + np.cos(2 * x) * np.sin(2 * y) * uy))
        return -u - div

    params = EquationParams.p_parabolic(4.0, 2)
    cfg = SolverConfig(flux_regularization_eps=0.0)
    vals = []
    for n in (17, 33, 65):
        g = GridSpec.two_d((0.0, 1.0), (0.0, 1.0), n, n, 0.0, 0.1, n)
        source = SourceTerm(sample(f_exact, g))
        vals.append(residual(sample(u_exact, g), params, source, cfg).max_residual)
    assert vals[0] / vals[1] >= 1.8
    assert vals[1] / vals[2] >= 1.8


def test_residual_solver_vs_sampled_barenblatt_2d():
    ref = BarenblattPME(m=2.0, n=2, mass=0.5)
    g = GridSpec.two_d((-2.0, 2.0), (-2.0, 2.0), 49, 49, 1.0, 1.2, 21)
    params = EquationParams.pme(2.0, 2)
    solved = solve(params, None, lambda x, y: ref.eval(x, y, np.full_like(x, 1.0)), g,
                   SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE), oracle=ref)
    r_solved = residual(solved, params).max_residual
    r_sampled = residual(sample_reference(ref, g), params).max_residual
    assert r_solved <= 10.0 * r_sampled


@pytest.mark.parametrize("params", [
    EquationParams.heat(2),
    EquationParams.p_parabolic(3.0, 2),
    EquationParams.pme(2.0, 2),
    EquationParams(EquationKind.DOUBLY_NONLINEAR, 2, p=3.0, m=2.0),
], ids=lambda p: p.kind.value)
def test_two_d_periodic_x_only_data_keeps_columns_equal(params):
    g = GridSpec.two_d((-1.0, 1.0), (0.0, 0.5), 33, 9, 0.0, 0.01, 5)
    got = solve(params, None,
                lambda x, y: 1.0 + 0.5 * np.cos(np.pi * x) + 0.2 * np.sin(2 * np.pi * x) + 0.0 * y,
                g, SolverConfig(boundary=Boundary.PERIODIC))
    assert np.abs(got.values[-1] - got.values[0]).max() > 1e-3  # the solution moved
    assert np.array_equal(got.values, np.broadcast_to(got.values[:, :, :1], got.values.shape))


@settings(max_examples=30, deadline=None)
@given(p=st.floats(2.0, 10.0, exclude_min=True),
       m=st.one_of(st.none(), st.floats(1.0, 3.0, exclude_min=True)),
       amplitude=st.floats(0.08, 0.15),
       offset=st.floats(0.0, 1.0),
       phase=st.floats(0.0, 2 * math.pi))
def test_periodic_total_variation_never_grows(p, m, amplitude, offset, phase):
    if m is None:
        params = EquationParams.p_parabolic(p, 1)
    else:
        params = EquationParams(EquationKind.DOUBLY_NONLINEAR, 1, p=p, m=m)
    # gradients up to 2: at p = 10 the CFL step binds, some hundreds of substeps
    g = GridSpec.one_d(0.0, 1.0, 33, 0.0, 1e-3, 6)
    x = g.x_nodes(0)
    init = offset + amplitude * (np.sin(2 * np.pi * x + phase) + 0.5 * np.sin(4 * np.pi * x))
    init[-1] = init[0]
    got = solve(params, None, init, g, SolverConfig(boundary=Boundary.PERIODIC))
    tv = np.abs(np.diff(got.values, axis=1)).sum(axis=1)
    assert np.all(np.diff(tv) <= 1e-12 * tv[0])


def test_two_d_oracle_dirichlet_edges_equal_oracle():
    ref = BarenblattPME(m=2.0, n=2, mass=0.5)
    # the box cuts the support, so every edge carries some nonzero oracle values
    g = GridSpec.two_d((-1.2, 1.0), (-1.0, 1.3), 23, 26, 1.0, 1.3, 7)
    got = solve(EquationParams.pme(2.0, 2), None,
                lambda x, y: ref.eval(x, y, np.full_like(x, 1.0)), g,
                SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE), oracle=ref)
    exact = sample_reference(ref, g)
    for edge in ((slice(None), 0), (slice(None), -1), (slice(None), slice(None), 0),
                 (slice(None), slice(None), -1)):
        assert np.any(exact.values[edge] > 0.0)
        assert np.array_equal(got.values[edge], exact.values[edge])


@pytest.mark.parametrize("call, error, match", [
    (lambda: SolverConfig(cfl_safety=0.0), ValueError, "cfl_safety"),
    # frozen, so no assignment can get round the checks in __post_init__
    (lambda: setattr(SolverConfig(), "cfl_safety", 5.0), dataclasses.FrozenInstanceError, "cfl_safety"),
    (lambda: solve(EquationParams.heat(1), None, np.zeros(5), heat_grid(11)), ValueError, "init shape"),
    (lambda: solve(EquationParams.heat(1), None, np.zeros(11), heat_grid(11),
                   SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE)), ValueError, "reference solution"),
    (lambda: BarenblattPME(m=2.0, n=1, mass=1.0).free_boundary_radius(0.0), OutsideValidity, "t > 0"),
], ids=["cfl_safety_0", "cfl_safety_assigned", "init_shape", "oracle_boundary_without_oracle",
        "free_boundary_at_t_0"])
def test_solvers_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _literal_scheme(params, source, init, grid, cfg, oracle):
    """The module docstring's update as plain numpy expressions: u, then each
    axis' (F_hi - F_lo) / h on the inner nodes in axis order, then each axis'
    wrapped-face flux on a PERIODIC boundary, then dt f; D is the closed form
    with every factor, since a factor that is exactly 1 changes no bit."""
    p, m, eps, dim = params.p, params.m, cfg.flux_regularization_eps, grid.dim
    periodic = cfg.boundary is Boundary.PERIODIC
    mesh = grid.node_mesh()

    def along(a, i):
        return tuple(i if b == a else slice(None) for b in range(dim))

    def boundary(u, t):
        for edge in ([] if periodic else [along(a, i) for a in range(dim) for i in (0, -1)]):
            xs = [x[edge] for x in mesh]
            u[edge] = 0.0 if oracle is None else oracle.eval(*xs, np.full(xs[0].shape, t))
        return u

    u = boundary(np.array(init, dtype=float), grid.t_extent[0])
    out, t = [u.copy()], grid.t_extent[0]
    for t_target in grid.t_nodes[1:]:
        while t < t_target - 1e-13 * max(1.0, abs(t_target)):
            node_grads = [np.gradient(u, h, axis=a) for a, h in enumerate(grid.dx)][::-1]
            inner, wraps, d_max = [], [], []
            for a, h in enumerate(grid.dx):
                lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
                grad = (u[hi] - u[lo]) / h
                grad2 = grad * grad
                if dim == 2:
                    grad2 = grad2 + (0.5 * (node_grads[a][hi] + node_grads[a][lo])) ** 2
                d = m * np.abs(0.5 * (u[lo] + u[hi])) ** (m - 1.0) * (grad2 + eps**2) ** ((p - 2.0) / 2.0)
                d_max.append(float(d.max()))
                flux = d * grad
                inner.append((along(a, slice(1, -1)), (flux[hi] - flux[lo]) / h))
                wraps.append((along(a, 0), (flux[along(a, 0)] - flux[along(a, -1)]) / h))
            d_top = max(d_max)
            step = cfg.cfl_safety * min(grid.dx) ** 2 if d_top == 0.0 else \
                cfg.cfl_safety / (2.0 * d_top * sum(1.0 / h**2 for h in grid.dx))
            dt = min(step, t_target - t)
            new = u.copy()
            for index, diff in inner + (wraps if periodic else []):
                new[index] += dt * diff
            if source is not None:
                new += dt * source.form(*mesh, t)
            if periodic:
                for a in range(dim):
                    new[along(a, -1)] = new[along(a, 0)]
            t += dt
            u = boundary(new, t)
        t = t_target
        out.append(u.copy())
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(pm=st.sampled_from([(2.0, 1.0), (3.0, 1.0), (4.0, 1.0), (2.0, 2.0), (2.0, 1.5),
                           (3.0, 2.0), (2.5, 1.5)]),
       dim=st.sampled_from([1, 2]),
       boundary=st.sampled_from(list(Boundary)),
       eps=st.sampled_from([1e-6, 0.0]),
       with_source=st.booleans(),
       signed=st.booleans(),
       seed=st.integers(0, 2**16))
def test_stepper_equals_the_literal_scheme_bitwise(pm, dim, boundary, eps, with_source, signed, seed):
    params = EquationParams(EquationKind.DOUBLY_NONLINEAR, dim, p=pm[0], m=pm[1])
    nx = (17,) if dim == 1 else (9, 11)
    g = GridSpec(dim, ((0.0, 1.0),) * dim, nx, (0.2, 0.2015), 3)
    rng = np.random.default_rng(seed)
    init = 0.6 * np.prod([np.sin(np.pi * x) for x in g.node_mesh()], axis=0)
    init = init + 0.05 * rng.standard_normal(g.spatial_shape())
    init = init if signed else np.abs(init)
    source = SourceTerm(ClosedForm("sin_product", {"k": (1.0, 2.0)[:dim], "omega": 3.0})) \
        if with_source else None
    cfg = SolverConfig(flux_regularization_eps=eps, boundary=boundary)
    oracle = HeatSeparable(n=dim, amplitude=0.3) if boundary is Boundary.DIRICHLET_FROM_ORACLE else None
    got = solve(params, source, init, g, cfg, oracle=oracle)
    assert np.array_equal(got.values, _literal_scheme(params, source, init, g, cfg, oracle))

