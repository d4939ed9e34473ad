"""Solver validation against closed-form oracles and scheme invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holderlab.errors import (
    BlowUp,
    EvaluationFailure,
    GridTooCoarse,
    OutsideValidity,
    UnstableConfig,
)
from holderlab.exponents import EquationKind, EquationParams
from holderlab.fields import ClosedForm, GridSpec, SourceTerm, expression, rough_power_cap, sample
from holderlab.geometry import ScalingKind, apply_scaling, build_scaling
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


def test_power_profile_centre_needs_one_entry_per_axis():
    # a 1D centre in 2D must not drop y: |(0, 3) - (0.5,)| is no distance
    with pytest.raises(ValueError):
        PowerProfile(1.0, (0.5,)).eval(np.array([0.0]), np.array([3.0]), 0.0)


@pytest.mark.parametrize("ref", [HeatSeparable(1), HeatSeparable(2), HeatSeparable(3), BarenblattPME(2.0, 1),
                                 BarenblattPME(3.0, 2), BarenblattPME(2.0, 3)],
                         ids=lambda r: f"{type(r).__name__}_{r.n}d")
def test_exact_solutions_need_one_coordinate_per_axis(ref):
    x = np.array([0.25])
    for count in (ref.n, ref.n + 2):  # 1D constants on a 2D point read a wrong value
        with pytest.raises(ValueError, match="coordinates"):
            ref.eval(*[x] * count)
    assert np.shape(ref.eval(*[x] * (ref.n + 1))) == (1,)


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


def test_the_m2_amplitude_is_exact_where_the_half_sum_is_subnormal():
    """At m = 2, D = m |(u_lo + u_hi) / 2| is |u_lo + u_hi| with no halving, which
    would round a subnormal half sum: 1.5 units of the last place to 2, 0.5 to 0."""
    from holderlab.solvers import _face_diffusivity

    cfg = SolverConfig()
    u_lo, u_hi = [5e-324, -1e-323, 0.3], [1e-323, 5e-324, 0.2]
    want = np.array([1.5e-323, 5e-324, 0.5])
    got = _face_diffusivity(EquationParams.pme(2.0, 1), cfg, u_lo, u_hi, None)
    assert got.tobytes() == want.tobytes()
    grad2 = np.array([0.25, 4.0, 2.0])
    got = _face_diffusivity(EquationParams.doubly_nonlinear(3.0, 2.0, 1), cfg, u_lo, u_hi, grad2)
    assert got.tobytes() == (want * np.sqrt(grad2 + cfg.flux_regularization_eps**2)).tobytes()


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


@pytest.mark.parametrize("boundary", [Boundary.DIRICHLET_ZERO, Boundary.PERIODIC], ids=lambda b: b.value)
@pytest.mark.parametrize("params", [
    EquationParams.pme(3.0, 1), EquationParams.pme(3.0, 2),
    EquationParams.p_parabolic(3.0, 1), EquationParams.p_parabolic(3.0, 2),
], ids=lambda p: f"{p.kind.value}-{p.n}d")
def test_overflowing_values_blow_up_without_a_warning(params, boundary):
    # u^m and |grad u|^2 overflow at the first flux; the tests run with warnings as errors
    g = GridSpec(params.n, ((0.0, 1.0),) * params.n, (9,) * params.n, (0.5, 0.6), 3)
    init = np.zeros(g.spatial_shape())
    init[(4,) * params.n] = 1e200
    with pytest.raises(BlowUp) as exc:
        solve(params, None, init, g, SolverConfig(boundary=boundary))
    assert (exc.value.step_index, exc.value.time) == (0, 0.5)


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


@pytest.mark.parametrize("name, params", [
    ("sin_product", {"k": (1.0,), "omega": 30.0}),
    ("rough_power", {"sigma": 0.4, "cap": 20.0, "center": 0.01}),
], ids=["t_dependent", "t_free"])
def test_a_plain_catalog_callable_solves_like_its_closed_form(name, params):
    g = GridSpec.one_d(-1.0, 1.0, 41, 0.0, 0.01, 5)
    u0 = 1.0 + 0.5 * np.cos(np.pi * g.x_nodes())
    want = solve(EquationParams.pme(2.0, 1), SourceTerm(ClosedForm(name, params)), u0, g)
    got = solve(EquationParams.pme(2.0, 1), SourceTerm(expression(name, **params)), u0, g)
    assert got.values.tobytes() == want.values.tobytes()


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


def _literal_defect(field, params, cfg):
    """The max interior defect as written out: u_t by the two-sided difference, less
    each axis' (F_hi - F_lo) / h summed onto the inner nodes in axis order, with F and
    D as in ``_literal_scheme``."""
    g, p, m, eps = field.grid, params.p, params.m, cfg.flux_regularization_eps
    core = (slice(1, -1),) * g.dim

    def along(a, i):
        return tuple(i if b == a else slice(None) for b in range(g.dim))

    worst = 0.0
    for k in range(1, g.nt - 1):
        u = field.values[k]
        u_t = (field.values[k + 1] - field.values[k - 1]) / (2.0 * g.dt)
        node_grads = [np.gradient(u, h, axis=a) for a, h in enumerate(g.dx)][::-1]
        div = np.zeros(u.shape)
        for a, h in enumerate(g.dx):
            lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
            grad = (u[hi] - u[lo]) / h
            grad2 = grad * grad
            if g.dim == 2:
                grad2 = grad2 + (0.5 * (node_grads[a][hi] + node_grads[a][lo])) ** 2
            d = m * np.abs(0.5 * (u[lo] + u[hi])) ** (m - 1.0) * (grad2 + eps**2) ** ((p - 2.0) / 2.0)
            flux = d * grad
            div[along(a, slice(1, -1))] += (flux[hi] - flux[lo]) / h
        worst = max(worst, float(np.abs(u_t[core] - div[core]).max()))
    return worst


@pytest.mark.parametrize("boundary", [Boundary.DIRICHLET_ZERO, Boundary.PERIODIC])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("pm", [(2.0, 1.0), (3.0, 1.0), (2.0, 2.0), (3.0, 1.5)],
                         ids=["heat", "p_parabolic", "pme", "dnl"])
def test_residual_is_the_literal_defect_on_power_of_two_grids(pm, dim, boundary):
    """On spacings 1/16 and 1/8 the stepper's flux differences leave out 1/h, and
    ``residual`` puts it back: its defect is bitwise the written-out one."""
    from holderlab.solvers import _Stepper

    params = EquationParams(EquationKind.DOUBLY_NONLINEAR, dim, p=pm[0], m=pm[1])
    g = GridSpec(dim, ((0.0, 1.0),) * dim, (17,) if dim == 1 else (17, 9), (0.0, 0.01), 5)
    cfg = SolverConfig(boundary=boundary)
    assert len(_Stepper(params, cfg, g).folds) == dim
    rng = np.random.default_rng(7)
    field = sample(lambda *c: rng.uniform(-0.5, 1.0, np.broadcast(*c).shape), g)
    assert residual(field, params, cfg=cfg).max_residual == _literal_defect(field, params, cfg)


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


class _TimeOnly:
    """An oracle whose ``eval`` is a scalar function of t alone."""

    @staticmethod
    def eval(*coords):
        return 1.0 + 0.5 * coords[-1]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["barenblatt", "heat", "time_only"])
def test_the_oracle_boundary_is_one_call_on_every_edge_node(kind, dim):
    """After a solve every edge node, corners included, holds the oracle's value at
    the last substep's time, bitwise as one evaluation per edge on a time array; each
    call takes a scalar t, and a scalar result fills every edge node."""
    if kind == "barenblatt":  # the box cuts the support, so the edges carry nonzero values
        ref, params = BarenblattPME(2.0, dim, 0.5), EquationParams.pme(2.0, dim)
        g = GridSpec(dim, ((-1.2, 1.0), (-1.0, 1.3))[:dim], (23, 26)[:dim], (1.0, 1.3), 4)
    else:
        ref = HeatSeparable(dim, extent=(-0.5, 1.0)) if kind == "heat" else _TimeOnly()
        params = EquationParams.heat(dim)
        g = GridSpec(dim, ((0.0, 1.0),) * dim, (17, 9)[:dim], (0.0, 0.01), 4)
    times = []

    class Recording:
        def eval(self, *coords):
            times.append(coords[-1])
            return ref.eval(*coords)

    init = np.zeros(g.spatial_shape()) if kind == "time_only" else ref.eval(*g.node_mesh(), g.t_extent[0])
    cfg = SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE)
    got = solve(params, None, init, g, cfg, oracle=Recording())
    assert len(times) > g.nt and all(isinstance(t, float) for t in times)
    mesh = g.node_mesh()
    edges = [tuple(i if b == a else slice(None) for b in range(dim)) for a in range(dim) for i in (0, -1)]
    for edge in edges:
        xs = [x[edge] for x in mesh]
        want = ref.eval(*xs, np.full(xs[0].shape, times[-1]))
        assert np.any(want != 0.0)
        assert got.values[-1][edge].tobytes() == want.tobytes()


@pytest.mark.parametrize("call, error, match", [
    (lambda: SolverConfig(cfl_safety=0.0), ValueError, "cfl_safety"),
    # frozen, so no assignment can get round the checks in __post_init__
    (lambda: setattr(SolverConfig(), "cfl_safety", 5.0), dataclasses.FrozenInstanceError, "cfl_safety"),
    (lambda: solve(EquationParams.heat(1), None, np.zeros(5), heat_grid(11)), ValueError, "init shape"),
    (lambda: solve(EquationParams.heat(1), None, np.zeros(11), heat_grid(11),
                   SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE)), ValueError, "reference solution"),
    (lambda: BarenblattPME(m=2.0, n=1, mass=1.0).free_boundary_radius(0.0), OutsideValidity, "t > 0"),
    (lambda: SolverConfig(boundary="dirichlet"), ValueError, "not a valid Boundary"),
    (lambda: SolverConfig(boundary=None), ValueError, "not a valid Boundary"),
    (lambda: SolverConfig(max_steps=0), ValueError, "max_steps"),
    (lambda: SolverConfig(max_steps=-5), ValueError, "max_steps"),
    (lambda: SolverConfig(max_steps=True), ValueError, "max_steps"),
    (lambda: SolverConfig(max_steps=2.5), ValueError, "max_steps"),
    (lambda: SolverConfig(cfl_safety=True), ValueError, "cfl_safety"),
    (lambda: SolverConfig(flux_regularization_eps=True), ValueError, "flux_regularization_eps"),
    (lambda: BarenblattPME(2.0, 1, -1.0), ValueError, "mass"),
    (lambda: BarenblattPME(2.0, 1, 0.0), ValueError, "mass"),
    (lambda: BarenblattPME(2.0, 1, math.nan), ValueError, "mass"),
    (lambda: BarenblattPME(2.0, 1, math.inf), ValueError, "mass"),
    (lambda: BarenblattPME(2.0, 0), ValueError, "n must be"),
    (lambda: BarenblattPME(2.0, True), ValueError, "n must be"),
    (lambda: BarenblattPME(2.0, 1.0), ValueError, "n must be"),
    (lambda: HeatSeparable(n=0), ValueError, "n must be"),
    (lambda: HeatSeparable(n=True), ValueError, "n must be"),
    (lambda: HeatSeparable(1, (1.0, 0.0)), ValueError, "extent"),
    (lambda: HeatSeparable(1, (0.0, 0.0)), ValueError, "extent"),
    (lambda: HeatSeparable(1, (0.0, math.nan)), ValueError, "extent"),
    (lambda: HeatSeparable(1, (0.0, math.inf)), ValueError, "extent"),
], ids=["cfl_safety_0", "cfl_safety_assigned", "init_shape", "oracle_boundary_without_oracle",
        "free_boundary_at_t_0", "boundary_unknown_value", "boundary_none", "max_steps_0",
        "max_steps_negative", "max_steps_bool", "max_steps_float", "cfl_safety_bool",
        "flux_regularization_eps_bool", "barenblatt_mass_negative", "barenblatt_mass_0",
        "barenblatt_mass_nan", "barenblatt_mass_inf", "barenblatt_n_0", "barenblatt_n_bool",
        "barenblatt_n_float", "heat_n_0", "heat_n_bool", "heat_extent_reversed", "heat_extent_empty",
        "heat_extent_nan", "heat_extent_inf"])
def test_solvers_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("value, member", [("periodic", Boundary.PERIODIC),
                                           ("dirichlet_zero", Boundary.DIRICHLET_ZERO)])
def test_a_boundary_given_by_value_solves_as_its_member(value, member):
    """A boundary named by its value is its member, so an oracle passed along is
    not taken for a Dirichlet-from-oracle request."""
    g = heat_grid(17)
    init = 0.5 + np.sin(np.pi * g.x_nodes())
    oracle = HeatSeparable(n=1, amplitude=0.3)
    assert SolverConfig(boundary=value).boundary is member
    by_value = solve(EquationParams.heat(1), None, init, g, SolverConfig(boundary=value), oracle=oracle)
    by_member = solve(EquationParams.heat(1), None, init, g, SolverConfig(boundary=member), oracle=oracle)
    assert by_value.values.tobytes() == by_member.values.tobytes()


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


@pytest.mark.parametrize("case", ["1d_source_centre_right", "1d_source_centre_left", "2d_oracle"])
def test_stepper_equals_the_literal_scheme_on_the_benchmark_configurations(case):
    """The benchmark's two solver configurations at its short sizes: PME m = 2 in 1D
    with a capped time-free rough source, its centre 0.3 dx right or left of a node,
    and Dirichlet zero edges; and in 2D with a Barenblatt oracle boundary.  Both
    spacings (0.02 and 0.1) take ``_divider``'s division branch, which the property
    test's power-of-two 1D spacing does not."""
    if case == "2d_oracle":
        g = GridSpec.two_d((-2.0, 2.0), (-2.0, 2.0), 41, 41, 1.0, 2.5, 61)
        oracle = BarenblattPME(2.0, 2, 0.5)
        source, init = None, oracle.eval(*g.node_mesh(), 1.0)
        cfg = SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE)
    else:
        g = GridSpec.one_d(-1.0, 1.0, 101, 0.0, 0.07, 41)
        dx = g.dx[0]
        centre = (0.3 if case == "1d_source_centre_right" else -0.3) * dx
        form = ClosedForm("rough_power", {"sigma": 0.4, "cap": rough_power_cap(0.4, dx), "center": centre})
        source, oracle, cfg = SourceTerm(form, q=2.0, r=math.inf), None, SolverConfig()
        init = BarenblattPME(2.0, 1, 1.0).eval(g.x_nodes(), 1.0)
    params = EquationParams.pme(2.0, g.dim)
    got = solve(params, source, init, g, cfg, oracle=oracle)
    assert got.values.tobytes() == _literal_scheme(params, source, init, g, cfg, oracle).tobytes()


# -- the stepper's work arrays and the oracle's closed form -------------------


def test_barenblatt_rejects_a_nan_time():
    ref = BarenblattPME(m=2.0, n=1, mass=1.0)
    for t in (math.nan, np.array([1.0, math.nan]), np.array([1.0, math.nan, 2.0])):
        with pytest.raises(OutsideValidity, match="t > 0"):
            ref.eval(np.zeros(np.shape(t)), t)
    with pytest.raises(OutsideValidity, match="t > 0"):
        ref.free_boundary_radius(math.nan)


def test_barenblatt_rejects_any_time_not_positive_and_takes_an_empty_edge():
    """A time t <= 0 anywhere in the array is rejected, and an empty edge evaluates
    to an empty array."""
    ref = BarenblattPME(m=2.0, n=2, mass=1.0)
    for t in ([1.0, 0.0, 2.0], [1.0, 2.0, -1.0], [[1.0, 1.0], [-0.5, 1.0]]):
        with pytest.raises(OutsideValidity, match="t > 0"):
            ref.eval(np.zeros(np.shape(t)), np.zeros(np.shape(t)), np.array(t))
    got = ref.eval(np.zeros(0), np.zeros(0), np.zeros(0))
    assert got.shape == (0,)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET_ZERO])
@pytest.mark.parametrize("pm", [(2.0, 2.0), (3.0, 1.5)], ids=["pme", "dnl"])
def test_stepper_fluxes_reuse_its_arrays_with_a_fresh_steppers_bits(dim, boundary, pm):
    from holderlab.solvers import _Stepper

    params = EquationParams(EquationKind.DOUBLY_NONLINEAR, dim, p=pm[0], m=pm[1])
    g = GridSpec(dim, ((0.0, 1.0),) * dim, (13,) if dim == 1 else (9, 11), (0.0, 0.1), 2)
    cfg = SolverConfig(boundary=boundary)
    rng = np.random.default_rng(5)
    u_first, u_second = rng.uniform(-0.5, 1.0, (2, *g.spatial_shape()))
    stepper = _Stepper(params, cfg, g)
    first, _ = stepper.fluxes(u_first)
    arrays = [diff for _, diff in first]
    stepper.apply(u_first, 1e-3, None)  # leaves the arrays scaled by dt
    second, d_max = stepper.fluxes(u_second)
    assert second is first
    assert all(a is b for a, (_, b) in zip(arrays, second))
    assert len(second) == (2 * dim if boundary is Boundary.PERIODIC else dim)
    fresh, fresh_d_max = _Stepper(params, cfg, g).fluxes(u_second)
    assert d_max == fresh_d_max
    for (index, diff), (fresh_index, fresh_diff) in zip(second, fresh):
        assert index == fresh_index
        assert diff.tobytes() == fresh_diff.tobytes()


_FAMILIES_2D = [EquationParams.pme(2.0, 2), EquationParams.p_parabolic(3.0, 2),
                EquationParams.doubly_nonlinear(3.0, 2.0, 2)]


@pytest.mark.parametrize("boundary", [Boundary.DIRICHLET_ZERO, Boundary.PERIODIC])
@pytest.mark.parametrize("params", _FAMILIES_2D, ids=lambda p: p.kind.value)
def test_the_flat_stepper_never_sees_a_wrap_face(params, boundary):
    """In the raveled node array the face after a row's last node joins it to the
    next row's first.  With the only large jump across those wrap faces, d_max is
    the largest D over the real faces, taken here with tuple slices."""
    from holderlab.solvers import _face_diffusivity, _Stepper

    g = GridSpec(2, ((0.0, 0.8), (0.0, 1.0)), (9, 11), (0.0, 0.1), 2)
    cfg = SolverConfig(boundary=boundary)
    rows, cols = np.indices(g.spatial_shape())
    if params.kind is EquationKind.PME:  # large values only at the two ends of each wrap face
        u = np.where(((cols == 10) & (rows % 2 == 0)) | ((cols == 0) & (rows % 2 == 1)), 1.0, 0.0)
    else:  # a jump of 10 across each wrap face, of 1 across each real face
        u = cols.astype(float)
    node_grads = [np.gradient(u, h, axis=a) for a, h in enumerate(g.dx)]
    want = 0.0
    for a, h in enumerate(g.dx):
        lo, hi = [tuple(i if b == a else slice(None) for b in range(2))
                  for i in (slice(None, -1), slice(1, None))]
        grad = (u[hi] - u[lo]) / h
        across = 0.5 * (node_grads[1 - a][hi] + node_grads[1 - a][lo])
        want = max(want, _face_diffusivity(params, cfg, u[lo], u[hi], grad * grad + across**2).max())
    h = g.dx[1]
    wrap_d = _face_diffusivity(params, cfg, u[:-1, -1], u[1:, 0], ((u[1:, 0] - u[:-1, -1]) / h) ** 2)
    assert wrap_d.max() > want  # so the check below could fail
    _, d_max = _Stepper(params, cfg, g).fluxes(u)
    assert d_max == want


def test_a_nan_face_diffusivity_on_any_axis_is_the_d_max():
    """d_max is NaN when any face D is, on whichever axis: +inf next to -inf along
    the last axis gives one NaN face there, and infinite D on the first axis."""
    from holderlab.solvers import _Stepper

    g = GridSpec(2, ((0.0, 0.8), (0.0, 1.0)), (9, 11), (0.0, 0.1), 2)
    u = np.zeros(g.spatial_shape())
    u[4, 5], u[4, 6] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        _, d_max = _Stepper(EquationParams.pme(2.0, 2), SolverConfig(), g).fluxes(u)
    assert math.isnan(d_max)


@pytest.mark.parametrize("params", _FAMILIES_2D, ids=lambda p: p.kind.value)
def test_a_periodic_step_adds_only_the_wrapped_face_flux_to_the_first_slab(params):
    """u, a function of the column alone, has no flux along the first axis, so one
    PERIODIC step changes the first column by dt times the wrapped-face flux alone:
    the inner differences the wrap faces of the raveled array feed add nothing there."""
    from holderlab.solvers import _Stepper

    g = GridSpec(2, ((0.0, 0.8), (0.0, 1.0)), (9, 11), (0.0, 0.1), 2)
    stepper = _Stepper(params, SolverConfig(boundary=Boundary.PERIODIC), g)
    u = 1.0 + 0.1 * np.indices(g.spatial_shape())[1] ** 2.0
    before = u.copy()
    diffs, _ = stepper.fluxes(u)
    first, wrap = diffs[-1]  # the last axis' wrapped-face flux, scaled by dt in place below
    assert first == (slice(None), slice(0, 1))
    stepper.apply(u, 1e-4, None)
    assert np.abs(wrap).min() > 0.0
    assert u[:, :1].tobytes() == (before[:, :1] + wrap).tobytes()


@pytest.mark.parametrize("boundary", [Boundary.DIRICHLET_ZERO, Boundary.PERIODIC])
@pytest.mark.parametrize("params", _FAMILIES_2D, ids=lambda p: p.kind.value)
def test_a_two_d_stepper_binds_contiguous_passes(params, boundary):
    """Every array the bound passes of a 2D stepper's ``fluxes`` and ``apply`` read
    or write is C-contiguous, but for one- and two-node slabs at the ends of the last
    axis (the one-sided node gradients, the wrapped-face flux, its first-slab update
    and last-slab copy, and the wrap faces' and edge slots' fills) and for the two
    strided Dirichlet-zero edge fills.  A strided face pass such as u[:, :-1] fails here."""
    from holderlab.solvers import _Stepper

    g = GridSpec(2, ((0.0, 0.8), (0.0, 1.0)), (9, 11), (0.0, 0.1), 2)
    stepper = _Stepper(params, SolverConfig(boundary=boundary), g)
    stepper.fluxes(np.ones(g.spatial_shape()))
    zero_fills = [fn.__self__ for fn, _ in stepper.edges] if boundary is Boundary.DIRICHLET_ZERO else []
    assert [(x.shape, x.flags.c_contiguous) for x in zero_fills] == \
        ([((2, 11), False), ((9, 2), False)] if zero_fills else [])
    operands = [x for fn, args in stepper.calls + stepper.updates + stepper.edges
                for x in (getattr(fn, "__self__", None), *args)
                if isinstance(x, np.ndarray) and x.ndim > 0 and not any(x is e for e in zero_fills)]
    strided = [x.shape for x in operands if not x.flags.c_contiguous]
    assert sum(x.ndim == 1 for x in operands) > len(strided)
    assert set(strided) <= {(9, 1), (9, 2)}
    if boundary is Boundary.DIRICHLET_ZERO and params.p == 2.0:
        assert strided == [(9, 1)]  # the wrap faces' fill


@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("case", ["1d_zero", "2d_oracle"])
def test_the_benchmark_configurations_bind_their_pass_counts(case, m):
    """The passes of one substep on the benchmark's two solver configurations, PME
    in 1D on 801 nodes with zero edges and in 2D on 129^2 with an oracle boundary:
    ``fluxes``' list, and ``apply``'s updates and edge fills.  At m = 2 no flux pass
    multiplies by a 0-d 1/2 or m; at m = 1.5 both are there.  On the 2D grid's
    power-of-two axes (h = 1/32) no pass scales a flux difference by h or 1/h:
    ``apply`` takes 1/h into dt.  A pass added back fails the count."""
    from holderlab.solvers import _Stepper

    if case == "2d_oracle":
        g = GridSpec.two_d((-2.0, 2.0), (-2.0, 2.0), 129, 129, 1.0, 2.5, 151)
        cfg = SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE)
    else:
        g, cfg = GridSpec.one_d(-1.0, 1.0, 801, 0.0, 0.07, 81), SolverConfig()
    stepper = _Stepper(EquationParams.pme(m, g.dim), cfg, g)
    stepper.fluxes(np.ones(g.spatial_shape()))
    want = {("1d_zero", 2.0): (7, 3), ("2d_oracle", 2.0): (13, 4),
            ("1d_zero", 1.5): (10, 3), ("2d_oracle", 1.5): (19, 4)}[case, m]
    assert (len(stepper.calls), len(stepper.updates) + len(stepper.edges)) == want
    scales = {x.item() for fn, args in stepper.calls if fn is np.multiply
              for x in args if isinstance(x, np.ndarray) and x.ndim == 0}
    assert {0.5, m} & scales == (set() if m == 2.0 else {0.5, m})
    diffs = [diff for _, diff in stepper.diffs]
    on_diffs = {x.item() for fn, args in stepper.calls
                if any(isinstance(y, np.ndarray) and np.shares_memory(y, d) for y in args for d in diffs)
                for x in args if isinstance(x, np.ndarray) and x.ndim == 0}
    h = g.dx[0]
    assert on_diffs == (set() if case == "2d_oracle" else {h})
    assert (case == "2d_oracle") == (math.frexp(h)[0] == 0.5)


@pytest.mark.parametrize("boundary", [Boundary.DIRICHLET_FROM_ORACLE, Boundary.PERIODIC])
def test_fortran_ordered_input_solves_and_checks_as_c_ordered(boundary):
    """The stepper works on the raveled node array; an F-ordered init or field is
    taken in C order first, so it solves and checks bitwise as its C-ordered copy."""
    g = GridSpec(2, ((-2.0, 2.0),) * 2, (21, 17), (1.0, 1.2), 4)
    oracle = BarenblattPME(2.0, 2, 0.5)
    init = oracle.eval(*g.node_mesh(), 1.0)
    params, cfg = EquationParams.pme(2.0, 2), SolverConfig(boundary=boundary)
    want = solve(params, None, init, g, cfg, oracle=oracle)
    got = solve(params, None, np.asfortranarray(init), g, cfg, oracle=oracle)
    assert got.values.tobytes() == want.values.tobytes()
    field = dataclasses.replace(want, values=np.asfortranarray(want.values))
    assert not field.values[1].flags.c_contiguous
    assert residual(field, params, cfg=cfg) == residual(want, params, cfg=cfg)


@pytest.mark.parametrize("params", [
    EquationParams.heat(1),
    EquationParams.p_parabolic(3.0, 1),
    EquationParams.pme(2.5, 1),
    EquationParams.doubly_nonlinear(3.0, 2.0, 1),
], ids=lambda p: p.kind.value)
def test_face_diffusivity_writes_into_out(params):
    from holderlab.solvers import _face_diffusivity

    rng = np.random.default_rng(12)
    u_lo, u_hi = rng.uniform(-1.0, 2.0, (2, 64))
    grad2 = rng.uniform(0.0, 3.0, 64)
    cfg = SolverConfig(flux_regularization_eps=1e-3)
    out = np.full(64, np.nan)
    got = _face_diffusivity(params, cfg, u_lo, u_hi, grad2, out=out)
    assert got is out
    assert out.tobytes() == _face_diffusivity(params, cfg, u_lo, u_hi, grad2).tobytes()
    if params.kind is EquationKind.HEAT:
        assert (out == 1.0).all()


def test_stable_dt_allocates_no_grid_sized_array():
    import tracemalloc

    g = GridSpec.two_d((0.0, 1.0), (0.0, 1.0), 1001, 1001, 0.0, 1.0, 2)  # 8 MB per node array
    tracemalloc.start()
    try:
        got = stable_dt(g, 1.0, 2.0, EquationParams.doubly_nonlinear(3.0, 2.0, 2), SolverConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(got, float) and got > 0.0
    assert peak < 100_000


def _written_out_dist2(xs, center=None):
    if np.ndim(center) == 0:
        center = (center or 0.0,) * len(xs)
    return sum((np.asarray(x) - c) ** 2 for x, c in zip(xs, center))


def _written_out_barenblatt(ref, xs, t):
    t = np.asarray(t, dtype=float)
    core = np.maximum(ref.c - ref.b * _written_out_dist2(xs) * t ** (-2.0 * ref.a / ref.n), 0.0)
    return t ** (-ref.a) * core ** (1.0 / (ref.m - 1.0))


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2]), m=st.sampled_from([2.0, 3.0]),
       t_kind=st.sampled_from(["scalar", "edge", "column"]),
       times=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
       points=st.data())
def test_barenblatt_and_dist2_keep_the_written_out_bits(n, m, t_kind, times, points):
    """The oracle's closed form, with its passes cut, is bitwise the formula as
    written, for a scalar t, an edge's time array and ``sample``'s time column."""
    from holderlab.fields import _dist2

    shape = points.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=6))
    coord = hnp.arrays(np.float64, shape, elements=st.floats(-3.0, 3.0))
    xs = [points.draw(coord) for _ in range(n)]
    t = {"scalar": times[0], "edge": np.full(shape, times[0]),
         "column": np.array(times).reshape(2, 1, 1)}[t_kind]
    ref = BarenblattPME(m=m, n=n, mass=0.7)
    got, want = ref.eval(*xs, t), _written_out_barenblatt(ref, xs, t)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    center = points.draw(st.sampled_from([None, 0.25, (0.25, -0.5)[:n]]))
    got, want = _dist2(xs, center), _written_out_dist2(xs, center)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_calls_the_oracle_and_the_source_once_per_substep(dim, monkeypatch):
    """The benchmark derives its substep counters from these call counts: one
    ``eval_nodes`` per substep, and one oracle ``eval`` on every edge node at the
    start and after every substep."""
    from holderlab.solvers import _Stepper

    counts = {"eval": 0, "eval_nodes": 0, "apply": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SourceTerm, "eval_nodes", counted("eval_nodes", SourceTerm.eval_nodes))
    monkeypatch.setattr(_Stepper, "apply", counted("apply", _Stepper.apply))
    barenblatt = BarenblattPME(2.0, dim, 0.5)

    class Oracle:
        eval = staticmethod(counted("eval", barenblatt.eval))

    g = GridSpec(dim, ((-2.0, 2.0),) * dim, (41,) if dim == 1 else (21, 17), (1.0, 1.2), 4)
    source = SourceTerm(ClosedForm("sin_product", {"k": (1.0, 2.0)[:dim], "omega": 3.0}))
    cfg = SolverConfig(boundary=Boundary.DIRICHLET_FROM_ORACLE)
    solve(EquationParams.pme(2.0, dim), source, barenblatt.eval(*g.node_mesh(), 1.0), g, cfg,
          oracle=Oracle())
    substeps = counts["apply"]
    assert substeps > g.nt - 1
    assert counts["eval_nodes"] == substeps
    assert counts["eval"] == 1 + substeps


@pytest.mark.parametrize("h", [1 / 32, 0.5, 4.0, 2.0**-60, 0.0025, 0.1, 3.0])
def test_divider_is_division_bitwise(h):
    """A power-of-two spacing divides by multiplying with its exact reciprocal."""
    from holderlab.solvers import _divider

    rng = np.random.default_rng(3)
    x = rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 300, 4096)
    x = np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, 5e-324, 2.2e-308]])
    divide, by = _divider(h)
    assert (divide is np.multiply) == (math.frexp(h)[0] == 0.5)
    got = x.copy()
    with np.errstate(over="ignore", under="ignore"):
        divide(got, by, out=got)
        assert got.tobytes() == (x / h).tobytes()


# -- the scheme commutes with the rescaling rows -------------------------------


def _rescaled_solves(params, sc, boundary, with_source):
    """(solve from b^A u0 on the preimage grid, ``apply_scaling`` of the solve from u0),
    on 33 nodes in 1D or 17^2 in 2D; the source, if any, is a sampled field."""
    n = params.n
    g = GridSpec(n, ((-1.0, 1.0),) * n, (33,) if n == 1 else (17, 17), (0.0, 0.01), 5)
    mesh = g.node_mesh()
    u0 = 1.0 + 0.5 * np.sin(np.pi * mesh[0] + 0.3) * (np.cos(np.pi * mesh[-1] - 0.2) if n == 2 else 1.0)
    for axis in range(n):  # a periodic profile's last node is its first
        np.moveaxis(u0, axis, 0)[-1] = np.moveaxis(u0, axis, 0)[0]
    f = sample(lambda x, t: 2.0 * np.cos(3.0 * x + 0.4) * (1.0 + 50.0 * t), g) if with_source else None
    cfg = SolverConfig(flux_regularization_eps=0.0, boundary=boundary)
    want = apply_scaling(solve(params, None if f is None else SourceTerm(f), u0, g, cfg), sc)
    f_v = None if f is None else SourceTerm(apply_scaling(f, sc, role="source"))
    return solve(params, f_v, sc.amplitude_factor * u0, want.grid, cfg), want


@pytest.mark.parametrize("p, m", [(2.0, 1.0), (3.0, 1.0), (2.0, 2.0), (3.0, 2.0), (2.5, 1.5)])
@pytest.mark.parametrize("kind, row", [
    (ScalingKind.NORMALIZE, dict(rho=0.5, a=0.0)),
    (ScalingKind.NORMALIZE, dict(rho=0.5, a=1.0)),
    (ScalingKind.ZOOM, dict(lam=0.5, gamma=0.5)),
    (ScalingKind.ZOOM, dict(lam=0.5, gamma=1.0)),
], ids=["normalize_a0", "normalize_a1", "zoom_gamma_half", "zoom_gamma_1"])
def test_scheme_commutes_with_the_rescaling_rows(kind, row, p, m):
    """v = b^A u(b^B x, b^C t) with C = (m + p - 3) A + p B solves the equation with the
    source b^(A + C) f(b^B x, b^C t), and the scheme keeps the map: its CFL step on the
    preimage grid is b^-C times u's.  At b = 1/2 nodes map onto nodes; at integer (p, m)
    with every factor a power of two the solves agree bitwise, and to rounding otherwise."""
    sc = build_scaling(kind, p=p, m=m, **row)
    factors = (sc.space_factor, sc.time_factor, sc.amplitude_factor, sc.source_factor)
    exact = p.is_integer() and m.is_integer() and all(math.frexp(f)[0] == 0.5 for f in factors)
    for dim, boundary, with_source in [(1, Boundary.DIRICHLET_ZERO, False), (1, Boundary.PERIODIC, False),
                                       (2, Boundary.DIRICHLET_ZERO, False), (2, Boundary.PERIODIC, False),
                                       (1, Boundary.DIRICHLET_ZERO, True)]:
        params = EquationParams(EquationKind.DOUBLY_NONLINEAR, dim, p=p, m=m)
        got, want = _rescaled_solves(params, sc, boundary, with_source)
        assert got.grid == want.grid
        if exact:
            assert got.values.tobytes() == want.values.tobytes()
        else:
            assert np.abs(got.values - want.values).max() <= 1e-13 * np.abs(want.values).max()
