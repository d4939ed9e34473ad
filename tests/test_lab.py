"""Oscillation ladders, exponent fits, Campanato sequences, geometric iteration."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holderlab.errors import AllZeroLevels, CylinderOutsideDomain, EmptyIntersection, InsufficientLevels
from holderlab.fields import GridSpec, SpaceTimeField, _region_cells, expression, sample
from holderlab.geometry import IntrinsicCylinder, ScalingKind, apply_scaling, build_scaling
from holderlab.lab import (
    OscillationProfile,
    _golden_best_constant,
    ProfileLevel,
    campanato_sequence,
    fit_exponent,
    geometric_iteration_check,
    oscillation_profile,
    time_direction_oscillations,
)
from holderlab.solvers import BarenblattPME, HeatSeparable, PowerProfile, sample_reference


def g1_grid(nx=801, nt=201):
    return GridSpec.one_d(-1.0, 1.0, nx, -1.0, 0.0, nt)


def synthetic_profile(exponent, k_max=6, base=0.5, lam=0.5):
    levels = tuple(
        ProfileLevel(
            k,
            base * lam**k,
            (base * lam**k) ** exponent,
            (base * lam**k) ** exponent,
            0.5 * (base * lam**k) ** exponent,
            0.0,
        )
        for k in range(k_max + 1)
    )
    return OscillationProfile((0.0, 0.0), 2.0, lam, k_max, base, 2.0, levels, 1e-6)


# -- profiles -----------------------------------------------------------------


def test_profile_constant_field():
    f = sample(expression("constant", value=5.0), g1_grid(201, 51))
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 4, p=2.0, base_radius=0.5)
    for lv in prof.levels:
        assert lv.osc == 0.0
        assert lv.c_k == pytest.approx(5.0, abs=1e-12)
        assert lv.campanato == 0.0


def test_profile_power_field_matches_closed_form():
    g = GridSpec.one_d(-1.0, 1.0, 3201, -0.3, 0.0, 1281)
    f = sample(PowerProfile(0.75).eval, g)
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 5, p=2.0, base_radius=0.5)
    dx = g.dx[0]
    for lv in prof.levels:
        assert abs(lv.osc - lv.radius**0.75) <= 2 * dx
    assert prof.k_max_effective == 5


def test_profile_monotone_ladders():
    rng = np.random.default_rng(41)
    g = g1_grid(401, 101)
    f = SpaceTimeField(g, rng.normal(size=(g.nt, g.nx[0])))
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 5, base_radius=0.8)
    oscs = prof.series("osc")
    sups = prof.series("sup_abs")
    assert np.all(np.diff(oscs) <= 1e-14)
    assert np.all(np.diff(sups) <= 1e-14)


def test_profile_truncates_below_grid():
    g = g1_grid(101, 26)  # dx = 0.02
    f = sample(PowerProfile(0.5).eval, g)
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 10, base_radius=0.5)
    assert prof.k_max_effective < 10
    assert prof.levels[-1].radius >= g.dx[0]


def test_profile_lambda_validation():
    f = sample(expression("zero"), g1_grid(101, 26))
    with pytest.raises(ValueError):
        oscillation_profile(f, (0.0, 0.0), 2.0, 0.7, 3)


def test_best_constant_optimality():
    rng = np.random.default_rng(43)
    g = g1_grid(241, 61)
    f = SpaceTimeField(g, rng.lognormal(size=(g.nt, g.nx[0])))
    p = 3.0
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 2, p=p, base_radius=0.6)
    from holderlab.fields import _region_cells
    from holderlab.geometry import make_cylinder

    for lv in prof.levels:
        cyl = make_cylinder((0.0, 0.0), lv.radius, 2.0)
        vals = _region_cells(f, cyl)
        vals = vals.ravel()

        def dist(c):
            return float((np.abs(vals - c) ** p).mean()) ** (1.0 / p)

        assert lv.campanato <= dist(float(vals.mean())) + 1e-12
        assert lv.campanato <= dist(float(np.median(vals))) + 1e-12


@pytest.mark.parametrize("size", [4000, 4001])
def test_best_constant_closed_forms(size):
    vals = np.random.default_rng(size).lognormal(size=size)
    c, dist = _golden_best_constant(vals, 2.0)
    assert c == vals.mean()
    # mean(|v - c|^2)^(1/2) is the same expression for every p; the power 1/2 can
    # differ from a correctly rounded square root in the last bit
    assert dist == float(((vals - vals.mean()) ** 2).mean()) ** 0.5
    exact = np.sqrt(((vals - vals.mean()) ** 2).mean())
    assert abs(dist - exact) <= np.spacing(exact)
    c, dist = _golden_best_constant(vals, 1.0)
    assert c == np.median(vals)
    assert dist == float(np.abs(vals - np.median(vals)).mean())


def test_profile_best_constant_is_the_cell_mean_for_p2():
    rng = np.random.default_rng(44)
    g = g1_grid(241, 61)
    f = SpaceTimeField(g, rng.lognormal(size=(g.nt, g.nx[0])))
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 2, base_radius=0.6)
    from holderlab.fields import _region_cells
    from holderlab.geometry import make_cylinder

    for lv in prof.levels:
        vals = _region_cells(f, make_cylinder((0.0, 0.0), lv.radius, 2.0))
        assert lv.c_k == vals.mean()


# row sizes on both sides of numpy's 8-element unrolled and 128-element pairwise sum blocks
@given(hnp.arrays(float, st.sampled_from([2, 7, 8, 9, 127, 128, 129, 255, 257]),
                  elements=st.floats(-100.0, 100.0)),
       st.integers(1, 24), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_best_constant_of_a_repeated_row_is_that_of_its_tile(row, rows, p):
    assert repr(_golden_best_constant(row, p, rows)) == repr(_golden_best_constant(np.tile(row, rows), p))


@given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=60), st.sampled_from([1.0, 2.0]))
def test_closed_form_best_constant_beats_nearby_constants(xs, p):
    vals = np.array(xs)
    span = vals.max() - vals.min()
    assume(span > 1e-6)
    c, dist = _golden_best_constant(vals, p)

    def distance(c):
        return float((np.abs(vals - c) ** p).mean()) ** (1.0 / p)

    # for p = 1 the minimum can be flat, where only rounding of the two means differs
    for nearby in (c - 1e-6 * span, c + 1e-6 * span):
        assert dist <= distance(nearby) * (1.0 + 32.0 * np.finfo(float).eps)


# -- fits ---------------------------------------------------------------------


def test_fit_exact_power_law():
    prof = synthetic_profile(0.75)
    fit = fit_exponent(prof, window=(0, 6), quantity="osc")
    assert abs(fit.exponent - 0.75) <= 1e-9
    assert fit.r_squared >= 1.0 - 1e-12


@pytest.mark.parametrize("first, window", [(1, (1, 5)), (2, (2, 4))])
def test_fit_pairs_each_value_with_its_own_level(first, window):
    # a ladder whose levels do not start at k = 0: a level's k is not its position
    prof = synthetic_profile(0.75)
    prof = dataclasses.replace(prof, levels=prof.levels[first:])
    fit = fit_exponent(prof, window=window, quantity="osc")
    assert abs(fit.exponent - 0.75) <= 1e-9
    assert abs(fit.log_constant) <= 1e-9  # osc = radius^0.75 at every level


def test_fit_default_window_policy():
    prof = synthetic_profile(0.6, k_max=6)
    fit = fit_exponent(prof)
    assert fit.window[0] == 1  # base level dropped
    assert abs(fit.exponent - 0.6) <= 1e-9


def test_fit_insufficient_and_all_zero():
    prof = synthetic_profile(0.75, k_max=2)
    with pytest.raises(InsufficientLevels):
        fit_exponent(prof, window=(0, 1))
    zeros = OscillationProfile(
        (0.0, 0.0), 2.0, 0.5, 3, 0.5, 2.0,
        tuple(ProfileLevel(k, 0.5 * 0.5**k, 0.0, 0.0, 0.0, 0.0) for k in range(4)),
        1e-6,
    )
    with pytest.raises(AllZeroLevels):
        fit_exponent(zeros, window=(0, 3))


def test_fit_barenblatt_free_boundary_sampled():
    # sampled (exact) profile: spatial exponent min{1, 1/(m-1)} at the front
    for m, expected, theta in ((2.0, 1.0, 1.5), (3.0, 0.5, 5.0 / 3.0)):
        ref = BarenblattPME(m=m, n=1, mass=1.0)
        half = 3.0 if m == 2.0 else 2.5
        g = GridSpec.one_d(-half, half, 2049, 1.0, 1.6, 601)
        f = sample_reference(ref, g)
        center = (ref.free_boundary_radius(1.5), 1.5)
        prof = oscillation_profile(f, center, theta, 0.5, 6, base_radius=0.5)
        fit = fit_exponent(prof, quantity="osc")
        assert abs(fit.exponent - expected) <= 0.07


def test_fit_smooth_interior_saturates():
    g = GridSpec.one_d(0.0, 1.0, 1025, 0.0, 0.3, 1921)
    f = sample(HeatSeparable(1, (0.0, 1.0)).eval, g)
    prof = oscillation_profile(f, (0.3, 0.25), 2.0, 0.5, 4, base_radius=0.2)
    fit = fit_exponent(prof, quantity="osc")
    assert fit.exponent >= 0.95


# -- campanato ----------------------------------------------------------------


def test_campanato_constant_field_degenerate():
    f = sample(expression("constant", value=2.5), GridSpec.one_d(-1.0, 1.0, 201, -0.3, 0.0, 401))
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 4, base_radius=0.5)
    rep = campanato_sequence(prof)
    assert rep.degenerate
    assert rep.c_limit == pytest.approx(2.5, abs=1e-12)
    assert all(d <= 1e-14 for d in rep.diffs)


def test_campanato_power_field():
    g = GridSpec.one_d(-1.0, 1.0, 2001, -0.3, 0.0, 1281)
    f = sample(PowerProfile(0.75).eval, g)
    prof = oscillation_profile(f, (0.0, 0.0), 2.0, 0.5, 5, base_radius=0.5)
    rep = campanato_sequence(prof)
    assert not rep.degenerate
    assert rep.decay is not None
    assert rep.decay.exponent >= 0.70
    r_min = prof.levels[-1].radius
    assert 0.0 <= rep.c_limit <= r_min**0.75
    assert rep.inequality_holds
    assert math.isfinite(rep.constant)


def test_campanato_needs_four_levels():
    prof = synthetic_profile(0.5, k_max=2)
    with pytest.raises(InsufficientLevels):
        campanato_sequence(prof)


# -- geometric iteration -------------------------------------------------------


def test_geometric_iteration_pure_power():
    gamma = 0.6
    g = g1_grid(2001, 201)
    f = sample(PowerProfile(gamma).eval, g)
    rep = geometric_iteration_check(f, (0.0, 0.0), gamma, 2.0, 0.5, 6, base_radius=1.0)
    assert rep.first_fail_unit_c is None
    assert rep.c_min <= 1.0 + 1e-9
    assert not rep.precondition_never_holds
    assert all(lv.precondition_holds for lv in rep.levels)  # u(0,0) = 0


def test_geometric_iteration_constant_one():
    f = sample(expression("constant", value=1.0), g1_grid(201, 51))
    rep = geometric_iteration_check(f, (0.0, 0.0), 0.5, 2.0, 0.5, 5, base_radius=0.9)
    assert rep.precondition_never_holds
    assert not any(lv.precondition_holds for lv in rep.levels)


# -- scaling covariance and time direction -------------------------------------


def test_scaling_covariance_shifts_profile_one_level():
    g = GridSpec.one_d(-1.0, 1.0, 1601, -1.0, 0.0, 401)
    f = sample(lambda x, t: np.sin(2.1 * x + 0.3) + 0.5 * np.cos(3.0 * t), g)
    theta, gamma = 1.5, 0.5
    prof_u = oscillation_profile(f, (0.0, 0.0), theta, 0.5, 5, base_radius=0.4)
    sc = build_scaling(ScalingKind.ZOOM, lam=0.5, k=1, p=2.0, m=1.0 / gamma, gamma=gamma)  # alpha = m gamma = 1
    assert sc.time_factor == 0.5**theta
    v = apply_scaling(f, sc)
    prof_v = oscillation_profile(v, (0.0, 0.0), theta, 0.5, 4, base_radius=0.4)
    lam_gamma = 0.5**-gamma
    for j, lv in enumerate(prof_v.levels):
        if j + 1 > prof_u.k_max_effective or lv.radius < 8 * prof_v.grid_dx:
            break
        expected = lam_gamma * prof_u.levels[j + 1].osc
        assert lv.osc == pytest.approx(expected, rel=0.1)


def test_time_direction_exponent_consistency():
    alpha, theta = 0.6, 1.5
    g = GridSpec.one_d(-1.0, 1.0, 1201, -1.0, 0.0, 1201)
    f = sample(expression("power_spacetime", s_x=alpha, s_t=alpha / theta, t_ref=0.0), g)
    prof = oscillation_profile(f, (0.0, 0.0), theta, 0.5, 6, base_radius=0.5)
    space_fit = fit_exponent(prof, quantity="osc")
    assert abs(space_fit.exponent - alpha) <= 0.05
    t_dists, oscs = time_direction_oscillations(f, (0.0, 0.0), theta, 0.5, 6, base_radius=0.5)
    keep = oscs > 0
    slope = np.polyfit(np.log(t_dists[keep]), np.log(oscs[keep]), 1)[0]
    assert abs(slope - alpha / theta) <= 0.1


@pytest.mark.parametrize("n_nonzero", [0, 1, 2, 3])
def test_campanato_is_degenerate_below_three_nonzero_differences(n_nonzero):
    """With fewer than 3 differences above the zero floor there is no decay fit,
    so neither the rate nor the constant is reported."""
    prof = synthetic_profile(0.5)
    c_k = np.concatenate([[0.0], np.cumsum(0.5 ** np.arange(6) * (np.arange(6) < n_nonzero))])
    prof = dataclasses.replace(prof, levels=tuple(
        dataclasses.replace(lv, c_k=float(c)) for lv, c in zip(prof.levels, c_k)))
    rep = campanato_sequence(prof)
    assert sum(d > 0.0 for d in rep.diffs) == n_nonzero
    assert rep.degenerate is (n_nonzero < 3)
    assert (rep.decay is None, rep.constant is None) == (rep.degenerate, rep.degenerate)


def _constant_field():
    return sample(expression("constant", value=1.0), g1_grid(201, 101))


@pytest.mark.parametrize("call, error, match", [
    (lambda: oscillation_profile(_constant_field(), (0.0, 0.0), 2.0, 0.5, 3, base_radius=0.004),
     EmptyIntersection, "no cells"),
    (lambda: oscillation_profile(_constant_field(), (0.0, 0.0), 2.0, 0.5, -1), ValueError, "k_max"),
    (lambda: oscillation_profile(_constant_field(), (0.0, 0.0), 2.0, 0.5, 3).series("bogus"),
     ValueError, "unknown quantity"),
    (lambda: geometric_iteration_check(_constant_field(), (0.0, 0.0), 0.5, 2.0, 1.0, 3),
     ValueError, "lam must lie"),
    (lambda: geometric_iteration_check(_constant_field(), (0.0, 0.0), 0.5, 2.0, 0.0, 3),
     ValueError, "lam must lie"),
    (lambda: geometric_iteration_check(_constant_field(), (0.0, 0.0), 0.5, 2.0, 2.0, 3),
     ValueError, "lam must lie"),
    (lambda: geometric_iteration_check(_constant_field(), (0.0, 0.0), 0.5, 2.0, 0.5, -1),
     ValueError, "k_max"),
    (lambda: time_direction_oscillations(_constant_field(), (0.0, 0.0), 2.0, 1.0, 3),
     ValueError, "lam must lie"),
    (lambda: time_direction_oscillations(_constant_field(), (0.0, 0.0), 2.0, 0.5, -1),
     ValueError, "k_max"),
    # the first segment (-0.31, 0.5] starts before the grid's first time
    (lambda: time_direction_oscillations(sample(lambda x, t: t, GridSpec.one_d(-1, 1, 41, 0, 1, 101)),
                                         (0.0, 0.5), 2.0, 0.5, 3, base_radius=0.9),
     CylinderOutsideDomain, "escapes the grid"),
], ids=["base_cylinder_without_cells", "negative_k_max", "unknown_series",
        "geometric_lam_1", "geometric_lam_0", "geometric_lam_2", "geometric_negative_k_max",
        "time_direction_lam_1", "time_direction_negative_k_max", "time_direction_segment_escapes"])
def test_lab_rejects_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("grid, center", [
    (GridSpec.one_d(-1.0, 1.0, 1601, 0.0, 1.0, 401), (0.013, 1.0)),
    (GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 129, 129, 0.0, 1.0, 151), (0.01, 0.02, 1.0)),
], ids=["1d", "2d"])
def test_ladder_allocates_about_two_level_blocks(grid, center):
    """A ladder holds at most two arrays of its base level's cell size at once: the
    cell average halves in place, the masked cells are freed once flattened, and
    |v - c|^p is formed in one buffer."""
    rng = np.random.default_rng(3)
    f = SpaceTimeField(grid, rng.normal(size=(grid.nt, *grid.nx)))
    oscillation_profile(f, center, 2.0, 0.5, 4, base_radius=0.9)  # first-call setup
    cells = _region_cells(f, IntrinsicCylinder(center[:-1], center[-1], 0.9, 2.0)).nbytes
    tracemalloc.start()
    try:
        oscillation_profile(f, center, 2.0, 0.5, 4, base_radius=0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * cells


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("grid, center", [
    (GridSpec.one_d(-1.0, 1.0, 1601, 0.0, 1.0, 401), (0.013, 1.0)),
    (GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 129, 129, 0.0, 1.0, 151), (0.01, 0.02, 1.0)),
], ids=["1d", "2d"])
def test_ladder_of_a_one_row_field_allocates_about_one_level_block(grid, center, p):
    """A time-free field's ladder takes its cells and |v - c|^p on one row: only the
    repeated copy that a mean or the median reads has its base level's cell size."""
    rng = np.random.default_rng(3)
    f = SpaceTimeField(grid, np.broadcast_to(rng.normal(size=grid.nx), (grid.nt, *grid.nx)))
    oscillation_profile(f, center, 2.0, 0.5, 4, p=p, base_radius=0.9)  # first-call setup
    cells = _region_cells(f, IntrinsicCylinder(center[:-1], center[-1], 0.9, 2.0)).nbytes
    tracemalloc.start()
    try:
        oscillation_profile(f, center, 2.0, 0.5, 4, p=p, base_radius=0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cells


@pytest.mark.parametrize("grid, center", [
    (GridSpec.one_d(-1.0, 1.0, 401, -1.0, 0.0, 101), (0.013, 0.0)),
    (GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 129, 129, -1.0, 0.0, 81), (0.02, -0.01, 0.0)),
], ids=["1d", "2d"])
def test_ladder_of_a_one_row_field_matches_its_copy(grid, center):
    rng = np.random.default_rng(11)
    f = SpaceTimeField(grid, np.broadcast_to(rng.normal(size=grid.nx), (grid.nt, *grid.nx)))
    copy = SpaceTimeField(grid, np.array(f.values))
    for p in (1.0, 1.5, 2.0):
        got = oscillation_profile(f, center, 2.0, 0.5, 6, p=p, base_radius=0.6).levels
        assert len(got) >= 3
        assert repr(got) == repr(oscillation_profile(copy, center, 2.0, 0.5, 6, p=p, base_radius=0.6).levels)
