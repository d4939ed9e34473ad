"""Grids, interpolation, midpoint quadrature, catalog, serialization."""

import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holderlab.errors import EmptyIntersection, EvaluationFailure, IoFailure, OutOfDomain
from holderlab.fields import (
    CATALOG,
    ClosedForm,
    GridSpec,
    Rectangle,
    SourceTerm,
    SpaceTimeField,
    _axis_locate,
    _cell_average,
    expression,
    integrate_region,
    load_field,
    rough_power_cap,
    sample,
    save_field,
)
from holderlab.geometry import make_cylinder, p_avg_norm
from holderlab.solvers import BarenblattPME, HeatSeparable, PowerProfile


@pytest.fixture
def unit_grid():
    return GridSpec.one_d(0.0, 1.0, 101, 0.0, 1.0, 51)


def test_grid_spacing(unit_grid):
    assert unit_grid.dx[0] == pytest.approx(0.01)
    assert unit_grid.dt == pytest.approx(0.02)
    assert unit_grid.x_nodes(0)[0] == 0.0 and unit_grid.x_nodes(0)[-1] == 1.0


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec.one_d(0.0, 1.0, 2, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridSpec.one_d(1.0, 0.0, 5, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridSpec.one_d(0.0, 1.0, 5, 0.0, 1.0, 1)


@pytest.mark.parametrize("bad", [
    dict(x_extent=((0.0, math.inf),)),
    dict(x_extent=((math.nan, 1.0),)),
    dict(t_extent=(0.0, math.inf)),
    dict(nx=(5.0,)),
    dict(nt=2.5),
    dict(dim=1.0),
    dict(t_extent=(0.0,)),
    dict(t_extent=(0.0, 1.0, 2.0)),
])
def test_grid_rejects_malformed_extents_and_counts(bad):
    good = dict(dim=1, x_extent=((0.0, 1.0),), nx=(5,), t_extent=(0.0, 1.0), nt=3)
    GridSpec(**good)
    with pytest.raises(ValueError):
        GridSpec(**{**good, **bad})


def test_sample_zero_and_exact_nodes(unit_grid):
    f = sample(expression("zero"), unit_grid)
    assert not f.values.any()
    g = GridSpec.one_d(0.0, 1.0, 101, 0.0, 0.1, 101)
    fn = HeatSeparable(1, (0.0, 1.0)).eval
    fld = sample(fn, g)
    xs = g.x_nodes(0)
    for k in (0, 37, 100):
        t = g.t_nodes[k]
        exact = np.sin(np.pi * xs) * math.exp(-np.pi**2 * t)
        assert np.max(np.abs(fld.values[k] - exact)) <= 1e-15


def test_sample_singular_raises(unit_grid):
    with pytest.raises(EvaluationFailure):
        sample(expression("rough_power", sigma=0.4), unit_grid)  # x=0 is a node
    cap = rough_power_cap(0.4, unit_grid.dx[0])
    f = sample(expression("rough_power", sigma=0.4, cap=cap), unit_grid)
    assert np.isfinite(f.values).all()
    assert f.values.max() == pytest.approx(cap)


def test_roundtrip_nodes_identity(unit_grid):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(unit_grid.nt, unit_grid.nx[0]))
    f = SpaceTimeField(unit_grid, vals)
    xs = unit_grid.x_nodes(0)
    ts = unit_grid.t_nodes
    for k in (0, 11, 50):
        got = f.interp(xs, np.full_like(xs, ts[k]))
        assert np.array_equal(got, vals[k])


def test_interp_affine_exact(unit_grid):
    f = sample(expression("affine", slopes=(2.0,), t_slope=3.0, offset=0.25), unit_grid)
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 1, 200)
    ts = rng.uniform(0, 1, 200)
    assert np.max(np.abs(f.interp(xs, ts) - (2 * xs + 3 * ts + 0.25))) <= 1e-12


def test_interp_quadratic_midpoint_error(unit_grid):
    f = sample(lambda x, t: x**2, unit_grid)
    dx = unit_grid.dx[0]
    x_mid = 0.5 * (unit_grid.x_nodes(0)[10] + unit_grid.x_nodes(0)[11])
    err = abs(float(f(x_mid, 0.5)) - x_mid**2)
    assert err == pytest.approx(dx**2 / 4.0, rel=1e-9)


def test_interp_power_holder_bound(unit_grid):
    f = sample(PowerProfile(0.75).eval, unit_grid)
    dx = unit_grid.dx[0]
    x = dx / 2.0
    err = abs(float(f(x, 0.0)) - x**0.75)
    assert err <= dx**0.75


def test_interp_monotone_within_cell(unit_grid):
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(unit_grid.nt, unit_grid.nx[0]))
    f = SpaceTimeField(unit_grid, vals)
    xs = rng.uniform(0, 1, 500)
    ts = rng.uniform(0, 1, 500)
    got = f.interp(xs, ts)
    ix = np.minimum((xs / unit_grid.dx[0]).astype(int), unit_grid.nx[0] - 2)
    it = np.minimum((ts / unit_grid.dt).astype(int), unit_grid.nt - 2)
    corners = np.stack(
        [vals[it, ix], vals[it, ix + 1], vals[it + 1, ix], vals[it + 1, ix + 1]]
    )
    assert np.all(got >= corners.min(axis=0) - 1e-12)
    assert np.all(got <= corners.max(axis=0) + 1e-12)


def test_out_of_domain(unit_grid):
    f = sample(expression("zero"), unit_grid)
    with pytest.raises(OutOfDomain):
        float(f(1.5, 0.5))
    with pytest.raises(OutOfDomain):
        float(f(0.5, -0.5))
    with pytest.raises(OutOfDomain):
        float(f(np.nan, 0.5))
    with pytest.raises(OutOfDomain):
        float(f(0.5, np.nan))


def _clip_locate(u_coord, lo, h, n):
    """``_axis_locate``'s lookup of in-grid coordinates with the clamp written as np.clip."""
    u = (np.asarray(u_coord, dtype=float) - lo) / h
    span_tol = 1e-12 * max(1.0, n - 1.0)
    u = np.clip(u, 0.0, n - 1.0)
    idx = np.minimum(np.floor(u).astype(int), n - 2)
    w = u - idx
    return idx, np.where(w < span_tol, 0.0, np.where(w > 1.0 - span_tol, 1.0, w))


# offsets from a node, in cells: on it, inside and outside the snapping band, and past the ends
_OFFSETS = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-11, -1e-11, 0.5]),
                     st.floats(-1e-9, 1e-9), st.floats(0.0, 1.0))


@given(st.integers(3, 400), st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.data())
def test_axis_locate_matches_the_clip_form(n, lo, h, data):
    nodes = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    coords = [lo + (k + d) * h for k, d in data.draw(st.lists(st.tuples(nodes, _OFFSETS), min_size=1))]
    span_tol = 1e-12 * max(1.0, n - 1.0)
    u = (np.asarray(coords) - lo) / h
    assume(((u >= -span_tol) & (u <= (n - 1) + span_tol)).all())
    for c in (coords[0], np.array(coords), np.array(coords).reshape(-1, 1)):
        for got, want in zip(_axis_locate(c, lo, h, n, "x"), _clip_locate(c, lo, h, n)):
            assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_integrate_constant_full_domain(unit_grid):
    f = sample(expression("constant", value=1.0), unit_grid)
    total = integrate_region(f, Rectangle.full_domain(unit_grid), 1.0)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_integrate_x_squared(unit_grid):
    f = sample(expression("affine", slopes=(1.0,)), unit_grid)
    got = integrate_region(f, Rectangle.full_domain(unit_grid), 2.0)
    assert got == pytest.approx(1.0 / 3.0, abs=2 * unit_grid.dx[0] ** 2)


def test_integrate_single_cell(unit_grid):
    f = sample(expression("affine", slopes=(1.0,)), unit_grid)
    g = unit_grid
    xc = g.x_cell_centers(0)[4]
    tc = g.t_cell_centers[7]
    region = Rectangle.one_d(xc - 1e-9, xc + 1e-9, tc - 1e-9, tc + 1e-9)
    got = integrate_region(f, region, 3.0)
    assert got == pytest.approx(abs(xc) ** 3 * g.cell_volume, rel=1e-12)


def test_integrate_empty_intersection(unit_grid):
    f = sample(expression("zero"), unit_grid)
    with pytest.raises(EmptyIntersection):
        integrate_region(f, Rectangle.one_d(0.4, 0.41, 0.5, 0.5000001))


def test_integrate_refinement_order():
    errs = []
    for nx in (65, 129, 257):
        g = GridSpec.one_d(0.0, 1.0, nx, 0.0, 1.0, nx)
        f = sample(lambda x, t: np.sin(np.pi * x) * (1 + t), g)
        exact = (2.0 / np.pi) * 1.5
        errs.append(abs(integrate_region(f, Rectangle.full_domain(g)) - exact))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_two_d_sample_and_integrate():
    g = GridSpec.two_d((0.0, 1.0), (0.0, 1.0), 41, 41, 0.0, 1.0, 11)
    f = sample(expression("constant", value=3.0), g)
    assert integrate_region(f, Rectangle(g.x_extent, g.t_extent)) == pytest.approx(3.0, abs=1e-12)
    aff = sample(expression("affine", slopes=(1.0, 2.0), t_slope=0.5), g)
    rng = np.random.default_rng(2)
    xs, ys, ts = (rng.uniform(0, 1, 50) for _ in range(3))
    assert np.max(np.abs(aff.interp(xs, ys, ts) - (xs + 2 * ys + 0.5 * ts))) <= 1e-12


def test_source_term_eval(unit_grid):
    src = SourceTerm(ClosedForm("sin_product", {"k": (2.0,), "omega": 1.0}), q=3.0, r=4.0)
    vals = src.eval_nodes(unit_grid, 0.5)
    xs = unit_grid.x_nodes(0)
    assert np.allclose(vals, np.sin(2 * np.pi * xs) * math.exp(-0.5), atol=1e-14)
    sampled = SourceTerm(src.as_field(unit_grid), q=3.0, r=4.0)
    vals2 = sampled.eval_nodes(unit_grid, 0.5)
    assert np.allclose(vals2, vals, atol=1e-12)


def test_eval_nodes_field_form_outside_its_extent_raises():
    field_grid = GridSpec.one_d(0.0, 1.0, 11, 0.0, 1.0, 5)
    src = SourceTerm(SpaceTimeField(field_grid, np.random.default_rng(1).normal(size=(5, 11))))
    grid = GridSpec.one_d(0.0, 1.0, 21, 0.0, 2.0, 3)
    src.eval_nodes(grid, 0.5)
    with pytest.raises(OutOfDomain, match="t-coordinate"):
        src.eval_nodes(grid, 1.5)
    with pytest.raises(OutOfDomain, match="x-coordinate"):
        src.eval_nodes(GridSpec.one_d(0.0, 1.5, 21, 0.0, 1.0, 3), 0.5)


def test_save_load_roundtrip(tmp_path, unit_grid):
    rng = np.random.default_rng(9)
    f = SpaceTimeField(unit_grid, rng.normal(size=(unit_grid.nt, 101)), name="u", provenance="test")
    p = tmp_path / "field.hlf"
    save_field(f, p)
    g = load_field(p)
    assert g.grid == unit_grid
    assert np.array_equal(g.values, f.values)
    assert g.name == "u" and g.provenance == "test"


@pytest.mark.parametrize("grid", [
    GridSpec.one_d(0.0, 1.0, 11, 0.0, 1.0, 5),
    GridSpec.two_d((0.0, 1.0), (0.0, 2.0), 11, 9, 0.0, 1.0, 5),
])
def test_interp_leaves_no_garbage_cycles(grid):
    f = sample(expression("affine", slopes=(1.0, 2.0), t_slope=0.5), grid)
    coords = [np.linspace(lo, hi, 7) for lo, hi in (*grid.x_extent, grid.t_extent)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        f.interp(*coords)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# One parameter set per catalog entry, valid on the 1D grid [-1, 1] and t > 0.
CATALOG_PARAMS = {
    "zero": {},
    "constant": {"value": 2.5},
    "affine": {"slopes": (1.5,), "t_slope": -0.5, "offset": 0.25},
    "power_spacetime": {"s_x": 0.75, "s_t": 0.5, "t_ref": 0.3},
    "sin_product": {"k": (2.0,), "omega": 1.5, "phase": 0.2},
    "gaussian": {"center": (0.2,), "width": 0.3, "amplitude": -1.5},
    "bump": {"x_support": ((-0.5, 0.7),), "t_support": (0.0, 1.0)},
    "trig_series": {"seed": 3, "terms": 5, "kink": 0.7},
    "rough_power": {"sigma": 0.4, "cap": 30.0, "center": 0.0},
}
# every catalog entry as a ClosedForm, and three exact solutions' bound ``eval``s, which are
# functions of (x, t) as well; the ids of these three name the catalog entries they replaced
FORMS = {**{name: ClosedForm(name, params) for name, params in CATALOG_PARAMS.items()},
         "power_abs": PowerProfile(0.6, (0.1,)).eval,
         "heat_mode": HeatSeparable(1, (-1.0, 1.0), mode=2).eval,
         "barenblatt": BarenblattPME(2.0, 1, 0.5).eval}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_eval_nodes_matches_per_call_reference(name):
    grid = GridSpec.one_d(-1.0, 1.0, 41, 0.0, 1.0, 5)
    form = FORMS[name]
    src = SourceTerm(form)
    for t in (0.1, 0.35, 0.8, 0.35):
        ref = np.broadcast_to(form(*grid.node_mesh(), t), grid.spatial_shape())
        assert np.array_equal(src.eval_nodes(grid, t), ref)


def test_eval_nodes_non_finite_source_raises():
    grid = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 3)  # x = 0 is a node
    with pytest.raises(EvaluationFailure):
        SourceTerm(ClosedForm("rough_power", {"sigma": 0.4})).eval_nodes(grid, 0.0)
    # a t-dependent form is checked at every call, here singular at t = t_ref only
    src = SourceTerm(ClosedForm("power_spacetime", {"s_t": -0.5, "t_ref": 0.5}))
    assert np.isfinite(src.eval_nodes(grid, 0.25)).all()
    with np.errstate(divide="ignore"), pytest.raises(EvaluationFailure):
        src.eval_nodes(grid, 0.5)


def test_power_spacetime_singular_node_raises_evaluation_failure():
    # with no errstate here: the form itself keeps numpy's divide warning quiet
    grid = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 3)  # x = 0 and t = 0.5 are nodes
    with pytest.raises(EvaluationFailure):
        sample(expression("power_spacetime", s_x=-0.5), grid)
    with pytest.raises(EvaluationFailure):
        SourceTerm(ClosedForm("power_spacetime", {"s_t": -0.5, "t_ref": 0.5})).eval_nodes(grid, 0.5)


def test_power_abs_singular_node_raises_evaluation_failure():
    # with no errstate here: the profile itself keeps numpy's divide warning quiet
    grid = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 3)  # x = 0 is a node
    with pytest.raises(EvaluationFailure):
        sample(PowerProfile(-0.5).eval, grid)


def _sample_per_level(fn, grid):
    """Reference for ``sample``: one call of ``fn`` per time level, scalar t."""
    mesh, shape = grid.node_mesh(), grid.spatial_shape()
    out = np.empty((grid.nt, *shape))
    for k, t in enumerate(grid.t_nodes):
        out[k] = np.broadcast_to(fn(*mesh, t), shape)
    return out


GRID_1D = GridSpec.one_d(-1.0, 1.0, 41, 0.1, 1.0, 7)  # t > 0 for the Barenblatt profile
GRID_2D = GridSpec.two_d((-1.0, 1.0), (-1.5, 1.0), 17, 13, 0.1, 1.0, 6)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_sample_matches_per_level_loop_catalog(name):
    fn = FORMS[name]
    assert sample(fn, GRID_1D).values.tobytes() == _sample_per_level(fn, GRID_1D).tobytes()


@pytest.mark.parametrize("ref, grid", [
    (BarenblattPME(m=2.0, n=1, mass=0.5), GRID_1D),
    (BarenblattPME(m=3.0, n=2), GRID_2D),
    (HeatSeparable(n=1, extent=(-1.0, 1.0), mode=2), GRID_1D),
    (HeatSeparable(n=2, extent=(-1.5, 1.0)), GRID_2D),
    (PowerProfile(0.6, (0.1,)), GRID_1D),
    (PowerProfile(0.75, (0.1, -0.2)), GRID_2D),
], ids=lambda v: type(v).__name__ if not isinstance(v, GridSpec) else f"{v.dim}d")
def test_sample_matches_per_level_loop_reference(ref, grid):
    assert sample(ref.eval, grid).values.tobytes() == _sample_per_level(ref.eval, grid).tobytes()


def test_sample_calls_a_time_free_form_once():
    calls = []

    def counted(fn):
        def wrapper(*a):
            calls.append(a[-1])
            return fn(*a)
        return wrapper

    sample(counted(PowerProfile(0.75).eval), GRID_1D)
    assert len(calls) == 1
    calls.clear()
    sample(counted(expression("bump")), GRID_1D)
    assert len(calls) == GRID_1D.nt + 1


def test_sample_rejects_a_form_that_branches_on_t():
    # t must broadcast like x; a Python branch on t fails at the two-level probe
    with pytest.raises(ValueError, match="ambiguous"):
        sample(lambda x, t: x if t < 0.5 else 2 * x, GRID_1D)


def test_eval_nodes_t_free_is_read_only_and_shared():
    grid = GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 9, 11, 0.0, 1.0, 3)
    src = SourceTerm(ClosedForm("gaussian", {"center": (0.1, -0.2)}))
    first = src.eval_nodes(grid, 0.0)
    assert first.shape == (9, 11) and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    assert src.eval_nodes(grid, 0.7) is first


def test_eval_nodes_t_dependent_is_fresh():
    grid = GridSpec.one_d(0.0, 1.0, 21, 0.0, 1.0, 3)
    src = SourceTerm(ClosedForm("sin_product", {"k": (1.0,), "omega": 2.0}))
    a, b = src.eval_nodes(grid, 0.2), src.eval_nodes(grid, 0.2)
    assert a is not b and a.flags.writeable and np.array_equal(a, b)


def test_eval_nodes_returns_a_fresh_time_dependent_value_as_it_is():
    grid = GridSpec.one_d(0.0, 1.0, 21, 0.0, 1.0, 3)
    returned = []

    def form(x, t):
        returned.append(np.sin(x) * (1.0 + t))
        return returned[-1]

    assert SourceTerm(form).eval_nodes(grid, 0.3) is returned[-1]


@pytest.mark.parametrize("kept", [
    lambda x, t: (x + t)[...],
    lambda x, t: (x + t).astype(np.float32),
    lambda x, t: np.broadcast_to(x + t, np.shape(x + t)),
], ids=["view", "float32", "read_only"])
def test_eval_nodes_copies_a_value_it_may_not_own(kept):
    grid = GridSpec.one_d(0.0, 1.0, 21, 0.0, 1.0, 3)
    returned = []

    def form(x, t):
        returned.append(kept(x, t))
        return returned[-1]

    got = SourceTerm(form).eval_nodes(grid, 0.3)
    assert got.flags.writeable and got.dtype == np.float64 and got.base is None
    assert not np.shares_memory(got, returned[-1]) and np.array_equal(got, returned[-1])


def test_eval_nodes_new_grid_or_form_gets_fresh_values():
    def reference(form, grid):
        return np.broadcast_to(form(*grid.node_mesh(), 0.0), grid.spatial_shape())

    coarse = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 3)
    fine = GridSpec.one_d(-1.0, 1.0, 41, 0.0, 1.0, 3)
    form = PowerProfile(0.5).eval
    src = SourceTerm(form)
    on_coarse = src.eval_nodes(coarse, 0.0)
    assert np.array_equal(src.eval_nodes(fine, 0.0), reference(form, fine))
    assert np.array_equal(src.eval_nodes(coarse, 0.0), on_coarse)
    equal_grid = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 3)
    assert src.eval_nodes(equal_grid, 0.0) is src.eval_nodes(coarse, 0.0)

    src.form = PowerProfile(1.5).eval
    assert np.array_equal(src.eval_nodes(coarse, 0.0), reference(src.form, coarse))
    assert not np.array_equal(src.eval_nodes(coarse, 0.0), on_coarse)

    # the cache is not part of the value
    assert src == SourceTerm(src.form)
    assert repr(src) == repr(SourceTerm(src.form))


def test_gaussian_scalar_center_applies_on_every_axis():
    mesh = GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 9, 11, 0.0, 1.0, 2).node_mesh()
    scalar = expression("gaussian", center=0.5, width=0.3)(*mesh, 0.0)
    assert np.array_equal(scalar, expression("gaussian", center=(0.5, 0.5), width=0.3)(*mesh, 0.0))


def test_gaussian_tuple_center_needs_one_entry_per_axis():
    # a 1D centre in 2D must not drop y
    mesh = GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 9, 11, 0.0, 1.0, 2).node_mesh()
    with pytest.raises(ValueError):
        expression("gaussian", center=(0.2,))(*mesh, 0.0)


def test_a_plain_time_free_callable_gives_one_read_only_cached_row():
    grid = GridSpec.two_d((-1.0, 1.0), (-1.0, 1.0), 9, 11, 0.0, 1.0, 3)
    params = {"center": (0.1, -0.2)}
    src = SourceTerm(expression("gaussian", **params))
    first = src.eval_nodes(grid, 0.0)
    assert not first.flags.writeable and src.eval_nodes(grid, 0.7) is first
    assert _same_bits(first, SourceTerm(ClosedForm("gaussian", params)).eval_nodes(grid, 0.0))


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_field_source_is_its_interp_at_the_nodes(grid):
    f = sample(expression("sin_product", k=(1.0, 2.0)[:grid.dim], omega=3.0), grid)
    src = SourceTerm(f)
    for t in (grid.t_nodes[0], grid.t_nodes[2], 0.5 * (grid.t_nodes[3] + grid.t_nodes[4]), grid.t_nodes[-1]):
        want = f.interp(*grid.node_mesh(), np.full(grid.spatial_shape(), t))
        assert _same_bits(src.eval_nodes(grid, t), want) and _same_bits(f(*grid.node_mesh(), t), want)


def test_closed_form_builds_its_catalog_function_once(monkeypatch):
    builds = []

    def counted(**params):
        builds.append(params)
        return CATALOG["sin_product"](**params)

    monkeypatch.setitem(CATALOG, "counted", counted)
    form = ClosedForm("counted", {"k": (1.0,), "omega": 2.0})
    grid = GridSpec.one_d(0.0, 1.0, 21, 0.0, 1.0, 3)
    src = SourceTerm(form)
    for t in (0.0, 0.3, 0.6):
        form(grid.x_nodes(), t)
        src.eval_nodes(grid, t)
    src.as_field(grid)
    assert len(builds) == 1


def test_evaluation_failure_names_the_form_and_not_a_fields_values():
    grid = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 3)  # x = 0 is a node
    with pytest.raises(EvaluationFailure, match="'rough_power'"):
        SourceTerm(ClosedForm("rough_power", {"sigma": 0.4})).eval_nodes(grid, 0.0)
    with pytest.raises(EvaluationFailure, match="'PowerProfile.eval'"):
        SourceTerm(PowerProfile(-0.5).eval).eval_nodes(grid, 0.0)

    class Overflowing(SpaceTimeField):  # interpolation of finite values stays finite
        def interp(self, *coords):
            return np.full(np.broadcast(*coords).shape, np.inf)

    field = Overflowing(grid, np.full((grid.nt, *grid.nx), 1234.5))
    with pytest.raises(EvaluationFailure, match="'Overflowing'") as failure:
        SourceTerm(field).eval_nodes(grid, 0.0)
    assert "1234" not in str(failure.value)


_coord = st.floats(-1.0, 1.0)
T_FREE_PARAMS = {
    "zero": st.fixed_dictionaries({}),
    "constant": st.fixed_dictionaries({"value": st.floats(-10.0, 10.0)}),
    "gaussian": st.fixed_dictionaries({"center": st.tuples(_coord), "width": st.floats(0.05, 2.0),
                                       "amplitude": st.floats(-5.0, 5.0)}),
    "trig_series": st.fixed_dictionaries({"seed": st.integers(0, 2**32 - 1),
                                          "terms": st.integers(1, 6),
                                          "kink": st.floats(-2.0, 2.0)}),
    "rough_power": st.fixed_dictionaries({"sigma": st.floats(0.05, 0.95),
                                          "cap": st.floats(1.0, 100.0), "center": _coord}),
}


def test_param_tables_cover_catalog():
    assert set(CATALOG_PARAMS) == set(CATALOG)
    assert set(T_FREE_PARAMS) <= set(CATALOG)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_eval_nodes_reuses_one_array_exactly_for_time_free_forms(name):
    grid = GridSpec.one_d(-1.0, 1.0, 41, 0.0, 1.0, 5)
    src = SourceTerm(FORMS[name])
    first, second = src.eval_nodes(grid, 0.35), src.eval_nodes(grid, 0.8)
    if name in {*T_FREE_PARAMS, "power_abs"}:
        assert first is second and not first.flags.writeable
    else:
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)


@given(
    st.sampled_from(sorted(T_FREE_PARAMS)).flatmap(
        lambda name: st.tuples(st.just(name), T_FREE_PARAMS[name])),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)
def test_t_free_catalog_entries_ignore_t(case, t1, t2):
    assume(t1 != t2)
    name, params = case
    form = ClosedForm(name, params)
    (x,) = GridSpec.one_d(-1.0, 1.0, 21, 0.0, 1.0, 2).node_mesh()
    assert np.array_equal(form(x, t1), form(x, t2))


BAD_CONTAINERS = {
    "truncated payload": lambda m, h, p: (m, json.dumps(h).encode(), p[:-3]),
    "payload one value short": lambda m, h, p: (m, json.dumps(h).encode(), p[:-8]),
    "oversized payload": lambda m, h, p: (m, json.dumps(h).encode(), p + bytes(8)),
    "header not json": lambda m, h, p: (m, b'{"dim": 1,', p),
    "header not utf-8": lambda m, h, p: (m, b"\xff\xfe", p),
    "header not an object": lambda m, h, p: (m, b"[1, 2]", p),
    "header missing nt": lambda m, h, p: (m, json.dumps({k: v for k, v in h.items() if k != "nt"}).encode(), p),
    "grid rejected": lambda m, h, p: (m, json.dumps({**h, "nx": [2]}).encode(), p),
    "non-finite extent": lambda m, h, p: (m, json.dumps({**h, "x_extent": [[0, math.inf]]}).encode(), p),
    "no magic line": lambda m, h, p: (b"HOLDERLAB-FIELD v0", json.dumps(h).encode(), p),
}


@pytest.mark.parametrize("case", sorted(BAD_CONTAINERS))
def test_load_field_bad_container_raises_io_failure(tmp_path, unit_grid, case):
    p = tmp_path / "field.hlf"
    save_field(SpaceTimeField(unit_grid, np.zeros((unit_grid.nt, 101))), p)
    magic, header, payload = p.read_bytes().split(b"\n", 2)
    magic, header, payload = BAD_CONTAINERS[case](magic, json.loads(header), payload)
    p.write_bytes(magic + b"\n" + header + b"\n" + payload)
    with pytest.raises(IoFailure):
        load_field(p)


@pytest.mark.parametrize("name", ["zero", "constant"])
def test_sample_calls_zero_and_constant_once(name):
    calls = []

    def counted(*a):
        calls.append(a[-1])
        return expression(name)(*a)

    f = sample(counted, GridSpec.one_d(0.0, 1.0, 101, 0.0, 1.0, 51))
    assert len(calls) == 1
    assert f.values.strides[0] == 0


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_time_free_sample_stores_one_row(grid):
    f = sample(PowerProfile(0.6, (0.1,) * grid.dim).eval, grid)
    assert not f.values.flags.writeable
    assert f.values.strides[0] == 0
    assert _owner(f.values).nbytes == 8 * math.prod(grid.nx)


def test_time_free_field_saves_every_level(tmp_path):
    f = sample(expression("gaussian", center=0.2), GRID_1D, name="g")
    save_field(f, tmp_path / "view.hlf")
    save_field(SpaceTimeField(GRID_1D, np.array(f.values), name="g"), tmp_path / "copy.hlf")
    assert (tmp_path / "view.hlf").read_bytes() == (tmp_path / "copy.hlf").read_bytes()
    g = load_field(tmp_path / "view.hlf")
    assert g.values.strides[0] != 0
    assert g.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("kind", ["solved", "time_free"])
def test_saved_file_is_magic_header_and_every_levels_values(tmp_path, kind):
    from holderlab.exponents import EquationParams
    from holderlab.fields import _MAGIC
    from holderlab.solvers import solve

    if kind == "solved":
        ref = BarenblattPME(2.0, 1, 1.0)
        f = solve(EquationParams.pme(2.0, 1), None, ref.eval(GRID_1D.x_nodes(), 0.1), GRID_1D)
    else:
        f = sample(PowerProfile(0.6, (0.1,)).eval, GRID_1D, name="profile")
        assert f.values.strides[0] == 0
    save_field(f, tmp_path / "f.hlf")
    g = f.grid
    header = {"dim": g.dim, "x_extent": [list(e) for e in g.x_extent], "nx": list(g.nx),
              "t_extent": list(g.t_extent), "nt": g.nt, "name": f.name, "provenance": f.provenance}
    want = _MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + f.values.tobytes()
    assert (tmp_path / "f.hlf").read_bytes() == want
    assert len(f.values.tobytes()) == 8 * g.nt * math.prod(g.nx)


def test_field_finiteness_check_sees_every_row_it_holds():
    values = np.zeros((GRID_1D.nt, *GRID_1D.nx))
    values[-1, 3] = np.nan  # only in the last row of an ordinary array
    with pytest.raises(ValueError, match="non-finite"):
        SpaceTimeField(GRID_1D, values)
    row = np.zeros(GRID_1D.nx)
    row[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SpaceTimeField(GRID_1D, np.broadcast_to(row, values.shape))


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_cell_values_of_a_one_row_field_match_its_copy(grid):
    f = sample(PowerProfile(0.75, (0.1,) * grid.dim).eval, grid)
    copy = SpaceTimeField(grid, np.array(f.values))
    assert f.cell_values().tobytes() == copy.cell_values().tobytes()


def _one_row_and_copy(grid, seed):
    """A field of one random row at every level (time stride 0), and its copy."""
    row = np.random.default_rng(seed).normal(size=grid.nx)
    f = SpaceTimeField(grid, np.broadcast_to(row, (grid.nt, *grid.nx)))
    return f, SpaceTimeField(grid, np.array(f.values))


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_interp_of_a_one_row_field_matches_its_copy(grid):
    f, copy = _one_row_and_copy(grid, 5)
    extents = (*grid.x_extent, grid.t_extent)
    rng = np.random.default_rng(6)
    off_node = [rng.uniform(lo, hi, 500) for lo, hi in extents]
    mesh_and_time_column = (*grid.node_mesh(), grid.t_nodes.reshape(-1, *(1,) * grid.dim))
    point = [lo + 0.37 * (hi - lo) for lo, hi in extents]
    for coords in (off_node, mesh_and_time_column, point):
        assert _same_bits(f.interp(*coords), copy.interp(*coords))
    assert np.shape(f.interp(*mesh_and_time_column)) == (grid.nt, *grid.nx)


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_source_of_a_one_row_field_matches_its_copy(grid):
    f, copy = _one_row_and_copy(grid, 7)
    for t in (grid.t_nodes[0], grid.t_nodes[2], 0.5 * (grid.t_nodes[3] + grid.t_nodes[4]), grid.t_nodes[-1]):
        assert _same_bits(SourceTerm(f).eval_nodes(grid, t), SourceTerm(copy).eval_nodes(grid, t))


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("one_row", [False, True], ids=["copy", "one_row"])
def test_interp_needs_one_coordinate_per_axis(grid, one_row):
    f = _one_row_and_copy(grid, 8)[0 if one_row else 1]
    for n in sorted({1, grid.dim, grid.dim + 2} - {grid.dim + 1}):
        with pytest.raises(ValueError, match="coordinates"):
            f.interp(*[np.array([0.5])] * n)
        with pytest.raises(ValueError, match="coordinates"):
            float(f(*(0.5,) * n))
    assert np.shape(f.interp(*[np.array([0.5])] * (grid.dim + 1))) == (1,)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=6),
                  elements=st.floats(-1e6, 1e6)),
       st.integers(2, 6))
def test_cell_average_of_one_row_matches_its_copy(row, nt):
    values = np.broadcast_to(row, (nt, *row.shape))
    got = _cell_average(values)
    assert got.strides[0] == 0 and not got.flags.writeable
    assert _same_bits(got, _cell_average(np.array(values)))


def test_cell_average_of_one_row_allocates_one_row():
    """Averaging a time stride 0 block costs one row of cells, not the whole block
    (41 MB for the two block-sized arrays of the level-by-level average)."""
    row = np.random.default_rng(4).normal(size=3201)
    values = np.broadcast_to(row, (801, row.size))
    _cell_average(values[:, :5])  # first-call setup
    tracemalloc.start()
    try:
        _cell_average(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * row.nbytes


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=4, min_side=2, max_side=6),
                  elements=st.floats(-1e6, 1e6)))
def test_cell_average_is_the_per_axis_half_sum(values):
    expected = values
    for axis in range(values.ndim):
        lo = np.take(expected, np.arange(expected.shape[axis] - 1), axis=axis)
        hi = np.take(expected, np.arange(1, expected.shape[axis]), axis=axis)
        expected = 0.5 * (lo + hi)
    values.flags.writeable = False
    got = _cell_average(values)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# -- fields are values ----------------------------------------------------------


def test_field_values_are_read_only(unit_grid):
    f = sample(expression("constant", value=1.0), unit_grid)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_field_is_frozen(unit_grid):
    f = sample(expression("constant", value=1.0), unit_grid)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.name = "other"


def test_fields_compare_and_hash_by_identity(unit_grid):
    f = sample(expression("affine", slopes=(1.0,)), unit_grid)
    g = sample(expression("affine", slopes=(1.0,)), unit_grid)
    assert f == f and f != g
    assert len({f, g, f}) == 2
    assert SourceTerm(f) == SourceTerm(f) and SourceTerm(f) != SourceTerm(g)


def test_field_reads_follow_an_edit_of_the_callers_array(unit_grid):
    values = np.random.default_rng(2).normal(size=(unit_grid.nt, *unit_grid.nx))
    f = SpaceTimeField(unit_grid, values)
    region = Rectangle.one_d(0.2, 0.7, 0.1, 0.9)
    before = p_avg_norm(f, region, 2.0).value
    values *= 3.0
    after = p_avg_norm(f, region, 2.0).value
    assert after == p_avg_norm(SpaceTimeField(unit_grid, values.copy()), region, 2.0).value
    assert after != before


def test_region_read_allocates_only_its_block():
    """A norm over the unit cylinder of a much larger field allocates a small part
    of the field's bytes and keeps nothing once it returns."""
    g = GridSpec.one_d(-4.0, 4.0, 801, -16.0, 0.0, 401)
    rng = np.random.default_rng(3)
    cyl = make_cylinder((0.0, 0.0), 1.0, 2.0)
    p_avg_norm(SpaceTimeField(g, rng.normal(size=(g.nt, *g.nx))), cyl, 2.0)  # first-call setup
    f = SpaceTimeField(g, rng.normal(size=(g.nt, *g.nx)))
    tracemalloc.start()
    try:
        p_avg_norm(f, cyl, 2.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes / 4
    assert retained < 4096  # bookkeeping only; the field's bytes are 2.57 MB


def _tiny_grid():
    return GridSpec.one_d(0.0, 1.0, 3, 0.0, 1.0, 2)


@pytest.mark.parametrize("call, error, match", [
    (lambda: GridSpec(3, ((0.0, 1.0),) * 3, (3, 3, 3), (0.0, 1.0), 2), ValueError, "dimension"),
    (lambda: GridSpec.one_d(0.0, 1.0, 3, 1.0, 1.0, 2), ValueError, "empty time extent"),
    (lambda: GridSpec(True, ((0.0, 1.0),), (3,), (0.0, 1.0), 2), ValueError, "integers"),
    (lambda: SpaceTimeField(_tiny_grid(), np.zeros((3, 2))), ValueError, "shape"),
    (lambda: SpaceTimeField(_tiny_grid(), np.full((2, 3), np.nan)), ValueError, "non-finite"),
    (lambda: rough_power_cap(1.0, 0.1), ValueError, "sigma"),
    (lambda: expression("bogus"), KeyError, "unknown expression"),
], ids=["grid_dim_3", "grid_empty_time", "grid_dim_bool", "field_shape", "field_nan", "cap_sigma_1",
        "unknown_expression"])
def test_fields_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("io", [
    lambda f, d: save_field(f, d),
    lambda f, d: load_field(d / "missing.hlf"),
], ids=["save_to_directory", "load_missing"])
def test_os_errors_raise_io_failure(tmp_path, io):
    with pytest.raises(IoFailure):
        io(sample(expression("zero"), _tiny_grid()), tmp_path)


def test_source_term_of_a_field_is_that_field():
    f = sample(expression("zero"), _tiny_grid())
    assert SourceTerm(f).as_field(_tiny_grid()) is f


def test_source_term_of_a_field_on_another_grid_is_sampled_there():
    coarse = GridSpec.one_d(0.0, 1.0, 11, 0.0, 1.0, 5)
    fine = GridSpec.one_d(0.0, 1.0, 21, 0.0, 1.0, 9)
    f = sample(expression("sin_product", k=(1.0,), omega=2.0), coarse)
    got = SourceTerm(f).as_field(fine)
    assert got.grid == fine and _same_bits(got.values, sample(f, fine).values)
