"""Uniform space-time grids and sampled scalar fields.

Fields are stored dense, row-major, time-outer (shape ``(nt, nx)`` in 1D,
``(nt, nx0, nx1)`` in 2D); a time-free sample stores one row with time stride 0.
A field is frozen, keeps nothing derived from its values, and holds ``values``
as a read-only view of the caller's array, not a copy.  A region read averages
or scans only the block that holds the region.  Off-node values blend linearly
along one axis after another (multilinear interpolation), which keeps them
inside the node range of their cell.  Quadrature is the composite midpoint rule
over space-time cells whose centers fall in the requested region.  A function of
(x, t) is any callable ``f(*xs, t)`` whose arguments broadcast together: a catalog
``ClosedForm``, a ``SpaceTimeField``, an exact solution's ``eval``, a plain function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EmptyIntersection,
    EvaluationFailure,
    IoFailure,
    OutOfDomain,
)

__all__ = [
    "GridSpec",
    "SpaceTimeField",
    "Rectangle",
    "ClosedForm",
    "SourceTerm",
    "CATALOG",
    "expression",
    "sample",
    "interpolate_eval",
    "integrate_region",
    "rough_power_cap",
    "save_field",
    "load_field",
]

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: node extents and counts per axis."""

    dim: int
    x_extent: tuple[tuple[float, float], ...]
    nx: tuple[int, ...]
    t_extent: tuple[float, float]
    nt: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.dim}")
        if len(self.x_extent) != self.dim or len(self.nx) != self.dim or len(self.t_extent) != 2:
            raise ValueError("x_extent and nx must have one entry per axis, t_extent two ends")
        if not all(math.isfinite(v) for e in (*self.x_extent, self.t_extent) for v in e):
            raise ValueError(f"extents must be finite, got {self.x_extent} and {self.t_extent}")
        counts = (self.dim, *self.nx, self.nt)  # a bool is an int to isinstance, not a count
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in counts):
            raise ValueError(f"dim and node counts must be integers, got {self.dim}, {self.nx}, {self.nt}")
        for (lo, hi), n in zip(self.x_extent, self.nx):
            if not hi > lo:
                raise ValueError(f"empty spatial extent ({lo}, {hi})")
            if n < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {n}")
        if not self.t_extent[1] > self.t_extent[0]:
            raise ValueError(f"empty time extent {self.t_extent}")
        if self.nt < 2:
            raise ValueError(f"need at least 2 time levels, got {self.nt}")

    @classmethod
    def one_d(cls, x_lo, x_hi, nx, t_lo, t_hi, nt):
        return cls(1, ((float(x_lo), float(x_hi)),), (int(nx),), (float(t_lo), float(t_hi)), int(nt))

    @classmethod
    def two_d(cls, x_ext, y_ext, nx, ny, t_lo, t_hi, nt):
        return cls(
            2,
            (tuple(map(float, x_ext)), tuple(map(float, y_ext))),
            (int(nx), int(ny)),
            (float(t_lo), float(t_hi)),
            int(nt),
        )

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.x_extent, self.nx))

    @property
    def dt(self) -> float:
        return (self.t_extent[1] - self.t_extent[0]) / (self.nt - 1)

    def x_nodes(self, axis: int = 0) -> np.ndarray:
        lo, hi = self.x_extent[axis]
        return np.linspace(lo, hi, self.nx[axis])

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t_extent[0], self.t_extent[1], self.nt)

    def x_cell_centers(self, axis: int = 0) -> np.ndarray:
        nodes = self.x_nodes(axis)
        return 0.5 * (nodes[:-1] + nodes[1:])

    @property
    def t_cell_centers(self) -> np.ndarray:
        t = self.t_nodes
        return 0.5 * (t[:-1] + t[1:])

    @property
    def cell_volume(self) -> float:
        """Space-time cell volume dt * prod(dx)."""
        return self.dt * math.prod(self.dx)

    @property
    def space_cell_volume(self) -> float:
        return math.prod(self.dx)

    def spatial_shape(self) -> tuple[int, ...]:
        return tuple(self.nx)

    def node_mesh(self) -> tuple[np.ndarray, ...]:
        """Spatial node coordinates as meshgrid arrays, one per axis."""
        return tuple(np.meshgrid(*[self.x_nodes(a) for a in range(self.dim)], indexing="ij"))

    def cell_mesh(self) -> tuple[np.ndarray, ...]:
        """Spatial cell-centre coordinates as meshgrid arrays, one per axis."""
        return tuple(np.meshgrid(*[self.x_cell_centers(a) for a in range(self.dim)], indexing="ij"))


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Sampled scalar field on a :class:`GridSpec`; ``values`` is a read-only view.

    ``values`` may have time stride 0 (one row seen at every level, as ``sample``
    returns for a time-free form).  Then its one row is all that is checked, and
    ``interp``, the cell reads, ``geometry.sup_oscillation`` and the ladder of
    ``lab.oscillation_profile`` do their spatial work on that row once, with the
    same bits as on a copy of every level.  A caller who needs a writable copy
    takes ``np.array(field.values)``.  Fields compare and hash by identity: a
    value comparison would scan every node.
    """

    grid: GridSpec
    values: np.ndarray
    name: str = ""
    provenance: str = ""

    def __post_init__(self):
        expected = (self.grid.nt, *self.grid.spatial_shape())
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != grid shape {expected}")
        if not np.isfinite(values[:1] if values.strides[0] == 0 else values).all():
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", values)

    def cell_values(self) -> np.ndarray:
        """Interpolated values at every space-time cell center; of a field with
        time stride 0, a read-only view with time stride 0 of one row of cells."""
        return _cell_average(self.values)

    def interp(self, *coords) -> np.ndarray:
        """Multilinear interpolation at ``coords = (x[, y], t)``, one array (or
        scalar) per axis, broadcast together; the result has their broadcast shape.

        Raises ``ValueError`` unless there is one coordinate per axis, and
        ``OutOfDomain`` for a point outside the grid.
        """
        g = self.grid
        if len(coords) != g.dim + 1:
            raise ValueError(f"interp takes {g.dim + 1} coordinates (x[, y], t), got {len(coords)}")
        *xs, ts = coords
        locs = [_axis_locate(ts, g.t_extent[0], g.dt, g.nt, "t")]
        locs += [_axis_locate(x, g.x_extent[a][0], g.dx[a], g.nx[a], "x") for a, x in enumerate(xs)]
        return _lerp(self.values, locs, ())

    def __call__(self, *coords) -> np.ndarray:
        return self.interp(*coords)


def _axis_index(ndim: int, axis: int, index) -> tuple:
    """Index tuple that applies ``index`` on ``axis`` and keeps every other axis whole."""
    s = [slice(None)] * ndim
    s[axis] = index
    return tuple(s)


def _cell_average(values: np.ndarray) -> np.ndarray:
    """Time-outer node values averaged onto cell centres, one axis after another,
    halved in place: two block-sized arrays at most.  Values with time stride 0
    skip the time pass, average their one row and return it as a read-only view
    at ``nt - 1`` levels: the time pass's ``(r + r) * 0.5`` is r exactly for
    |r| <= DBL_MAX / 2 (beyond that it overflowed to ±inf; this path gives r)."""
    one_row = values.strides[0] == 0
    c = values[:1] if one_row else values
    for axis in range(int(one_row), values.ndim):
        c = c[_axis_index(c.ndim, axis, slice(None, -1))] + c[_axis_index(c.ndim, axis, slice(1, None))]
        c *= 0.5
    return np.broadcast_to(c, (values.shape[0] - 1, *c.shape[1:])) if one_row else c


def _axis_locate(u_coord, lo, h, n, what):
    """Fractional index with snapping so node lookups are exact."""
    u = (np.asarray(u_coord, dtype=float) - lo) / h
    span_tol = _EDGE_TOL * max(1.0, n - 1.0)
    if not ((u >= -span_tol).all() and (u <= (n - 1) + span_tol).all()):  # NaN fails both
        raise OutOfDomain(f"{what}-coordinate outside grid extent")
    u = np.minimum(np.maximum(u, 0.0), n - 1.0)  # np.clip without its Python-level wrapper
    idx = np.minimum(np.floor(u).astype(int), n - 2)
    w = u - idx
    w = np.where(w < span_tol, 0.0, np.where(w > 1.0 - span_tol, 1.0, w))
    return idx, w


def _lerp(values, locs, index):
    """Linear blend over axis ``len(index)`` of values blended over the axes after it;
    ``locs[a]`` is axis a's (lower node, weight).  Values with time stride 0 blend
    space on their one row, then time as the two-row blend does, with the same bits.
    At module level, because a nested function that calls itself is a reference
    cycle that keeps each call's arrays alive until the cyclic garbage collector runs."""
    if len(index) == len(locs):
        return values[index]
    i, w = locs[len(index)]
    if not index and values.strides[0] == 0:
        row = _lerp(values[0], locs[1:], ())
        return row * (1 - w) + row * w
    return _lerp(values, locs, (*index, i)) * (1 - w) + _lerp(values, locs, (*index, i + 1)) * w


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned space-time box, usable as a quadrature region."""

    x_extent: tuple[tuple[float, float], ...]
    t_extent: tuple[float, float]

    @classmethod
    def one_d(cls, x_lo, x_hi, t_lo, t_hi):
        return cls(((float(x_lo), float(x_hi)),), (float(t_lo), float(t_hi)))

    def time_window(self):
        return self.t_extent

    def space_mask(self, *mesh):
        m = np.ones(np.broadcast(*mesh).shape, dtype=bool)
        for (lo, hi), c in zip(self.x_extent, mesh):
            m &= (c >= lo) & (c <= hi)
        return m

    @classmethod
    def full_domain(cls, grid: GridSpec):
        return cls(grid.x_extent, grid.t_extent)


def _region_box(t: np.ndarray, mesh: tuple, region) -> tuple[tuple, np.ndarray] | None:
    """Index of the smallest (t, x[, y]) block holding every point of ``region`` among
    times ``t`` and space points ``mesh``, and the region's space mask in that block
    (which keeps the full mask's C order); None if the region holds no point."""
    t0, t1 = region.time_window()
    rows = np.nonzero((t >= t0) & (t <= t1))[0]  # one run of rows
    mask = region.space_mask(*mesh)
    if rows.size == 0 or not mask.any():
        return None
    space = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(mask))
    return (slice(rows[0], rows[-1] + 1), *space), mask[space]


def _cell_reader(grid: GridSpec, region) -> tuple[tuple, Callable[[np.ndarray], np.ndarray]]:
    """Index of the node block one node wider than ``region``'s cell block, and the
    function that maps node values on that block to the region's cell values, one row
    per time slice; raises ``EmptyIntersection`` for a region without cells."""
    box = _region_box(grid.t_cell_centers, grid.cell_mesh(), region)
    if box is None:
        raise EmptyIntersection("no cells inside region")
    index, mask = box
    return tuple(slice(s.start, s.stop + 1) for s in index), lambda nodes: _cell_average(nodes)[:, mask]


def _region_cells(field: SpaceTimeField, region) -> np.ndarray:
    """Cell-center values of the cells inside ``region``: one row per time slice
    inside the window, flattened spatial cells in the region's mask.  Only the node
    block one node wider than the region's cell block is averaged."""
    nodes, cells = _cell_reader(field.grid, region)
    return cells(field.values[nodes])


def _region_cell_row(field: SpaceTimeField, region) -> tuple[np.ndarray, int] | None:
    """Of a field with time stride 0, ``region``'s one row of cell values and the
    number of time slices that ``_region_cells`` repeats it at; None for any other
    field.  The row is averaged from two node rows: one row has no cell row."""
    if field.values.strides[0] != 0:
        return None
    nodes, cells = _cell_reader(field.grid, region)
    block = field.values[nodes]
    return cells(block[:2])[0], block.shape[0] - 1


def _region_nodes(field: SpaceTimeField, region) -> np.ndarray | None:
    """Node values in ``region``'s time window and space mask, one row per level, or
    only the first row when the field is time-free (every row is the same); None if
    the region holds no node.  A view when the mask is the whole block, as in 1D."""
    g = field.grid
    box = _region_box(g.t_nodes, g.node_mesh(), region)
    if box is None:
        return None
    index, mask = box
    block = field.values[index]
    if block.strides[0] == 0:
        block = block[:1]
    return block if mask.all() else block[:, mask]


def sample(fn: Callable, grid: GridSpec, name: str = "") -> SpaceTimeField:
    """Sample a function of (x, t), ``fn(x[, y], t)``, node-exactly.

    ``fn`` must broadcast t the way it broadcasts x: elementwise, with no Python
    branch or reduction on t.  It is first called with the first two time nodes
    as a column; a value with no time axis is the same at every time, and the
    field's ``values`` is then one row seen at every level (a read-only view with
    time stride 0; ``np.array(field.values)`` is a writable copy).  Otherwise
    ``fn`` is called once per level with a scalar t.  A form that branches on t
    raises numpy's ``ValueError`` at that first call.

    Raises ``EvaluationFailure`` if the expression is singular at a node.
    """
    mesh = grid.node_mesh()
    shape = grid.spatial_shape()
    row = _time_free_row(fn, mesh, grid.t_nodes[:2])
    if row is not None:
        out = np.broadcast_to(row, (grid.nt, *shape))
    else:
        out = np.empty((grid.nt, *shape))
        for k, t in enumerate(grid.t_nodes):
            out[k] = np.broadcast_to(fn(*mesh, t), shape)
    try:  # the field's own scan is the only one: one row when time-free
        return SpaceTimeField(grid, out, name=name)
    except ValueError as exc:  # the shape is the grid's, so only finiteness fails
        raise EvaluationFailure("expression produced non-finite node values") from exc


def _time_free_row(fn: Callable, mesh: tuple, times) -> np.ndarray | None:
    """``fn``'s values at the space nodes ``mesh`` as one contiguous float row if a
    call with the two ``times`` as a column returns no time axis (the form is
    time-free), else None."""
    value = fn(*mesh, np.reshape(times, (2, *(1,) * len(mesh))))
    if np.ndim(value) > len(mesh):
        return None
    return np.array(np.broadcast_to(value, mesh[0].shape), dtype=float)


def interpolate_eval(field: SpaceTimeField, point) -> float:
    """Value at a space-time point ``(x[, y], t)`` by multilinear interpolation."""
    *xs, t = point
    return float(field.interp(*[np.asarray(x, dtype=float) for x in xs], np.asarray(t)))


def integrate_region(field: SpaceTimeField, region, weight_power: float = 1.0) -> float:
    """Integral of |field|^weight_power over the region, midpoint rule.

    Cells participate when their space-time center lies in the region.
    """
    flat = _region_cells(field, region)
    return float((np.abs(flat) ** weight_power).sum() * field.grid.cell_volume)


def covered_measure(field: SpaceTimeField, region) -> float:
    """Total volume of the cells the midpoint rule assigns to the region."""
    return float(_region_cells(field, region).size * field.grid.cell_volume)


# -- closed-form expression catalog -----------------------------------------

def _dist2(xs, center=None):
    """Squared distance of the points ``xs`` from ``center``: the origin if None, a
    scalar centre on every axis, else one entry per axis (``ValueError`` if not).
    The result is a fresh array (or scalar) that a caller may update in place."""
    if center is None:  # x - 0.0 is x exactly
        terms = [np.asarray(x, dtype=float) ** 2 for x in xs]
    else:
        if np.ndim(center) == 0:
            center = (center or 0.0,) * len(xs)
        terms = [(np.asarray(x) - c) ** 2 for x, c in zip(xs, center, strict=True)]
    r2 = terms[0]
    for term in terms[1:]:
        r2 = r2 + term  # not in place: the axes may broadcast to a larger shape
    return r2


def _make_constant(value=1.0):
    return lambda *a: np.full(np.broadcast(*a[:-1]).shape, float(value))  # no t axis: sampled once


def _make_affine(slopes=(1.0,), t_slope=0.0, offset=0.0):
    def fn(*a):
        *xs, t = a
        out = offset + t_slope * np.asarray(t, dtype=float)
        for s, x in zip(slopes, xs):
            out = out + s * np.asarray(x, dtype=float)
        return out
    return fn


def _make_power_spacetime(s_x=0.75, s_t=0.5, t_ref=0.0, center=None, cx=1.0, ct=1.0):
    def fn(*a):
        *xs, t = a
        with np.errstate(divide="ignore"):  # a negative power is inf at its centre
            return cx * np.sqrt(_dist2(xs, center)) ** s_x + ct * np.abs(t_ref - np.asarray(t)) ** s_t
    return fn


def _make_sin_product(k=(1.0,), omega=0.0, amplitude=1.0, phase=0.0):
    def fn(*a):
        *xs, t = a
        out = amplitude * np.exp(-omega * np.asarray(t, dtype=float))
        for ki, x in zip(k, xs):
            out = out * np.sin(ki * np.pi * np.asarray(x) + phase)
        return out
    return fn


def _make_gaussian(center=None, width=0.25, amplitude=1.0):
    def fn(*a):
        *xs, _t = a
        return amplitude * np.exp(-(np.sqrt(_dist2(xs, center)) / width) ** 2)
    return fn


def _make_bump(x_support=((-0.5, 0.5),), t_support=(0.0, 1.0)):
    """Tensor quartic bump in [0, 1], vanishing with its gradient on the box edge."""
    def one_axis(coord, lo, hi):
        s = (2.0 * np.asarray(coord, dtype=float) - lo - hi) / (hi - lo)
        return np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 2, 0.0)

    def fn(*a):
        *xs, t = a
        out = one_axis(t, *t_support)
        for x, (lo, hi) in zip(xs, x_support):
            out = out * one_axis(x, lo, hi)
        return out
    return fn


def _make_trig_series(seed=0, terms=4, kink=0.0, extent=(-1.0, 1.0)):
    """Seeded random trig polynomial plus an optional |x - c| kink (1D)."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(terms, 2))
    kink_pos = float(rng.uniform(*extent))
    kink_amp = float(kink)
    lo, hi = extent
    length = hi - lo

    def fn(*a):
        x, _t = a
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for j in range(terms):
            w = (j + 1) * math.pi / length
            out = out + coeffs[j, 0] * np.sin(w * (x - lo)) + coeffs[j, 1] * np.cos(w * (x - lo))
        if kink_amp:
            out = out + kink_amp * np.abs(x - kink_pos)
        return out
    return fn


def _make_rough_power(sigma=0.4, cap=None, center=0.0):
    """|x - c|^(-sigma), capped so node sampling stays finite."""
    def fn(*a):
        *xs, _t = a
        r = np.sqrt(_dist2(xs, center))
        with np.errstate(divide="ignore"):
            out = np.where(r > 0, r ** (-sigma), np.inf)
        if cap is not None:
            out = np.minimum(out, cap)
        return out
    return fn


def rough_power_cap(sigma: float, dx: float) -> float:
    """Cell-average-consistent cap for |x|^(-sigma) on a node-centered cell."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("cap defined for sigma in (0, 1)")
    return (dx / 2.0) ** (-sigma) / (1.0 - sigma)


CATALOG: dict[str, Callable] = {
    "zero": lambda: _make_constant(0.0),
    "constant": _make_constant,
    "affine": _make_affine,
    "power_spacetime": _make_power_spacetime,
    "sin_product": _make_sin_product,
    "gaussian": _make_gaussian,
    "bump": _make_bump,
    "trig_series": _make_trig_series,
    "rough_power": _make_rough_power,
}


def expression(name: str, **params) -> Callable:
    """Closed-form expression from the fixed catalog."""
    try:
        factory = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown expression {name!r}; catalog: {sorted(CATALOG)}") from None
    return factory(**params)


@dataclass(frozen=True)
class ClosedForm:
    """Named catalog expression plus its parameters; its catalog function is built once."""

    expr: str
    params: dict

    @cached_property
    def _fn(self) -> Callable:
        return expression(self.expr, **self.params)

    def __call__(self, *a):
        return self._fn(*a)


class _NodePlan(NamedTuple):
    """What ``SourceTerm.eval_nodes`` reuses across calls on one grid."""

    form: Callable
    grid: GridSpec
    mesh: tuple
    values: np.ndarray | None  # read-only node values of a t-free form

    def at(self, t: float) -> np.ndarray:
        """Fresh node values of the form at time t; ``EvaluationFailure`` at a singular node."""
        return self.finite(np.broadcast_to(np.asarray(self.form(*self.mesh, t), dtype=float),
                                           self.grid.spatial_shape()).copy(), t)

    def finite(self, values: np.ndarray, t: float) -> np.ndarray:
        if not np.isfinite(values).all():  # named by expr, qualname or type, never by a field's values
            name = getattr(self.form, "expr", getattr(self.form, "__qualname__", type(self.form).__name__))
            raise EvaluationFailure(f"source {name!r} is not finite at a node at t = {t}")
        return values


@dataclass
class SourceTerm:
    """Source f, any function of (x, t), with its declared L^q (space) / L^r (time) integrability."""

    form: Callable
    q: float = math.inf
    r: float = math.inf
    _plan: _NodePlan | None = dc_field(default=None, init=False, repr=False, compare=False)

    def eval_nodes(self, grid: GridSpec, t: float) -> np.ndarray:
        """Spatial node values of f at time t.

        The form is probed as ``sample`` probes, at the first call's t twice.  A
        time-free one (never a field) is evaluated once per grid and the same
        read-only array is returned at every t; any other, a fresh array per call.
        """
        plan = self._plan
        if plan is not None and plan.values is not None and plan.grid is grid and plan.form is self.form:
            return plan.values  # the time-free row, checked first: a solve asks for it every substep
        if plan is None or plan.form is not self.form or not (plan.grid is grid or plan.grid == grid):
            plan = self._plan = self._node_plan(grid, t)
        return plan.at(t) if plan.values is None else plan.values

    def _node_plan(self, grid: GridSpec, t: float) -> _NodePlan:
        plan = _NodePlan(self.form, grid, grid.node_mesh(), None)
        row = _time_free_row(plan.form, plan.mesh, (t, t))
        if row is None:
            return plan
        plan.finite(row, t).flags.writeable = False
        return plan._replace(values=row)

    def as_field(self, grid: GridSpec) -> SpaceTimeField:
        return self.form if isinstance(self.form, SpaceTimeField) else sample(self.form, grid, name="source")


# -- serialization -----------------------------------------------------------

_MAGIC = b"HOLDERLAB-FIELD v1\n"


def save_field(field: SpaceTimeField, path) -> None:
    """Self-describing container: magic line, JSON grid header, raw float64."""
    g = field.grid
    header = {
        "dim": g.dim,
        "x_extent": [list(e) for e in g.x_extent],
        "nx": list(g.nx),
        "t_extent": list(g.t_extent),
        "nt": g.nt,
        "name": field.name,
        "provenance": field.provenance,
    }
    try:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            # the buffer itself, not a tobytes() copy of it; a time-free field is
            # laid out at every level first, so the file holds every level
            fh.write(memoryview(np.ascontiguousarray(field.values, dtype="<f8")))
    except OSError as exc:
        raise IoFailure(f"cannot write field to {path}: {exc}") from exc


def load_field(path) -> SpaceTimeField:
    """Read a container written by :func:`save_field`.

    Raises ``IoFailure`` if the file cannot be read, is not a container, has
    a malformed or invalid grid header, or a payload whose size does not
    match that grid.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.readline()
            if magic != _MAGIC:
                raise IoFailure(f"{path} is not a field container")
            header_line = fh.readline()
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read field from {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode())
        grid = GridSpec(
            header["dim"],
            tuple(tuple(e) for e in header["x_extent"]),
            tuple(header["nx"]),
            tuple(header["t_extent"]),
            header["nt"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise IoFailure(f"{path} has a bad grid header: {exc!r}") from exc
    shape = (grid.nt, *grid.spatial_shape())
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise IoFailure(f"{path} payload has {len(raw)} bytes; its grid needs {expected}")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return SpaceTimeField(grid, values, name=header.get("name", ""),
                          provenance=header.get("provenance", ""))

