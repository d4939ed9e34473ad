"""Intrinsic cylinders, the norms measured on them, and anisotropic rescaling.

A cylinder of radius tau anchored at (x0, t0) with time exponent theta is
the backward set (t0 - tau^theta, t0) x B_tau(x0).  Shrinking tau nests the
cylinders, which makes oscillation ladders monotone by construction.

Every rescaling is v(x, t) = b^A u(b^B x, b^C t) with a base b in (0, 1].
It keeps u_t - div(m u^(m-1) |grad u|^(p-2) grad u) exactly when
C = (m + p - 3) A + p B, and its source is f~ = b^(A + C) f(b^B x, b^C t).
Each kind is one row, and ``_row`` computes C from (p, m) for both:

* ``NORMALIZE``  b = rho,    A = 1,       B = a >= 0
* ``ZOOM``       b = lam^k,  A = -gamma,  B = 1

ZOOM's C is ``exponents.dnl_theta(p, m, gamma)``, and it must be >= 1, as
an ``IntrinsicCylinder``'s theta must.

``smallness`` normalizes with a = 0 and the p-average of v at m = 1, and
with a = 1 and the sup of v at m > 1.  Its source-norm exponent
e(a) = r (1 + C - a n/q) - C is affine in a with e(0) > 0, so when
e(1) <= 0 no larger a helps and the search fails before any candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CylinderOutsideDomain,
    InvalidScaleParameter,
    NonPositiveRadius,
    ScaledDomainEscapes,
    SmallnessSearchFailed,
)
from .exponents import EquationParams
from .fields import (
    GridSpec,
    SpaceTimeField,
    _cell_reader,
    _dist2,
    _region_cells,
    _region_nodes,
)

__all__ = [
    "IntrinsicCylinder",
    "make_cylinder",
    "NormValue",
    "sup_oscillation",
    "p_avg_norm",
    "lqr_norm",
    "ScalingKind",
    "AnisotropicScaling",
    "build_scaling",
    "apply_scaling",
    "ScalingNormFactor",
    "scaling_norm_factor",
    "SmallnessResult",
    "smallness",
    "pparabolic_smallness",
]

_REL_TOL = 1e-9
_SMALLNESS_STEPS = 60  # bisection steps of the smallness search


@dataclass(frozen=True)
class IntrinsicCylinder:
    """Backward space-time cylinder (t0 - tau^theta, t0) x B_tau(x0)."""

    x0: tuple[float, ...]
    t0: float
    tau: float
    theta: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise NonPositiveRadius(f"cylinder radius must be positive, got {self.tau}")
        if not self.theta >= 1.0:
            raise InvalidScaleParameter(f"theta must be >= 1, got {self.theta}")

    @property
    def time_extent(self) -> float:
        return self.tau**self.theta

    def time_window(self):
        return (self.t0 - self.time_extent, self.t0)

    def space_bounds(self):
        return tuple((c - self.tau, c + self.tau) for c in self.x0)

    def space_mask(self, *mesh):
        return _dist2(mesh, self.x0) <= self.tau**2

    def contained_in(self, grid: GridSpec) -> bool:
        return _box_inside((*self.space_bounds(), self.time_window()), grid)


def _box_inside(box, grid: GridSpec) -> bool:
    """Whether the (x[, y], t) intervals of ``box`` lie in the grid's extents,
    up to a tolerance relative to each extent."""
    for (blo, bhi), (lo, hi) in zip(box, (*grid.x_extent, grid.t_extent), strict=True):
        tol = _REL_TOL * (hi - lo)
        if blo < lo - tol or bhi > hi + tol:
            return False
    return True


def make_cylinder(center, tau: float, theta: float) -> IntrinsicCylinder:
    """Cylinder from a space-time anchor ``(x[, y], t0)``."""
    *x0, t0 = center
    return IntrinsicCylinder(tuple(float(c) for c in x0), float(t0), float(tau), float(theta))


@dataclass(frozen=True)
class NormValue:
    value: float


def sup_oscillation(field: SpaceTimeField, cyl: IntrinsicCylinder):
    """(oscillation, sup of |u|) over the cylinder.

    Extrema are taken over the grid nodes in the cylinder's time window and
    space mask, the selection the region quadrature makes on cell centres,
    plus the interpolated anchor value; with multilinear interpolation the
    node scan bounds the interpolant on every fully contained cell, and the
    O(dx) slack at the curved boundary shrinks with the grid.
    """
    g = field.grid
    if not cyl.contained_in(g):
        raise CylinderOutsideDomain(f"{cyl} escapes the field domain")
    center_val = float(field(*cyl.x0, cyl.t0))
    nodes = _region_nodes(field, cyl)
    if nodes is None:
        return 0.0, abs(center_val)
    vmax = max(float(nodes.max()), center_val)
    vmin = min(float(nodes.min()), center_val)
    return vmax - vmin, max(abs(vmax), abs(vmin))


def p_avg_norm(field: SpaceTimeField, region, p: float) -> NormValue:
    """Volume-averaged L^p norm (mean of |v|^p over the region)^(1/p).

    Computed as a plain cell average, which agrees with the
    |Q|^(-1/p) ||v||_p route to rounding because both use the same
    midpoint cells.
    """
    return NormValue(_p_avg(_region_cells(field, region), p))


def _p_avg(flat: np.ndarray, p: float) -> float:
    """(mean of |v|^p over the cell values ``flat``)^(1/p); the max of |v| for p = inf."""
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    if math.isinf(p):
        return float(np.abs(flat).max())
    mean = float((np.abs(flat) ** p).mean())
    return mean ** (1.0 / p)


def lqr_norm(field: SpaceTimeField, region, q: float, r: float) -> NormValue:
    """Mixed norm: L^q over each spatial slice, then L^r of the slice norms.

    Infinite exponents are essential sups approximated by the grid max.
    """
    return NormValue(_lqr(_region_cells(field, region), field.grid, q, r))


def _require_qr(q: float, r: float) -> None:
    if not (q >= 1.0 and r >= 1.0):
        raise ValueError("q and r must be >= 1")


def _lqr(flat: np.ndarray, grid: GridSpec, q: float, r: float) -> float:
    """Mixed L^q(L^r) norm of the cell values ``flat`` (one row per time slice) of ``grid``."""
    _require_qr(q, r)
    if math.isinf(q):
        slices = np.abs(flat).max(axis=1)
    else:
        slices = ((np.abs(flat) ** q).sum(axis=1) * grid.space_cell_volume) ** (1.0 / q)
    if math.isinf(r):
        return float(slices.max())
    return float(((slices**r).sum() * grid.dt) ** (1.0 / r))


# -- anisotropic rescaling ----------------------------------------------------


class ScalingKind(Enum):
    NORMALIZE = "normalize"
    ZOOM = "zoom"


@dataclass(frozen=True, eq=False)
class AnisotropicScaling:
    """Space/time/amplitude/source factors of one rescaling.

    Acts on a solution as v(x, t) = amplitude * u(space x, time t) and on
    its source as f~(x, t) = source * f(space x, time t).
    """

    kind: ScalingKind
    space_factor: float
    time_factor: float
    amplitude_factor: float
    source_factor: float
    params: dict

    def __post_init__(self):
        for name in ("space_factor", "time_factor", "amplitude_factor", "source_factor"):
            if not getattr(self, name) > 0.0:
                raise InvalidScaleParameter(f"{name} must be positive")


def _require(cond, msg):
    if not cond:
        raise InvalidScaleParameter(msg)


def _row(kind: ScalingKind, params) -> tuple[float, float, float, float]:
    """(b, B, C, A): the base and the space, time and amplitude exponents of ``kind``."""
    need = ("p", "m", *(("lam", "gamma") if kind is ScalingKind.ZOOM else ("rho", "a")))
    _require(all(key in params for key in need), f"{kind.value} needs {need}, got {sorted(params)}")
    extra = params.keys() - {*need, *(("k",) if kind is ScalingKind.ZOOM else ())}
    _require(not extra, f"{kind.value} does not read {sorted(extra)}")
    p, m = params["p"], params["m"]
    _require(p >= 2.0, "p must be >= 2")
    _require(m >= 1.0, "m must be >= 1")
    if kind is ScalingKind.ZOOM:
        lam, k, gamma = params["lam"], params.get("k", 1), params["gamma"]
        _require(0.0 < lam <= 1.0, "lam must lie in (0, 1]")
        _require(k >= 1 and int(k) == k, "k must be a positive integer")
        _require(gamma > 0.0, "gamma must be positive")
        b, space, amplitude = lam ** float(k), 1.0, -gamma
    else:
        rho, a = params["rho"], params["a"]
        _require(0.0 < rho <= 1.0, "rho must lie in (0, 1]")
        _require(a >= 0.0, "a must be nonnegative")
        b, space, amplitude = rho, a, 1.0
    time = (m + p - 3.0) * amplitude + p * space
    _require(kind is ScalingKind.NORMALIZE or time >= 1.0, "theta must be >= 1")
    return b, space, time, amplitude


def build_scaling(kind: ScalingKind, **params) -> AnisotropicScaling:
    """Construct a scaling from the kind's row: every factor is b to its exponent.

    Contraction parameters ``lam`` and ``rho`` live in (0, 1]; the value 1
    yields the identity.  A ``kind`` that names no member raises ``ValueError``.
    """
    kind = ScalingKind(kind)
    b, space, time, amplitude = _row(kind, params)
    return AnisotropicScaling(
        kind, b**space, b**time, b**amplitude, b ** (amplitude + time), dict(params)
    )


def apply_scaling(
    field: SpaceTimeField,
    sc: AnisotropicScaling,
    grid: GridSpec | None = None,
    role: str = "solution",
) -> SpaceTimeField:
    """Transformed field factor * u(space x, time t) sampled on ``grid``.

    ``role`` selects the amplitude factor ("solution") or the source factor
    ("source").  The default grid is the full preimage of the source
    domain, so the map never escapes; a caller grid is validated and
    ``ScaledDomainEscapes`` is raised if its image leaves the domain.
    """
    if role not in ("solution", "source"):
        raise ValueError("role must be 'solution' or 'source'")
    factor = sc.amplitude_factor if role == "solution" else sc.source_factor
    g_src = field.grid
    if grid is None:
        grid = GridSpec(
            g_src.dim,
            tuple((lo / sc.space_factor, hi / sc.space_factor) for lo, hi in g_src.x_extent),
            g_src.nx,
            (g_src.t_extent[0] / sc.time_factor, g_src.t_extent[1] / sc.time_factor),
            g_src.nt,
        )
    _require_image_inside(grid, sc, g_src)
    out = _sample_scaled(field, sc, factor, grid.node_mesh(), grid.t_nodes)
    return SpaceTimeField(grid, out, name=field.name,
                          provenance=f"{field.provenance}|{sc.kind.value}")


def _require_image_inside(grid: GridSpec, sc: AnisotropicScaling, g_src: GridSpec) -> None:
    image = [(lo * sc.space_factor, hi * sc.space_factor) for lo, hi in grid.x_extent]
    image.append((grid.t_extent[0] * sc.time_factor, grid.t_extent[1] * sc.time_factor))
    if not _box_inside(image, g_src):
        raise ScaledDomainEscapes("the grid's image escapes the source domain")


def _sample_scaled(field: SpaceTimeField, sc: AnisotropicScaling, factor: float,
                   mesh: tuple, t: np.ndarray) -> np.ndarray:
    """factor * field(space x, time t) at the space nodes ``mesh`` and the times ``t``,
    each mapped coordinate clipped into the field's domain.  Every output node is
    computed on its own, so a block of nodes gives the same bits as the whole grid."""
    g_src = field.grid
    mapped = [np.clip(x * sc.space_factor, g_src.x_extent[a][0], g_src.x_extent[a][1])
              for a, x in enumerate(mesh)]
    t_mapped = np.clip(t * sc.time_factor, *g_src.t_extent)
    return factor * field.interp(*mapped, t_mapped.reshape(t.size, *(1,) * len(mesh)))


@dataclass(frozen=True)
class ScalingNormFactor:
    """Predicted prefactor relating the transformed source's mixed norm on
    the unit cylinder to the original norm on the mapped (shrunken) region.

    For the row (b, B, C, A) of the scaling the factor is b^(e/r) with
    ``exponent_e`` e = r (A + C - B n/q) - C; at r = inf, e is the limit of
    e/r and the factor is b^e.  ``exponent_nonnegative`` is e >= 0, so for
    b < 1 exactly when the factor is <= 1.
    """

    factor: float
    exponent_e: float
    exponent_nonnegative: bool


def scaling_norm_factor(sc: AnisotropicScaling, q: float, r: float, n: int) -> ScalingNormFactor:
    """Exact algebraic norm prefactor F * S^(-n/q) * T^(-1/r)."""
    e = _norm_exponent(_row(ScalingKind(sc.kind), sc.params), n, q, r)
    factor = sc.source_factor * sc.space_factor ** (-n * (1.0 / q)) * sc.time_factor ** (-1.0 / r)
    return ScalingNormFactor(factor, e, e >= 0.0)


def _norm_exponent(row, n: int, q: float, r: float) -> float:
    """r (A + C - B n/q) - C of the row (b, B, C, A); for r = inf, the /r limit."""
    _require_qr(q, r)
    _, space, time, amplitude = row
    per_r = (amplitude + time) - space * n / q
    return per_r if math.isinf(r) else r * per_r - time


# -- smallness search ---------------------------------------------------------


@dataclass
class SmallnessResult:
    rho: float
    a: int
    scaling: AnisotropicScaling
    v: SpaceTimeField
    f_scaled: SpaceTimeField
    v_norm: float
    f_norm: float
    iterations: int


def _g1_reader(field: SpaceTimeField, g1: IntrinsicCylinder):
    """Function of (scaling, factor) returning G1's cell values of the transformed
    field.  It samples only the node block that the cell reads of G1 use, after the
    full grid's escape check of ``apply_scaling``."""
    g = field.grid
    (t_nodes, *space), g1_cells = _cell_reader(g, g1)
    mesh = tuple(x[tuple(space)] for x in g.node_mesh())
    t = g.t_nodes[t_nodes]

    def cells(sc: AnisotropicScaling, factor: float) -> np.ndarray:
        _require_image_inside(g, sc, g)
        return g1_cells(_sample_scaled(field, sc, factor, mesh, t))

    return cells


def smallness(
    params: EquationParams,
    u_field: SpaceTimeField,
    f_field: SpaceTimeField,
    q: float,
    r: float,
    epsilon: float = 1e-2,
) -> SmallnessResult:
    """Largest rho in (0, 1), by bisection, with v = rho u(rho^a x, rho^C t) in the smallness
    regime ||v||_{G1} <= 1, ||f~||_{q,r;G1} <= epsilon; a and the norm of v follow from
    the m of ``params`` by the rule in the module docstring.

    Each candidate's norms are read on the node block that holds G1's cells,
    sampled with the same operations as ``apply_scaling``, so they equal the
    norms of the full transformed fields bitwise.  The returned ``v`` and
    ``f_scaled`` are the full-grid fields of the best feasible candidate.
    Raises ``EmptyIntersection`` before any candidate if a grid has no cell
    in G1, and ``ScaledDomainEscapes`` at the first candidate whose full grid
    maps outside its field's domain.  Raises ``ValueError`` for q or r under 1
    or an epsilon that is not positive.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not params.n == u_field.grid.dim == f_field.grid.dim:
        raise ValueError(f"params.n = {params.n} but u is {u_field.grid.dim}D "
                         f"and f is {f_field.grid.dim}D")
    a, v_power = (0, params.p) if params.m == 1.0 else (1, math.inf)
    exps = dict(p=params.p, m=params.m, a=float(a))
    if (e := _norm_exponent(_row(ScalingKind.NORMALIZE, dict(rho=1.0, **exps)), params.n, q, r)) <= 0.0:
        raise SmallnessSearchFailed(f"the source-norm exponent is {e:.3g} <= 0 at a = 1; e(a) "
                                    "is affine with e(0) > 0, so that rules out every a >= 1")
    g1 = IntrinsicCylinder((0.0,) * params.n, 0.0, 1.0, 2.0)
    u_cells, f_cells = _g1_reader(u_field, g1), _g1_reader(f_field, g1)
    best, lo, hi = None, 0.0, 1.0
    for it in range(1, _SMALLNESS_STEPS + 1):
        rho = 0.5 * (lo + hi)
        sc = build_scaling(ScalingKind.NORMALIZE, rho=rho, **exps)
        v_norm = _p_avg(u_cells(sc, sc.amplitude_factor), v_power)
        f_norm = _lqr(f_cells(sc, sc.source_factor), f_field.grid, q, r)
        if v_norm <= 1.0 and f_norm <= epsilon:
            best = rho, sc, v_norm, f_norm, it
            lo = rho
        else:
            hi = rho
    if best is None:
        raise SmallnessSearchFailed(f"no rho in (0,1) reached the targets after "
                                    f"{_SMALLNESS_STEPS} bisection steps")
    rho, sc, v_norm, f_norm, it = best
    v = apply_scaling(u_field, sc, grid=u_field.grid)
    f_scaled = apply_scaling(f_field, sc, grid=f_field.grid, role="source")
    return SmallnessResult(rho, a, sc, v, f_scaled, v_norm, f_norm, it)


# kept for the benchmark's p-parabolic witness, which calls and traces it by this name
def pparabolic_smallness(
    u_field: SpaceTimeField,
    f_field: SpaceTimeField,
    p: float,
    q: float,
    r: float,
    epsilon: float = 1e-2,
) -> SmallnessResult:
    """``smallness`` for the p-parabolic equation: v = rho u(x, rho^(p-2) t)."""
    return smallness(EquationParams.p_parabolic(p, u_field.grid.dim),
                     u_field, f_field, q, r, epsilon)
