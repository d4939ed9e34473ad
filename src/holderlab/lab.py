"""Empirical regularity measurement on intrinsic cylinder ladders.

The ladder at a center point measures, for radii base * lam^k, the
oscillation, the sup of |u|, and the averaged distance to the best
constant; log-log regression of any of these against the radius estimates
a Holder exponent.  Levels whose cylinder falls under the grid resolution
are truncated, and the default fit window additionally drops the base
level (boundary-polluted) and radii under 8 dx (grid-polluted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroLevels, CylinderOutsideDomain, InsufficientLevels
from .fields import SpaceTimeField, _region_cell_row, _region_cells
from .geometry import _box_inside, make_cylinder, sup_oscillation

__all__ = [
    "ProfileLevel",
    "OscillationProfile",
    "oscillation_profile",
    "HolderFit",
    "fit_exponent",
    "CampanatoReport",
    "campanato_sequence",
    "GeometricIterationReport",
    "geometric_iteration_check",
    "time_direction_oscillations",
]

ZERO_FLOOR = 1e-14


@dataclass(frozen=True)
class ProfileLevel:
    k: int
    radius: float
    osc: float
    sup_abs: float
    campanato: float
    c_k: float


@dataclass(frozen=True)
class OscillationProfile:
    center: tuple
    theta: float
    lam: float
    k_max: int
    base_radius: float
    p: float
    levels: tuple[ProfileLevel, ...]
    grid_dx: float

    @property
    def k_max_effective(self) -> int:
        return self.levels[-1].k

    def radii(self) -> np.ndarray:
        return np.array([lv.radius for lv in self.levels])

    def series(self, quantity: str) -> np.ndarray:
        if quantity not in _QUANTITIES:
            raise ValueError(f"unknown quantity {quantity!r}; one of {sorted(_QUANTITIES)}")
        return np.array([getattr(lv, quantity) for lv in self.levels])


_QUANTITIES = ("osc", "sup_abs", "campanato")


def _golden_best_constant(vals: np.ndarray, p: float, rows: int = 1):
    """Constant c minimizing the averaged distance mean(|v - c|^p)^(1/p) over v,
    the 1D ``vals`` repeated ``rows`` times, and that distance.

    The minimizer is the mean for p = 2 and the median for p = 1.  For other p
    it is found by golden section: the objective is convex in c, so the bracket
    [min v, max v] always contains the minimizer.  The min, the max and each
    |v - c|^p are taken on ``vals`` once.  The means and the median run on a
    repeated copy, as on ``np.tile(vals, rows)``: a sum's bits depend on its
    order and length, and the median's middle pair on the count.
    """
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo < 1e-15:
        return 0.5 * (lo + hi), 0.0

    def repeated(v):
        return np.broadcast_to(v, (rows, v.size)).ravel()  # a view when rows == 1

    def h(c):
        d = vals - c  # |v - c|^p in one buffer
        np.abs(d, out=d)
        d **= p
        return float(repeated(d).mean())

    if p == 2.0:
        c = float(repeated(vals).mean())
    elif p == 1.0:
        c = float(np.median(repeated(vals), overwrite_input=rows > 1))  # only a copy is reordered
    else:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c1 = b - invphi * (b - a)
        c2 = a + invphi * (b - a)
        h1, h2 = h(c1), h(c2)
        for _ in range(80):  # 0.618^80 < 1e-16: the bracket is below double precision
            if h1 <= h2:
                b, c2, h2 = c2, c1, h1
                c1 = b - invphi * (b - a)
                h1 = h(c1)
            else:
                a, c1, h1 = c1, c2, h2
                c2 = a + invphi * (b - a)
                h2 = h(c2)
        c = 0.5 * (a + b)
    return c, h(c) ** (1.0 / p)


def _require_ladder(lam, k_max):
    if not 0.0 < lam <= 0.5:
        raise ValueError(f"lam must lie in (0, 1/2], got {lam}")
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise ValueError(f"k_max must be a nonnegative integer, got {k_max!r}")


def _walk_ladder(grid, center, theta, lam, k_max, base_radius):
    """Yield ``(k, tau, cylinder)`` for tau = base_radius * lam^k, k = 0..k_max, stopping
    before the first degenerate level, k > 0 with tau < max dx or tau^theta < dt: so a
    level k > 0 whose cylinder lies in the grid holds a cell centre."""
    dx_max = max(grid.dx)
    for k in range(k_max + 1):
        tau = base_radius * lam**k
        cyl = make_cylinder(center, tau, theta)
        if k > 0 and (tau < dx_max or cyl.time_extent < grid.dt):
            return
        yield k, tau, cyl


def oscillation_profile(
    field: SpaceTimeField,
    center,
    theta: float,
    lam: float,
    k_max: int,
    p: float = 2.0,
    base_radius: float = 0.5,
) -> OscillationProfile:
    """Ladder of nested cylinders with oscillation and Campanato data.

    Parameters
    ----------
    field : SpaceTimeField
    center : tuple
        Space-time anchor (x[, y], t0); the base cylinder must sit inside
        the field domain.
    theta : float
        Intrinsic time exponent of the cylinders.
    lam : float
        Radius contraction per level, in (0, 1/2].
    k_max : int
        Deepest requested level; the profile truncates earlier if a
        cylinder falls below one grid cell.
    p : float
        Exponent of the averaged distance to the best constant.  The best
        constant is the mean for p = 2 and the median for p = 1, exactly;
        other p use golden section.
    base_radius : float
    """
    _require_ladder(lam, k_max)
    g = field.grid
    levels = []
    for k, tau, cyl in _walk_ladder(g, center, theta, lam, k_max, base_radius):
        osc, sup_abs = sup_oscillation(field, cyl)
        # a time-free field's cells are one row repeated; others are flattened
        vals, rows = _region_cell_row(field, cyl) or (_region_cells(field, cyl).ravel(), 1)
        c_k, dist = _golden_best_constant(vals, p, rows)
        levels.append(ProfileLevel(k, tau, osc, sup_abs, dist, c_k))
    return OscillationProfile(
        tuple(center), theta, lam, k_max, base_radius, p, tuple(levels), max(g.dx)
    )


@dataclass(frozen=True)
class HolderFit:
    exponent: float
    log_constant: float
    r_squared: float
    window: tuple[int, int]
    n_excluded_zero: int


def _loglog_fit(radii, values, window, n_excluded):
    logs_r = np.log(radii)
    logs_v = np.log(values)
    slope, intercept = np.polyfit(logs_r, logs_v, 1)
    pred = slope * logs_r + intercept
    ss_res = float(((logs_v - pred) ** 2).sum())
    ss_tot = float(((logs_v - logs_v.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    return HolderFit(float(slope), float(intercept), r2, window, n_excluded)


def default_fit_window(profile: OscillationProfile) -> tuple[int, int]:
    """Drop the boundary-polluted base level and radii under 8 dx."""
    ks = [lv.k for lv in profile.levels if lv.radius >= 8.0 * profile.grid_dx]
    k_hi = ks[-1] if ks else profile.levels[-1].k
    return (min(1, profile.k_max_effective), k_hi)


def fit_exponent(
    profile: OscillationProfile,
    window: tuple[int, int] | None = None,
    quantity: str = "osc",
) -> HolderFit:
    """Least-squares slope of log(quantity) against log(radius).

    Levels with values under 1e-14 are excluded (their count is recorded);
    at least three usable levels are required.
    """
    if window is None:
        window = default_fit_window(profile)
    k_lo, k_hi = window
    sel = np.array([k_lo <= lv.k <= k_hi for lv in profile.levels], dtype=bool)
    radii, vals = profile.radii()[sel], profile.series(quantity)[sel]
    keep = vals > ZERO_FLOOR
    n_excluded = int((~keep).sum())
    if sel.any() and not keep.any():
        raise AllZeroLevels("every level in the window is numerically zero")
    radii, vals = radii[keep], vals[keep]
    if radii.size < 3:
        raise InsufficientLevels(
            f"need at least 3 usable levels in window {window}, have {radii.size}"
        )
    return _loglog_fit(radii, vals, window, n_excluded)


@dataclass(frozen=True)
class CampanatoReport:
    """Best-constant sequence diagnostics on a profile ladder."""

    diffs: tuple[float, ...]          # |c_k - c_{k+1}|
    c_limit: float                    # deepest available constant
    decay: HolderFit | None           # geometric decay rate of the diffs
    degenerate: bool                  # fewer than 3 diffs above the zero floor
    distance_bounds: tuple[float, ...]  # ||u - c_limit|| upper bounds per level
    constant: float | None            # smallest C with bound_k <= C r_k^rate
    inequality_holds: bool | None


def campanato_sequence(profile: OscillationProfile) -> CampanatoReport:
    """Decay of the best-constant sequence and the limit-constant bound.

    The distance to the limit constant is bounded per level by the
    triangle inequality (measured distance to c_k plus |c_k - c_limit|),
    which only uses data already recorded on the ladder.
    """
    if len(profile.levels) < 4:
        raise InsufficientLevels("campanato sequence needs at least 4 levels")
    cs = np.array([lv.c_k for lv in profile.levels])
    radii = profile.radii()
    diffs = np.abs(np.diff(cs))
    c_limit = float(cs[-1])
    keep = diffs > ZERO_FLOOR
    degenerate = int(keep.sum()) < 3
    decay = None
    if not degenerate:
        decay = _loglog_fit(radii[:-1][keep], diffs[keep],
                            (profile.levels[0].k, profile.levels[-2].k),
                            int((~keep).sum()))
    dist_bounds = np.array([lv.campanato for lv in profile.levels]) + np.abs(cs - c_limit)
    constant = None
    holds = None
    if decay is not None:
        rate = decay.exponent
        with np.errstate(divide="ignore"):
            ratios = dist_bounds / radii**rate
        constant = float(np.max(ratios))
        holds = math.isfinite(constant)
    return CampanatoReport(
        tuple(float(d) for d in diffs),
        c_limit,
        decay,
        degenerate,
        tuple(float(b) for b in dist_bounds),
        constant,
        holds,
    )


@dataclass(frozen=True)
class GeoLevel:
    k: int
    radius: float
    target: float          # (lam^k)^gamma
    precondition_holds: bool
    sup_abs: float
    ratio: float           # sup_abs / target


@dataclass(frozen=True)
class GeometricIterationReport:
    levels: tuple[GeoLevel, ...]
    center_value: float
    c_min: float                    # smallest C passing every level
    first_fail_unit_c: int | None   # first level failing with C = 1
    precondition_never_holds: bool


def geometric_iteration_check(
    field: SpaceTimeField,
    center,
    gamma: float,
    theta: float,
    lam: float,
    k_max: int,
    base_radius: float = 1.0,
) -> GeometricIterationReport:
    """Per-level decay check sup |u| <= C (lam^k)^gamma on the ladder.

    Each level also records whether the pointwise smallness precondition
    |u(center)| <= (lam^k)^gamma / 4 holds there.  Levels below the grid
    resolution are dropped, mirroring the profile truncation.  ``lam`` and
    ``k_max`` are checked as in ``oscillation_profile``.
    """
    _require_ladder(lam, k_max)
    center_value = float(field(*center))
    levels = []
    for k, tau, cyl in _walk_ladder(field.grid, center, theta, lam, k_max, base_radius):
        _, sup_abs = sup_oscillation(field, cyl)
        target = (lam**k) ** gamma
        levels.append(GeoLevel(
            k, tau, target, abs(center_value) <= 0.25 * target, sup_abs, sup_abs / target
        ))
    first_fail = next((lv.k for lv in levels if lv.ratio > 1.0), None)
    return GeometricIterationReport(
        tuple(levels),
        center_value,
        max(lv.ratio for lv in levels),
        first_fail,
        not any(lv.precondition_holds for lv in levels),
    )


def time_direction_oscillations(
    field: SpaceTimeField,
    center,
    theta: float,
    lam: float,
    k_max: int,
    base_radius: float = 0.5,
):
    """Oscillation over pure-time segments {x0} x (t0 - tau^theta, t0].

    Returns (t_distances, oscillations) suitable for a log-log fit against
    the time distance tau^theta.  The segments need no spatial resolution,
    so this ladder stops only when tau^theta falls under one time step, and
    tests that at k = 0 too; it does not use the cylinder ladder's stop rule.
    ``lam`` and ``k_max`` are checked as in ``oscillation_profile``.  Raises
    ``CylinderOutsideDomain`` if a segment leaves the grid.
    """
    _require_ladder(lam, k_max)
    *x0, t0 = center
    g = field.grid
    t_dists, oscs = [], []
    for k in range(k_max + 1):
        tau = base_radius * lam**k
        extent = tau**theta
        if extent < g.dt:
            break
        if not _box_inside((*((c, c) for c in x0), (t0 - extent, t0)), g):
            raise CylinderOutsideDomain(f"the segment {x0} x ({t0 - extent}, {t0}] escapes the grid")
        ts = g.t_nodes
        sel = ts[(ts >= t0 - extent) & (ts <= t0)]
        sel = np.append(sel, t0)
        vals = field.interp(*[np.full(sel.shape, c) for c in x0], sel)
        t_dists.append(extent)
        oscs.append(float(vals.max() - vals.min()))
    return np.array(t_dists), np.array(oscs)
