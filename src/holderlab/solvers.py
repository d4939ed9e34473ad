"""Explicit conservative finite-difference solvers and closed-form oracles.

The scheme is the flux form, one term per axis a with spacing h_a,

    u_j^{k+1} = u_j^k + dt sum_a (F^a_{j+e_a/2} - F^a_{j-e_a/2}) / h_a + dt f_j^k,
    F^a = D(u, grad u) * (u_{j+e_a} - u_j) / h_a   on the faces normal to axis a,

with one diffusivity for every family,
D = m |u_face|^(m-1) (|grad u|^2 + eps^2)^((p-2)/2), less a factor that is
exactly 1 (at m = 1 or p = 2): heat has D = 1, and the porous medium has no
cutoff (its flux vanishes on its own at u = 0).  On a face, |grad u|^2 is the
squared normal difference plus, in 2D, the squared central difference along
the other axis averaged onto the face.  One stepper, ``_Stepper``, runs this
update in every dimension by looping over the axes; ``residual`` reuses its
flux differences.  A PERIODIC boundary adds the flux through the wrapped face
to the first node slab of each axis and copies that slab to the last.
Sub-stepping keeps each internal step below the CFL bound
cfl_safety / (2 D_max sum_a h_a^-2); stored time levels are hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlowUp, GridTooCoarse, OutsideValidity, UnstableConfig
from .exponents import EquationParams
from .fields import GridSpec, SourceTerm, SpaceTimeField, _axis_index, _dist2, _node_gradient, sample

__all__ = [
    "Boundary",
    "SolverConfig",
    "HeatSeparable",
    "BarenblattPME",
    "PowerProfile",
    "sample_reference",
    "solve",
    "stable_dt",
    "residual",
    "ResidualReport",
]


class Boundary(Enum):
    DIRICHLET_FROM_ORACLE = "dirichlet_oracle"
    DIRICHLET_ZERO = "dirichlet_zero"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class SolverConfig:
    """Discretization knobs.

    ``flux_regularization_eps`` replaces |grad u|^(p-2) by
    ((grad u)^2 + eps^2)^((p-2)/2); eps > 0 slightly smooths the degenerate
    gradient regime and is below the discretization noise floor at the
    resolutions used here.
    """

    flux_regularization_eps: float = 1e-6
    cfl_safety: float = 0.4
    boundary: Boundary = Boundary.DIRICHLET_ZERO
    max_steps: int = 20_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not self.flux_regularization_eps >= 0.0:
            raise ValueError("flux_regularization_eps must be >= 0")


# -- closed-form reference solutions ----------------------------------------


@dataclass(frozen=True)
class HeatSeparable:
    """Product sine mode with exponential decay on a box, n = 1 or 2."""

    n: int
    extent: tuple[float, float] = (0.0, 1.0)
    amplitude: float = 1.0
    mode: int = 1

    def eval(self, *coords):
        *xs, t = coords
        lo, hi = self.extent
        freq = self.mode * math.pi / (hi - lo)
        out = self.amplitude * np.exp(-len(xs) * freq**2 * np.asarray(t, dtype=float))
        for x in xs:
            out = out * np.sin(freq * (np.asarray(x) - lo))
        return out


@dataclass(frozen=True)
class BarenblattPME:
    """Self-similar compactly supported source solution of the porous medium
    equation, normalised to a prescribed mass; valid for t > 0.

    u(x, t) = t^-a (C - b |x|^2 t^(-2a/n))_+^(1/(m-1)),
    a = n / (n(m-1) + 2), b = a(m-1) / (2mn),
    and C is fixed so the (conserved) total mass equals ``mass``.
    """

    m: float
    n: int = 1
    mass: float = 1.0

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError("Barenblatt profile requires m > 1")

    @cached_property
    def a(self) -> float:
        return self.n / (self.n * (self.m - 1.0) + 2.0)

    @cached_property
    def b(self) -> float:
        return self.a * (self.m - 1.0) / (2.0 * self.m * self.n)

    @cached_property
    def c(self) -> float:
        s = 1.0 / (self.m - 1.0)
        # integral of (1 - |z|^2)_+^s over R^n is pi^(n/2) G(s+1) / G(s+1+n/2)
        k_n = math.pi ** (self.n / 2.0) * math.gamma(s + 1.0) / math.gamma(s + 1.0 + self.n / 2.0)
        return (self.mass * self.b ** (self.n / 2.0) / k_n) ** (1.0 / (s + self.n / 2.0))

    def eval(self, *coords):
        *xs, t = coords
        t = np.asarray(t, dtype=float)
        if not (t > 0).all():  # NaN fails too
            raise OutsideValidity("Barenblatt profile requires t > 0")
        # in place only on fresh arrays of the full broadcast shape, so a scalar t or a
        # time column still broadcasts against the points
        core = _dist2(xs)
        core *= self.b
        t_scale = t ** (-2.0 * self.a / self.n)
        core = core * t_scale
        out = core if isinstance(core, np.ndarray) else None  # a numpy scalar has no buffer
        core = np.maximum(np.subtract(self.c, core, out=out), 0.0, out=out)
        if self.m != 2.0:  # x ** 1.0 is x exactly; skip the pow pass
            core **= 1.0 / (self.m - 1.0)
        if self.n != 2:  # at n = 2 the two time powers are one: 2a/n = a
            t_scale = t ** (-self.a)
        core *= t_scale
        return core

    def free_boundary_radius(self, t: float) -> float:
        if not t > 0:  # NaN fails too
            raise OutsideValidity("Barenblatt profile requires t > 0")
        return math.sqrt(self.c / self.b) * t ** (self.a / self.n)


@dataclass(frozen=True)
class PowerProfile:
    """Static radial power |x - center|^s."""

    s: float
    center: tuple[float, ...] | None = None  # None: the origin

    def eval(self, *coords):
        *xs, _t = coords
        with np.errstate(divide="ignore"):  # a negative power is inf at its centre
            return _dist2(xs, self.center) ** (self.s / 2.0)


def sample_reference(ref, grid: GridSpec) -> SpaceTimeField:
    return sample(ref.eval, grid, name=type(ref).__name__)


# -- diffusivity and stepping -------------------------------------------------


def stable_dt(grid: GridSpec, field_bound: float, grad_bound: float,
              params: EquationParams, cfg: SolverConfig) -> float:
    """CFL-limited step cfl_safety * dx^2 / (2 n D_max), per-axis spacing aware.

    D_max is the face diffusivity of two nodes at ``field_bound`` with
    |grad u| = ``grad_bound``.  With a degenerate bound (D_max = 0) the
    pure-transport fallback cfl_safety * dx^2 is returned.
    """
    if not (field_bound >= 0 and grad_bound >= 0):
        raise ValueError("bounds must be nonnegative")
    d_max = _face_diffusivity(params, cfg, field_bound, field_bound, grad_bound**2)
    return _cfl_step(cfg, grid.dx)(float(d_max))


def _cfl_step(cfg, dx) -> Callable[[float], float]:
    """d_max -> the CFL step cfl_safety / (2 d_max sum_a h_a^-2) for the largest face
    diffusivity d_max, or the pure-transport fallback cfl_safety * min(h)^2 at d_max = 0."""
    safety = cfg.cfl_safety
    inv_h2 = sum(1.0 / h**2 for h in dx)
    fallback = safety * min(dx) ** 2

    def step(d_max):
        if d_max == 0.0:
            return fallback
        return safety / (2.0 * d_max * inv_h2)
    return step


def _face_diffusivity(params, cfg, u_lo, u_hi, grad2, out=None):
    """D on faces given the two adjacent node values and |grad u|^2 there, written
    into ``out`` (a fresh array if None) and returned; a factor that is exactly 1 is
    not computed, and ``grad2`` is read only for p != 2."""
    p, m, eps = params.p, params.m, cfg.flux_regularization_eps
    if out is None:
        out = np.empty(np.broadcast(u_lo, u_hi).shape)
    if m == 1.0:  # D is the gradient factor alone
        if p == 2.0:
            out.fill(1.0)
            return out
        np.add(grad2, eps**2, out=out)
        out **= (p - 2.0) / 2.0
        return out
    np.add(u_lo, u_hi, out=out)  # every operation on the amplitude is in place on ``out``
    out *= 0.5
    np.abs(out, out=out)
    if m != 2.0:  # x ** 1.0 is x exactly; skip the pow pass
        out **= m - 1.0
    out *= m
    if p != 2.0:
        grad_factor = grad2 + eps**2
        grad_factor **= (p - 2.0) / 2.0
        out *= grad_factor
    return out


def _divider(h):
    """``(ufunc, operand)`` whose ``ufunc(x, operand, out=x)`` divides x by h in place.
    For h a power of two it multiplies by 1/h: that reciprocal is exact, so x * (1/h)
    and x / h are the same correctly rounded value, and a multiply is the cheaper pass."""
    return (np.multiply, 1.0 / h) if math.frexp(h)[0] == 0.5 else (np.divide, h)


class _Stepper:
    """The conservative flux update on every axis of a 1D or 2D grid.

    ``axes[a]`` is ``(lo, hi, inner, first, last, h)`` for axis a: index
    tuples of the nodes below and above each face normal to a (applied to a
    face array, the faces below and above each ``inner`` node), of the nodes
    between two faces, and of the two edge slabs (one node thick, so that in
    1D too they index a view), which a PERIODIC boundary identifies; then the
    spacing h_a.

    The stepper allocates its work arrays once, and every ``fluxes`` call
    overwrites them.  ``work[a]`` is ``(grad, flux, flux_lo, flux_hi, grad2,
    across, diff, wrap)``: grad u and F on the faces normal to a, the views of
    the faces below and above each inner node, |grad u|^2 on the faces (p != 2
    only) and, in 2D, the squared other-axis gradient it adds, the difference
    on the inner nodes, and the wrapped-face flux into the first slab (PERIODIC
    only); ``source_dt`` holds dt f on the nodes.  ``divide_by_h[a]`` divides by
    h_a (see ``_divider``).
    """

    def __init__(self, params, cfg, grid):
        self.params, self.cfg = params, cfg
        self.step = _cfl_step(cfg, grid.dx)
        self.periodic = cfg.boundary is Boundary.PERIODIC
        self.needs_grad2 = params.p != 2.0
        self.tangential = self.needs_grad2 and grid.dim == 2
        self.axes = [
            tuple(_axis_index(grid.dim, a, i) for i in
                  (slice(None, -1), slice(1, None), slice(1, -1), slice(0, 1), slice(-1, None))) + (h,)
            for a, h in enumerate(grid.dx)
        ]
        self.divide_by_h = [_divider(h) for h in grid.dx]
        nodes = self.source_dt = np.empty(grid.spatial_shape())
        self.work, self.diffs, wraps = [], [], []
        for lo, hi, inner, first, _, _ in self.axes:
            flux, diff = np.empty_like(nodes[lo]), np.empty_like(nodes[inner])
            wrap = np.empty_like(nodes[first]) if self.periodic else None
            self.work.append((np.empty_like(flux), flux, flux[lo], flux[hi],
                              np.empty_like(flux) if self.needs_grad2 else None,
                              np.empty_like(flux) if self.tangential else None, diff, wrap))
            self.diffs.append((inner, diff))
            wraps.append((first, wrap))
        if self.periodic:
            self.diffs += wraps

    def fluxes(self, u):
        """The flux differences of F = D * grad u as ``(index, difference)`` pairs,
        and the largest face D: each axis' ``(inner, (F_hi - F_lo) / h)`` on the nodes
        between two faces, then, on a PERIODIC boundary, each axis' wrapped-face flux
        into its first slab, ``(first, (F[first] - F[last]) / h)``.  The list and the
        differences are the stepper's own, the same objects at every call, and the next
        call overwrites them.  ``apply`` scales them by dt and advances u, both in place,
        so a multi-stage scheme must copy u and any difference it reuses."""
        if self.tangential:
            # |grad u|^2 on a face adds the other axis' node gradient, averaged onto it
            other = [_node_gradient(u, ax[-1], a) for a, ax in enumerate(self.axes)][::-1]
        d_max = []
        for a, ((lo, hi, _, first, last, _), work, (divide, by)) in enumerate(
                zip(self.axes, self.work, self.divide_by_h)):
            grad, flux, flux_lo, flux_hi, grad2, across, diff, wrap = work
            u_lo, u_hi = u[lo], u[hi]
            np.subtract(u_hi, u_lo, out=grad)
            divide(grad, by, out=grad)
            if self.needs_grad2:
                np.multiply(grad, grad, out=grad2)
                if self.tangential:
                    np.add(other[a][hi], other[a][lo], out=across)
                    across *= 0.5
                    across **= 2
                    grad2 += across
            _face_diffusivity(self.params, self.cfg, u_lo, u_hi, grad2, out=flux)
            d_max.append(float(np.maximum.reduce(flux, axis=None)))  # NaN if any face D is NaN
            flux *= grad
            np.subtract(flux_hi, flux_lo, out=diff)
            divide(diff, by, out=diff)
            if self.periodic:
                np.subtract(flux[first], flux[last], out=wrap)
                divide(wrap, by, out=wrap)
        return self.diffs, max(d_max)

    def apply(self, u, dt, diffs, f_nodes):
        """Advance u in place by one step dt of the scheme, from ``fluxes(u)``, before
        the boundary; the differences in ``diffs``, the stepper's buffers, are left
        scaled by dt until the next ``fluxes`` call overwrites them."""
        for index, diff in diffs:
            diff *= dt
            nodes = u[index]
            nodes += diff  # through a view: ``u[index] += diff`` copies the sum onto itself
        if f_nodes is not None:
            u += np.multiply(f_nodes, dt, out=self.source_dt)  # edges are reset by the boundary
        if self.periodic:
            for _, _, _, first, last, _ in self.axes:
                u[last] = u[first]


def _boundary_setter(cfg, grid, oracle) -> Callable:
    """(u, t) -> None imposing ``cfg.boundary`` in place, edge by edge over (axis, first/last)."""
    if cfg.boundary is Boundary.PERIODIC:
        return lambda u, t: None
    edges = [_axis_index(grid.dim, a, i) for a in range(grid.dim) for i in (0, -1)]
    if cfg.boundary is Boundary.DIRICHLET_ZERO:
        def set_zero(u, t):
            for edge in edges:
                u[edge] = 0.0
        return set_zero
    if oracle is None:
        raise ValueError("dirichlet_oracle boundary requires a reference solution")
    mesh = grid.node_mesh()
    edge_coords = [[np.array(x[edge], dtype=float) for x in mesh] for edge in edges]
    edge_times = [np.empty(xs[0].shape) for xs in edge_coords]

    def set_oracle(u, t):
        for edge, xs, times in zip(edges, edge_coords, edge_times):
            times.fill(t)  # one oracle call per edge, on its time array refilled in place
            u[edge] = oracle.eval(*xs, times)
    return set_oracle


def solve(
    params: EquationParams,
    source: SourceTerm | None,
    init,
    grid: GridSpec,
    cfg: SolverConfig | None = None,
    oracle=None,
) -> SpaceTimeField:
    """March the explicit conservative scheme across the grid's time levels.

    Parameters
    ----------
    params : EquationParams
    source : SourceTerm or None
        Evaluated explicitly at each sub-step time; a t-free catalog source
        is evaluated once per grid (see ``SourceTerm.eval_nodes``).  None
        means f = 0.
    init : ndarray or callable
        Initial spatial profile at ``grid.t_extent[0]``; a callable is
        evaluated on the spatial node mesh.
    grid : GridSpec
        Output sampling; sub-stepping refines internally to satisfy CFL.
    cfg : SolverConfig
    oracle
        Reference solution for the DIRICHLET_FROM_ORACLE boundary.

    Raises
    ------
    BlowUp
        Non-finite value detected (with the offending sub-step index).
    UnstableConfig
        Sub-stepping exceeded ``cfg.max_steps``.
    """
    cfg = cfg or SolverConfig()
    if callable(init):
        u = np.asarray(init(*grid.node_mesh()), dtype=float).copy()
    else:
        u = np.array(init, dtype=float)  # a copy: the steps update u in place
    if u.shape != grid.spatial_shape():
        raise ValueError(f"init shape {u.shape} != grid spatial shape {grid.spatial_shape()}")

    stepper = _Stepper(params, cfg, grid)
    set_bc = _boundary_setter(cfg, grid, oracle)

    out = np.empty((grid.nt, *grid.spatial_shape()))
    t = float(grid.t_extent[0])
    set_bc(u, t)
    if not np.isfinite(u).all():
        raise BlowUp(0, t)
    out[0] = u
    steps = 0

    # an overflow is an inf that the d_max and end-of-level checks raise as BlowUp
    with np.errstate(over="ignore", invalid="ignore"):
        for level, t_target in enumerate(grid.t_nodes[1:].tolist(), start=1):  # exact, as Python floats
            t_stop = t_target - 1e-13 * max(1.0, abs(t_target))
            while t < t_stop:
                diffs, d_max = stepper.fluxes(u)
                if not math.isfinite(d_max):
                    raise BlowUp(steps, t)
                dt = min(stepper.step(d_max), t_target - t)
                f_nodes = source.eval_nodes(grid, t) if source is not None else None
                stepper.apply(u, dt, diffs, f_nodes)
                t += dt
                set_bc(u, t)
                steps += 1
                if steps > cfg.max_steps:
                    raise UnstableConfig(f"exceeded {cfg.max_steps} sub-steps at t={t:.6g}")
            if not np.isfinite(u).all():
                raise BlowUp(steps, t)
            t = t_target  # kill accumulated roundoff before the next interval
            out[level] = u

    return SpaceTimeField(grid, out, name="u", provenance=params.kind.value)


class ResidualReport(NamedTuple):
    max_residual: float
    dx: tuple
    dt: float


def residual(field: SpaceTimeField, params: EquationParams,
             source: SourceTerm | None = None,
             cfg: SolverConfig | None = None) -> ResidualReport:
    """Max interior defect |u_t - div(D grad u) - f| by centered differences.

    The time derivative is the two-sided difference at interior levels; the
    space operator mirrors the scheme's face-centered fluxes, so solver
    output is judged by the same stencil that produced it.
    """
    cfg = cfg or SolverConfig()
    g = field.grid
    if g.nt < 3 or any(n < 3 for n in g.nx):
        raise GridTooCoarse("residual needs at least 3 nodes per axis and 3 time levels")
    stepper = _Stepper(params, cfg, g)
    core = (slice(1, -1),) * g.dim
    worst = 0.0
    for k in range(1, g.nt - 1):
        u = field.values[k]
        u_t = (field.values[k + 1] - field.values[k - 1]) / (2.0 * g.dt)
        diffs, _ = stepper.fluxes(u)
        div = np.zeros_like(u)
        for index, diff in diffs:  # the wrapped-face terms land on edge slabs, outside core
            div[index] += diff
        defect = u_t[core] - div[core]
        if source is not None:
            defect = defect - source.eval_nodes(g, g.t_nodes[k])[core]
        worst = max(worst, float(np.abs(defect).max()))
    return ResidualReport(worst, g.dx, g.dt)
