"""Explicit conservative finite-difference solvers and closed-form oracles.

The scheme is the flux form

    u_j^{k+1} = u_j^k + (dt/dx) (F_{j+1/2} - F_{j-1/2}) + dt f_j^k,
    F = D(u, grad u) * (face-centered difference),

with the diffusivity per equation family: 1 for heat,
(|grad u|^2 + eps^2)^((p-2)/2) for p-parabolic, m |u_face|^(m-1) for the
porous medium (no cutoff: the flux vanishes on its own at u = 0), and the
product of the two for the doubly nonlinear family.  Sub-stepping keeps
each internal step below the CFL bound; stored time levels are hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlowUp, GridTooCoarse, OutsideValidity, UnstableConfig
from .exponents import EquationKind, EquationParams
from .fields import GridSpec, SourceTerm, SpaceTimeField, sample

__all__ = [
    "Boundary",
    "SolverConfig",
    "HeatSeparable",
    "HeatKernel",
    "BarenblattPME",
    "PowerProfile",
    "reference_eval",
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


@dataclass
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
        if self.flux_regularization_eps < 0.0:
            raise ValueError("flux_regularization_eps must be >= 0")


# -- closed-form reference solutions ----------------------------------------


@dataclass(frozen=True)
class HeatSeparable:
    """Product sine mode with exponential decay on a box, n = 1 or 2."""

    n: int = 1
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
class HeatKernel:
    """Fundamental solution with total mass ``mass``; valid for t > 0."""

    n: int = 1
    mass: float = 1.0

    def eval(self, *coords):
        *xs, t = coords
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise OutsideValidity("heat kernel requires t > 0")
        r2 = sum(np.asarray(x) ** 2 for x in xs)
        return self.mass * (4.0 * math.pi * t) ** (-self.n / 2.0) * np.exp(-r2 / (4.0 * t))


@dataclass(frozen=True)
class BarenblattPME:
    """Self-similar compactly supported source solution of the porous medium
    equation, normalised to a prescribed mass; valid for t > 0.

    u(x, t) = t^-a (C - b |x|^2 t^(-2a/n))_+^(1/(m-1)),
    a = n / (n(m-1) + 2), b = a(m-1) / (2mn),
    and C is fixed so the (conserved) total mass equals ``mass``.
    """

    m: float = 2.0
    n: int = 1
    mass: float = 1.0

    def __post_init__(self):
        if self.m <= 1.0:
            raise ValueError("Barenblatt profile requires m > 1")

    @property
    def a(self) -> float:
        return self.n / (self.n * (self.m - 1.0) + 2.0)

    @property
    def b(self) -> float:
        return self.a * (self.m - 1.0) / (2.0 * self.m * self.n)

    @property
    def c(self) -> float:
        s = 1.0 / (self.m - 1.0)
        # integral of (1 - |z|^2)_+^s over R^n is pi^(n/2) G(s+1) / G(s+1+n/2)
        k_n = math.pi ** (self.n / 2.0) * math.gamma(s + 1.0) / math.gamma(s + 1.0 + self.n / 2.0)
        return (self.mass * self.b ** (self.n / 2.0) / k_n) ** (1.0 / (s + self.n / 2.0))

    def eval(self, *coords):
        *xs, t = coords
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise OutsideValidity("Barenblatt profile requires t > 0")
        r2 = sum(np.asarray(x) ** 2 for x in xs)
        core = self.c - self.b * r2 * t ** (-2.0 * self.a / self.n)
        return t ** (-self.a) * np.maximum(core, 0.0) ** (1.0 / (self.m - 1.0))

    def free_boundary_radius(self, t: float) -> float:
        if t <= 0:
            raise OutsideValidity("Barenblatt profile requires t > 0")
        return math.sqrt(self.c / self.b) * t ** (self.a / self.n)


@dataclass(frozen=True)
class PowerProfile:
    """Static radial power |x - center|^s."""

    s: float = 0.75
    center: tuple[float, ...] = (0.0,)

    def eval(self, *coords):
        *xs, _t = coords
        shifted = [np.asarray(x) - c for x, c in zip(xs, self.center)]
        r2 = sum(x**2 for x in shifted)
        return r2 ** (self.s / 2.0)


def reference_eval(ref, point) -> float:
    """Closed-form value at a space-time point ``(x[, y], t)``."""
    *xs, t = point
    return float(ref.eval(*[np.asarray(x, dtype=float) for x in xs], np.asarray(float(t))))


def sample_reference(ref, grid: GridSpec, name: str = "") -> SpaceTimeField:
    return sample(ref.eval, grid, name=name or type(ref).__name__)


# -- diffusivity and stepping -------------------------------------------------


def _diffusivity_scalar(params: EquationParams, cfg: SolverConfig, field_bound, grad_bound):
    kind, p, m, eps = params.kind, params.p, params.m, cfg.flux_regularization_eps
    if kind is EquationKind.HEAT:
        return 1.0
    if kind is EquationKind.P_PARABOLIC:
        return (grad_bound**2 + eps**2) ** ((p - 2.0) / 2.0)
    if kind is EquationKind.PME:
        return m * field_bound ** (m - 1.0)
    return m * field_bound ** (m - 1.0) * (grad_bound**2 + eps**2) ** ((p - 2.0) / 2.0)


def stable_dt(grid: GridSpec, field_bound: float, grad_bound: float,
              params: EquationParams, cfg: SolverConfig) -> float:
    """CFL-limited step cfl_safety * dx^2 / (2 n D_max), per-axis spacing aware.

    With a degenerate diffusivity bound (D_max = 0) the pure-transport
    fallback cfl_safety * dx^2 is returned.
    """
    if field_bound < 0 or grad_bound < 0:
        raise ValueError("bounds must be nonnegative")
    d_max = _diffusivity_scalar(params, cfg, field_bound, grad_bound)
    inv = sum(1.0 / h**2 for h in grid.dx)
    if d_max == 0.0:
        return cfg.cfl_safety * min(grid.dx) ** 2
    return cfg.cfl_safety / (2.0 * d_max * inv)


# The families whose diffusivity reads |grad u|^2; the others get grad2=None.
_GRAD2_KINDS = (EquationKind.P_PARABOLIC, EquationKind.DOUBLY_NONLINEAR)


def _face_diffusivity(params, cfg, u_lo, u_hi, grad2):
    """D on faces given the two adjacent node values and |grad u|^2 there."""
    kind, p, m, eps = params.kind, params.p, params.m, cfg.flux_regularization_eps
    if kind is EquationKind.HEAT:
        return np.ones_like(u_lo)
    if kind is EquationKind.P_PARABOLIC:
        return (grad2 + eps**2) ** ((p - 2.0) / 2.0)
    u_face = 0.5 * (u_lo + u_hi)
    amp = m * np.abs(u_face) ** (m - 1.0)
    if kind is EquationKind.PME:
        return amp
    return amp * (grad2 + eps**2) ** ((p - 2.0) / 2.0)


class _Stepper1D:
    def __init__(self, params, cfg, grid, periodic):
        self.params, self.cfg, self.grid = params, cfg, grid
        self.dx = grid.dx[0]
        self.periodic = periodic

    def faces(self, u):
        grad = (u[1:] - u[:-1]) / self.dx
        grad2 = grad * grad if self.params.kind in _GRAD2_KINDS else None
        return _face_diffusivity(self.params, self.cfg, u[:-1], u[1:], grad2), grad

    def apply(self, u, dt, d_face, grad, f_nodes):
        flux = d_face * grad
        out = u.copy()
        div = (flux[1:] - flux[:-1]) / self.dx
        out[1:-1] += dt * div
        if f_nodes is not None:
            out[1:-1] += dt * f_nodes[1:-1]
        if self.periodic:
            out[0] += dt * (flux[0] - flux[-1]) / self.dx
            if f_nodes is not None:
                out[0] += dt * f_nodes[0]
            out[-1] = out[0]
        return out

    def max_d(self, d_face):
        return float(d_face.max())


class _Stepper2D:
    def __init__(self, params, cfg, grid, periodic):
        self.params, self.cfg, self.grid = params, cfg, grid
        self.dx0, self.dx1 = grid.dx
        self.periodic = periodic

    def _grad_component(self, u, axis):
        """Node-centered central difference, one-sided at the edges."""
        h = (self.dx0, self.dx1)[axis]
        g = np.empty_like(u)
        sl = [slice(None)] * 2

        def at(i):
            s = sl.copy()
            s[axis] = i
            return tuple(s)

        g[at(slice(1, -1))] = (u[at(slice(2, None))] - u[at(slice(None, -2))]) / (2 * h)
        g[at(0)] = (u[at(1)] - u[at(0)]) / h
        g[at(-1)] = (u[at(-1)] - u[at(-2)]) / h
        return g

    def faces(self, u):
        gx = (u[1:, :] - u[:-1, :]) / self.dx0
        gy = (u[:, 1:] - u[:, :-1]) / self.dx1
        g2x = g2y = None
        if self.params.kind in _GRAD2_KINDS:
            ty = self._grad_component(u, 1)
            tx = self._grad_component(u, 0)
            g2x = gx**2 + (0.5 * (ty[1:, :] + ty[:-1, :])) ** 2
            g2y = gy**2 + (0.5 * (tx[:, 1:] + tx[:, :-1])) ** 2
        dx_face = _face_diffusivity(self.params, self.cfg, u[:-1, :], u[1:, :], g2x)
        dy_face = _face_diffusivity(self.params, self.cfg, u[:, :-1], u[:, 1:], g2y)
        return (dx_face, dy_face), (gx, gy)

    def apply(self, u, dt, d_face, grad, f_nodes):
        (dxf, dyf), (gx, gy) = d_face, grad
        fx = dxf * gx
        fy = dyf * gy
        out = u.copy()
        out[1:-1, :] += dt * (fx[1:, :] - fx[:-1, :]) / self.dx0
        out[:, 1:-1] += dt * (fy[:, 1:] - fy[:, :-1]) / self.dx1
        if f_nodes is not None:
            out += dt * f_nodes
            # boundary rows get overwritten by the boundary condition below
        if self.periodic:
            out[0, :] += dt * (fx[0, :] - fx[-1, :]) / self.dx0
            out[:, 0] += dt * (fy[:, 0] - fy[:, -1]) / self.dx1
            out[-1, :] = out[0, :]
            out[:, -1] = out[:, 0]
        return out

    def max_d(self, d_face):
        return max(float(d_face[0].max()), float(d_face[1].max()))


def _boundary_setter(cfg, grid, oracle) -> Callable:
    if cfg.boundary is Boundary.PERIODIC:
        return lambda u, t: u
    if cfg.boundary is Boundary.DIRICHLET_ZERO:
        def set_zero(u, t):
            if grid.dim == 1:
                u[0] = u[-1] = 0.0
            else:
                u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = 0.0
            return u
        return set_zero
    if oracle is None:
        raise ValueError("dirichlet_oracle boundary requires a reference solution")
    if grid.dim == 1:
        x_lo, x_hi = grid.x_extent[0]

        def set_oracle_1d(u, t):
            u[0] = reference_eval(oracle, (x_lo, t))
            u[-1] = reference_eval(oracle, (x_hi, t))
            return u
        return set_oracle_1d

    xs, ys = grid.x_nodes(0), grid.x_nodes(1)

    def set_oracle_2d(u, t):
        u[0, :] = oracle.eval(np.full_like(ys, xs[0]), ys, np.full_like(ys, t))
        u[-1, :] = oracle.eval(np.full_like(ys, xs[-1]), ys, np.full_like(ys, t))
        u[:, 0] = oracle.eval(xs, np.full_like(xs, ys[0]), np.full_like(xs, t))
        u[:, -1] = oracle.eval(xs, np.full_like(xs, ys[-1]), np.full_like(xs, t))
        return u
    return set_oracle_2d


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
        u = np.array(init, dtype=float)
    if u.shape != grid.spatial_shape():
        raise ValueError(f"init shape {u.shape} != grid spatial shape {grid.spatial_shape()}")

    stepper = (_Stepper1D if grid.dim == 1 else _Stepper2D)(
        params, cfg, grid, cfg.boundary is Boundary.PERIODIC
    )
    set_bc = _boundary_setter(cfg, grid, oracle)
    inv_h2 = sum(1.0 / h**2 for h in grid.dx)
    fallback_dt = cfg.cfl_safety * min(grid.dx) ** 2

    out = np.empty((grid.nt, *grid.spatial_shape()))
    u = set_bc(u, grid.t_extent[0])
    out[0] = u
    t = grid.t_extent[0]
    steps = 0

    for level in range(1, grid.nt):
        t_target = grid.t_nodes[level]
        while t < t_target - 1e-13 * max(1.0, abs(t_target)):
            d_face, grad = stepper.faces(u)
            d_max = stepper.max_d(d_face)
            if not math.isfinite(d_max):
                raise BlowUp(steps, t)
            dt_stable = fallback_dt if d_max == 0.0 else cfg.cfl_safety / (2.0 * d_max * inv_h2)
            dt = min(dt_stable, t_target - t)
            f_nodes = source.eval_nodes(grid, t) if source is not None else None
            u = stepper.apply(u, dt, d_face, grad, f_nodes)
            t += dt
            u = set_bc(u, t)
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
    stepper = (_Stepper1D if g.dim == 1 else _Stepper2D)(params, cfg, g, False)
    worst = 0.0
    for k in range(1, g.nt - 1):
        u = field.values[k]
        u_t = (field.values[k + 1] - field.values[k - 1]) / (2.0 * g.dt)
        d_face, grad = stepper.faces(u)
        if g.dim == 1:
            div = (d_face * grad)[1:] - (d_face * grad)[:-1]
            div = div / g.dx[0]
            interior = slice(1, -1)
            defect = u_t[interior] - div
        else:
            (dxf, dyf), (gx, gy) = d_face, grad
            fx, fy = dxf * gx, dyf * gy
            div = (fx[1:, 1:-1] - fx[:-1, 1:-1]) / g.dx[0] + (fy[1:-1, 1:] - fy[1:-1, :-1]) / g.dx[1]
            defect = u_t[1:-1, 1:-1] - div
        if source is not None:
            f_nodes = source.eval_nodes(g, g.t_nodes[k])
            defect = defect - (f_nodes[1:-1] if g.dim == 1 else f_nodes[1:-1, 1:-1])
        worst = max(worst, float(np.abs(defect).max()))
    return ResidualReport(worst, g.dx, g.dt)
