"""Explicit conservative finite-difference solvers and closed-form oracles.

The scheme is the flux form, one term per axis a with spacing h_a,

    u_j^{k+1} = u_j^k + dt sum_a (F^a_{j+e_a/2} - F^a_{j-e_a/2}) / h_a + dt f_j^k,
    F^a = D(u, grad u) * (u_{j+e_a} - u_j) / h_a   on the faces normal to axis a,

with one diffusivity for every family,
D = m |u_face|^(m-1) (|grad u|^2 + eps^2)^((p-2)/2), less a factor that is
exactly 1 (at m = 1 or p = 2): heat has D = 1, and the porous medium has no
cutoff (its flux vanishes on its own at u = 0).  At m = 2, with u_face the mean of
the two nodes, m |u_face| is |u_lo + u_hi|: no halving, so exact also where u_face
is subnormal.  On a face, |grad u|^2 is the squared normal difference plus the
squared central difference along every other axis, averaged onto the face.  One
stepper, ``_Stepper``, runs this update in every dimension on the raveled node
array, where every axis' faces are two contiguous slices; ``residual`` reuses its
flux differences.  A PERIODIC boundary adds the wrapped-face flux to each axis'
first node slab and copies it to the last.
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
from .fields import GridSpec, SourceTerm, SpaceTimeField, _axis_index, _dist2, sample

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
        object.__setattr__(self, "boundary", Boundary(self.boundary))  # a value too, as a scaling kind
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, (int, np.integer)) \
                or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if isinstance(self.cfl_safety, (bool, np.bool_)) or not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if isinstance(eps := self.flux_regularization_eps, (bool, np.bool_)) or not eps >= 0.0:
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
        if len(coords) != self.n + 1:
            raise ValueError(f"eval takes {self.n + 1} coordinates (x[, y], t), got {len(coords)}")
        *xs, t = coords
        lo, hi = self.extent
        freq = self.mode * math.pi / (hi - lo)
        out = self.amplitude * np.exp(-self.n * freq**2 * np.asarray(t, dtype=float))
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
        if len(coords) != self.n + 1:
            raise ValueError(f"eval takes {self.n + 1} coordinates (x[, y], t), got {len(coords)}")
        *xs, t = coords
        t = np.asarray(t, dtype=float)
        if t.size and not t.item(t.argmin()) > 0:  # argmin stops at the first NaN, so NaN fails too
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


# kept for the benchmark, which calls and traces it by this name; elsewhere ``sample(ref.eval, grid)``
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
    """D on faces from the two adjacent node values and |grad u|^2 there (read only for
    p != 2), by ``_diffusivity_calls``, into ``out`` (fresh if None), which is returned."""
    out = np.empty(np.broadcast(u_lo, u_hi).shape) if out is None else out
    grad2 = np.array(grad2, dtype=float)  # a copy: the calls overwrite it with its factor
    for fn, args in _diffusivity_calls(params, cfg, u_lo, u_hi, grad2, out):
        fn(*args)
    return out


def _diffusivity_calls(params, cfg, u_lo, u_hi, grad2, out) -> list:
    """The passes ``(fn, args)`` that write D into ``out``, each run as ``fn(*args)`` in
    order, with every scalar operand a 0-d array; a factor that is exactly 1 is not
    computed.  For p != 2 they overwrite ``grad2`` with its factor, else do not read it.
    At m = 2, m |(u_lo + u_hi) / 2| is |u_lo + u_hi|: the same number wherever the half
    sum is normal, and the exact one below 2^-1021, where the halving would round."""
    p, m = params.p, params.m

    def power(x, e):  # as ``x **= e`` does it, which takes np.sqrt for e = 0.5
        return (np.sqrt, (x, x)) if e == 0.5 else (np.power, (x, np.array(e), x))
    if m == 1.0 and p == 2.0:
        return [(out.fill, (1.0,))]
    factor = out if m == 1.0 else grad2  # at m = 1, D is the gradient factor alone
    calls = [] if p == 2.0 else [(np.add, (grad2, np.array(cfg.flux_regularization_eps**2), factor)),
                                 power(factor, (p - 2.0) / 2.0)]
    if m != 1.0:  # every operation on the amplitude is in place on ``out``; |x / 2| = |x| / 2
        calls += [(np.add, (u_lo, u_hi, out)), (np.absolute, (out, out))]
        if m != 2.0:  # at m = 2, D is |u_lo + u_hi| itself
            calls += [(np.multiply, (out, np.array(0.5), out)), power(out, m - 1.0),
                      (np.multiply, (out, np.array(m), out))]
        if p != 2.0:
            calls.append((np.multiply, (out, grad2, out)))
    return calls


def _divider(h):
    """``(ufunc, 0-d operand)`` whose ``ufunc(x, operand, x)`` divides x by h in place.
    For h a power of two it multiplies by 1/h: that reciprocal is exact, so x * (1/h)
    and x / h are the same correctly rounded value, and a multiply is the cheaper pass."""
    return (np.multiply, np.array(1.0 / h)) if math.frexp(h)[0] == 0.5 else (np.divide, np.array(h))


class _Stepper:
    """The conservative flux update on every axis, run on the raveled nodes
    ``uf = u.reshape(-1)`` so that every face pass is contiguous.  Axis a has
    stride s_a = prod(n[a+1:]): face k joins nodes k and k + s_a, its faces are
    ``uf[:N-s_a]`` and ``uf[s_a:]`` for N nodes, its inner nodes ``uf[s_a:N-s_a]``.
    On an axis a > 0 the faces at index n_a - 1 along a join two rows: these wrap
    faces get D = 0 before F and d_max are taken, and the inner differences they
    feed land only on a's edge slabs, which a Dirichlet boundary overwrites and a
    PERIODIC one sets to -0.0.

    ``axes[a]`` is ``(s_a, h_a, first, penult, last, pair)``, index tuples of a's
    first, second-to-last and last one-node slab and of its last two.  ``work[a]``
    is ``(grad, flux, grad2, across, diff, wrap)``: grad u on a's faces, then F there,
    and D there, kept for the d_max read, both node-shaped at their lo node
    (``grad[first]`` and ``grad[penult]`` give the one-sided node gradients,
    ``flux[last]`` is the wrap faces); |grad u|^2 (p != 2) and each other axis'
    squared gradient it adds (2D); the inner differences at their node less s_a
    (``diff[pair]`` is a's edge slabs); the wrapped-face flux into the first slab
    (PERIODIC).  Each ``flux`` is a row of ``faces_d``, 0 past the N - s_a faces.
    ``node_grads[a]`` is grad u along a on the flat nodes (2D, p != 2), ``source_dt``
    dt f, ``dt`` the 0-d step.  ``_bind`` lists, once per array advanced, the passes
    on its views of one ``fluxes`` call, the scheme's rounding steps with the
    family's chosen once from (p, m), and of one ``apply`` call: ``updates``, each
    difference scaled by dt and added to its nodes, and ``edges``, the PERIODIC
    last-slab copy or the Dirichlet-zero edge fill.  They overwrite the work arrays.
    """

    def __init__(self, params, cfg, grid):
        self.params, self.cfg = params, cfg
        self.step = _cfl_step(cfg, grid.dx)
        self.periodic = cfg.boundary is Boundary.PERIODIC
        nodes = self.source_dt = np.empty(grid.spatial_shape())
        cuts = (slice(0, 1), slice(-2, -1), slice(-1, None), slice(-2, None))
        self.axes = [(math.prod(grid.nx[a + 1:]), h, *(_axis_index(grid.dim, a, i) for i in cuts))
                     for a, h in enumerate(grid.dx)]
        self.dt, self.faces_d, n = np.empty(()), np.zeros((grid.dim, nodes.size)), nodes.size
        self.node_grads = [np.empty(n) for _ in grid.dx] if params.p != 2.0 and grid.dim > 1 else []
        self.work, self.diffs = [], []
        for (s, _, first, *_), flux in zip(self.axes, self.faces_d):
            flux, diff = flux.reshape(nodes.shape), np.empty_like(nodes)
            wrap = np.empty_like(nodes[first]) if self.periodic else None
            self.work.append((np.empty_like(nodes), flux, np.empty(n - s) if params.p != 2.0 else None,
                              np.empty(n - s) if self.node_grads else None, diff, wrap))
            self.diffs.append((slice(s, n - s), diff.reshape(-1)[:n - 2 * s]))
        if self.periodic:  # then each axis' wrapped-face flux into its first slab
            self.diffs += [(axis[2], work[-1]) for axis, work in zip(self.axes, self.work)]
        self.u = None

    def _bind(self, u):
        uf = u.reshape(-1, copy=False)  # a view or an error: the passes write u through it
        n, grads, calls = uf.size, [], []
        for a, ((s, h, first, penult, last, pair), (grad, flux, grad2, across, diff, wrap), (_, diff_f)) in \
                enumerate(zip(self.axes, self.work, self.diffs)):
            (divide, by), u_lo, u_hi = _divider(h), uf[:n - s], uf[s:]
            grad_f, flux_f = grad.reshape(-1)[:n - s], flux.reshape(-1)[:n - s]
            grads += [(np.subtract, (u_hi, u_lo, grad_f)), (divide, (grad_f, by, grad_f))]
            if self.node_grads:  # grad u along a on the nodes: central inside, one-sided at both ends
                (central, by_2h), g = _divider(2.0 * h), self.node_grads[a]
                g_in, g = g[s:n - s], g.reshape(u.shape)
                grads += [(np.subtract, (uf[2 * s:], uf[:n - 2 * s], g_in)), (central, (g_in, by_2h, g_in)),
                          (np.copyto, (g[first], grad[first])), (np.copyto, (g[last], grad[penult]))]
            calls += [(np.multiply, (grad_f, grad_f, grad2))] if grad2 is not None else []
            for other in self.node_grads[:a] + self.node_grads[a + 1:]:  # each other axis' node gradient
                calls += [(np.add, (other[s:], other[:n - s], across)),
                          (np.multiply, (across, np.array(0.5), across)),
                          (np.square, (across, across)), (np.add, (grad2, across, grad2))]
            calls += _diffusivity_calls(self.params, self.cfg, u_lo, u_hi, grad2, flux_f)
            calls += [(flux[last].fill, (0.0,))] if a else []  # the wrap faces, before F and d_max
            calls += [(np.multiply, (grad_f, flux_f, grad_f)),  # F = grad u * D, the same bits as D * grad u
                      (np.subtract, (grad_f[s:], grad_f[:n - 2 * s], diff_f)), (divide, (diff_f, by, diff_f))]
            if wrap is not None:  # x + -0.0 is x for every x, and -0.0 * dt is -0.0
                calls += [(np.subtract, (grad[first], grad[penult], wrap)), (divide, (wrap, by, wrap))] + \
                    ([(diff[pair].fill, (-0.0,))] if a else [])
        self.u, self.calls = u, grads + calls  # the tangential term reads every axis' gradients
        nodes = [(uf if isinstance(index, slice) else u)[index] for index, _ in self.diffs]
        self.updates = [op for x, (_, diff) in zip(nodes, self.diffs)  # through a view: ``u[i] += d`` copies
                        for op in ((np.multiply, (diff, self.dt, diff)), (np.add, (x, diff, x)))]
        zero = _zero_edges(u) if self.cfg.boundary is Boundary.DIRICHLET_ZERO else []
        self.edges = [(edge.fill, (0.0,)) for edge in zero] + \
            [(np.copyto, (u[last], u[first])) for _, _, first, _, last, _ in self.axes if self.periodic]

    def fluxes(self, u):
        """The flux differences of F = D * grad u as ``(index, difference)`` pairs,
        and the largest face D: each axis' ``(inner, (F_hi - F_lo) / h)``, ``inner``
        the flat slice ``s_a:N-s_a``, then, on a PERIODIC boundary, each axis'
        wrapped-face flux into its first slab, ``(first, (F[first] - F[last]) / h)``,
        ``first`` an index tuple of the node array.  The list and the differences are
        the stepper's own, the same objects at every call, and the next call
        overwrites them.  d_max is one ``argmax`` of ``faces_d``, which stops at the
        first NaN, so d_max is NaN if any face D is.  ``apply`` scales the differences
        by dt and advances u, both in place, so a multi-stage scheme must copy u and
        any difference it reuses."""
        if u is not self.u:
            self._bind(u)
        for fn, args in self.calls:
            fn(*args)
        return self.diffs, self.faces_d.item(self.faces_d.argmax())

    def apply(self, u, dt, diffs, f_nodes):
        """Advance u in place by one step dt from ``diffs = fluxes(u)``: the bound
        ``updates``, dt f, then the bound ``edges``, so only an oracle boundary is left
        to the caller.  The differences stay scaled by dt until the next ``fluxes``."""
        if u is not self.u:
            self._bind(u)
        self.dt[()] = dt
        for fn, args in self.updates:
            fn(*args)
        if f_nodes is not None:
            np.add(u, np.multiply(f_nodes, self.dt, self.source_dt), u)  # edges are reset by the boundary
        for fn, args in self.edges:
            fn(*args)


def _zero_edges(u) -> list:
    """Each axis' first and last slab of u as one strided view."""
    return [u[_axis_index(u.ndim, a, slice(None, None, n - 1))] for a, n in enumerate(u.shape)]


def _boundary_setter(cfg, grid, oracle, u) -> Callable:
    """t -> None imposing ``cfg.boundary`` on u in place.  ``solve`` runs it at the
    first level, and after each sub-step only for the oracle boundary: the
    stepper's ``apply`` keeps a zero or PERIODIC one."""
    if cfg.boundary is not Boundary.DIRICHLET_FROM_ORACLE:
        edges = _zero_edges(u) if cfg.boundary is Boundary.DIRICHLET_ZERO else []
        return lambda t: [edge.fill(0.0) for edge in edges]
    if oracle is None:
        raise ValueError("dirichlet_oracle boundary requires a reference solution")
    edges = [_axis_index(grid.dim, a, i) for a in range(grid.dim) for i in (0, -1)]
    mesh = grid.node_mesh()
    edge_coords = [[np.array(x[edge], dtype=float) for x in mesh] for edge in edges]
    edge_times = [np.empty(xs[0].shape) for xs in edge_coords]

    def set_oracle(t):
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
        Evaluated explicitly at each sub-step time; its form is any function
        of (x, t) (see ``fields``), and a t-free one is evaluated once per
        grid (see ``SourceTerm.eval_nodes``).  None means f = 0.
    init : ndarray or callable
        Initial spatial profile at ``grid.t_extent[0]``; a callable is
        evaluated on the spatial node mesh.
    grid : GridSpec
        Output sampling; sub-stepping refines internally to satisfy CFL.
    cfg : SolverConfig
    oracle
        Reference solution for the DIRICHLET_FROM_ORACLE boundary; its ``eval``
        is a function of (x, t), called once per edge with a time array.

    Raises
    ------
    BlowUp
        Non-finite value, with the sub-steps done and the time: a non-finite d_max
        at the sub-step that reads it, an overflow in u at the end of its stored level.
    UnstableConfig
        Sub-stepping exceeded ``cfg.max_steps``.
    """
    cfg = cfg or SolverConfig()
    # a C-ordered copy: the steps update u in place, through its flat view
    u = np.array(init(*grid.node_mesh()) if callable(init) else init, dtype=float, order="C")
    if u.shape != grid.spatial_shape():
        raise ValueError(f"init shape {u.shape} != grid spatial shape {grid.spatial_shape()}")

    stepper = _Stepper(params, cfg, grid)
    set_bc = _boundary_setter(cfg, grid, oracle, u)

    out = np.empty((grid.nt, *grid.spatial_shape()))
    t = float(grid.t_extent[0])
    set_bc(t)
    if not np.isfinite(u).all():
        raise BlowUp(0, t)
    out[0] = u
    steps = 0
    fluxes, apply, cfl_step, max_steps = stepper.fluxes, stepper.apply, stepper.step, cfg.max_steps
    eval_nodes = source.eval_nodes if source is not None else None
    set_bc = set_bc if cfg.boundary is Boundary.DIRICHLET_FROM_ORACLE else None  # else ``apply`` keeps it

    # an overflow is an inf that the d_max and end-of-level checks raise as BlowUp
    with np.errstate(over="ignore", invalid="ignore"):
        for level, t_target in enumerate(grid.t_nodes[1:].tolist(), start=1):  # exact, as Python floats
            t_stop = t_target - 1e-13 * max(1.0, abs(t_target))
            while t < t_stop:
                diffs, d_max = fluxes(u)
                if not math.isfinite(d_max):
                    raise BlowUp(steps, t)
                dt = min(cfl_step(d_max), t_target - t)
                apply(u, dt, diffs, eval_nodes(grid, t) if eval_nodes else None)
                t += dt
                if set_bc:
                    set_bc(t)
                steps += 1
                if steps > max_steps:
                    raise UnstableConfig(f"exceeded {max_steps} sub-steps at t={t:.6g}")
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
        u = np.ascontiguousarray(field.values[k])  # the stepper reads u through its flat view
        u_t = (field.values[k + 1] - field.values[k - 1]) / (2.0 * g.dt)
        diffs, _ = stepper.fluxes(u)
        div = np.zeros(u.size)
        for index, diff in diffs[:g.dim]:  # flat inner slices; the wrapped-face terms land outside core
            div[index] += diff
        defect = u_t[core] - div.reshape(u.shape)[core]
        if source is not None:
            defect = defect - source.eval_nodes(g, g.t_nodes[k])[core]
        worst = max(worst, float(np.abs(defect).max()))
    return ResidualReport(worst, g.dx, g.dt)
