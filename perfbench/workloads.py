"""The benchmark's three workloads.

Each workload builds its inputs once (``__init__``, the timed set-up), runs
one pipeline per ``run`` call (prediction -> solution or sampled field ->
measurement) and judges each pipeline output with ``check``.  Pipelines
call the package through module attributes, so a traced run sees the
tracer's bindings.

The seed only picks the side of a grid node on which the off-node centre
sits (+0.3 dx or -0.3 dx): the two choices are mirror images, so the work
done, every count and every error repeat across seeds, while a centre on a
node would make ``exponent_err`` a rounding-level number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from holderlab import exponents, fields, geometry, lab, solvers

INF = math.inf
CENTRE_OFFSET = 0.3  # in cells of the coarse grid
REFERENCE_FILE = Path(__file__).resolve().parent / "data" / "pme1d_reference.npz"


def centre_sign(seed: int) -> int:
    return 1 if seed % 2 == 0 else -1


@dataclass
class Output:
    """What one pipeline produced."""

    report: exponents.RegularityReport
    u: fields.SpaceTimeField
    profile: lab.OscillationProfile
    fit: lab.HolderFit
    extra: dict


def _ladder(u, center, theta, base_radius):
    profile = lab.oscillation_profile(u, center, theta, 0.5, 12, base_radius=base_radius)
    return profile, lab.fit_exponent(profile, (1, profile.k_max_effective))


# -- pme1d_source --------------------------------------------------------------


@dataclass(frozen=True)
class Pme1dSpec:
    nx: int = 801
    nt: int = 81
    t_end: float = 0.07
    sigma: float = 0.4
    base_radius: float = 0.161  # not a node multiple: no node sits on a cylinder edge


class Pme1dSource:
    """PME m=2 in 1D with a capped |x - c|^-0.4 source declared in L^inf(L^2)."""

    name = "pme1d_source"
    FULL, SHORT = Pme1dSpec(), Pme1dSpec(nx=101, nt=41)

    def __init__(self, seed: int, short: bool = False, workdir=None):
        self.spec = spec = self.SHORT if short else self.FULL
        self.sign = centre_sign(seed)
        self.params = exponents.EquationParams.pme(2.0, 1)
        self.integ = exponents.SourceIntegrability(2.0, INF)
        self.grid = fields.GridSpec.one_d(-1.0, 1.0, spec.nx, 0.0, spec.t_end, spec.nt)
        self.source = make_pme1d_source(self.grid, self.sign * CENTRE_OFFSET * self.grid.dx[0], spec.sigma)
        self.u0 = solvers.BarenblattPME(2.0, 1, 1.0).eval(self.grid.x_nodes(), 1.0)
        self._reference = None

    def run(self, tracer=None) -> Output:
        report = exponents.sharp_exponents(self.params, self.integ)
        u = solvers.solve(self.params, self.source, self.u0, self.grid)
        profile, fit = _ladder(u, (0.0, self.spec.t_end), report.theta, self.spec.base_radius)
        return Output(report, u, profile, fit, {})

    def reference(self):
        """(levels, fine solution, stored own output or None, fine-grid fit)."""
        if self._reference is None:
            if self.spec == self.FULL:
                with np.load(REFERENCE_FILE, allow_pickle=False) as data:
                    levels, fine, own = data["levels"], data["fine"], data["own"]
                    fine_fit = float(data["fine_fit"])
                if self.sign < 0:  # the mirror image of the stored problem
                    fine, own = fine[:, ::-1], own[:, ::-1]
            else:
                levels, fine, fine_fit = compute_pme1d_reference(self)
                own = None
            self._reference = (levels, fine, own, fine_fit)
        return self._reference

    def check(self, out: Output):
        levels, fine, own, fine_fit = self.reference()
        u = out.u.values
        failures = []
        if not np.isfinite(u).all():
            failures.append("solution is not finite")
        solution_err = float(np.abs(u[levels] - fine).max())
        if not solution_err <= self.grid.dx[0]:
            failures.append(f"solution_err {solution_err:.3g} above dx {self.grid.dx[0]:.3g}")
        if not out.fit.exponent >= out.report.alpha_space:
            failures.append(f"fitted exponent {out.fit.exponent:.4g} below the predicted "
                            f"alpha_space {out.report.alpha_space:.4g}")
        info = {"solution_err": solution_err,
                "exponent_err": abs(out.fit.exponent - fine_fit),
                "fit": out.fit.exponent,
                "alpha_space": out.report.alpha_space}
        if own is not None:
            info["drift"] = float(np.abs(u[levels] - own).max())
        return info, failures

    def substeps(self, summary):
        return summary.get("fields.SourceTerm.eval_nodes", {}).get("calls", 0)


def make_pme1d_source(grid, center, sigma):
    cap = fields.rough_power_cap(sigma, grid.dx[0])
    form = fields.ClosedForm("rough_power", {"sigma": sigma, "cap": cap, "center": center})
    return fields.SourceTerm(form, q=2.0, r=INF)


def compute_pme1d_reference(w: Pme1dSource):
    """Solution of ``w``'s problem on the twice finer grid (same source centre,
    the finer grid's cap), restricted to the coarse nodes, and its ladder fit
    on the coarse grid.  Returns (stored levels, fine values there, fine fit)."""
    spec = w.spec
    fine_grid = fields.GridSpec.one_d(-1.0, 1.0, 2 * spec.nx - 1, 0.0, spec.t_end, spec.nt)
    source = make_pme1d_source(fine_grid, w.sign * CENTRE_OFFSET * w.grid.dx[0], spec.sigma)
    u0 = solvers.BarenblattPME(2.0, 1, 1.0).eval(fine_grid.x_nodes(), 1.0)
    fine = solvers.solve(w.params, source, u0, fine_grid).values[:, ::2]
    report = exponents.sharp_exponents(w.params, w.integ)
    _, fit = _ladder(fields.SpaceTimeField(w.grid, fine), (0.0, spec.t_end), report.theta,
                     spec.base_radius)
    levels = np.arange(0, spec.nt, 10)
    return levels, fine[levels], fit.exponent


# -- pme2d_barenblatt ------------------------------------------------------------


@dataclass(frozen=True)
class Pme2dSpec:
    nx: int = 129
    nt: int = 151


class Pme2dBarenblatt:
    """PME m=2 in 2D, no source, oracle Dirichlet boundary from Barenblatt."""

    name = "pme2d_barenblatt"
    FULL, SHORT = Pme2dSpec(), Pme2dSpec(nx=41, nt=61)
    T0, T1, BASE_RADIUS = 1.0, 2.5, 0.99  # not a node multiple, as in pme1d_source

    def __init__(self, seed: int, short: bool = False, workdir=None):
        self.spec = spec = self.SHORT if short else self.FULL
        self.params = exponents.EquationParams.pme(2.0, 2)
        self.integ = exponents.SourceIntegrability(INF, INF)
        self.hom = exponents.HomogeneousExponent(1.0)
        self.grid = fields.GridSpec.two_d((-2.0, 2.0), (-2.0, 2.0), spec.nx, spec.nx,
                                          self.T0, self.T1, spec.nt)
        self.oracle = solvers.BarenblattPME(2.0, 2, 0.5)
        self.cfg = solvers.SolverConfig(boundary=solvers.Boundary.DIRICHLET_FROM_ORACLE)
        self.u0 = self.oracle.eval(*self.grid.node_mesh(), self.T0)
        self.path = Path(workdir or ".") / f"pme2d-u-{os.getpid()}.field"
        self._reference = None

    def run(self, tracer=None) -> Output:
        report = exponents.sharp_exponents(self.params, self.integ, self.hom)
        oracle = tracer.wrap_oracle(self.oracle) if tracer else self.oracle
        u = solvers.solve(self.params, None, self.u0, self.grid, self.cfg, oracle=oracle)
        try:
            fields.save_field(u, self.path)
            io_bytes = 2 * self.path.stat().st_size
            loaded = fields.load_field(self.path)
        finally:
            self.path.unlink(missing_ok=True)
        profile, fit = _ladder(loaded, (0.0, 0.0, self.T1), report.theta, self.BASE_RADIUS)
        return Output(report, u, profile, fit, {"loaded": loaded, "io_bytes": io_bytes})

    def reference(self):
        """(exact field on the grid, ladder fit of the exact field)."""
        if self._reference is None:
            exact = solvers.sample_reference(self.oracle, self.grid)
            report = exponents.sharp_exponents(self.params, self.integ, self.hom)
            _, fit = _ladder(exact, (0.0, 0.0, self.T1), report.theta, self.BASE_RADIUS)
            self._reference = (exact.values, fit.exponent)  # drops the ladder's cell cache
        return self._reference

    def check(self, out: Output):
        exact, exact_fit = self.reference()
        failures = []
        solution_err = float(np.abs(out.u.values - exact).max())
        tol = 2.0 * self.grid.dx[0] ** 2
        if not solution_err <= tol:
            failures.append(f"error against Barenblatt {solution_err:.3g} above 2 dx^2 = {tol:.3g}")
        loaded = out.extra["loaded"]
        if loaded.grid != out.u.grid or not np.array_equal(loaded.values, out.u.values):
            failures.append("save/load round trip is not bitwise equal")
        info = {"solution_err": solution_err,
                "exponent_err": abs(out.fit.exponent - exact_fit),
                "fit": out.fit.exponent}
        return info, failures

    def substeps(self, summary):
        # the boundary oracle is evaluated on 4 edges at the start and after each substep
        calls = summary.get("solvers.oracle_eval", {}).get("calls", 0)
        return max(calls - 4, 0) // 4


# -- pparabolic_witness --------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSpec:
    nx: int = 801
    nt: int = 201
    fine_nx: int = 3201
    fine_nt: int = 801


class PParabolicWitness:
    """u = |x - c|^alpha with alpha the sharp p-parabolic exponent (p=3, n=1,
    q=1.5, r=4), a capped |x - c|^-0.5 source, the smallness search and a
    ladder on a finer sampling.  No solver."""

    name = "pparabolic_witness"
    FULL, SHORT = WitnessSpec(), WitnessSpec(nx=201, nt=51, fine_nx=1601, fine_nt=801)
    P, Q, R, SIGMA, EPSILON, BASE_RADIUS = 3.0, 1.5, 4.0, 0.5, 1e-2, 3.2

    def __init__(self, seed: int, short: bool = False, workdir=None):
        self.spec = spec = self.SHORT if short else self.FULL
        self.params = exponents.EquationParams.p_parabolic(self.P, 1)
        self.integ = exponents.SourceIntegrability(self.Q, self.R)
        self.grid = fields.GridSpec.one_d(-4.0, 4.0, spec.nx, -16.0, 0.0, spec.nt)
        self.fine_grid = fields.GridSpec.one_d(-4.0, 4.0, spec.fine_nx, -16.0, 0.0, spec.fine_nt)
        self.center = centre_sign(seed) * CENTRE_OFFSET * self.grid.dx[0]
        cap = fields.rough_power_cap(self.SIGMA, self.grid.dx[0])
        self.source = fields.expression("rough_power", sigma=self.SIGMA, cap=cap, center=self.center)

    def run(self, tracer=None) -> Output:
        report = exponents.sharp_exponents(self.params, self.integ)
        profile_u = solvers.PowerProfile(report.alpha_space, (self.center,))
        u = solvers.sample_reference(profile_u, self.grid)
        f = fields.sample(self.source, self.grid, name="f")
        small = geometry.pparabolic_smallness(u, f, self.P, self.Q, self.R, epsilon=self.EPSILON)
        u_fine = solvers.sample_reference(profile_u, self.fine_grid)
        profile, fit = _ladder(u_fine, (self.center, 0.0), report.theta, self.BASE_RADIUS)
        return Output(report, u, profile, fit, {"smallness": small})

    def check(self, out: Output):
        alpha = exponents.pparabolic_alpha(self.P, 1, self.Q, self.R)
        failures = []
        # the coarse u read off-node on the fine grid, against the closed form
        g = self.fine_grid
        x = g.x_nodes()
        exact = np.abs(x - self.center) ** alpha
        solution_err = 0.0
        for rows in np.array_split(g.t_nodes, max(1, g.nt // 64)):
            xx, tt = np.meshgrid(x, rows, indexing="xy")
            solution_err = max(solution_err, float(np.abs(out.u.interp(xx, tt) - exact).max()))
        tol = self.grid.dx[0] ** alpha
        if not solution_err <= tol:
            failures.append(f"interpolated u off by {solution_err:.3g} > dx^alpha = {tol:.3g}")
        # a node scan misses the cylinder edge by under one cell, which moves
        # each level's oscillation by a relative alpha dx / radius at most
        exponent_err = abs(out.fit.exponent - alpha)
        tol = self.fine_grid.dx[0] / out.profile.levels[-1].radius
        if not exponent_err <= tol:
            failures.append(f"fitted exponent {out.fit.exponent:.6g} misses alpha {alpha:.6g} "
                            f"by more than dx / radius = {tol:.3g}")
        small = out.extra["smallness"]
        g1 = geometry.IntrinsicCylinder((0.0,), 0.0, 1.0, 2.0)
        v_norm = geometry.p_avg_norm(small.v, g1, self.P).value
        f_norm = geometry.lqr_norm(small.f_scaled, g1, self.Q, self.R).value
        if not (v_norm == small.v_norm and f_norm == small.f_norm):
            failures.append("smallness norms do not match the returned fields")
        if not (v_norm <= 1.0 and f_norm <= self.EPSILON):
            failures.append(f"smallness missed: v_norm {v_norm:.3g}, f_norm {f_norm:.3g}")
        info = {"solution_err": solution_err, "exponent_err": exponent_err,
                "fit": out.fit.exponent, "rho": small.rho}
        return info, failures

    def substeps(self, summary):
        return 0


WORKLOADS = {w.name: w for w in (Pme1dSource, Pme2dBarenblatt, PParabolicWitness)}
