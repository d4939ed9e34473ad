"""Closed-form sharp Holder exponents for degenerate parabolic equations.

Covers four equation families, identified by their structural exponents
(p for the gradient nonlinearity, m for the amplitude nonlinearity):

* heat:               u_t - div(grad u) = f                  (p = 2, m = 1)
* p-parabolic:        u_t - div(|grad u|^(p-2) grad u) = f   (p > 2)
* porous medium:      u_t - div(m |u|^(m-1) grad u) = f      (m > 1)
* doubly nonlinear:   u_t - div(m |u|^(m-1) |grad u|^(p-2) grad u) = f

The doubly nonlinear formulas (``dnl_*``) serve all four families: m = 1
gives heat and p-parabolic, and p = 2 gives the porous medium.

The source f lives in the mixed space L^r(time; L^q(space)).  All formulas
are evaluated through the reciprocals 1/q and 1/r so that infinite
integrability exponents are exact, not large-number approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InadmissibleParameters, MissingHomogeneousExponent

__all__ = [
    "EquationKind",
    "EquationParams",
    "SourceIntegrability",
    "HomogeneousExponent",
    "Branch",
    "RegularityReport",
    "ConditionCheck",
    "AdmissibilityVerdict",
    "check_admissibility",
    "sharp_exponents",
    "p_monotonicity_sign",
    "pparabolic_alpha",
    "dnl_source_bound",
    "dnl_beta",
    "dnl_theta",
]


class EquationKind(Enum):
    HEAT = "heat"
    P_PARABOLIC = "p_parabolic"
    PME = "pme"
    DOUBLY_NONLINEAR = "doubly_nonlinear"


# The family of a doubly nonlinear operator, keyed on (p != 2, m != 1).
_FAMILY = {
    (False, False): EquationKind.HEAT,
    (True, False): EquationKind.P_PARABOLIC,
    (False, True): EquationKind.PME,
    (True, True): EquationKind.DOUBLY_NONLINEAR,
}


@dataclass(frozen=True)
class EquationParams:
    """Equation family plus its structural exponents.

    A requested heat or porous medium pins p = 2, a requested heat or
    p-parabolic pins m = 1, and the stored kind is then read from (p, m)
    alone, so every exact reduction becomes its canonical representative.  A
    ``kind`` that names no member raises ``ValueError``.
    """

    kind: EquationKind
    n: int
    p: float = 2.0
    m: float = 1.0

    def __post_init__(self):
        requested, p, m = EquationKind(self.kind), float(self.p), float(self.m)
        if requested in (EquationKind.HEAT, EquationKind.PME):
            p = 2.0
        if requested in (EquationKind.HEAT, EquationKind.P_PARABOLIC):
            m = 1.0
        kind = _FAMILY[p != 2.0, m != 1.0]
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"spatial dimension must be a positive integer, got {self.n}")
        if p != 2.0 and not p > 2.0:
            raise ValueError(f"{kind.value} requires p > 2, got p={p}")
        if m != 1.0 and not m > 1.0:
            raise ValueError(f"{kind.value} requires m > 1, got m={m}")

    @classmethod
    def heat(cls, n):
        return cls(EquationKind.HEAT, n)

    @classmethod
    def p_parabolic(cls, p, n):
        return cls(EquationKind.P_PARABOLIC, n, p=p)

    @classmethod
    def pme(cls, m, n):
        return cls(EquationKind.PME, n, m=m)

    @classmethod
    def doubly_nonlinear(cls, p, m, n):
        return cls(EquationKind.DOUBLY_NONLINEAR, n, p=p, m=m)


@dataclass(frozen=True)
class SourceIntegrability:
    """Lebesgue exponents of the source: L^q in space, L^r in time.

    Both live in (1, inf]; ``math.inf`` is a first-class value.
    """

    q: float
    r: float

    def __post_init__(self):
        for name, v in (("q", self.q), ("r", self.r)):
            if not (v > 1.0):
                raise ValueError(f"{name} must lie in (1, inf], got {v}")


@dataclass(frozen=True)
class HomogeneousExponent:
    """Optimal Holder exponent of the source-free equation, in (0, 1]."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"homogeneous exponent must lie in (0, 1], got {self.value}")


class Branch(Enum):
    SOURCE_LIMITED = "source_limited"
    HOMOGENEOUS_LIMITED = "homogeneous_limited"


@dataclass(frozen=True)
class RegularityReport:
    """Sharp space/time Holder exponents and the active branch.

    ``alpha_space`` is the space exponent of the solution class (alpha,
    gamma = alpha/m, or beta = alpha(p-1)/(m+p-2) depending on the family);
    ``raw_alpha`` is the exponent before that final division.  When the
    homogeneous branch is active the value is an open supremum and
    ``open_interval`` is set.
    """

    alpha_space: float
    alpha_time: float
    theta: float
    branch: Branch
    open_interval: bool
    raw_alpha: float


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float
    comparator: str  # "<" or ">"
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs < self.rhs if self.comparator == "<" else self.lhs > self.rhs


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    conditions: tuple[ConditionCheck, ...]
    failed_conditions: tuple[ConditionCheck, ...]


# -- raw formulas (reciprocal arguments, evaluable outside the class gates) --


def dnl_source_bound(p, m, n, q, r) -> float:
    """Source-driven bound (m+p-2)[(pq-n)r - pq] / (q(p-1)[(r-1)(m+p-2)+1])."""
    iq = 1.0 / q
    ir = 1.0 / r
    num = (m + p - 2.0) * (p - n * iq - p * ir)
    den = (p - 1.0) * ((m + p - 2.0) - (m + p - 3.0) * ir)
    return num / den


def dnl_beta(p, m, alpha) -> float:
    return alpha * (p - 1.0) / (m + p - 2.0)


def dnl_theta(p, m, beta) -> float:
    """Time-scaling exponent matching the equation's scaling homogeneity.

    Reduces to p - (p-2)beta at m = 1 and to 2 - (1 - 1/m)(m beta) at p = 2.
    """
    return p - (m + p - 3.0) * beta


# kept for the benchmark's p-parabolic witness, which calls it by this name
def pparabolic_alpha(p, n, q, r) -> float:
    """Sharp space exponent for the p-parabolic equation.

    Equals ((pq - n)r - pq) / (q[(p-1)r - (p-2)]): the DNL bound at m = 1.
    """
    return dnl_source_bound(p, 1.0, n, q, r)


# -- operations --


def check_admissibility(params: EquationParams, integ: SourceIntegrability) -> AdmissibilityVerdict:
    """Evaluate the integrability window for the given equation family.

    Inadmissibility is a verdict, never an exception.  Each condition is
    returned with its evaluated left-hand side; ``failed_conditions`` lists
    the ones that do not hold.
    """
    iq, ir = 1.0 / integ.q, 1.0 / integ.r
    n, p = params.n, params.p
    kind = params.kind

    conditions = [
        ConditionCheck("minimal_integrability", ir + n * iq / p, "<", 1.0),
    ]
    if kind in (EquationKind.HEAT, EquationKind.P_PARABOLIC):
        conditions.append(ConditionCheck("optimal_borderline", 2.0 * ir + n * iq, ">", 1.0))
    elif kind is EquationKind.DOUBLY_NONLINEAR:
        conditions.append(ConditionCheck("optimal_borderline", 3.0 * ir + n * iq, ">", 2.0))
    # porous medium: only the minimal-integrability condition applies;
    # the homogeneous branch of the min{} takes over at high integrability.

    failed = tuple(c for c in conditions if not c.satisfied)
    return AdmissibilityVerdict(not failed, tuple(conditions), failed)


def _default_homogeneous(params: EquationParams) -> HomogeneousExponent:
    """min{1, 1/(m-1)}: 1 for m = 1 in every n; for m > 1 known only in n = 1, and
    only assumed, not known, for the doubly nonlinear family (p != 2)."""
    if params.n != 1 and params.m != 1.0:
        raise MissingHomogeneousExponent(
            f"the optimal homogeneous exponent for {params.kind.value} in n={params.n} "
            "is unknown; supply it explicitly"
        )
    return HomogeneousExponent(1.0 / max(1.0, params.m - 1.0))


def sharp_exponents(
    params: EquationParams,
    integ: SourceIntegrability,
    hom: HomogeneousExponent | None = None,
) -> RegularityReport:
    """Sharp space and time Holder exponents for an admissible source class.

    Every family takes the doubly nonlinear path; at m = 1 the homogeneous
    exponent is 1, which the strict borderline keeps above the source bound.

    Parameters
    ----------
    params : EquationParams
    integ : SourceIntegrability
    hom : HomogeneousExponent, optional
        Optimal exponent of the source-free equation.  Required for the
        porous-medium and doubly-nonlinear families except in dimension
        one, where min{1, 1/(m-1)} is used; ignored when m = 1.

    Returns
    -------
    RegularityReport

    Raises
    ------
    InadmissibleParameters
        If ``check_admissibility`` fails.
    MissingHomogeneousExponent
        Porous medium / doubly nonlinear in n >= 2 without ``hom``.
    """
    verdict = check_admissibility(params, integ)
    if not verdict.admissible:
        raise InadmissibleParameters(verdict)

    p, m = params.p, params.m
    if hom is None or m == 1.0:
        hom = _default_homogeneous(params)
    bound = dnl_source_bound(p, m, params.n, integ.q, integ.r)
    # a tie resolves to the closed source-limited value
    if bound > hom.value:
        alpha, branch, open_sup = hom.value, Branch.HOMOGENEOUS_LIMITED, True
    else:
        alpha, branch, open_sup = bound, Branch.SOURCE_LIMITED, False
    beta = dnl_beta(p, m, alpha)
    theta = dnl_theta(p, m, beta)
    return RegularityReport(beta, beta / theta, theta, branch, open_sup, alpha)


def p_monotonicity_sign(n: int, q: float, r: float) -> int:
    """Sign of the derivative of the p-parabolic exponent in p.

    Equals sign(q(2 - r) + nr); for r = inf the limit sign(n - q) of the
    expression divided by r is returned.  Guaranteed +1 whenever the
    admissibility window holds.
    """
    if math.isinf(q):
        raise ValueError("q must be finite")
    if math.isinf(r):
        value = n - q
    else:
        value = q * (2.0 - r) + n * r
    return (value > 0) - (value < 0)
