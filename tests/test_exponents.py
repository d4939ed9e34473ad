"""Exponent algebra: frozen examples against exact-rational oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from holderlab.errors import InadmissibleParameters, MissingHomogeneousExponent
from holderlab.exponents import (
    Branch,
    EquationKind,
    EquationParams,
    HomogeneousExponent,
    SourceIntegrability,
    check_admissibility,
    dnl_beta,
    dnl_source_bound,
    dnl_theta,
    pparabolic_alpha,
    sharp_exponents,
)

INF = math.inf


# -- exact-rational oracles (r may be None for infinity) --


def rational_pparabolic_alpha(p, n, q, r):
    p, n, q = Fraction(p), Fraction(n), Fraction(q)
    if r is None:
        return (p * q - n) / (q * (p - 1))
    r = Fraction(r)
    return ((p * q - n) * r - p * q) / (q * ((p - 1) * r - (p - 2)))


def rational_pme_bound(m, n, q, r):
    m, n, q = Fraction(m), Fraction(n), Fraction(q)
    if r is None:
        return m * (2 * q - n) / (q * m)
    r = Fraction(r)
    return m * ((2 * q - n) * r - 2 * q) / (q * (m * r - (m - 1)))


def rational_or_inf(r):
    """The oracles' r: None for infinity."""
    return None if math.isinf(r) else r


def rational_conditions(p, n, q, r):
    """(minimal integrability lhs, borderline lhs) in exact arithmetic."""
    p, n, q = Fraction(p), Fraction(n), Fraction(q)
    ir = Fraction(0) if r is None else 1 / Fraction(r)
    return ir + n / (p * q), 2 * ir + n / q


def sample_admissible_pparabolic(rng, count):
    """Rejection-sample admissible (p, n, q, r) tuples, r possibly inf."""
    out = []
    while len(out) < count:
        p = float(rng.uniform(2.0, 8.0)) if rng.random() < 0.8 else 2.0
        n = int(rng.integers(1, 5))
        ir = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 0.95))
        iq = float(rng.uniform(0.0, 0.95))
        if iq == 0.0 or ir + n * iq / p >= 1.0 or 2.0 * ir + n * iq <= 1.0:
            continue
        q = 1.0 / iq
        r = INF if ir == 0.0 else 1.0 / ir
        out.append((p, n, q, r))
    return out


def sample_admissible_pme(rng, count, m_range=(1.0001, 5.0)):
    out = []
    while len(out) < count:
        m = float(rng.uniform(*m_range))
        n = int(rng.integers(1, 5))
        ir = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.95))
        iq = float(rng.uniform(0.0, 0.95))
        if iq == 0.0 or ir + n * iq / 2.0 >= 1.0:
            continue
        out.append((m, n, 1.0 / iq, INF if ir == 0.0 else 1.0 / ir))
    return out


# -- admissibility --


def test_admissible_pparabolic_p2():
    params = EquationParams.p_parabolic(2.0, 2)  # normalises to heat
    verdict = check_admissibility(params, SourceIntegrability(3.0, 4.0))
    lhs1, lhs2 = rational_conditions(2, 2, 3, 4)
    assert verdict.admissible
    assert verdict.failed_conditions == ()
    assert verdict.conditions[0].lhs == pytest.approx(float(lhs1), abs=1e-15)
    assert verdict.conditions[1].lhs == pytest.approx(float(lhs2), abs=1e-15)
    assert lhs1 < 1 and lhs2 > 1


def test_inadmissible_fails_borderline():
    params = EquationParams.p_parabolic(3.0, 3)
    verdict = check_admissibility(params, SourceIntegrability(100.0, INF))
    assert not verdict.admissible
    names = [c.name for c in verdict.failed_conditions]
    assert names == ["optimal_borderline"]
    assert verdict.failed_conditions[0].lhs == pytest.approx(0.03, abs=1e-15)


def test_admissible_r_infinity_window():
    # r = inf reduces the window to n/p < q < n
    params = EquationParams.p_parabolic(3.0, 3)
    assert check_admissibility(params, SourceIntegrability(2.0, INF)).admissible
    assert 3 / 3 < 2 < 3


def test_pme_checks_only_minimal_integrability():
    params = EquationParams.pme(2.0, 1)
    verdict = check_admissibility(params, SourceIntegrability(10.0, 10.0))
    assert verdict.admissible
    assert [c.name for c in verdict.conditions] == ["minimal_integrability"]


def test_dnl_borderline_is_strict():
    params = EquationParams.doubly_nonlinear(3.0, 2.0, 3)
    bad = check_admissibility(params, SourceIntegrability(2.0, INF))
    assert not bad.admissible  # 3/q = 1.5 fails "> 2"
    good = check_admissibility(params, SourceIntegrability(3.0, 2.0))
    assert good.admissible  # 1/2 + 3/9 < 1 and 3/2 + 3/3 = 2.5 > 2


# -- sharp exponents --


def test_pparabolic_r_inf_example():
    rep = sharp_exponents(EquationParams.p_parabolic(3.0, 3), SourceIntegrability(2.0, INF))
    oracle = rational_pparabolic_alpha(3, 3, 2, None)
    assert oracle == Fraction(3, 4)
    assert rep.alpha_space == pytest.approx(0.75, abs=1e-15)
    assert rep.theta == pytest.approx(2.25, abs=1e-15)
    assert rep.alpha_time == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.branch is Branch.SOURCE_LIMITED
    assert not rep.open_interval


def test_heat_reduction_example():
    rep = sharp_exponents(EquationParams.p_parabolic(2.0, 2), SourceIntegrability(3.0, 4.0))
    assert rational_pparabolic_alpha(2, 2, 3, 4) == Fraction(5, 6)
    assert rep.alpha_space == pytest.approx(5.0 / 6.0, abs=1e-14)
    assert rep.theta == 2.0
    # cross-check against the p=2 closed form 1 - (2/r + n/q - 1)
    assert rep.alpha_space == pytest.approx(1.0 - (2.0 / 4.0 + 2.0 / 3.0 - 1.0), abs=1e-14)


def test_pme_homogeneous_limited_example():
    rep = sharp_exponents(
        EquationParams.pme(2.0, 1),
        SourceIntegrability(10.0, 10.0),
        HomogeneousExponent(1.0),
    )
    assert rational_pme_bound(2, 1, 10, 10) == Fraction(34, 19)
    assert rep.branch is Branch.HOMOGENEOUS_LIMITED
    assert rep.open_interval
    assert rep.raw_alpha == 1.0
    assert rep.alpha_space == pytest.approx(0.5, abs=1e-15)
    assert rep.theta == pytest.approx(1.5, abs=1e-15)


def test_pme_m1_reduces_to_heat():
    # formula-level reduction: the bound at m=1 is the heat exponent
    for n, q, r in [(1, 1.25, 4.0), (2, 3.0, 4.0), (3, 4.0, 3.0)]:
        heat = rational_pparabolic_alpha(2, n, q, r)
        assert rational_pme_bound(1, n, q, r) == heat
        assert abs(dnl_source_bound(2.0, 1.0, n, q, r) - float(heat)) <= 1e-15
    # class-level: PME with m=1 normalises to the heat representative
    params = EquationParams(EquationKind.PME, 2, m=1.0)
    assert params.kind is EquationKind.HEAT
    rep = sharp_exponents(params, SourceIntegrability(3.0, 4.0))
    assert rep.theta == 2.0
    assert rep.alpha_space == pytest.approx(5.0 / 6.0, abs=1e-14)


def test_dnl_m1_recovers_pparabolic_example():
    rep = sharp_exponents(
        EquationParams(EquationKind.DOUBLY_NONLINEAR, 3, p=3.0, m=1.0),
        SourceIntegrability(2.0, INF),
        HomogeneousExponent(1.0),
    )
    assert rep.alpha_space == pytest.approx(0.75, abs=1e-15)
    assert rep.theta == pytest.approx(2.25, abs=1e-15)


def test_pme_source_limited_branch():
    # bound < alpha0: closed value, theta from the source-limited alpha
    integ = SourceIntegrability(1.2, 5.0)
    rep = sharp_exponents(EquationParams.pme(2.0, 1), integ, HomogeneousExponent(1.0))
    bound = rational_pme_bound(2, 1, Fraction(6, 5), 5)
    assert bound < 1
    assert rep.branch is Branch.SOURCE_LIMITED
    assert not rep.open_interval
    assert rep.raw_alpha == pytest.approx(float(bound), abs=1e-14)
    assert rep.alpha_space == pytest.approx(float(bound) / 2.0, abs=1e-14)
    assert rep.theta == pytest.approx(float(2 - bound * Fraction(1, 2)), abs=1e-14)


def test_pme_tie_resolves_to_source_limited():
    # pick alpha0 equal to the bound: closed value preferred
    bound = dnl_source_bound(2.0, 2.0, 1, 1.2, 5.0)
    assert abs(bound - float(rational_pme_bound(2, 1, 1.2, 5))) <= 1e-15
    rep = sharp_exponents(
        EquationParams.pme(2.0, 1), SourceIntegrability(1.2, 5.0), HomogeneousExponent(bound)
    )
    assert rep.branch is Branch.SOURCE_LIMITED
    assert not rep.open_interval


def test_pme_n1_default_homogeneous():
    # m=2: min{1, 1/(m-1)} = 1; m=3: 0.5
    rep2 = sharp_exponents(EquationParams.pme(2.0, 1), SourceIntegrability(10.0, 10.0))
    assert rep2.raw_alpha == 1.0 and rep2.branch is Branch.HOMOGENEOUS_LIMITED
    rep3 = sharp_exponents(EquationParams.pme(3.0, 1), SourceIntegrability(10.0, 10.0))
    assert rep3.raw_alpha == 0.5
    assert rep3.alpha_space == pytest.approx(0.5 / 3.0, abs=1e-15)


def test_missing_homogeneous_raises_in_higher_dimension():
    with pytest.raises(MissingHomogeneousExponent):
        sharp_exponents(EquationParams.pme(2.0, 2), SourceIntegrability(10.0, 10.0))
    with pytest.raises(MissingHomogeneousExponent):
        sharp_exponents(
            EquationParams.doubly_nonlinear(3.0, 2.0, 2), SourceIntegrability(1.5, 3.0)
        )


def test_inadmissible_raises():
    with pytest.raises(InadmissibleParameters) as exc:
        sharp_exponents(EquationParams.p_parabolic(3.0, 3), SourceIntegrability(100.0, INF))
    assert exc.value.verdict.failed_conditions


# -- p-monotonicity --


def test_negative_sign_tuple_is_inadmissible_for_all_p():
    # at n=1, q=100, r=10 the p-parabolic exponent falls as p grows (its p-derivative has
    # the sign of q(2 - r) + nr < 0), but the tuple violates the borderline window for every p > 2
    for p in np.linspace(2.0001, 50.0, 200):
        verdict = check_admissibility(
            EquationParams.p_parabolic(float(p), 1), SourceIntegrability(100.0, 10.0)
        )
        assert not verdict.admissible


# -- invariants over randomized admissible sweeps --


def test_reduction_identities_exact():
    rng = np.random.default_rng(7)
    for p, n, q, r in sample_admissible_pparabolic(rng, 600):
        iq = 0.0 if math.isinf(q) else 1.0 / q
        ir = 0.0 if math.isinf(r) else 1.0 / r
        alpha = pparabolic_alpha(p, n, q, r)
        if p == 2.0:
            assert abs(alpha - (1.0 - (2.0 * ir + n * iq - 1.0))) <= 1e-12
        if math.isinf(r):
            assert abs(alpha - (p * q - n) / (q * (p - 1.0))) <= 1e-12


def test_theta_identities_and_ranges():
    rng = np.random.default_rng(11)
    for p, n, q, r in sample_admissible_pparabolic(rng, 400):
        alpha = dnl_source_bound(p, 1.0, n, q, r)
        theta = dnl_theta(p, 1.0, alpha)
        assert abs(theta - (alpha * 2.0 + (1.0 - alpha) * p)) <= 1e-12
        assert 0.0 < alpha < 1.0
        if p > 2.0:
            assert 2.0 < theta < p
        else:
            assert theta == 2.0
    for m, n, q, r in sample_admissible_pme(rng, 400):
        bound = dnl_source_bound(2.0, m, n, q, r)
        alpha = min(1.0, bound)
        theta = dnl_theta(2.0, m, dnl_beta(2.0, m, alpha))
        assert abs(theta - (alpha * (1.0 + 1.0 / m) + (1.0 - alpha) * 2.0)) <= 1e-12
        assert 1.0 + 1.0 / m <= theta + 1e-15 and theta < 2.0


def test_monotonicity_over_sweep():
    rng = np.random.default_rng(13)
    h = 1e-6
    for p, n, q, r in sample_admissible_pparabolic(rng, 400):
        if p == 2.0:
            continue
        fd = (pparabolic_alpha(p + h, n, q, r) - pparabolic_alpha(p, n, q, r)) / h
        assert fd > 0.0


def test_pme_bound_limit_along_diagonal():
    for m in (1.5, 2.0, 4.0):
        prev = None
        for q in (1e2, 1e4, 1e6):
            bound = dnl_source_bound(2.0, m, 1, q, q)
            assert abs(bound - 2.0) <= 10.0 / q
            if prev is not None:
                assert bound > prev
            prev = bound


def test_dnl_consistency_on_shared_grid():
    rng = np.random.default_rng(17)
    # beta(m=1) reproduces the p-parabolic alpha, and theta its p - (p-2) alpha
    for p, n, q, r in sample_admissible_pparabolic(rng, 200):
        if p == 2.0:
            continue
        bound = dnl_source_bound(p, 1.0, n, q, r)
        alpha = float(rational_pparabolic_alpha(p, n, q, rational_or_inf(r)))
        assert abs(bound - alpha) <= 1e-12
        assert abs(dnl_beta(p, 1.0, bound) - alpha) <= 1e-12
        assert abs(dnl_theta(p, 1.0, alpha) - (p - (p - 2.0) * alpha)) <= 1e-12
    # beta(p=2) reproduces the porous-medium exponent, and theta its alpha-interpolation
    # between 1 + 1/m and 2
    for m, n, q, r in sample_admissible_pme(rng, 200):
        bound = dnl_source_bound(2.0, m, n, q, r)
        pme_b = float(rational_pme_bound(m, n, q, rational_or_inf(r)))
        assert abs(bound - pme_b) <= 1e-12
        assert abs(dnl_beta(2.0, m, bound) - pme_b / m) <= 1e-12
        beta = dnl_beta(2.0, m, pme_b)
        assert abs(dnl_theta(2.0, m, beta) - (pme_b * (1.0 + 1.0 / m) + (1.0 - pme_b) * 2.0)) <= 1e-12


def test_sharp_exponents_match_each_family_formulas():
    # one path serves every family; each family's written-out closed forms must agree with it
    rng = np.random.default_rng(19)

    def rand_hom():
        return HomogeneousExponent(float(rng.uniform(0.05, 1.0)))

    for p, n, q, r in sample_admissible_pparabolic(rng, 300):
        params, integ = EquationParams.p_parabolic(p, n), SourceIntegrability(q, r)
        rep = sharp_exponents(params, integ)
        alpha = float(rational_pparabolic_alpha(p, n, q, rational_or_inf(r)))
        theta = alpha * 2.0 + (1.0 - alpha) * p
        assert rep.branch is Branch.SOURCE_LIMITED and not rep.open_interval
        assert abs(rep.alpha_space - alpha) <= 1e-15
        assert abs(rep.theta - theta) <= 1e-15 * theta  # theta lies in [2, 8]
        assert abs(rep.alpha_time - alpha / theta) <= 1e-15
        assert sharp_exponents(params, integ, rand_hom()) == rep  # hom is ignored at m = 1
    for m, n, q, r in sample_admissible_pme(rng, 300):
        hom = rand_hom()
        rep = sharp_exponents(EquationParams.pme(m, n), SourceIntegrability(q, r), hom)
        bound = float(rational_pme_bound(m, n, q, rational_or_inf(r)))
        alpha = min(bound, hom.value)
        assert rep.open_interval is (bound > hom.value)
        assert abs(rep.raw_alpha - alpha) <= 1e-15
        assert abs(rep.alpha_space - alpha / m) <= 1e-15
        assert abs(rep.theta - (alpha * (1.0 + 1.0 / m) + (1.0 - alpha) * 2.0)) <= 1e-15
    count = 0
    while count < 300:
        p, m = float(rng.uniform(2.01, 6.0)), float(rng.uniform(1.01, 4.0))
        params = EquationParams.doubly_nonlinear(p, m, int(rng.integers(1, 5)))
        integ = SourceIntegrability(1.0 / rng.uniform(0.01, 0.95), INF if rng.random() < 0.2
                                    else 1.0 / rng.uniform(0.01, 0.95))
        if not check_admissibility(params, integ).admissible:
            continue
        count += 1
        hom = rand_hom()
        rep = sharp_exponents(params, integ, hom)
        bound = dnl_source_bound(p, m, params.n, integ.q, integ.r)
        beta = dnl_beta(p, m, min(bound, hom.value))
        assert rep.open_interval is (bound > hom.value)
        assert abs(rep.alpha_space - beta) <= 1e-15
        assert abs(rep.theta - dnl_theta(p, m, beta)) <= 1e-15


def test_pparabolic_needs_no_homogeneous_exponent_in_higher_dimension():
    for n in (2, 3):
        rep = sharp_exponents(EquationParams.p_parabolic(3.0, n), SourceIntegrability(2.0 * n, 2.0))
        assert rep.alpha_space == pparabolic_alpha(3.0, n, 2.0 * n, 2.0)


def test_equation_params_validation():
    with pytest.raises(ValueError):
        EquationParams.p_parabolic(1.5, 1)
    with pytest.raises(ValueError):
        EquationParams.pme(0.5, 1)
    with pytest.raises(ValueError):
        EquationParams.heat(0)
    with pytest.raises(ValueError):
        SourceIntegrability(1.0, 5.0)
    with pytest.raises(ValueError):
        HomogeneousExponent(0.0)
    # normalisations
    assert EquationParams(EquationKind.DOUBLY_NONLINEAR, 1, p=3.0, m=1.0).kind is EquationKind.P_PARABOLIC
    assert EquationParams(EquationKind.DOUBLY_NONLINEAR, 1, p=2.0, m=2.0).kind is EquationKind.PME
    assert EquationParams(EquationKind.DOUBLY_NONLINEAR, 1, p=2.0, m=1.0).kind is EquationKind.HEAT


@pytest.mark.parametrize("kind", list(EquationKind))
@pytest.mark.parametrize("p", [2.0, 1.5, 3.0, math.nan])
@pytest.mark.parametrize("m", [1.0, 0.5, 2.0, math.nan])
def test_family_is_read_from_the_pinned_exponents(kind, p, m):
    """Heat and PME pin p = 2, heat and p-parabolic pin m = 1; the kind then follows
    (p != 2, m != 1) alone, and an exponent below its range (or NaN) raises naming it."""
    pinned_p = 2.0 if kind in (EquationKind.HEAT, EquationKind.PME) else p
    pinned_m = 1.0 if kind in (EquationKind.HEAT, EquationKind.P_PARABOLIC) else m
    family = {
        (False, False): EquationKind.HEAT,
        (True, False): EquationKind.P_PARABOLIC,
        (False, True): EquationKind.PME,
        (True, True): EquationKind.DOUBLY_NONLINEAR,
    }[pinned_p != 2.0, pinned_m != 1.0]
    in_range = (pinned_p == 2.0 or pinned_p > 2.0) and (pinned_m == 1.0 or pinned_m > 1.0)
    if not in_range:
        with pytest.raises(ValueError, match=f"^{family.value} requires"):
            EquationParams(kind, 1, p=p, m=m)
        return
    params = EquationParams(kind, 1, p=p, m=m)
    assert (params.kind, params.p, params.m) == (family, pinned_p, pinned_m)


@pytest.mark.parametrize("kind, p, m, family", [
    ("heat", 2.0, 1.0, EquationKind.HEAT),
    ("pme", 2.0, 2.0, EquationKind.PME),
    ("p_parabolic", 3.0, 1.0, EquationKind.P_PARABOLIC),
    ("doubly_nonlinear", 3.0, 2.0, EquationKind.DOUBLY_NONLINEAR),
])
def test_kind_given_by_value_pins_its_exponents(kind, p, m, family):
    params = EquationParams(kind, 1, p=3.0, m=2.0)
    assert (params.kind, params.p, params.m) == (family, p, m)


@pytest.mark.parametrize("call, match", [
    (lambda: EquationParams(None, 1, p=3.0, m=2.0), "EquationKind"),
    (lambda: EquationParams("bogus", 1, p=3.0, m=2.0), "EquationKind"),
    (lambda: EquationParams(EquationKind.HEAT, True), "positive integer"),
], ids=["kind_none", "kind_bogus", "dimension_bool"])
def test_exponents_reject_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
