import math

import mpmath
import pytest

from glsobolev.constants import (
    TraceBoundPair,
    sharp_constant,
    sharp_constant_p1,
    talenti_constant,
    trace_bounds,
)
from glsobolev.errors import DomainError, InputError
from glsobolev.exponents import as_exponent_tuple, sobolev_exponent

mpmath.mp.dps = 40


def talenti_reference(m: int, p: float) -> float:
    """Independent high-precision route for the unweighted sharp constant."""
    m_ = mpmath.mpf(m)
    p_ = mpmath.mpf(p)
    mid = mpmath.mpf(1) if p == 1.0 else ((p_ - 1) / (m_ - p_)) ** (1 - 1 / p_)
    bracket = (
        mpmath.gamma(1 + m_ / 2)
        * mpmath.gamma(m_)
        / (mpmath.gamma(m_ / p_) * mpmath.gamma(1 + m_ - m_ / p_))
    ) ** (1 / m_)
    return float(mpmath.pi ** mpmath.mpf("-0.5") * m_ ** (-1 / p_) * mid * bracket)


def extremal_moment_reference(A, p: float) -> float:
    """Sharp constant by the profile-moment route, independent of the
    closed form: C = sigma^(-1/D) I_q^(1/q) / J_p^(1/p) with I_q, J_p the
    q-th and p-th moment integrals of the optimizing profile, reduced to
    Beta functions."""
    A = as_exponent_tuple(A)
    D = mpmath.mpf(A.effective_dimension)
    p_ = mpmath.mpf(p)
    pp = p_ / (p_ - 1)
    q = D * p_ / (D - p_)
    sigma = 2 * mpmath.mpf(1)
    for a in A.entries:
        sigma *= mpmath.gamma((mpmath.mpf(a) + 1) / 2)
    sigma /= mpmath.gamma(D / 2)
    i_q = (1 / pp) * mpmath.gamma(D / pp) * mpmath.gamma(D / p_) / mpmath.gamma(D)
    j_p = (
        ((D - p_) * pp / p_) ** p_
        * (1 / pp)
        * mpmath.gamma(D / pp + 1)
        * mpmath.gamma(D / p_ - 1)
        / mpmath.gamma(D)
    )
    return float(sigma ** (-1 / D) * i_q ** (1 / q) / j_p ** (1 / p_))


TALENTI_PAIRS = [
    (3, 1.0), (3, 1.5), (3, 2.0), (3, 2.5),
    (4, 1.0), (4, 1.5), (4, 2.0), (4, 3.0), (4, 3.5),
    (5, 1.0), (5, 2.0), (5, 3.0), (5, 4.0), (5, 4.5),
    (6, 1.2), (6, 2.0), (6, 5.0),
    (8, 2.0), (10, 2.0), (12, 7.5),
]


class TestTalenti:
    @pytest.mark.parametrize("m,p", TALENTI_PAIRS)
    def test_against_reference(self, m, p):
        assert talenti_constant(m, p) == pytest.approx(talenti_reference(m, p), rel=1e-12)

    def test_frozen_spot_value(self):
        # pinned 16-digit reference for the most-used point
        assert talenti_constant(3, 2.0) == pytest.approx(0.4272605428625267, rel=1e-13)

    @pytest.mark.parametrize("m,p", [(2, 1.5), (3, 3.0), (3, 0.5), (4, 4.2)])
    def test_domain_errors(self, m, p):
        with pytest.raises(DomainError):
            talenti_constant(m, p)


class TestSharpConstant:
    @pytest.mark.parametrize(
        "A,p",
        [
            ([1.0, 2.0], 2.0),
            ([1.0, 2.0], 1.5),
            ([1.0, 2.0], 3.5),
            ([0.5, 0.5], 1.7),
            ([2.0, 0.0, 1.0], 2.5),
            ([3.0], 2.0),
        ],
    )
    def test_against_extremal_moment_route(self, A, p):
        assert sharp_constant(A, p) == pytest.approx(extremal_moment_reference(A, p), rel=1e-12)

    @pytest.mark.parametrize("m,p", [(3, 2.0), (4, 1.5), (5, 2.5), (6, 3.0)])
    def test_zero_weight_reduces_to_unweighted(self, m, p):
        A = [0.0] * m
        assert sharp_constant(A, p) == pytest.approx(talenti_constant(m, p), rel=1e-13)

    def test_p_to_one_limit_is_c1(self):
        A = [1.0, 2.0]
        c1 = sharp_constant_p1(A)
        assert sharp_constant(A, 1.0 + 1e-6) == pytest.approx(c1, rel=1e-3)

    def test_c1_closed_form(self):
        # C1 = (1/D) (D / sigma_A)^(1/D); sigma for A = (0, 0) is 2 pi
        c1 = sharp_constant_p1([0.0, 0.0])
        assert c1 == pytest.approx(0.5 * (2.0 / (2.0 * math.pi)) ** 0.5, rel=1e-14)

    def test_blowup_rate_near_upper_endpoint(self):
        # (D - p)^(1 - 1/D) C(p) approaches a finite limit as p -> D
        for A in ([1.0, 2.0], [0.5, 0.5], [2.0, 1.0, 0.0]):
            D = as_exponent_tuple(A).effective_dimension
            vals = [
                (D - p) ** (1.0 - 1.0 / D) * sharp_constant(A, p)
                for p in (D - 1e-4, D - 1e-5)
            ]
            assert abs(vals[0] - vals[1]) / vals[1] < 0.01

    def test_literal_variant_differs_by_constant_factor(self):
        # the two transcriptions share the p-dependent factors, so their
        # quotient is the p-independent (C1_lit / C1) * D^(2/D - 2)
        A = [1.0, 2.0]
        D = 5.0
        expected = (
            sharp_constant_p1(A, variant="literal") / sharp_constant_p1(A)
        ) * D ** (2.0 / D - 2.0)
        for p in (1.0 + 1e-9, 2.0, 4.0):
            ratio = sharp_constant(A, p, variant="literal") / sharp_constant(A, p)
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_literal_variant_is_not_sharp_at_zero_weight(self):
        # at A = 0 the corrected constant reproduces the unweighted sharp
        # constant; the literal transcription lands elsewhere
        A = [0.0, 0.0, 0.0]
        lit = sharp_constant(A, 2.0, variant="literal")
        assert abs(lit - talenti_constant(3, 2.0)) / talenti_constant(3, 2.0) > 0.05

    def test_guard_rejects_endpoints(self):
        with pytest.raises(DomainError):
            sharp_constant([1.0, 2.0], 1.0)
        with pytest.raises(DomainError):
            sharp_constant([1.0, 2.0], 5.0)
        with pytest.raises(DomainError):
            sharp_constant_p1([0.0])  # D = 1

    def test_unknown_variant(self):
        with pytest.raises(InputError):
            sharp_constant([1.0, 2.0], 2.0, variant="other")

    def test_cached_weight_terms_still_raise_on_every_call(self):
        # the terms that depend on A alone are cached; an error is not
        for _ in range(2):
            with pytest.raises(DomainError):
                sharp_constant([0.0], 1.5)  # D = 1
            with pytest.raises(InputError):
                sharp_constant([1.0, 2.0], 2.0, variant="other")


class TestTraceBounds:
    def test_formula_values(self):
        # A = (1, 1), B = (1,), r = 1, p = 2: D = 4, D_r = 2, q = 2
        tb = trace_bounds([1.0, 1.0], [1.0], 1, 2.0)
        assert isinstance(tb, TraceBoundPair)
        assert tb.M == pytest.approx(2.0 ** (-1.0) * (1.0 / 3.0) ** 0.5)
        assert tb.Q == pytest.approx(2.0 ** 0.5 * 2.0 ** 0.5)

    def test_q_defaults_to_trace_law(self):
        explicit = trace_bounds([1.0, 1.0], [1.0], 1, 2.0, q=2.0)
        implied = trace_bounds([1.0, 1.0], [1.0], 1, 2.0)
        assert implied == explicit

    def test_bracket_order(self):
        # p large enough that the trace law lands at q > 1
        for p in (1.5, 1.9, 2.7):
            tb = trace_bounds([1.0, 2.0], [1.5], 1, p)
            assert 0.0 < tb.M <= tb.M * tb.Q
            assert tb.Q >= 1.0

    def test_rejects_subunit_q_from_law(self):
        # the exponent law can land below 1 for small p; that is a domain error
        with pytest.raises(DomainError):
            trace_bounds([1.0, 2.0], [0.5], 1, 1.3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            trace_bounds([1.0, 1.0], [1.0, 1.0], 1, 2.0)  # B length != r
        with pytest.raises(InputError):
            trace_bounds([1.0, 1.0], [1.0], 3, 2.0)  # r > dim

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 1.0, 0.5])
    def test_rejects_explicit_q_that_is_not_finite_and_above_one(self, q):
        with pytest.raises(DomainError, match=f"got q = {q}"):
            trace_bounds((1, 1), (1,), 1, 2.0, q=q)

    def test_sobolev_exponent_consistency(self):
        # the default q for the full-dimension trace equals the sobolev law
        A = [1.0, 2.0]
        tb = trace_bounds(A, A, 2, 2.0)
        q = sobolev_exponent(A, A, 2.0)
        assert tb.Q == pytest.approx((q / (q - 1.0)) ** 0.5 * q ** (1.0 / q))
