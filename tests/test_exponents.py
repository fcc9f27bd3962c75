import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsobolev.errors import DomainError, InputError
from glsobolev.exponents import (
    ExponentTuple,
    as_exponent_tuple,
    monomial_weight,
    sobolev_exponent,
    sobolev_exponent_inverse,
    trace_exponent,
)


class TestExponentTuple:
    def test_effective_dimension(self):
        assert ExponentTuple((1.0, 2.0)).effective_dimension == 5.0
        assert ExponentTuple((0.0,)).effective_dimension == 1.0
        assert ExponentTuple((0.5, 0.5, 0.0)).effective_dimension == 4.0

    def test_coercion(self):
        t = as_exponent_tuple([1, 2])
        assert t.entries == (1.0, 2.0)
        assert as_exponent_tuple(t) is t

    @pytest.mark.parametrize("bad", [[], [-1.0], [math.nan], [math.inf], [1.0, -0.5]])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(DomainError):
            ExponentTuple(tuple(bad))

    def test_rejects_entries_whose_effective_dimension_overflows(self):
        # each entry is finite, but D(A) = 2 + 2e308 is not
        with pytest.raises(DomainError, match=r"\(1e\+308, 1e\+308\).*inf"):
            ExponentTuple((1e308, 1e308))
        with pytest.raises(DomainError, match="overflow"):
            ExponentTuple([1e308, 1e308])

    def test_helpers(self):
        assert ExponentTuple([1.0, 2.0]).effective_dimension == 5.0
        assert len(ExponentTuple((1.0, 2.0))) == 2
        assert list(ExponentTuple((1.0, 2.0))) == [1.0, 2.0]


class TestMonomialWeight:
    def test_zero_exponent_is_one_everywhere(self):
        # 0^0 = 1 convention: a zero exponent contributes factor 1 even at 0
        w = monomial_weight([0.0, 0.0], np.array([[0.0, 0.0], [2.0, 3.0]]))
        assert np.allclose(w, [1.0, 1.0])

    def test_values(self):
        w = monomial_weight([1.0, 2.0], np.array([[2.0, 3.0], [-2.0, -3.0]]))
        assert np.allclose(w, [18.0, 18.0])  # |x|^1 |y|^2, sign-free

    def test_single_point(self):
        assert monomial_weight([2.0], np.array([3.0])) == pytest.approx(9.0)


class TestExponentLaws:
    def test_sobolev_exponent_value(self):
        # D(A) = 5, p = 2: q = 5 * 2 / (5 - 2)
        assert sobolev_exponent([1.0, 2.0], [1.0, 2.0], 2.0) == pytest.approx(10.0 / 3.0)

    def test_distinct_target_weight(self):
        # q = D(B) p / (D(A) - p)
        q = sobolev_exponent([1.0, 2.0], [0.5, 0.5], 2.0)
        assert q == pytest.approx(3.0 * 2.0 / 3.0)

    def test_inverse_round_trip_spot(self):
        A = [1.0, 2.0]
        q = sobolev_exponent(A, A, 1.7)
        assert sobolev_exponent_inverse(A, q) == pytest.approx(1.7, rel=1e-14)

    def test_inverse_at_infinity(self):
        assert sobolev_exponent_inverse([1.0, 2.0], math.inf) == 5.0

    @pytest.mark.parametrize("p", [0.5, 5.0, 6.0, math.nan])
    def test_rejects_p_outside_range(self, p):
        with pytest.raises(DomainError):
            sobolev_exponent([1.0, 2.0], [1.0, 2.0], p)

    def test_rejects_q_at_lower_edge(self):
        # q must exceed D/(D-1), the image of p = 1
        with pytest.raises(DomainError):
            sobolev_exponent_inverse([1.0, 2.0], 1.25)

    def test_rejects_nan_q(self):
        with pytest.raises(DomainError, match="q = nan must exceed"):
            sobolev_exponent_inverse([1.0, 2.0], math.nan)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
        t=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_round_trip_p_to_q_to_p(self, entries, t):
        A = as_exponent_tuple(entries)
        D = A.effective_dimension
        if D <= 1.0 + 1e-9:
            return
        p = 1.0 + t * (D - 1.0)
        if p - 1.0 < 1e-9 or D - p < 1e-9:
            return
        q = sobolev_exponent(A, A, p)
        assert sobolev_exponent_inverse(A, q) == pytest.approx(p, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(perm=st.permutations([0.0, 0.5, 1.0, 2.5]))
    def test_permutation_invariance(self, perm):
        base = [0.0, 0.5, 1.0, 2.5]
        p = 2.0
        assert sobolev_exponent(perm, perm, p) == sobolev_exponent(base, base, p)


class TestTraceExponent:
    def test_matches_reduced_dimension_law(self):
        A = [1.0, 1.0]
        B = [1.0]
        # D_r(B) = 1 + 1 = 2, D(A) = 4: q = 2 p / (4 - p)
        assert trace_exponent(A, B, 1, 2.0) == pytest.approx(2.0)

    def test_full_dimension_trace_is_sobolev(self):
        A = [1.0, 2.0]
        q_trace = trace_exponent(A, A, 2, 2.0)
        q_sob = sobolev_exponent(A, A, 2.0)
        assert q_trace == pytest.approx(q_sob, rel=1e-15)

    def test_rejects_r_above_dimension(self):
        with pytest.raises(InputError):
            trace_exponent([1.0, 2.0], [1.0], 3, 2.0)

    def test_rejects_mismatched_b_length(self):
        with pytest.raises(InputError):
            trace_exponent([1.0, 2.0], [1.0, 1.0], 1, 2.0)

    def test_rejects_fractional_r(self):
        # int(1.5) would check q at r = 1 against an lhs integrated at r = 1.5
        with pytest.raises(InputError, match="whole number"):
            trace_exponent([1.0, 1.0], [1.0], 1.5, 2.0)

    def test_whole_float_r_is_accepted(self):
        assert trace_exponent([1.0, 1.0], [1.0], 1.0, 2.0) == trace_exponent(
            [1.0, 1.0], [1.0], 1, 2.0
        )
