# =========================================
# Sharp constants and critical exponent laws
# =========================================
#
# This demo walks through the closed-form side of the library: effective
# dimensions of monomial weights, the critical exponent law, the sharp
# Sobolev constant, and the two-sided bracket for the trace constant.
#
# A monomial weight on R^m is x^A = prod_i |x_i|^{A_i} with every A_i >= 0.
# All the scalar laws below depend on the weight only through its effective
# dimension D(A) = m + sum_i A_i.

from glsobolev import (
    ExponentTuple,
    sharp_constant,
    sharp_constant_p1,
    sobolev_exponent,
    talenti_constant,
    trace_bounds,
    trace_exponent,
)

# Take the weight |x_1| |x_2|^2 in the plane.  Two coordinates plus the
# exponent sum 1 + 2 gives an effective dimension of 5, so the weighted
# problem behaves like an unweighted problem in five dimensions.

A = (1.0, 2.0)
D = ExponentTuple(A).effective_dimension
print("D(A) =", D)

# The critical exponent law mirrors the unweighted one with D in place of
# the dimension: q = D * p / (D - p).  At p = 2 and D = 5 this is 10/3.

q = sobolev_exponent(A, A, 2.0)
print("q(2) =", q)

# The sharp constant C(p) makes ||u||_q <= C(p) || |grad u| ||_p an equality
# for the extremal profile (1 + rho^{p'})^{(p-D)/p}.  Two transcriptions of
# the formula are implemented; "corrected" is the default and is the one the
# extremal profile actually saturates.  At (A, p) = ((1, 2), 2) they differ
# by about 6 percent, which is far outside quadrature error, so the variant
# choice is observable.

print("C(2) corrected =", sharp_constant(A, 2.0))
print("C(2) literal   =", sharp_constant(A, 2.0, variant="literal"))

# Sanity anchor: with the trivial weight A = 0 the constant must reduce to
# the classical sharp constant of the unweighted inequality.  In dimension
# 3 at p = 2 both evaluate to 0.4272605...

print("unweighted m=3, p=2:", talenti_constant(3, 2.0))
print("A = (0,0,0), p=2:   ", sharp_constant((0.0, 0.0, 0.0), 2.0))

# The p -> 1 endpoint has its own closed form (the limit is an isoperimetric
# constant).  Evaluating C(p) just above 1 should land on top of it.

print("C(p -> 1) endpoint:", sharp_constant_p1(A))
print("C(1 + 1e-6):       ", sharp_constant(A, 1.0 + 1e-6))

# Traces on a coordinate subspace.  Restricting to the first r coordinates,
# the exponent law picks up the reduced dimension D_r(B) = r + sum(B):
# q = D_r(B) * p / (D(A) - p).  The constant is only known up to a bracket
# [M, M * Q]; both factors are elementary and Q >= 1 always.

A3 = (1.0, 1.0, 0.5)
B2 = (0.5, 0.5)
p = 2.8
print("trace q =", trace_exponent(A3, B2, 2, p))
pair = trace_bounds(A3, B2, 2, p)
print("M =", pair.M, " Q =", pair.Q)
print("bracket = [", pair.M, ",", pair.M * pair.Q, "]")

# Expected output ends with M = 0.3765..., Q = 1.8479..., so the constant is
# pinned to within a factor of about 1.85.
