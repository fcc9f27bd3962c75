# ==========================================
# Weighted Lp norms of radial profiles, three ways
# ==========================================
#
# Norms against a monomial weight x^A reduce to one-dimensional integrals
# when the function is radial:
#
#     ||u||_{p, A}^p = sigma_A * int_0^inf rho^{D-1} |u(rho)|^p drho,
#
# where D = D(A) is the effective dimension and sigma_A collects the angular
# mass of the weight.  This demo computes the same norm by adaptive radial
# quadrature, by a closed form, and by Monte Carlo in the full space, and
# checks that the three agree.

import math

from glsobolev import (
    ExponentTuple,
    SamplerConfig,
    angular_mass,
    ball_mass,
    gaussian,
    monte_carlo_lp_norm,
    sup_norm,
    weighted_gradient_norm,
    weighted_lp_norm,
)

A = (2.0, 3.0)
D = ExponentTuple(A).effective_dimension   # 2 + 5 = 7
u = gaussian()                   # u(rho) = exp(-rho^2)
p = 2.5

# Route 1: the library's radial quadrature.

val = weighted_lp_norm(u, A, p)
print("quadrature:", val)

# Route 2: the gaussian admits a closed form.  Substituting t = p * rho^2
# in the radial integral gives
#
#     ||e^{-rho^2}||_{p, A} = (sigma_A * Gamma(D/2) / (2 p^{D/2}))^{1/p}.

sigma = angular_mass(A)
closed = (sigma * math.gamma(D / 2.0) / (2.0 * p ** (D / 2.0))) ** (1.0 / p)
print("closed form:", closed, " rel err:", abs(val - closed) / closed)

# The two agree to machine precision (the relative error printed above is
# around 1e-16).  The same angular factor also gives the measure of balls:
# mu_A(B_R) = sigma_A R^D / D.

print("ball mass R=1.5:", ball_mass(A, 1.5), "=", sigma * 1.5**D / D)

# Route 3: importance sampling in R^2 with no radial reduction at all.  The
# estimate carries a standard error, so agreement is judged in sigmas; with
# 200k samples the z-score below is well under 1.

mc = monte_carlo_lp_norm(u, A, p, SamplerConfig(n_samples=200_000, seed=7))
print("monte carlo:", mc.value, "+/-", mc.std_error)
print("z-score vs quadrature:", (mc.value - val) / mc.std_error)
print("effective samples:", round(mc.effective_samples))

# Gradient norms run through the same radial reduction applied to |u'|.

print("gradient norm:", weighted_gradient_norm(u, A, p))

# Large p is handled in log space, so nothing overflows on the way to the
# sup norm: at p = 1e6 the norm is already within 5e-5 of max |u| = 1.

print("p = 1e6:", weighted_lp_norm(u, A, 1e6), " sup:", sup_norm(u))
