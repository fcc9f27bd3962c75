# ==================================================
# Grand Lebesgue norms, fundamental functions, and a
# continuity modulus from the supercritical range
# ==================================================
#
# A grand Lebesgue norm takes a supremum of weighted Lp norms over a range
# of exponents:
#
#     ||u||_{G(psi)} = sup_{a < p < b} ||u||_{p, A} / psi(p).
#
# The weight psi is a positive function on (a, b), normalized here so that
# min psi = 1.  This demo builds the two stock psi families, evaluates grand
# norms, shows the fundamental function identity on indicators, pushes psi
# through the exponent law, and ends with the continuity modulus bound that
# the supercritical range provides.

from glsobolev import (
    ball_mass,
    bump,
    calibrate_morrey_constant,
    constant_psi,
    fundamental_function,
    gaussian,
    gls_norm,
    modulus_of_continuity,
    morrey_bound,
    power_endpoint_psi,
    sobolev_exponent,
    step,
    tent,
    verify_gls_sobolev,
    zeta_transform,
)

A = (1.0, 2.0)                   # effective dimension D = 5
psi = constant_psi(1.5, 2.5)     # psi == 1 on (1.5, 2.5)
u = bump(1.0, 1.0)

# With psi == 1 the grand norm is just the supremum of ||u||_p over the
# exponent window.  The scanner reports where the supremum sits; for this
# bump it is attained at the right endpoint p -> 2.5.

val, res = gls_norm(u, psi, A, details=True)
print("||bump||_G =", val, " argmax p =", res.argmax, " boundary:", res.at_boundary)

# The power-endpoint family penalizes exponents near the ends of the window:
# psi blows up at both endpoints and equals 1 at an interior exponent
# p* = (alpha b + beta a) / (alpha + beta).  For (alpha, beta) = (1, 2) on
# (1.5, 4.0) that is p* = 7/3.

pw = power_endpoint_psi(1.5, 4.0, 1.0, 2.0)
print("psi(7/3) =", pw(7.0 / 3.0))

# Indicators tie the grand norm to the fundamental function
# phi(delta) = sup_p delta^{1/p} / psi(p): the grand norm of 1_{B_R} equals
# phi evaluated at the weighted measure of the ball.  Note phi(1) = 1 for
# any normalized psi.

mass = ball_mass(A, 0.8)
print("||1_B||_G        =", gls_norm(step(0.8), psi, A))
print("phi(mu(B))       =", fundamental_function(psi, mass))
print("phi(1)           =", fundamental_function(psi, 1.0))

# Pushing psi through the critical exponent law q = D p / (D - p) produces
# the target-side weight zeta on (q(a), q(b)).  Here that support is
# (15/7, 5): q(1.5) = 2.1428... and q(2.5) = 5.

zeta = zeta_transform(psi, A)
print("zeta support:", (zeta.a, zeta.b))
print("q(1.5), q(2.5):", sobolev_exponent(A, A, 1.5), sobolev_exponent(A, A, 2.5))

# The embedding between the two grand spaces is then a single report object:
# lhs = ||u||_{G(zeta)}, rhs = sup_p C(p) ||grad u||_p / psi(p), and the
# ratio stays at or below 1 when the inequality holds.

report = verify_gls_sobolev(u, psi, A)
print(report.summary_line())
print("slice ratio sup:", report.extra["slice-ratio-sup"])

# When the whole exponent window sits above D, grand norms of the gradient
# control increments of u itself:
#
#     |u(x) - u(y)| <= ||grad u||_{G(psi)} * delta / phi_{G(psi_D)}(delta^D)
#
# for |x - y| <= delta, where psi_D is the companion weight
# c2 * p / (p - D) * psi(p).  With the default c2 = 1 the bound is safe but
# slack; for this bump at delta = 0.3 the measured two-point modulus uses
# about 22 percent of it.

psi_sup = constant_psi(6.0, 8.0)
delta = 0.3
bound = morrey_bound(u, psi_sup, A, delta)
omega = modulus_of_continuity(u, delta)
print("bound:", bound, " sampled modulus:", omega, " ratio:", omega / bound)

# c2 can be calibrated against a battery of profiles so that the worst case
# touches the bound without crossing it.  The calibrated constant tightens
# the bump bound from 2.59 to about 1.15 while staying valid for every
# profile in the battery.

c2 = calibrate_morrey_constant(
    [u, gaussian(), tent(1.0)], psi_sup, A, [0.1, 0.3, 1.0]
)
print("calibrated c2:", c2)
print("calibrated bound:", morrey_bound(u, psi_sup, A, delta, c2=c2))
