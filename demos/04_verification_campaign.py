# ===============================================
# Verifying the inequalities on batches of profiles
# ===============================================
#
# Every check in the library produces a VerificationReport: lhs, rhs, the
# constant in between, the ratio lhs / (constant * rhs), and a pass, fail,
# or inconclusive status.  This demo exercises the single checks one at a
# time and then runs the bundled campaign, which sweeps low-discrepancy
# batches of profiles through all five inequality families and writes the
# reports to JSONL and CSV.

import pathlib
import tempfile
from collections import Counter

from glsobolev import (
    bump,
    check_morrey,
    check_scaling,
    check_sobolev,
    check_trace_radial,
    constant_psi,
    exit_status,
    extremal_profile,
    fit_scaling_exponents,
    run_campaign,
)

A = (1.0, 2.0)                   # effective dimension D = 5

# The extremal profile (1 + rho^{p'})^{(p-D)/p} turns the inequality into an
# equality, so its ratio lands on 1 to within quadrature error.  Any other
# admissible profile strictly undershoots; this bump sits near 0.75.

print(check_sobolev(extremal_profile(5.0, 2.0), A, 2.0).summary_line())
print(check_sobolev(bump(1.0, 1.0), A, 2.0).summary_line())

# Both sides obey exact power laws under dilation u -> u(x / lambda).  A
# log-log fit over lambda in [1/8, 8] recovers the predicted slopes
# -D(B)/q and 1 - D(A)/p to machine precision, and at the critical q the
# two slopes coincide, which is the scale invariance of the inequality.

fit = fit_scaling_exponents(bump(1.0, 1.0), A, A, 2.0)
print("slopes:", fit.slope_lhs, fit.slope_rhs)
print("expected:", fit.expected_lhs, fit.expected_rhs)
print("max deviation:", fit.max_deviation)
print(check_scaling(bump(1.0, 1.0), A, A, 2.0).summary_line())

# The trace check restricts to the first r coordinates and compares against
# the upper end M * Q of the constant bracket.  Concentrated profiles pass
# with room to spare; the bracket is not guaranteed for spread-out profiles,
# and such runs are reported as honest failures rather than being skipped.

print(check_trace_radial(bump(1.0, 1.0), (1.0, 1.0, 0.5), (0.5, 0.5), 2, 2.8).summary_line())

# The continuity-modulus check compares the sampled two-point modulus
# against the grand-norm bound from the supercritical range.

print(check_morrey(bump(1.0, 1.0), constant_psi(6.0, 8.0), A, 0.3).summary_line())

# The campaign bundles all of the above.  The default configuration checks
# 27 report lines across the five inequality ids; every one passes and the
# aggregate exit status is 0.  Artifacts are deterministic: rerunning the
# same configuration reproduces the files byte for byte, and each report
# carries a digest of its own inputs.

with tempfile.TemporaryDirectory() as td:
    jsonl_path = pathlib.Path(td) / "campaign.jsonl"
    csv_path = pathlib.Path(td) / "campaign.csv"
    reports = run_campaign(jsonl_path=jsonl_path, csv_path=csv_path)

    print(len(reports), "reports:", dict(Counter(r.status for r in reports)))
    print("exit status:", exit_status(reports))

    # One JSONL line per report, machine-readable keys, floats at full
    # precision.  The CSV holds the one-line summary per report.

    first = jsonl_path.read_text().splitlines()[0]
    print(first[:120], "...")
    print(csv_path.read_text().splitlines()[0])
