#!/usr/bin/env python3
"""Topological zeta functions, exactly.

Z is a rational function of s built from the pairs (nu_v, N_v): N_v is the
vanishing order of the function divisor along the curve of v, nu_v - 1 the
order of the canonical class plus the form divisor.  A ``ZetaResult`` holds
Z as its constant C plus its principal parts, a canonical form: two zeta
functions are equal exactly when their (C, parts) are.  Everything is exact;
candidate poles cancel or survive by exact residue arithmetic.
"""

from fractions import Fraction

from splicezeta import zeta_plumbing, zeta_splice
from splicezeta.corpus import (
    rodrigues_plumbing,
    smooth_point_plumbing,
    two_cusp_diagram,
    two_cusp_plumbing,
)
from splicezeta.divisors import nu_values, vertex_multiplicities
from splicezeta.zeta import principal_parts, reduced_coefficients

# ---------------------------------------------------------------------------
# 1. the running example: two independent routes, one exact answer

d = two_cusp_diagram()
print("N_v:", vertex_multiplicities(d))
print("nu_v:", nu_values(d))

z = zeta_splice(d)
num, num_den, den, den_den = reduced_coefficients(z.const, z.parts)
print("\nZ(s) numerator  :", [str(Fraction(c, num_den)) for c in num])
print("Z(s) denominator:", [str(Fraction(c, den_den)) for c in den])

zp = zeta_plumbing(two_cusp_plumbing())
print("plumbing route agrees:", (z.const, z.parts) == (zp.const, zp.parts))

print("\npoles (location, order, leading coefficient):")
for p in z.poles():
    print("  ", p)
print("note: the candidate s = 1 of the individual pieces has cancelled")

# ---------------------------------------------------------------------------
# 2. the smallest possible case: a smooth germ

# 1/(1 + s) as a term c / prod(a + s b)
zs = zeta_plumbing(smooth_point_plumbing())
print("\nsmooth germ (one blowup):", (zs.const, zs.parts) == principal_parts([(1, ((1, 1),))]),
      "-> Z = 1/(s+1)")

# ---------------------------------------------------------------------------
# 3. an exact cancellation family

# decorations i1 = 1, i2 = 3 leave a candidate pole at (15 - 6 I')/6 whose
# residue vanishes identically in the remaining freedom I'
d = two_cusp_diagram()
for i1p, i2p in ((1, 1), (1, 2), (2, 1), (2, 3)):
    iprime = 3 * i1p + 2 * i2p
    w = {"leg1": 2, "bR": i1p - 1, "leg1p": i2p - 1}
    z = zeta_splice(d, w=w)
    s0 = Fraction(15 - 6 * iprime, 6)
    r = z.residue_contribution("v1", s0)
    survived = any(p.location == s0 for p in z.poles())
    print(f"I' = {iprime:2d}: residue contribution at {s0} is {r}, pole survives: {survived}")

# ---------------------------------------------------------------------------
# 4. rational multiplicities on a non-unimodular graph

rod = rodrigues_plumbing()
z = zeta_plumbing(rod)
print("\nRodrigues graph poles:")
for p in z.poles():
    print("  ", p)
