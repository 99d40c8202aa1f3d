#!/usr/bin/env python3
"""Constructing allowed decorations that realize a prescribed eigenvalue.

The engine solves the congruence for nu at a candidate node over the dashed
slots (the pairwise-coprime weights make this an extended-gcd computation),
repairs allowedness and residues by kernel moves, and certifies every answer
from scratch: the divisor must be allowed and the reduced zeta must have a
pole whose exponential is the requested root of unity.
"""

from splicezeta import UnityRoot
from splicezeta.corpus import intro_star, two_cusp_diagram, two_cusp_diagram_mult
from splicezeta.exact import congruence_lattice
from splicezeta.realize import (
    lattice_columns,
    leg_ranges,
    realize_eigenvalue,
    realize_star,
    rejecting_star,
    slot_columns,
    star_forms,
)
from splicezeta.splicing import star_legs

# ---------------------------------------------------------------------------
# 1. a star is solved directly

st = intro_star(2, 3)
for s in realize_star(st, UnityRoot(1, 12), count=2):
    print("star solution:", s.values(), "pole", s.s0, "from", s.source)

# ---------------------------------------------------------------------------
# 2. both primitive 6th roots on the running example, effectively if asked

d = two_cusp_diagram()
for lam in (UnityRoot(1, 6), UnityRoot(5, 6)):
    out = realize_eigenvalue(d, lam, count=1, effective=True)
    r = out.found[0]
    print(f"lambda = {lam}: W values {r.values()} certified pole {r.s0} ({r.source})")

# ---------------------------------------------------------------------------
# 3. and an honest failure: with the arrowhead multiplicity raised to 7, the
#    class 37/42 is blocked by the interplay of the nu congruence and the
#    allowedness constraint on the middle star.  Each node's congruence has
#    a lattice of solutions over the boundary slots, and one star rejects
#    every point of it: the search reports the last window its budget allows
#    without walking it.

d7 = two_cusp_diagram_mult(7)
out = realize_eigenvalue(d7, UnityRoot(37, 42))
print("\nstatus:", out.status, "explored:", out.explored)
slots = d7.boundary_vertices()
forms = star_forms(d7, slot_columns(d7, slots))
stars = list(star_legs(d7).items())
for c in out.congruences:
    print(c.describe())
    lattice = congruence_lattice([c.coefficients[s] for s in slots], c.target - c.base, c.modulus)
    if lattice is None:
        print("  no solution")
        continue
    x0, basis = lattice
    columns = lattice_columns(basis, len(slots))
    index = rejecting_star(forms, x0, columns)
    if index is None:
        print("  no star rejects all of its solutions")
        continue
    node, (r, legs) = stars[index]
    leg_forms = forms[index][1]
    print(f"  star {node} rejects every solution: it needs n + r - 2 = "
          f"{len(leg_forms) + r - 2} legs at i = d wherever that many d divide i")
    for leg, (dl, base, terms), (_, i, g) in zip(legs, leg_forms, leg_ranges(leg_forms, x0, columns)):
        pin = " + ".join(f"{k}*x[{slots[j]}]" for j, k in terms)
        values = f"i = {i % g} (mod {g})" if g else f"i = {i}"
        pinnable = (dl - i) % g == 0 if g else i == dl
        print(f"    leg {leg.slot} (d = {dl}): {values}, so the pin i = {dl}, "
              f"{pin} = {dl - base}, is {'possible' if pinnable else 'ruled out'}")

# opening the doubling slot on the arrowhead changes the congruence and makes
# the class reachable; the default search keeps doubles closed so that the
# boundary-slot analysis above is decisive
out2 = realize_eigenvalue(d7, UnityRoot(37, 42), include_doubles=True)
print("\nwith doubling slots open:", out2.status, out2.found[0].values())
