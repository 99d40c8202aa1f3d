#!/usr/bin/env python3
"""Monodromy zeta functions, Alexander polynomials, and the eigenvalue set.

Everything is kept in factored cyclotomic form prod (t^N - 1)^e; roots of
unity are queried by divisibility, never enumerated.
"""

from splicezeta import CycloProduct, UnityRoot
from splicezeta.corpus import (
    rodrigues_plumbing,
    two_cusp_diagram,
    two_cusp_diagram_mult,
    unimodular_counterexample_plumbing,
)
from splicezeta.monodromy import (
    alexander,
    delta1,
    eig_contains,
    monodromy_zeta,
)
from splicezeta.splicing import star_decomposition

# ---------------------------------------------------------------------------
# 1. the running example

d = two_cusp_diagram()
z = monodromy_zeta(d)
lam = alexander(d)
print("zeta(t) =", z)
print("Lambda(t) =", lam, "=", lam.coefficients(), "(ascending)")

stars = star_decomposition(d)
print("star factors:", {v: str(alexander(s)) for v, s in stars.items()})
prod = CycloProduct.one()
for s in stars.values():
    prod = prod * alexander(s)
print("multiplicative:", prod == lam)

# ---------------------------------------------------------------------------
# 2. eigenvalue membership is a divisibility computation

for p, q in ((0, 1), (1, 6), (5, 6), (1, 2), (1, 4)):
    print(f"exp(2 pi i {p}/{q}) in Eig:", eig_contains(d, UnityRoot(p, q)))

# raising the arrowhead multiplicity scales the picture
d7 = two_cusp_diagram_mult(7)
print("\nmultiplicity-7 arrow: Lambda =", alexander(d7))
print("37/42 in Eig:", eig_contains(d7, UnityRoot(37, 42)))

# ---------------------------------------------------------------------------
# 3. the counterexample graphs keep a pole away from the eigenvalues

rod = rodrigues_plumbing()
print("\nRodrigues Delta1 =", delta1(rod))
print("exp(2 pi i/3) a root?", delta1(rod).root_multiplicity(UnityRoot(1, 3)) > 0)

for n in (1, 2):
    g = unimodular_counterexample_plumbing(n)
    d1 = delta1(g)
    lam = UnityRoot(7, 3 * n)
    print(f"unimodular counterexample (n={n}): root at 7/(3n)?",
          d1.root_multiplicity(lam) > 0)
