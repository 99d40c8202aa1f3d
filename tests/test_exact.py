"""Exact arithmetic: polynomials, rational functions, roots of unity, cyclo products."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicezeta.exact import (
    CYCLO_MAX_DEGREE,
    CycloLimitError,
    CycloProduct,
    NegativeMultiplicityError,
    NonLinearDenominatorError,
    Poly,
    RatFunc,
    UnityRoot,
    congruence_lattice,
    format_fraction,
    poly_gcd,
    solve_linear_congruence,
)

small_fracs = st.fractions(
    min_value=-6, max_value=6, max_denominator=5
)
polys = st.lists(small_fracs, min_size=0, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.tuples(polys, nonzero_polys).map(lambda t: RatFunc(*t))
nonzero_ratfuncs = ratfuncs.filter(lambda r: not r.is_zero())


@settings(max_examples=120, deadline=None)
@given(ratfuncs, nonzero_ratfuncs)
def test_field_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@settings(max_examples=120, deadline=None)
@given(ratfuncs, nonzero_ratfuncs)
def test_field_mul_div_roundtrip(a, b):
    assert (a * b) / b == a


@settings(max_examples=120, deadline=None)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_canonical_form_unique():
    a = RatFunc(Poly([2, 2]), Poly([4, 0, 4]))
    b = RatFunc(Poly([1, 1]), Poly([2, 0, 2]))
    assert a == b
    assert a.den.coeffs[-1] == 1
    assert poly_gcd(a.num, a.den).degree == 0


def test_poly_divmod():
    a = Poly([1, 0, -2, 1])
    b = Poly([-1, 1])
    q, r = a.divmod(b)
    assert q * b + r == a


def test_poles_simple_golden():
    # the running example's zeta: poles exactly 13/6, 2, -1, all simple
    z = (
        RatFunc(Poly.const(8), Poly.linear(-13, 6))
        + RatFunc(Poly.const(1), Poly.linear(-2, 1))
        * (RatFunc(Poly.const(-1)) + RatFunc(Poly.const(1), Poly.linear(1, 1)))
        + RatFunc(Poly.const(2), Poly.linear(-2, 1) * Poly.linear(-13, 6))
    )
    ps = z.poles()
    assert [(p.location, p.order) for p in ps] == [
        (Fraction(-1), 1),
        (Fraction(2), 1),
        (Fraction(13, 6), 1),
    ]
    # the candidate s = 1 coming from the components must have cancelled
    assert all(p.location != 1 for p in ps)


def test_pole_order_two():
    z = RatFunc(Poly.const(1), Poly.linear(1, 1) * Poly.linear(1, 1))
    (p,) = z.poles()
    assert p.location == -1 and p.order == 2 and p.leading == 1


def test_pole_residue_value():
    # 1/((s+1)(s+2)): residue at -1 is 1, at -2 is -1
    z = RatFunc(Poly.const(1), Poly.linear(1, 1) * Poly.linear(2, 1))
    ps = {p.location: p.leading for p in z.poles()}
    assert ps == {Fraction(-1): 1, Fraction(-2): -1}


def test_poles_reject_irreducible_quadratic():
    z = RatFunc(Poly.const(1), Poly([1, 0, 1]))  # 1/(s^2+1)
    with pytest.raises(NonLinearDenominatorError):
        z.poles()


def test_unity_root_mod_one_and_composition():
    for num in (-13, -1, 0, 5, 17):
        for den in (1, 2, 6, 12):
            s0 = Fraction(num, den)
            r = UnityRoot.from_exponent(s0)
            assert 0 <= r.frac < 1
            for k in (-2, -1, 1, 3):
                assert UnityRoot.from_exponent(s0 + k) == r


def test_unity_root_parse():
    assert UnityRoot.parse("5/6") == UnityRoot(5, 6)
    assert UnityRoot.parse("2") == UnityRoot(0, 1)
    assert UnityRoot(7, 6).frac == Fraction(1, 6)


def test_cyclo_expand_golden():
    # (t^6-1)(t-1)/((t^3-1)(t^2-1)) = t^2 - t + 1
    c = CycloProduct({6: 1, 1: 1, 3: -1, 2: -1})
    assert c.expand() == Poly([1, -1, 1])
    assert CycloProduct().expand() == Poly([1])


def test_cyclo_root_multiplicity_golden():
    lam = CycloProduct({6: 2, 1: 2, 3: -2, 2: -2})  # (t^2-t+1)^2
    assert lam.expand() == Poly([1, -1, 1]) * Poly([1, -1, 1])
    assert lam.root_multiplicity(UnityRoot(1, 6)) == 2
    assert lam.root_multiplicity(UnityRoot(1, 2)) == 0
    assert lam.root_multiplicity(UnityRoot(1, 5)) == 0


def test_cyclo_root_multiplicity_matches_expansion():
    # exhaustive over all q dividing the lcm of the Ns, small instances
    cases = [
        CycloProduct({6: 1, 1: 1, 3: -1, 2: -1}),
        CycloProduct({12: 2, 6: -1, 4: -1}),
        CycloProduct({18: 1, 3: 1, 1: 1, 9: -1, 6: -1}),
        CycloProduct({4: 2, 2: -1}),
    ]
    for c in cases:
        poly = c.expand()
        for q in c.root_orders():
            lam = UnityRoot(1, q)
            claimed = c.root_multiplicity(lam)
            # divide (t^q - 1)-cyclotomic content out exactly: evaluate via
            # repeated division by the q-th cyclotomic polynomial
            phi = _cyclotomic(q)
            mult = 0
            rest = poly
            while True:
                quo, rem = rest.divmod(phi)
                if rem.is_zero():
                    mult += 1
                    rest = quo
                else:
                    break
            assert mult == claimed, (c, q)


def _cyclotomic(q: int) -> Poly:
    num = Poly([-1] + [0] * (q - 1) + [1])
    for d in range(1, q):
        if q % d == 0:
            num = num // _cyclotomic(d)
    return num


def test_cyclo_negative_multiplicity_reported():
    c = CycloProduct({2: 1, 1: -2})
    with pytest.raises(NegativeMultiplicityError) as exc:
        c.expand()
    assert exc.value.q == 1


def _reference_expand(c: CycloProduct) -> Poly:
    """The expansion by long division of one product by the other."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    for q in c.root_orders():
        m = c.root_multiplicity(UnityRoot(1, q))
        if m < 0:
            raise NegativeMultiplicityError(q, m)
    num, den = [1], [1]
    for n, e in c.factors.items():
        for _ in range(abs(e)):
            base = [-1] + [0] * (n - 1) + [1]
            if e > 0:
                num = mul(num, base)
            else:
                den = mul(den, base)
    rem, quo = list(num), [0] * (len(num) - len(den) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c_i = rem[i + len(den) - 1] // den[-1]
        quo[i] = c_i
        for j, cb in enumerate(den):
            rem[i + j] -= c_i * cb
    assert not any(rem)
    return Poly(quo)


def test_cyclo_expand_matches_long_division():
    rng = random.Random(9)
    expanded = 0
    for _ in range(400):
        c = CycloProduct([(rng.randint(1, 12), rng.randint(-2, 3)) for _ in range(rng.randint(0, 5))])
        try:
            want = _reference_expand(c)
        except NegativeMultiplicityError as exc:
            with pytest.raises(NegativeMultiplicityError) as got:
                c.expand()
            assert (got.value.q, got.value.multiplicity) == (exc.q, exc.multiplicity)
            continue
        assert c.expand().coeffs == want.coeffs, c
        assert c.coefficients() == [int(x) for x in want.coeffs], c
        expanded += 1
    assert expanded >= 100


def _raised(f) -> tuple[type, str]:
    with pytest.raises(ArithmeticError) as got:
        f()
    return type(got.value), str(got.value)


def test_cyclo_coefficients_refuse_as_expand_does():
    rng = random.Random(9)
    refused = 0
    for _ in range(400):
        c = CycloProduct([(rng.randint(1, 12), rng.randint(-2, 3)) for _ in range(rng.randint(0, 5))])
        if not c.is_polynomial():
            assert _raised(c.coefficients) == _raised(c.expand), c
            refused += 1
    assert refused >= 100
    for c in (
        CycloProduct({10**28: 1, 1: -1}),
        CycloProduct({10**28: -1, 1: 3}),
        CycloProduct({CYCLO_MAX_DEGREE // 2: 2, 1: 1}),
        # over the limit and not a polynomial: the limit is named first
        CycloProduct({CYCLO_MAX_DEGREE + 1: 1, 1: -2}),
    ):
        kind, message = _raised(c.coefficients)
        assert kind is CycloLimitError and "exceeds the limit" in message
        assert (kind, message) == _raised(c.expand)


def test_cyclo_expand_refuses_huge_degree_promptly():
    start = time.perf_counter()
    for c in (
        CycloProduct({10**28: 1, 1: -1}),
        CycloProduct({10**28: -1, 1: 3}),  # a base above the cap, even when divided by
        CycloProduct({CYCLO_MAX_DEGREE // 2: 2, 1: 1}),
    ):
        with pytest.raises(CycloLimitError, match="exceeds the limit"):
            c.expand()
    assert time.perf_counter() - start < 1.0
    # the old long division took ~20 s on this product of degree 10006
    assert CycloProduct({20014: 1, 10007: -1, 2: -1, 1: 1}).expand().degree == 10006


def test_plus_one_representation():
    # (t^9+1) stored as (t^18-1)/(t^9-1)
    c = CycloProduct.plus_one(9)
    assert c.factors == {18: 1, 9: -1}
    assert c.expand() == Poly([1] + [0] * 8 + [1])


def test_solve_linear_congruence():
    for coeffs, target, mod in [
        ((21, 14, 18, 12), 5, 42),
        ((3, 2), 1, 12),
        ((6, 10, 15), 7, 30),
        ((4,), 4, 8),
        ((3,), 2, 8),
    ]:
        sol = solve_linear_congruence(coeffs, target, mod)
        assert sol is not None
        assert sum(c * x for c, x in zip(coeffs, sol)) % mod == target % mod
    assert solve_linear_congruence((4,), 2, 12) is None
    assert solve_linear_congruence((), 3, 12) is None
    assert solve_linear_congruence((), 24, 12) == []
    # modulus 0: the plain equation over the integers
    sol = solve_linear_congruence((6, 10, 15), 7, 0)
    assert sum(c * x for c, x in zip((6, 10, 15), sol)) == 7
    assert solve_linear_congruence((4, 6), 3, 0) is None
    assert solve_linear_congruence((0, 0), 0, 0) == [0, 0]
    assert solve_linear_congruence((0, 0), 5, 0) is None
    assert solve_linear_congruence((), 0, 0) == []
    with pytest.raises(ValueError):
        solve_linear_congruence((3,), 1, -4)


def _inverse(rows):
    """The inverse of a square nonsingular integer matrix, by Gauss over
    the rationals."""
    k = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(k)]
         for i, r in enumerate(rows)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [r[k:] for r in m]


def _det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_congruence_lattice_basis():
    # the solutions of c . x = t (mod n) are solve_linear_congruence's x0
    # plus the span of the homogeneous basis read off the same chain
    rng = random.Random(31)
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.choice([1, 2, 3, 4, 6, 7, 12, 30, 42])
        coefs = [rng.choice([0, rng.randint(-15, 15), n * rng.randint(-2, 2)]) for _ in range(k)]
        target = rng.randint(-20, 20)
        x0, basis = congruence_lattice(coefs, 0, n)
        assert x0 == [0] * k
        assert len(basis) == k
        for b in basis:
            assert sum(map(mul, coefs, b)) % n == 0
        g = n
        for c in coefs:
            g = gcd(g, c)
        assert abs(_det(basis)) == n // g
        # in a box, the homogeneous solutions are exactly the integer
        # combinations y = t . basis, t = y . basis^-1
        # (in integers: adj = det . basis^-1, and t is integral when det
        # divides y . adj)
        det = int(_det(basis))
        adj = [[int(x * det) for x in col] for col in zip(*_inverse(basis))]
        for y in itertools.product(range(-4, 5), repeat=k):
            solves = sum(map(mul, coefs, y)) % n == 0
            assert solves == all(sum(map(mul, y, col)) % det == 0 for col in adj), (coefs, n, y)
        lattice = congruence_lattice(coefs, target, n)
        sol = solve_linear_congruence(coefs, target, n)
        assert (lattice is None) == (sol is None) == (target % g != 0)
        if lattice is not None:
            assert lattice == (sol, basis)
    # n = 1: every point solves, the basis spans Z^k
    for coefs in ([0, 0], [5, -3, 0], [7]):
        x0, basis = congruence_lattice(coefs, 4, 1)
        assert abs(_det(basis)) == 1
    # modulus 0: the plain equation, whose lattice has rank k - 1 (k when
    # every coefficient is 0)
    for coefs, rank in (([6, 10, 15], 2), ([0, 4, 0], 2), ([0, 0], 2), ([3], 0)):
        x0, basis = congruence_lattice(coefs, 0, 0)
        assert len(basis) == rank
        assert all(sum(map(mul, coefs, b)) == 0 for b in basis)
    assert congruence_lattice([4, 6], 3, 0) is None


def test_format_fraction_int_bool_and_fraction():
    assert [format_fraction(x) for x in (0, -12, 10**30)] == ["0", "-12", str(10**30)]
    assert (format_fraction(True), format_fraction(False)) == ("1", "0")
    assert format_fraction(Fraction(6, 3)) == "2"
    assert format_fraction(Fraction(-7, 6)) == "-7/6"
    with pytest.raises(TypeError):
        format_fraction(0.5)
