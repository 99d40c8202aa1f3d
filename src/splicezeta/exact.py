"""Exact scalar and polynomial arithmetic.

Everything in this package is computed over Q.  Floating point is forbidden
repo-wide: the residue-cancellation phenomena we test for are exact identities
and would be destroyed by rounding.  The variable of rational functions is
called ``s`` throughout; cyclotomic products live in the variable ``t``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input rejected; use Fraction or int")
    return Fraction(x)


class Poly:
    """Dense univariate polynomial with Fraction coefficients (ascending)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def linear(cls, a0, a1) -> "Poly":
        """a0 + a1*s"""
        return cls([a0, a1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return Poly.const(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + i:
                continue
            c = rem[len(other.coeffs) + i - 1] / lead
            if c:
                quo[i] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= c * oc
            del rem[len(other.coeffs) + i - 1]
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[s]."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class NonLinearDenominatorError(ArithmeticError):
    """The reduced denominator has an irreducible factor of degree >= 2."""


class RatFunc:
    """Reduced rational function num/den over Q, den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap num/den without a gcd: the caller guarantees gcd(num, den) = 1
        and a monic den (a zero num must come with den = 1)."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc(Poly.const(other))
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(Poly.const(other))
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        return self + (-other if isinstance(other, RatFunc) else RatFunc(Poly.const(-other)))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc(Poly.const(other)) - self

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(Poly.const(other))
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(Poly.const(other))
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"evaluation at a pole: s = {x}")
        return self.num(x) / d

    def poles(self) -> list["Pole"]:
        """All poles of the reduced function, with order and leading coefficient.

        The leading coefficient is the residue for a simple pole and the
        order-2 Laurent coefficient for a double pole.  Raises
        NonLinearDenominatorError if the denominator does not split into
        rational linear factors.
        """
        if self.is_zero():
            return []
        roots = _linear_roots(self.den)
        out = []
        for s0, order in sorted(roots.items()):
            g = self.den
            for _ in range(order):
                g = g // Poly([-s0, 1])
            leading = self.num(s0) / g(s0)
            out.append(Pole(location=s0, order=order, leading=leading))
        return out

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


class Pole:
    __slots__ = ("location", "order", "leading")

    def __init__(self, location: Fraction, order: int, leading: Fraction):
        self.location = location
        self.order = order
        self.leading = leading

    def __eq__(self, other):
        return (
            isinstance(other, Pole)
            and (self.location, self.order, self.leading)
            == (other.location, other.order, other.leading)
        )

    def __repr__(self):
        return f"Pole(s0={self.location}, order={self.order}, leading={self.leading})"


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _linear_roots(den: Poly) -> dict[Fraction, int]:
    """Split a denominator into rational linear factors; error if impossible."""
    roots: dict[Fraction, int] = {}
    rest = den
    while rest.degree > 0:
        found = None
        # rational root search on the primitive integer form
        mult = 1
        for c in rest.coeffs:
            mult = mult * c.denominator // gcd(mult, c.denominator)
        ints = [int(c * mult) for c in rest.coeffs]
        k = 0
        while ints[k] == 0:
            k += 1
        if k:
            found = Fraction(0)
        else:
            a0, an = ints[0], ints[-1]
            for p in _int_divisors(a0):
                for q in _int_divisors(an):
                    for cand in (Fraction(p, q), Fraction(-p, q)):
                        if rest(cand) == 0:
                            found = cand
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
        if found is None:
            raise NonLinearDenominatorError(
                f"denominator has a non-linear irreducible factor: {rest!r}"
            )
        while rest.degree > 0 and rest(found) == 0:
            roots[found] = roots.get(found, 0) + 1
            rest = rest // Poly([-found, 1])
    return roots


class UnityRoot:
    """exp(2*pi*i * p/q) stored as the reduced fraction p/q with 0 <= p < q."""

    __slots__ = ("frac",)

    def __init__(self, p, q=None):
        f = Fraction(p, q) if q is not None else _as_fraction(p)
        self.frac = f - (f.numerator // f.denominator)  # reduce mod 1

    @classmethod
    def from_exponent(cls, s0) -> "UnityRoot":
        """The value exp(2*pi*i*s0) as a root of unity."""
        return cls(_as_fraction(s0))

    @property
    def p(self) -> int:
        return self.frac.numerator

    @property
    def q(self) -> int:
        return self.frac.denominator

    @property
    def order(self) -> int:
        return self.q

    def __eq__(self, other):
        return isinstance(other, UnityRoot) and self.frac == other.frac

    def __hash__(self):
        return hash(self.frac)

    def __repr__(self):
        return f"UnityRoot({self.p}/{self.q})"

    def __str__(self):
        return f"{self.p}/{self.q}"

    @classmethod
    def parse(cls, text: str) -> "UnityRoot":
        if "/" in text:
            p, q = text.split("/", 1)
            return cls(int(p), int(q))
        return cls(int(text), 1)


# ``CycloProduct.coefficients`` multiplies out the factors with positive
# exponent, a list of that many int coefficients and one linear pass per
# factor.  Before it expands anything, a product with a negative exponent is
# checked to be a polynomial: the multiplicity at each root order q (every
# divisor of a base, found by trial division up to its square root) is the
# integer sum of the exponents e_N with q | N.  A product whose positive part
# has a larger degree, or with a larger base, is refused rather than
# expanded or checked.
CYCLO_MAX_DEGREE = 1_000_000


class CycloLimitError(ArithmeticError):
    """The expansion of a cyclotomic product exceeds CYCLO_MAX_DEGREE."""


class NegativeMultiplicityError(ArithmeticError):
    """A cyclotomic product is not a polynomial; carries the offending root order."""

    def __init__(self, q: int, multiplicity: int):
        super().__init__(
            f"product has a root of order {q} with multiplicity {multiplicity} < 0"
        )
        self.q = q
        self.multiplicity = multiplicity


class CycloProduct:
    """Formal product prod_N (t**N - 1)**e_N with integer exponents.

    Factors like (t**9 + 1) are represented as (t**18 - 1)/(t**9 - 1).
    Equal-N factors are merged, zero exponents dropped: the form is canonical.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        merged: dict[int, int] = {}
        items = factors.items() if isinstance(factors, dict) else factors
        for n, e in items:
            n = int(n)
            e = int(e)
            if n < 1:
                raise ValueError(f"factor exponent base must be >= 1, got {n}")
            if e:
                merged[n] = merged.get(n, 0) + e
        self.factors = {n: e for n, e in sorted(merged.items()) if e}

    @classmethod
    def one(cls) -> "CycloProduct":
        return cls()

    @classmethod
    def plus_one(cls, n: int, e: int = 1) -> "CycloProduct":
        """(t**n + 1)**e as (t**2n - 1)**e (t**n - 1)**-e."""
        return cls({2 * n: e, n: -e})

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        out = dict(self.factors)
        for n, e in other.factors.items():
            out[n] = out.get(n, 0) + e
        return CycloProduct(out)

    def __pow__(self, k: int) -> "CycloProduct":
        return CycloProduct({n: e * k for n, e in self.factors.items()})

    def inverse(self) -> "CycloProduct":
        return self ** -1

    def __truediv__(self, other: "CycloProduct") -> "CycloProduct":
        return self * other.inverse()

    def __eq__(self, other):
        return isinstance(other, CycloProduct) and self.factors == other.factors

    def __hash__(self):
        return hash(tuple(self.factors.items()))

    @property
    def degree(self) -> int:
        return sum(n * e for n, e in self.factors.items())

    def root_multiplicity(self, lam: UnityRoot) -> int:
        """Multiplicity of lam as a root: lam**N = 1 iff ord(lam) divides N."""
        return self._multiplicity(lam.order)

    def _multiplicity(self, q: int) -> int:
        """Multiplicity of the roots of order q."""
        return sum(e for n, e in self.factors.items() if n % q == 0)

    def root_orders(self) -> list[int]:
        """All orders q for which some factor could contribute a root."""
        seen: set[int] = set()
        for n in self.factors:
            seen.update(_int_divisors(n))
        return sorted(seen)

    def is_polynomial(self) -> bool:
        return all(self._multiplicity(q) >= 0 for q in self.root_orders())

    def expand(self) -> Poly:
        """``coefficients()`` as a Poly."""
        return Poly(self.coefficients())

    def coefficients(self) -> list[int]:
        """Ascending integer coefficients of the exact expansion; error
        (naming the root) when not a polynomial, CycloLimitError above
        CYCLO_MAX_DEGREE."""
        top = max(
            sum(n * e for n, e in self.factors.items() if e > 0), max(self.factors, default=0)
        )
        if top > CYCLO_MAX_DEGREE:
            raise CycloLimitError(
                f"expansion of degree up to {format_size(top)} exceeds the limit {CYCLO_MAX_DEGREE}"
            )
        if any(e < 0 for e in self.factors.values()):
            for q in self.root_orders():
                m = self._multiplicity(q)
                if m < 0:
                    raise NegativeMultiplicityError(q, m)
        coeffs = [1]
        for n, e in self.factors.items():
            for _ in range(e):
                coeffs = _times_cyclo(coeffs, n)
        for n, e in self.factors.items():
            for _ in range(-e):
                coeffs = _divide_cyclo(coeffs, n)
                if coeffs is None:
                    raise NegativeMultiplicityError(0, -1)
        return coeffs

    def __repr__(self):
        return f"CycloProduct({self.factors!r})"

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for n, e in self.factors.items():
            base = f"(t^{n}-1)" if n > 1 else "(t-1)"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "".join(parts)


def _times_cyclo(a: list[int], n: int) -> list[int]:
    """Ascending coefficients of a(t) * (t**n - 1): out_k = a_(k-n) - a_k."""
    out = [0] * n + a
    for k, c in enumerate(a):
        out[k] -= c
    return out


def _divide_cyclo(p: list[int], n: int) -> list[int] | None:
    """p(t) / (t**n - 1), or None when it does not divide.

    From p_k = q_(k-n) - q_k: q_k = q_(k-n) - p_k below deg p - n + 1, and
    the top n coefficients must be p_k = q_(k-n)."""
    m = len(p) - n
    if m < 1:
        return None
    q: list[int] = []
    for k in range(m):
        q.append((q[k - n] if k >= n else 0) - p[k])
    if any(p[k] != (q[k - n] if k >= n else 0) for k in range(m, len(p))):
        return None
    return q


def solve_linear_congruence(coeffs: Sequence[int], target: int, modulus: int) -> list[int] | None:
    """Solve sum(c_j * x_j) = target (mod modulus) over the integers.

    Returns one solution vector, or None when gcd(c_1..c_k, modulus) does not
    divide target.  Modulus 0 asks for the plain equation (Z/0Z = Z).  Uses
    an explicit extended-gcd chain, which is exactly the mechanism the
    pairwise-coprime edge weights make available.
    """
    return _congruence_chain(coeffs, target, modulus, None)


def congruence_lattice(
    coeffs: Sequence[int], target: int, modulus: int
) -> tuple[list[int], list[list[int]]] | None:
    """``solve_linear_congruence``'s solution x0 with a basis B of the
    homogeneous solutions {y : sum(c_j * y_j) = 0 (mod modulus)}, read off
    the same extended-gcd chain: the solutions are exactly x0 + span(B).
    Returns None when there is none.

    Step j of the chain takes g_{j-1} (g_0 = modulus) to g_j = gcd(g_{j-1}, c_j)
    and keeps a prefix combination p with c . p = g_{j-1}.  Its basis vector
    has g_{j-1}/g_j at j, -(c_j/g_j) p before it and 0 after it.  So B is
    triangular, and for modulus > 0 |det B| = modulus / gcd(c_1..c_k, modulus).
    For modulus 0 a step with g_{j-1} = 0 < g_j adds no vector: the lattice
    then has rank k - 1.
    """
    basis: list[list[int]] = []
    x0 = _congruence_chain(coeffs, target, modulus, basis)
    return None if x0 is None else (x0, basis)


def _congruence_chain(coeffs, target, modulus, basis: list | None) -> list[int] | None:
    """The chain behind both solvers: one solution, or None; it appends the
    homogeneous basis to ``basis`` unless that is None (the plain solve
    does not pay for it)."""
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    g = modulus
    combo = [0] * len(coeffs)  # invariant: sum(c_j * combo_j) = g  (mod modulus)
    for idx, c in enumerate(coeffs):
        g_next, u, v = _ext_gcd(g, c)
        if basis is not None and not g_next:  # g = c = 0: x_idx is free
            basis.append([int(j == idx) for j in range(len(coeffs))])
        elif basis is not None and g:  # combo is 0 from idx on
            y = [-(c // g_next) * b for b in combo]
            y[idx] = g // g_next
            basis.append(y)
        g = g_next
        combo = [b * u for b in combo]
        combo[idx] += v
    if g == 0:  # modulus 0 and every coefficient 0: only target 0 is reached
        return combo if target == 0 else None
    if target % g != 0:
        return None
    k = target // g
    return [b * k for b in combo]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def format_fraction(x) -> str:
    """Serialize a rational as 'p/q', or as 'p' when it is an integer."""
    if type(x) is int:  # not a bool, which goes through Fraction
        return str(x)
    f = _as_fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_size(n: int) -> str:
    """n in decimal, or its bit count once it has more than 64 bits: a
    message about a limit never spells out a huge value (past
    ``sys.get_int_max_str_digits()`` digits it could not)."""
    return str(n) if n.bit_length() <= 64 else f"a {n.bit_length()}-bit integer"
