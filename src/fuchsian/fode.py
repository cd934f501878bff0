"""Second-order ODEs y'' + p1 y' + p2 y = 0 with rational coefficients.

Construction from singularity data, a catalog of classical named equations,
the Whittaker normal-form equation built from a polynomial f, and
regular-singular-point classification on the extended plane.

A rational function keeps its numerator expanded and its denominator factored
(leading coefficient plus root list), so a pole order is the number of
denominator roots equal to the point.  Every pole is known exactly, so a pole
cancels by dividing the numerator by (z - s), and two poles are one point
only when they are equal; the only root finding is of the Whittaker
polynomial f; no coefficient is cut.  A catalog pole (finite or at infinity)
goes only when its residue, exact in the parameters' decimal reprs, is 0; p1's
top coefficient is that exact sum rounded once, moved one float step off
2 den_lead only when it rounds onto 2 den_lead without being equal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, zip_longest

from .curves import CurveSpec, Poly, _product, expand_poly
from .moebius import INFINITY

# distinctness check on user polynomials, relative to the larger root of each
# pair: a genuine double root re-found numerically splits by up to ~1e-7 of its
# size, so the repeated-root detector must sit well above that
DISTINCT_ROOT_TOL = 1e-6
# decimals in which sums and products of float reprs never round; localcontext
# copies it, so no flag carries over from one call to the next
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class RationalFn:
    """num/den with common roots cancelled at construction.

    num is the expanded numerator; den_lead * prod(z - r) over den_roots is
    the denominator, stored factored so that a double pole is two equal
    roots.  den expands it, every coefficient as built, for display.
    """

    num: Poly
    den_lead: complex
    den_roots: tuple

    @property
    def den(self) -> Poly:
        return expand_poly(self.den_roots).scaled(self.den_lead)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, z: complex) -> complex:
        if self.is_zero:
            return 0j
        acc = self.num(z) / complex(self.den_lead)
        for r in self.den_roots:
            acc /= z - r
        return acc


def _refuse_overflow(*polys: Poly) -> None:
    """Raise ValueError if a coefficient's modulus is not a finite float."""
    for p in polys:
        try:  # abs raises OverflowError where a modulus overflows
            finite = all(map(math.isfinite, map(abs, p.coeffs)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"coefficient overflow: {list(p.coeffs)}")


def _build_rational(num: Poly, den_lead: complex, den_roots, cancel=()) -> RationalFn:
    """num / (den_lead * prod(z - s)), with num divided by (z - s) (Horner's
    partial sums are the quotient) at each pole s whose flag in cancel the
    caller set on showing num(s) = 0 exactly; every other pole stays."""
    if num.is_zero:
        return ZERO_RATIONAL
    poles = tuple(zip_longest(map(complex, den_roots), cancel))
    for s in (s for s, gone in poles if gone):
        acc, partial = 0j, []
        for c in reversed(num.coeffs):
            acc = acc * s + c
            partial.append(acc)
        num = Poly(partial[-2::-1])
    return RationalFn(num, complex(den_lead), tuple(s for s, gone in poles if not gone))


def _with_exact_top(low: tuple, top: tuple, target: float) -> Poly:
    """low + top z^len(low), the exact (real, imaginary) decimals top rounded
    once; one float step up if it is not target (2 den_lead) but rounds onto it."""
    re, im = map(float, top)
    if re == target and im == 0 and top != (target, 0):
        re = math.nextafter(re, math.inf)
    num = Poly((*low, complex(re, im)))
    _refuse_overflow(num)
    return num


ZERO_RATIONAL = RationalFn(Poly((0.0,)), 1.0, ())


class PointKind(Enum):
    ORDINARY = "Ordinary"
    REGULAR_SINGULAR = "RegularSingular"
    IRREGULAR_SINGULAR = "IrregularSingular"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class PointClass:
    location: object  # complex or INFINITY
    kind: PointKind


@dataclass(frozen=True)
class SecondOrderODE:
    """y'' + p1 y' + p2 y = 0."""

    p1: RationalFn
    p2: RationalFn
    params: dict = field(default_factory=dict)

    @cached_property
    def _classified_points(self) -> tuple:
        """Finite poles of p1 and p2 (equal ones merged, sorted) plus infinity,
        classified on first use and kept: the equation is immutable."""
        r1, r2 = (() if rf.is_zero else rf.den_roots for rf in (self.p1, self.p2))
        if len(finite := [*dict.fromkeys(r1 + r2)]) > 1:  # no sort keys for one point
            finite.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        return (*(PointClass(z, _kind(r1.count(z), r2.count(z))) for z in finite),
                PointClass(INFINITY, _kind(*_infinity_pole_orders(self))))


# lower-case name -> (catalog name, parameter count)
_CATALOG = {name.lower(): (name, count) for name, count in (
    ("Legendre", 1), ("Tchebychev", 1), ("Heun", 7), ("Hypergeometric", 3),
    ("WhittakerHypergeometric", 0))}


def named_equation(name: str, params=()) -> SecondOrderODE:
    """Catalog of classical equations, coefficients exactly as printed.

    Legendre(lambda):        p1 = 2z/(1-z^2),          p2 = lambda(lambda+1)/(1-z^2)
    Tchebychev(lambda):      p1 = z/(1-z^2),           p2 = lambda^2/(1-z^2)
    Heun(alpha,beta,gamma,delta,epsilon,a,q):
                             p1 = gamma/z + delta/(z-1) + epsilon/(z-a),
                             p2 = (alpha beta z - q)/(z(z-1)(z-a))
    Hypergeometric(a,b,c):   p1 = [c-(1+a+b)z]/(z(1-z)), p2 = -ab/(z(1-z))
    WhittakerHypergeometric: 25x(x-1) y'' + 20(2x-1) y' + 2 y = 0
    """
    key, want = _CATALOG.get(str(name).lower(), (None, 0))
    if key is None:
        raise ValueError(f"no equation named {name!r}")
    params = [complex(p) for p in params]
    if len(params) != want:
        raise ValueError(f"{key} takes {want} parameter(s), got {len(params)}")

    if key in ("Legendre", "Tchebychev"):
        lam = params[0]
        c, k = (2.0, lam * (lam + 1)) if key == "Legendre" else (1.0, lam * lam)
        p1 = _build_rational(Poly((0.0, c)), -1.0, [1.0, -1.0])
        p2 = _build_rational(Poly((k,)), -1.0, [1.0, -1.0])
        _refuse_overflow(p2.num)  # nothing cancels: 2z, z and a constant are not 0 at +-1
    elif key == "Heun":
        al, be, ga, de, ep, a, q = params
        if a == 0 or a == 1:
            raise ValueError(f"Heun pole a = {a} coincides with 0 or 1")
        # gamma (z-1)(z-a) + delta z(z-a) + epsilon z(z-1), lowest first
        low1 = (ga * a, -(ga * (1.0 + a) + de * a + ep))
        num2 = Poly((-q, al * be))
        # non-finite parameters are refused, as built in floats, before any decimal
        _refuse_overflow(Poly((*low1, ga + de + ep)), num2)
        # p2's residues at 0, 1, a: q, alpha beta - q, alpha beta a - q
        with localcontext(_EXACT):
            (alr, ali), (ber, bei), (gr, gi), (dr, di), (er, ei), (ar, ai), (qr, qi) = (
                (Decimal(repr(x.real)), Decimal(repr(x.imag))) for x in params)
            abr, abi = alr * ber - ali * bei, alr * bei + ali * ber
            at_1, at_a = (abr == qr and abi == qi,
                          abr * ar - abi * ai == qr and abr * ai + abi * ar == qi)
            num1 = _with_exact_top(low1, (gr + dr + er, gi + di + ei), 2.0)
        p1 = _build_rational(num1, 1.0, [0.0, 1.0, a], (ga == 0, de == 0, ep == 0))
        p2 = _build_rational(num2, 1.0, [0.0, 1.0, a], (q == 0, at_1, at_a))
    elif key == "Hypergeometric":
        a, b, c = params
        # z(1-z) = -1 * z(z-1); an overflow is reported with the float sum
        num2 = Poly((-a * b,))
        _refuse_overflow(Poly((c, -(1.0 + a + b))), num2)
        with localcontext(_EXACT):
            # 1 + a + b: c minus it is the residue at 1, and it is 2 at infinity
            (ar, ai), (br, bi), (cr, ci) = (
                (Decimal(repr(x.real)), Decimal(repr(x.imag))) for x in params)
            s = (1 + ar + br, ai + bi)
            num1 = _with_exact_top((c,), (-s[0], -s[1]), -2.0)
        p1 = _build_rational(num1, -1.0, [0.0, 1.0], (c == 0, (cr, ci) == s))
        p2 = _build_rational(num2, -1.0, [0.0, 1.0])
    else:  # WhittakerHypergeometric
        p1 = _build_rational(Poly((-20.0, 40.0)), 25.0, [0.0, 1.0])
        p2 = _build_rational(Poly((2.0,)), 25.0, [0.0, 1.0])

    return SecondOrderODE(p1, p2, params={"name": key})


def whittaker_equation(f: Poly) -> SecondOrderODE:
    """y'' + (3/16) [ (f'/f)^2 - ((2g+2)/(2g+1)) f''/f ] y = 0.

    f is taken as given; g is the genus of y^2 = f, which depends only on
    deg f, and f must have distinct roots.
    """
    _refuse_overflow(f)
    n = f.degree
    if n < 5:
        raise ValueError(f"deg f = {n} < 5")
    roots = f.roots()
    by_size = sorted(roots, key=abs, reverse=True)
    for i, r in enumerate(by_size):
        tol = DISTINCT_ROOT_TOL * abs(r)
        for other in by_size[i + 1:]:
            if abs(r - other) <= tol:
                raise ValueError(f"roots {r} and {other} coincide")
    g = CurveSpec(n, -1).genus
    ratio = Fraction(2 * g + 2, 2 * g + 1)
    df = [k * c for k, c in enumerate(f.coeffs) if k]
    # N = (3/16)(f'^2 - ratio f'' f) has degree 2n - 2 and top coefficient
    # (3/16) lead^2 for odd n; for even n its top two coefficients are 0
    sq, cross = _product(df, df), _product([k * c for k, c in enumerate(df) if k], f.coeffs)
    q = float(ratio)
    size = 2 * n - 1 if n % 2 else 2 * n - 3
    num = Poly([3.0 / 16.0 * (x + -1.0 * (q * y)) for x, y in zip(sq[:size], cross)])
    _refuse_overflow(num)
    # N(r) = (3/16) f'(r)^2 != 0 at each simple root r of f: nothing cancels
    lead = f.coeffs[-1]
    p2 = RationalFn(num, lead * lead, tuple(chain.from_iterable(zip(roots, roots))))
    return SecondOrderODE(ZERO_RATIONAL, p2,
                          params={"genus": g, "coefficient_ratio": ratio})


def curve_ode(c: CurveSpec, k1: complex = 0j, k2: complex = 0j) -> SecondOrderODE:
    """The catalog equation attached to y^2 = z^n - 1 for n in 5..8.

    In monic form: p1 = 2/(z - s) + k1 and p2 = k2, where s = -1 for
    degrees 5 and 7 and s = +1 for degrees 6 and 8.  (The printed equations
    carry the expanded curve polynomial as an overall factor, which cancels;
    expand_poly(integer_roots(n)) reproduces it.)
    """
    n = c.degree
    if not 5 <= n <= 8:
        raise ValueError(f"degree {n} not in 5..8")
    s = -1.0 if n % 2 else 1.0
    k1, k2 = complex(k1), complex(k2)
    # the residue at s is exactly 2, and k1 and k2 are exact: nothing cancels
    p1 = RationalFn(Poly((2.0 - k1 * s, k1)), 1.0, (complex(s),))
    p2 = RationalFn(Poly((k2,)), 1 + 0j, ())
    return SecondOrderODE(p1, p2, params={"k1": k1, "k2": k2, "s": s})


def _infinity_pole_orders(ode: SecondOrderODE) -> tuple:
    """Pole orders at w = 0 of P1 = 2/w - p1(1/w)/w^2 and P2 = p2(1/w)/w^4.

    p(1/w) ~ w^-e with e = deg num - #poles, so P2 has a pole of order e + 4
    and p1(1/w)/w^2 one of order e + 2, which dominates 2/w unless e = -1.
    There p1 ~ r/z with r = num lead / den_lead, P1 ~ (2 - r)/w, and the pole
    goes iff 2 den_lead - num lead is exactly 0 (_with_exact_top keeps it so).
    """
    p1, p2 = ode.p1, ode.p2
    o2 = 0 if p2.is_zero else max(0, p2.num.degree - len(p2.den_roots) + 4)
    e = p1.num.degree - len(p1.den_roots)
    if p1.is_zero or e != -1:
        return max(1, e + 2), o2  # the zero p1 leaves P1 = 2/w
    return (0 if 2 * p1.den_lead - p1.num.coeffs[-1] == 0 else 1), o2


def _kind(o1: int, o2: int) -> PointKind:
    if o1 == 0 and o2 == 0:
        return PointKind.ORDINARY
    if o1 <= 1 and o2 <= 2:
        return PointKind.REGULAR_SINGULAR
    return PointKind.IRREGULAR_SINGULAR


def singular_points(ode: SecondOrderODE) -> list:
    """Finite poles of p1 and p2 (deduplicated) plus infinity, classified.
    A new list each call; the classification is cached on the equation."""
    return list(ode._classified_points)


def is_fuchsian(ode: SecondOrderODE) -> bool:
    """True iff no singular point (including infinity) is irregular."""
    return all(pc.kind is not PointKind.IRREGULAR_SINGULAR
               for pc in ode._classified_points)
