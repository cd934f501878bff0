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
goes only when its residue, exact in the parameters' decimal reprs, is 0.
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

# distinctness check on user polynomials: a genuine double root re-found
# numerically splits by about sqrt(machine eps * coefficient scale), up to
# ~1e-7, so the repeated-root detector must sit well above that
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


def _pin_top(num: Poly, size: int, target: complex, holds: bool) -> Poly:
    """num as size coefficients whose top one, den_lead times p1's residue at
    infinity, is exactly target iff that exact identity holds (a float that
    rounded onto target moves one step up)."""
    *low, top = num.coeffs + (0j,) * (size - len(num.coeffs))
    if holds == (top == target):
        return num
    return Poly((*low, target if holds else complex(math.nextafter(top.real, math.inf), top.imag)))


ZERO_RATIONAL = RationalFn(Poly.zero(), 1.0, ())


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
        named = {"lambda": lam}
    elif key == "Heun":
        al, be, ga, de, ep, a, q = params
        if a == 0 or a == 1:
            raise ValueError(f"Heun pole a = {a} coincides with 0 or 1")
        num1 = (expand_poly([1.0, a]).scaled(ga)
                + expand_poly([0.0, a]).scaled(de)
                + expand_poly([0.0, 1.0]).scaled(ep))
        num2 = Poly((-q, al * be))
        _refuse_overflow(num1, num2)
        # p2's residues at 0, 1, a: q, alpha beta - q, alpha beta a - q
        with localcontext(_EXACT):
            (alr, ali), (ber, bei), (gr, gi), (dr, di), (er, ei), (ar, ai), (qr, qi) = (
                (Decimal(repr(x.real)), Decimal(repr(x.imag))) for x in params)
            abr, abi = alr * ber - ali * bei, alr * bei + ali * ber
            at_1, at_a = (abr == qr and abi == qi,
                          abr * ar - abi * ai == qr and abr * ai + abi * ar == qi)
            at_inf = gr + dr + er == 2 and gi + di + ei == 0
        p1 = _build_rational(_pin_top(num1, 3, 2.0, at_inf), 1.0, [0.0, 1.0, a],
                             (ga == 0, de == 0, ep == 0))
        p2 = _build_rational(num2, 1.0, [0.0, 1.0, a], (q == 0, at_1, at_a))
        named = {"alpha": al, "beta": be, "gamma": ga, "delta": de,
                 "epsilon": ep, "a": a, "q": q}
    elif key == "Hypergeometric":
        a, b, c = params
        # z(1-z) = -1 * z(z-1)
        num1, num2 = Poly((c, -(1.0 + a + b))), Poly((-a * b,))
        _refuse_overflow(num1, num2)  # an overflow is reported with the float sum
        try:  # 1 + a + b correctly rounded, part by part (1 is 1.0 + 0.0j)
            num1 = Poly((c, -complex(math.fsum((1.0, a.real, b.real)),
                                     math.fsum((0.0, a.imag, b.imag)))))
        except OverflowError:  # fsum's partial sums overflowed: keep the float sum
            pass
        with localcontext(_EXACT):
            # residues c - 1 - a - b at 1 and 1 + a + b at infinity, real parts first
            ab = Decimal(repr(a.real)) + Decimal(repr(b.real))
            at_1, at_inf = Decimal(repr(c.real)) == 1 + ab, ab == 1
            if at_1 or at_inf:
                ab = Decimal(repr(a.imag)) + Decimal(repr(b.imag))
                at_1, at_inf = at_1 and Decimal(repr(c.imag)) == ab, at_inf and ab == 0
        p1 = _build_rational(_pin_top(num1, 2, -2.0, at_inf), -1.0, [0.0, 1.0], (c == 0, at_1))
        p2 = _build_rational(num2, -1.0, [0.0, 1.0])
        named = {"a": a, "b": b, "c": c}
    else:  # WhittakerHypergeometric
        p1 = _build_rational(Poly((-20.0, 40.0)), 25.0, [0.0, 1.0])
        p2 = _build_rational(Poly((2.0,)), 25.0, [0.0, 1.0])
        named = {}

    return SecondOrderODE(p1, p2, params={"name": key, **named})


def whittaker_equation(f: Poly) -> SecondOrderODE:
    """y'' + (3/16) [ (f'/f)^2 - ((2g+2)/(2g+1)) f''/f ] y = 0.

    f is taken as given; g is inferred from deg f (ceil(deg/2) - 1), and f
    must have distinct roots.
    """
    _refuse_overflow(f)
    n = f.degree
    if n < 5:
        raise ValueError(f"deg f = {n} < 5")
    roots = f.roots()
    for i, r in enumerate(roots):
        tol = DISTINCT_ROOT_TOL * (1.0 + abs(r))
        for other in roots[i + 1:]:
            if abs(r - other) <= tol:
                raise ValueError(f"roots {r} and {other} coincide")
    g = math.ceil(n / 2) - 1
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
    goes iff 2 den_lead - num lead is exactly 0 (named_equation pins it).
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
