"""Second-order ODEs y'' + p1 y' + p2 y = 0 with rational coefficients.

Construction from singularity data, a catalog of classical named equations,
the Whittaker normal-form equation built from a polynomial f, and
regular-singular-point classification on the extended plane.

A rational function keeps its numerator expanded and its denominator factored
(leading coefficient plus root list), so a pole order is the number of
denominator roots equal to the point.  Every pole is known exactly, and two
poles are one point only when they are equal; the only root finding is of the
Whittaker polynomial f; no coefficient is cut.  A catalog pole (finite or at
infinity) goes only when its residue, exact in the parameters' decimal reprs,
is 0, and each coefficient is written over the poles that stay, so nothing is
divided out afterwards.  p1's top coefficient is that exact sum rounded once,
moved one float step off 2 den_lead only when it rounds onto 2 den_lead
without being equal to it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter

from .curves import CurveSpec, Poly, _product, expand_poly
from .moebius import INFINITY

# distinctness check on user polynomials, relative to the larger root of each
# pair: a genuine double root re-found numerically splits by up to ~1e-7 of its
# size, so the repeated-root detector must sit well above that
DISTINCT_ROOT_TOL = 1e-6
# decimals in which sums and products of float reprs never round; localcontext
# copies it, so no flag carries over from one call to the next
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True, slots=True)
class RationalFn:
    """num/den; this module writes num over the poles that stay, so the two
    share no root.

    num is the expanded numerator; den_lead * prod(z - r) over den_roots is
    the denominator, stored factored so that a double pole is two equal
    roots.  den expands it, every coefficient as built, for display; an
    expansion with a non-finite real or imaginary part is refused there.
    """

    num: Poly
    den_lead: complex
    den_roots: tuple

    @property
    def den(self) -> Poly:
        den = expand_poly(self.den_roots).scaled(self.den_lead)
        if not all(map(cmath.isfinite, den.coeffs)):
            raise ValueError(f"coefficient overflow: {list(den.coeffs)}")
        return den

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


def _build_rational(num: Poly, den_lead: complex, den_roots) -> RationalFn:
    """num / (den_lead * prod(z - s)) over the poles s in den_roots, which the
    caller wrote num over; an overflowed num is refused, a zero num is ZERO_RATIONAL."""
    _refuse_overflow(num)
    if num.is_zero:
        return ZERO_RATIONAL
    return RationalFn(num, complex(den_lead), (*map(complex, den_roots),))


def _with_exact_top(low: tuple, top: tuple, den_lead: float, poles) -> RationalFn:
    """(low + top z^len(low)) / (den_lead * prod(z - s)), the exact (real,
    imaginary) decimals top rounded once; one float step up if it is not
    2 den_lead but rounds onto it."""
    re, im, target = *map(float, top), 2 * den_lead
    if re == target and im == 0 and top != (target, 0):
        re = math.nextafter(re, math.inf)
    return _build_rational(Poly((*low, complex(re, im))), den_lead, poles)


ZERO_RATIONAL = RationalFn(Poly((0.0,)), 1.0, ())


class PointKind(Enum):
    ORDINARY = "Ordinary"
    REGULAR_SINGULAR = "RegularSingular"
    IRREGULAR_SINGULAR = "IrregularSingular"

    def __str__(self):
        return self.value


@dataclass(frozen=True, slots=True)
class PointClass:
    location: object  # complex or INFINITY
    kind: PointKind


@dataclass(frozen=True)
class SecondOrderODE:
    """y'' + p1 y' + p2 y = 0; name is the catalog's spelling, None off the catalog."""

    p1: RationalFn
    p2: RationalFn
    name: str | None = None

    @cached_property
    def _classified_points(self) -> tuple:
        """Finite poles of p1 and p2 sorted by exact (re, im), equal ones (-0.0 == 0.0)
        merged into the first seen, plus infinity; classified once and kept."""
        p1, p2, d1, d2 = self.p1, self.p2, self.p1.num.degree, self.p2.num.degree
        r1, r2 = (p1.den_roots if d1 >= 0 else ()), (p2.den_roots if d2 >= 0 else ())
        finite = sorted(dict.fromkeys(r1 + r2), key=attrgetter("real", "imag"))
        kinds = map(_kind, map(r1.count, finite), map(r2.count, finite))
        return (*map(PointClass, finite, kinds),
                PointClass(INFINITY, _kind(*_infinity_pole_orders(p1, p2, d1, d2))))


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
        # nothing cancels: 2z, z and a constant are not 0 at +-1
        p1 = _build_rational(Poly((0.0, c)), -1.0, [1.0, -1.0])
        p2 = _build_rational(Poly((k,)), -1.0, [1.0, -1.0])
    elif key == "Heun":
        al, be, ga, de, ep, a, q = params
        if a == 0 or a == 1:
            raise ValueError(f"Heun pole a = {a} coincides with 0 or 1")
        poles, ab = (0.0, 1.0, a), al * be
        # p1 = gamma/z + delta/(z-1) + epsilon/(z-a) over the poles whose residue
        # is not 0: its numerator below the exact top, lowest first
        kept1 = [(s, r) for s, r in zip(poles, (ga, de, ep)) if r != 0]
        if len(kept1) == 2:  # r0 (z - s1) + r1 (z - s0)
            (s0, r0), (s1, r1) = kept1
            low1 = (-(r0 * s1 + r1 * s0),)
        else:  # gamma (z-1)(z-a) + delta z(z-a) + epsilon z(z-1), or a lone top
            low1 = (ga * a, -(ga * (1.0 + a) + de * a + ep)) if len(kept1) == 3 else ()
        # non-finite parameters are refused, as built in floats, before any decimal
        _refuse_overflow(Poly((*low1, ga + de + ep)), Poly((ab,)))
        if not cmath.isfinite(a):  # p1 may keep no term in a; p2's residue at a reads it
            raise ValueError(f"Heun pole a = {a} is not finite")
        with localcontext(_EXACT):
            (alr, ali), (ber, bei), (gr, gi), (dr, di), (er, ei), (ar, ai), (qr, qi) = (
                (Decimal(repr(x.real)), Decimal(repr(x.imag))) for x in params)
            abr, abi = alr * ber - ali * bei, alr * bei + ali * ber
            if ab == 0 and (abr or abi):  # so p2 = 0 exactly when alpha beta = q = 0
                raise ValueError(f"coefficient underflow: alpha beta = {al} * {be} is not 0")
            # p2's residues at 0, 1, a: q, alpha beta - q, alpha beta a - q
            gone2 = (q == 0, abr == qr and abi == qi,
                     abr * ar - abi * ai == qr and abr * ai + abi * ar == qi)
            p1 = _with_exact_top(low1, (gr + dr + er, gi + di + ei), 1.0, [s for s, _ in kept1])
        # one pole of p2 goes at most, unless p2 = 0, and leaves alpha beta
        p2 = _build_rational(Poly((ab,) if any(gone2) else (-q, ab)), 1.0,
                             [s for s, gone in zip(poles, gone2) if not gone])
    elif key == "Hypergeometric":
        a, b, c = params
        # z(1-z) = -1 * z(z-1); an overflow is reported with the float sum
        _refuse_overflow(Poly((c, -(1.0 + a + b))))
        p2 = _build_rational(Poly((-a * b,)), -1.0, [0.0, 1.0])
        with localcontext(_EXACT):
            # 1 + a + b: c minus it is the residue at 1, and it is 2 at infinity
            (ar, ai), (br, bi), (cr, ci) = (
                (Decimal(repr(x.real)), Decimal(repr(x.imag))) for x in params)
            s = (1 + ar + br, ai + bi)
            if p2.is_zero and (ar * br - ai * bi or ar * bi + ai * br):  # p2 = 0 iff a b = 0
                raise ValueError(f"coefficient underflow: a b = {a} * {b} is not 0")
            # a pole that goes leaves c - (1 + a + b) z its top alone
            keep1 = (c != 0, (cr, ci) != s)
            p1 = _with_exact_top((c,) if all(keep1) else (), (-s[0], -s[1]), -1.0,
                                 [p for p, kept in zip((0.0, 1.0), keep1) if kept])
    else:  # WhittakerHypergeometric
        p1 = _build_rational(Poly((-20.0, 40.0)), 25.0, [0.0, 1.0])
        p2 = _build_rational(Poly((2.0,)), 25.0, [0.0, 1.0])

    return SecondOrderODE(p1, p2, key)


def whittaker_equation(f: Poly) -> SecondOrderODE:
    """y'' + (3/16) [ (f'/f)^2 - ((2g+2)/(2g+1)) f''/f ] y = 0.

    f is taken as given; g is the genus of y^2 = f, which depends only on
    deg f, and f must have distinct roots.  Its accessory parameters are
    Whittaker's: it uniformizes y^2 = z^n - 1, and for other f, such as the
    integer-root stand-ins, it is Fuchsian with the right local exponents
    but not the uniformizing equation.
    """
    _refuse_overflow(f)
    n, lead = f.degree, f.coeffs[-1]
    if n < 5:
        raise ValueError(f"deg f = {n} < 5")
    if lead * lead == 0:
        raise ValueError(f"leading coefficient {lead} squares to 0")
    roots = f.roots()
    by_size = sorted(roots, key=abs, reverse=True)
    for i, r in enumerate(by_size):
        tol = DISTINCT_ROOT_TOL * abs(r)
        for other in by_size[i + 1:]:
            if abs(r - other) <= tol:
                raise ValueError(f"roots {r} and {other} coincide")
    q = (n + 1) / n if n % 2 else n / (n - 1)  # (2g + 2)/(2g + 1)
    df = [k * c for k, c in enumerate(f.coeffs) if k]
    # N = (3/16)(f'^2 - q f'' f) has degree 2n - 2 and top coefficient
    # (3/16) lead^2 for odd n; for even n its top two coefficients are 0
    sq, cross = _product(df, df), _product([k * c for k, c in enumerate(df) if k], f.coeffs)
    size = 2 * n - 1 if n % 2 else 2 * n - 3
    num = Poly([3.0 / 16.0 * (x + -1.0 * (q * y)) for x, y in zip(sq[:size], cross)])
    # N(r) = (3/16) f'(r)^2 != 0 at each simple root r of f: nothing cancels
    p2 = _build_rational(num, lead * lead, chain.from_iterable(zip(roots, roots)))
    return SecondOrderODE(ZERO_RATIONAL, p2)


def curve_ode(c: CurveSpec, k1: complex = 0j, k2: complex = 0j) -> SecondOrderODE:
    """The catalog equation attached to y^2 = z^n - 1 for n in 5..8.

    In monic form: p1 = 2/(z - s) + k1 and p2 = k2, where s = -1 for
    degrees 5 and 7 and s = +1 for degrees 6 and 8.  (The printed equations
    carry the expanded curve polynomial as an overall factor, which cancels;
    expand_poly(integer_roots(n)) reproduces it.)
    """
    n = c.degree
    if c.sign != -1:  # the catalog has no equation for z^n + 1
        raise ValueError(f"sign {c.sign:+d}: the catalog covers y^2 = z^n - 1 only")
    s = -1.0 if n % 2 else 1.0
    k1, k2 = complex(k1), complex(k2)
    if not (cmath.isfinite(k1) and cmath.isfinite(k2)):  # each part, not the modulus
        raise ValueError(f"k1 = {k1} and k2 = {k2} must be finite")
    # the residue at s is exactly 2, and k1 and k2 are exact: nothing cancels
    p1 = RationalFn(Poly((2.0 - k1 * s, k1)), 1.0, (complex(s),))
    p2 = RationalFn(Poly((k2,)), 1 + 0j, ())
    return SecondOrderODE(p1, p2)


def _infinity_pole_orders(p1: RationalFn, p2: RationalFn, d1: int, d2: int) -> tuple:
    """Pole orders at w = 0 of P1 = 2/w - p1(1/w)/w^2 and P2 = p2(1/w)/w^4.

    p(1/w) ~ w^-e with e = deg num (d1, d2) - #poles, so P2 has a pole of order e + 4
    and p1(1/w)/w^2 one of order e + 2, which dominates 2/w unless e = -1.
    There p1 ~ r/z with r = num lead / den_lead, P1 ~ (2 - r)/w, and the pole
    goes iff 2 den_lead - num lead is exactly 0 (_with_exact_top keeps it so).
    """
    o2 = 0 if d2 < 0 else max(0, d2 - len(p2.den_roots) + 4)
    e = d1 - len(p1.den_roots)
    if d1 < 0 or e != -1:
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
