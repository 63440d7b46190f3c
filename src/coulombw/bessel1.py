"""Bessel-type functions in the dimension-1 normalization, plus the
zero-energy solutions of the half-line Coulomb equation built from them.

The modified equation here is the beta = 0 Whittaker equation up to the
rescaling z -> z/2, so most evaluations delegate to the Whittaker
machinery; only the half-integer orders short-circuit to their elementary
closed forms (where the naive rescaling degenerates).
"""

from __future__ import annotations

import cmath
import math

from .branching import ComplexValue, as_cvalue, principal_ln, principal_pow, principal_sqrt, rotate_half_pi
from .core import EULER_GAMMA, Evaluation, Method, gamma
from .errors import DomainError
from .params import SNAP_TOL, WhittakerParams, dist_to_integer, nu_order
from .whittaker import (
    laguerre,
    whittaker_h,
    whittaker_i_ext,
    whittaker_j_ext,
    whittaker_k,
    whittaker_x,
)

SQRT_PI = math.sqrt(math.pi)


def _double(z) -> ComplexValue:
    zv = as_cvalue(z)
    return ComplexValue(2 * zv.re, 2 * zv.im, zv.branch)


def _is_neg_half_odd(m: complex):
    """m in -1/2 - N within snap; returns n >= 0 or None."""
    m = complex(m)
    if dist_to_integer(m + 0.5) <= SNAP_TOL:
        n = round((-m - 0.5).real)
        if n >= 0 and abs(m + 0.5 + n) <= SNAP_TOL:
            return n
    return None


def _elementary_i_neg(n: int, zv: ComplexValue) -> complex:
    z = complex(zv)
    pw = principal_pow(zv, -n) * 2.0 ** (-n)
    return 0.5 * math.factorial(n) * pw * (
        cmath.exp(-z) * laguerre(n, -1.0 - 2 * n, 2 * z)
        + cmath.exp(z) * laguerre(n, -1.0 - 2 * n, -2 * z)
    )


def bessel1_i(m, z) -> Evaluation:
    """Modified Bessel function for dimension 1 (power series weight sqrt(pi))."""
    zv = as_cvalue(z)
    if complex(zv) == 0:
        raise DomainError("z must be nonzero")
    m = complex(m)
    n = _is_neg_half_odd(m)
    if n is not None:
        val = _elementary_i_neg(n, zv)
        return Evaluation(val, 1e-15 * abs(val) * (1 + abs(complex(zv))), Method.CLOSED_FORM)
    inner = whittaker_i_ext(WhittakerParams(0.0, m), _double(zv))
    c = gamma(0.5 + m) / 2.0
    return Evaluation(c * inner.value, abs(c) * inner.err_est, inner.method)


def bessel1_k(m, z) -> Evaluation:
    """Exponentially decaying solution; elementary at half-integer order."""
    return whittaker_k(WhittakerParams(0.0, m), _double(as_cvalue(z)))


def bessel1_x(m, z) -> Evaluation:
    """Exploding companion; equals K at integer order (dependent pair)."""
    return whittaker_x(WhittakerParams(0.0, m), _double(as_cvalue(z)))


def bessel1_j(m, z) -> Evaluation:
    """Standard (trigonometric) Bessel function for dimension 1."""
    zv = as_cvalue(z)
    m = complex(m)
    n = _is_neg_half_odd(m)
    if n is not None:
        w = rotate_half_pi(zv, -1)
        val = cmath.exp(1j * cmath.pi / 2 * (m + 0.5)) * _elementary_i_neg(n, w)
        return Evaluation(val, 1e-15 * abs(val) * (1 + abs(complex(zv))), Method.CLOSED_FORM)
    inner = whittaker_j_ext(WhittakerParams(0.0, m), _double(zv))
    c = gamma(0.5 + m) / 2.0
    return Evaluation(c * inner.value, abs(c) * inner.err_est, inner.method)


def bessel1_h(m, sign: int, z) -> Evaluation:
    """Hankel-type solutions H^{+-} for dimension 1."""
    return whittaker_h(WhittakerParams(0.0, m), sign, _double(as_cvalue(z)))


def bessel1_y(m, z) -> Evaluation:
    """Y-type second solution, (H+ - H-) / 2i."""
    hp = bessel1_h(m, +1, z)
    hm = bessel1_h(m, -1, z)
    val = (hp.value - hm.value) / 2j
    return Evaluation(val, 0.5 * (hp.err_est + hm.err_est), hp.method)


_BESSEL_FUNCS = {
    "I": bessel1_i,
    "K": bessel1_k,
    "X": bessel1_x,
    "J": bessel1_j,
    "Y": bessel1_y,
}


class BesselSolution:
    """Value/derivative handle using the order-ladder recurrences.

    I climbs with +f_{m+1}, the others with -f_{m+1}; both carry the
    (m + 1/2)/z diagonal term.
    """

    def __init__(self, which: str, m, sign: int = +1):
        self.which = which
        self.m = complex(m)
        self.sign = sign  # only for H

    def _f(self, m, x):
        if self.which == "H":
            return bessel1_h(m, self.sign, x).value
        return _BESSEL_FUNCS[self.which](m, x).value

    def value(self, x) -> complex:
        return self._f(self.m, x)

    def deriv(self, x) -> complex:
        z = complex(as_cvalue(x))
        s = +1.0 if self.which == "I" else -1.0
        return s * self._f(self.m + 1, x) + (self.m + 0.5) / z * self._f(self.m, x)

    def deriv2(self, x) -> complex:
        z = complex(as_cvalue(x))
        s = +1.0 if self.which == "I" else -1.0
        f0 = self._f(self.m, x)
        f1 = self._f(self.m + 1, x)
        f2 = self._f(self.m + 2, x)
        d0 = s * f1 + (self.m + 0.5) / z * f0
        d1 = s * f2 + (self.m + 1.5) / z * f1
        return s * d1 + (self.m + 0.5) * (d0 / z - f0 / (z * z))


# ---------------------------------------------------------------------------
# zero-energy solutions of  (-d^2/dx^2 + (m^2-1/4)/x^2 - beta/x) f = 0

def zero_energy_j(beta, m, x: float) -> complex:
    """Regular zero-energy solution; x^{m+1/2} when beta = 0."""
    return ZeroEnergySolution("j", beta, m).value(x)


def zero_energy_y(beta, m, x: float) -> complex:
    """Logarithmic companion for m = 0 or m = 1/2 (m = -1/2 maps to 1/2)."""
    return ZeroEnergySolution("y", beta, m).value(x)


class ZeroEnergySolution:
    """Value/derivative handle for the zero-energy j and y solutions.

    Each solution is x^{1/4} V(w), w = 2 sqrt(beta x), for a Bessel-type V
    (or an elementary form when beta = 0); derivatives by the chain rule
    with w'(x) = 2 beta / w.  j is x^{1/4} Gamma(1+2m)/sqrt(pi)
    beta^{-1/4-m} J_{2m}(w).  y exists at the orders mm = 0 and mm = 1/2 of
    the nu-families (m = -1/2 maps to 1/2) and is one formula in mm:

        (-1)^{2mm} beta^{mm-1/4} x^{1/4} (sqrt(pi) Y_{2mm}(w)
                                          - (ln beta + 2 gamma - 2mm)/sqrt(pi) J_{2mm}(w)).
    """

    def __init__(self, kind: str, beta, m):
        if kind not in ("j", "y"):
            raise DomainError("kind must be 'j' or 'y'")
        m = complex(m)
        if kind == "y":
            m = nu_order(m)
            if m is None:
                raise DomainError("zero-energy y is defined for m in {0, 1/2} only")
        self.kind = kind
        self.beta = as_cvalue(beta)
        self.m = m

    def _parts(self):
        bv, m = self.beta, self.m
        if self.kind == "j":
            c = gamma(1 + 2 * m) / SQRT_PI * principal_pow(bv, -0.25 - m)
            return [(c, BesselSolution("J", 2 * m))]
        c = (-1.0) ** (2 * m) * principal_pow(bv, m - 0.25)
        lam = principal_ln(bv) + 2 * EULER_GAMMA - 2 * m
        return [(c * SQRT_PI, BesselSolution("Y", 2 * m)),
                (-c * lam / SQRT_PI, BesselSolution("J", 2 * m))]

    def _beta_zero(self, x, order):
        if self.kind == "j":
            e = self.m + 0.5
            return (1.0, e, e * (e - 1))[order] * cmath.exp((e - order) * math.log(x))
        if self.m:
            return (1.0, 0.0, 0.0)[order] + 0.0j
        ln = math.log(x)
        if order == 0:
            return math.sqrt(x) * ln + 0.0j
        if order == 1:
            return (0.5 * ln + 1.0) / math.sqrt(x) + 0.0j
        return (-0.25 * ln + 0.0) / x ** 1.5 + 0.0j

    def _w(self, x):
        """(x, w) with x checked and w = 2 sqrt(beta x); w is None at beta = 0."""
        x = float(x)
        if not x > 0:
            raise DomainError("x must be > 0")
        if complex(self.beta) == 0:
            return x, None
        return x, 2.0 * principal_sqrt(self.beta) * math.sqrt(x)

    def value(self, x) -> complex:
        x, w = self._w(x)
        if w is None:
            return self._beta_zero(x, 0)
        return sum(c * sol.value(w) for c, sol in self._parts()) * x ** 0.25

    def deriv(self, x) -> complex:
        x, w = self._w(x)
        if w is None:
            return self._beta_zero(x, 1)
        wp = 2.0 * complex(self.beta) / w
        tot = 0.0j
        for c, sol in self._parts():
            tot += c * (0.25 * x ** -0.75 * sol.value(w) + x ** 0.25 * sol.deriv(w) * wp)
        return tot

    def deriv2(self, x) -> complex:
        x, w = self._w(x)
        if w is None:
            return self._beta_zero(x, 2)
        b = complex(self.beta)
        wp = 2.0 * b / w
        wpp = -4.0 * b * b / w ** 3
        tot = 0.0j
        for c, sol in self._parts():
            v, d, dd = sol.value(w), sol.deriv(w), sol.deriv2(w)
            tot += c * (
                -0.1875 * x ** -1.75 * v
                + 0.5 * x ** -0.75 * d * wp
                + x ** 0.25 * (dd * wp * wp + d * wpp)
            )
        return tot
