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
from .errors import BranchError, DomainError
from .params import SNAP_TOL, WhittakerParams, dist_to_integer
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

def _sqrt_beta(beta) -> complex:
    bv = as_cvalue(beta)
    if bv.on_cut and bv.branch.value == "principal":
        raise BranchError("beta on (-inf,0) requires an edge tag for sqrt(beta)")
    return principal_sqrt(bv)


def zero_energy_j(beta, m, x: float) -> complex:
    """Regular zero-energy solution; x^{m+1/2} when beta = 0."""
    m = complex(m)
    xv = float(x)
    if xv <= 0:
        raise DomainError("x must be > 0")
    bv = as_cvalue(beta)
    bc = complex(bv)
    if bc == 0:
        return xv ** 0.0 * cmath.exp((m + 0.5) * math.log(xv))
    w = 2.0 * _sqrt_beta(bv) * math.sqrt(xv)
    c = gamma(1 + 2 * m) / SQRT_PI * principal_pow(bv, -0.25 - m)
    return c * xv ** 0.25 * bessel1_j(2 * m, w).value


def zero_energy_y(beta, m, x: float) -> complex:
    """Logarithmic companion for m = 0 or m = 1/2 (m = -1/2 maps to 1/2)."""
    m = complex(m)
    xv = float(x)
    if xv <= 0:
        raise DomainError("x must be > 0")
    if abs(m) > SNAP_TOL and abs(abs(m) - 0.5) > SNAP_TOL:
        raise DomainError("zero-energy y is defined for m in {0, 1/2} only")
    half = abs(abs(m) - 0.5) <= SNAP_TOL
    bv = as_cvalue(beta)
    bc = complex(bv)
    if bc == 0:
        return complex(1.0) if half else math.sqrt(xv) * math.log(xv)
    lnb = principal_ln(bv)
    w = 2.0 * _sqrt_beta(bv) * math.sqrt(xv)
    if half:
        c = principal_pow(bv, 0.25) * xv ** 0.25
        return c * (-SQRT_PI * bessel1_y(1.0, w).value
                    + (lnb + 2 * EULER_GAMMA - 1) / SQRT_PI * bessel1_j(1.0, w).value)
    c = principal_pow(bv, -0.25) * xv ** 0.25
    return c * (SQRT_PI * bessel1_y(0.0, w).value
                - (lnb + 2 * EULER_GAMMA) / SQRT_PI * bessel1_j(0.0, w).value)


class ZeroEnergySolution:
    """Value/derivative handle for the zero-energy j and y solutions."""

    def __init__(self, kind: str, beta, m):
        if kind not in ("j", "y"):
            raise DomainError("kind must be 'j' or 'y'")
        self.kind = kind
        self.beta = as_cvalue(beta)
        self.m = complex(m)

    # each solution is x^{1/4} V(2 sqrt(beta x)) for a Bessel-type V (or an
    # elementary form when beta = 0); derivatives by the chain rule with
    # w'(x) = 2 beta / w.

    def _parts(self):
        bv = self.beta
        if self.kind == "j":
            c = gamma(1 + 2 * self.m) / SQRT_PI * principal_pow(bv, -0.25 - self.m)
            return [(c, BesselSolution("J", 2 * self.m))]
        half = abs(abs(self.m) - 0.5) <= SNAP_TOL
        lnb = principal_ln(bv)
        if half:
            c = principal_pow(bv, 0.25)
            return [
                (-c * SQRT_PI, BesselSolution("Y", 1.0)),
                (c * (lnb + 2 * EULER_GAMMA - 1) / SQRT_PI, BesselSolution("J", 1.0)),
            ]
        c = principal_pow(bv, -0.25)
        return [
            (c * SQRT_PI, BesselSolution("Y", 0.0)),
            (-c * (lnb + 2 * EULER_GAMMA) / SQRT_PI, BesselSolution("J", 0.0)),
        ]

    def _beta_zero(self, x, order):
        half = abs(abs(self.m) - 0.5) <= SNAP_TOL
        if self.kind == "j":
            e = self.m + 0.5
            if order == 0:
                return cmath.exp(e * math.log(x))
            if order == 1:
                return e * cmath.exp((e - 1) * math.log(x))
            return e * (e - 1) * cmath.exp((e - 2) * math.log(x))
        if half:
            return (1.0, 0.0, 0.0)[order] + 0.0j
        ln = math.log(x)
        if order == 0:
            return math.sqrt(x) * ln + 0.0j
        if order == 1:
            return (0.5 * ln + 1.0) / math.sqrt(x) + 0.0j
        return (-0.25 * ln + 0.0) / x ** 1.5 + 0.0j

    def value(self, x) -> complex:
        x = float(x)
        if complex(self.beta) == 0:
            return self._beta_zero(x, 0)
        w = 2.0 * _sqrt_beta(self.beta) * math.sqrt(x)
        return sum(c * sol.value(w) for c, sol in self._parts()) * x ** 0.25

    def deriv(self, x) -> complex:
        x = float(x)
        if complex(self.beta) == 0:
            return self._beta_zero(x, 1)
        b = complex(self.beta)
        w = 2.0 * _sqrt_beta(self.beta) * math.sqrt(x)
        wp = 2.0 * b / w
        tot = 0.0j
        for c, sol in self._parts():
            tot += c * (0.25 * x ** -0.75 * sol.value(w) + x ** 0.25 * sol.deriv(w) * wp)
        return tot

    def deriv2(self, x) -> complex:
        x = float(x)
        if complex(self.beta) == 0:
            return self._beta_zero(x, 2)
        b = complex(self.beta)
        w = 2.0 * _sqrt_beta(self.beta) * math.sqrt(x)
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
