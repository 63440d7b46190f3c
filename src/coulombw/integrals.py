"""Closed forms for the half-line integrals of products of solutions.

Each function returns the closed-form right-hand side, including the
printed limiting cases at m in {0, +-1/2} and on the diagonal; the
verification suites check them against quadrature.  The H^e integrals at
positive energy are the K integrals continued to k = -e i mu, since
H^e(2 mu x) = e^{-e i pi (1/2+m)/2} K(2kx; beta/2k) there.
"""

from __future__ import annotations

import cmath
import math

from .branching import as_cvalue, principal_ln, principal_pow
from .core import digamma, rgamma
from .errors import PreconditionError
from .params import SNAP_TOL
from .spectral import _sin_factor, zeta

_PI = math.pi


def _near(a, b, tol=SNAP_TOL) -> bool:
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(a)), abs(complex(b)))


def _k_cross(beta, m, k, p) -> complex:
    """k_cross on Re k, Re p >= 0 (the integral converges for Re k, Re p > 0
    and continues to the imaginary axis)."""
    dk = beta / (2 * k)
    dp = beta / (2 * p)
    if abs(m) <= SNAP_TOL:
        return (cmath.sqrt(4 * k * p)
                * (digamma(0.5 - dk) - digamma(0.5 - dp) + cmath.log(k) - cmath.log(p))
                * rgamma(0.5 - dp) * rgamma(0.5 - dk))
    if abs(abs(m.real) - 0.5) <= SNAP_TOL and abs(m.imag) <= SNAP_TOL:
        return (beta
                * (0.5 * digamma(1 - dk) + 0.5 * digamma(-dk)
                   - 0.5 * digamma(1 - dp) - 0.5 * digamma(-dp)
                   + cmath.log(k) - cmath.log(p))
                * rgamma(1 - dp) * rgamma(1 - dk))
    return (_PI / cmath.sin(2 * _PI * m) * cmath.sqrt(4 * k * p)
            * (principal_pow(k, m) * principal_pow(p, -m)
               * rgamma(0.5 + m - dp) * rgamma(0.5 - m - dk)
               - principal_pow(p, m) * principal_pow(k, -m)
               * rgamma(0.5 + m - dk) * rgamma(0.5 - m - dp)))


def _k_norm_sq(beta, m, k) -> complex:
    d = beta / (2 * k)
    return zeta(beta, m, k) * rgamma(0.5 + m - d) * rgamma(0.5 - m - d) / k


def k_cross(beta, m, k, p) -> complex:
    """(k^2 - p^2) * int_0^inf K(2kx; beta/2k) K(2px; beta/2p) dx."""
    beta, m, k, p = complex(beta), complex(m), complex(k), complex(p)
    if k.real <= 0 or p.real <= 0:
        raise PreconditionError("Re k, Re p must be > 0")
    return _k_cross(beta, m, k, p)


def k_norm_sq(beta, m, k) -> complex:
    """int_0^inf K(2kx; beta/2k)^2 dx, through the zeta normalization."""
    beta, m, k = complex(beta), complex(m), complex(k)
    if k.real <= 0:
        raise PreconditionError("Re k must be > 0")
    return _k_norm_sq(beta, m, k)


def h_cross(beta, m, mu, eta_, edge: int) -> complex:
    """(mu^2 - eta^2) * int H^e(2 mu x) H^e(2 eta x) dx on the strip."""
    beta, m = complex(beta), complex(m)
    mu, eta_ = float(mu), float(eta_)
    e = +1 if edge > 0 else -1
    if not (0 < mu < e * beta.imag and 0 < eta_ < e * beta.imag):
        raise PreconditionError("mu, eta must lie in (0, +-Im beta)")
    return e * 1j * cmath.exp(-e * 1j * _PI * m) * _k_cross(beta, m, -e * 1j * mu, -e * 1j * eta_)


def h_norm_sq(beta, m, mu, edge: int) -> complex:
    """int H^e(2 mu x)^2 dx through the analytically continued zeta."""
    beta, m = complex(beta), complex(m)
    mu = float(mu)
    e = +1 if edge > 0 else -1
    if not (0 < mu < e * beta.imag):
        raise PreconditionError("mu must lie in (0, +-Im beta)")
    return -e * 1j * cmath.exp(-e * 1j * _PI * m) * _k_norm_sq(beta, m, -e * 1j * mu)


def hankel_k_cross(beta, m, k, edge: int) -> complex:
    """int (beta x)^{1/4} H^e_{2m}(2 sqrt(beta x)) K(2kx; beta/2k) dx.

    The closed form is the boundary Wronskian of the two solutions divided
    by the eigenvalue gap k^2 (the Lagrange identity); quadrature confirms
    the 1/k^2 factor.
    """
    beta, m, k = complex(beta), complex(m), complex(k)
    e = +1 if edge > 0 else -1
    if k.real <= 0:
        raise PreconditionError("Re k must be > 0")
    d = beta / (2 * k)
    ld = principal_ln(as_cvalue(d))
    if abs(m) <= SNAP_TOL:
        return (-e * 1j / math.sqrt(_PI) * cmath.sqrt(2 * k * beta) * rgamma(0.5 - d)
                * (digamma(0.5 - d) - ld + e * 1j * _PI)) / (k * k)
    if abs(abs(m.real) - 0.5) <= SNAP_TOL and abs(m.imag) <= SNAP_TOL:
        # H_{-1} = -H_1 (DLMF 10.4.6), while K is even in m
        return ((1 if m.real > 0 else -1) * e * 1j / math.sqrt(_PI) * (2 * k) * rgamma(-d)
                * (0.5 * digamma(-d) + 0.5 * digamma(1 - d) - ld + e * 1j * _PI)) / (k * k)
    return (-e * 1j * cmath.sqrt(2 * _PI * k * beta) / cmath.sin(2 * _PI * m)
            * (cmath.exp(-m * ld) * rgamma(0.5 - m - d)
               - cmath.exp(-e * 2j * _PI * m) * cmath.exp(m * ld) * rgamma(0.5 + m - d))) / (k * k)


def hankel_norm_sq(beta, m, edge: int) -> complex:
    """int ((beta x)^{1/4} H^e_{2m}(2 sqrt(beta x)))^2 dx."""
    beta, m = complex(beta), complex(m)
    e = +1 if edge > 0 else -1
    return cmath.exp(-e * 2j * _PI * m) / (3 * beta * _sin_factor(m))


def bessel_kk(a, b, m) -> complex:
    """int_0^inf K_m(a x) K_m(b x) dx with all printed limiting cases."""
    a, b, m = complex(a), complex(b), complex(m)
    if (a + b).real <= 0:
        raise PreconditionError("Re(a + b) must be > 0")
    m_zero = abs(m) <= SNAP_TOL
    diag = _near(a, b)
    if m_zero and diag:
        return 1.0 / (_PI * a)
    if m_zero:
        return (2 / _PI * (cmath.log(a) - cmath.log(b)) * cmath.sqrt(a) * cmath.sqrt(b)
                / (a * a - b * b))
    if diag:
        return m / (cmath.sin(_PI * m) * a)
    return ((principal_pow(a, 2 * m) - principal_pow(b, 2 * m))
            * principal_pow(a, 0.5 - m) * principal_pow(b, 0.5 - m)
            / (cmath.sin(_PI * m) * (a * a - b * b)))


def bessel_x2kk(a, b, m) -> complex:
    """int_0^inf x^2 K_m(a x) K_m(b x) dx with the limiting cases."""
    a, b, m = complex(a), complex(b), complex(m)
    if (a + b).real <= 0:
        raise PreconditionError("Re(a + b) must be > 0")
    m_zero = abs(m) <= SNAP_TOL
    diag = _near(a, b)
    if m_zero and diag:
        return 2.0 / (3 * _PI * a ** 3)
    if diag:
        return 2 * m * (1 - m * m) / (3 * a ** 3 * cmath.sin(_PI * m))
    sab = cmath.sqrt(a) * cmath.sqrt(b)
    if m_zero:
        return (-8 * sab / (_PI * (b * b - a * a) ** 2)
                + 8 * sab * (a * a + b * b) * (cmath.log(b) - cmath.log(a))
                / (_PI * (b * b - a * a) ** 3))
    am = principal_pow(a, 2 * m)
    bm = principal_pow(b, 2 * m)
    return (4 * principal_pow(a, 0.5 - m) * principal_pow(b, 0.5 - m)
            * ((m - 1) * (am * a * a - bm * b * b)
               + (m + 1) * a * a * b * b * (bm / (b * b) - am / (a * a)))
            / (cmath.sin(_PI * m) * (b * b - a * a) ** 3))
