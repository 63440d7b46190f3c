"""Closed forms for the half-line integrals of products of solutions.

All but `hankel_norm_sq` and `bessel_x2kk` are one identity: by the
Lagrange identity (k^2 - p^2) int_0^inf K_k K_p dx, K_k = K(2kx; beta/2k),
is the Wronskian of the two solutions at 0.  With
u_s(k) = (2k)^{1/2-s} rgamma(1/2+s-beta/2k) and m generic,

    (k^2 - p^2) int K_k K_p dx = pi/sin(2 pi m) [u_{-m}(k) u_m(p) - u_{-m}(p) u_m(k)];

at m = mm in {0, +-1/2} its limit is (-1)^{2mm} (4kp)^{1/2-mm}
rgamma(1/2+mm-d_k) rgamma(1/2+mm-d_p) (nu(k) - nu(p)).  `h_cross` is the
identity at k = -e i mu, `hankel_k_cross` its p -> 0 limit on edge e,
`bessel_kk` its beta = 0 case, and the norms its diagonal (`spectral._cross`,
`spectral._norm`).
"""

from __future__ import annotations

import cmath

from .errors import PreconditionError
from .params import nu_order
from .spectral import _cancel_safe, _cross, _hankel_norm, _k_of_mu, _norm


def _edge(edge: int) -> int:
    return +1 if edge > 0 else -1


def _h_phase(m, e) -> complex:
    """int H^e_mu H^e_eta dx / int K_k K_p dx at k = -e i mu, p = -e i eta,
    where H^e(2 mu x) = e^{-e i pi (1/2+m)/2} K(2kx)."""
    return -e * 1j * cmath.exp(-e * 1j * cmath.pi * m)


def k_cross(beta, m, k, p) -> complex:
    """(k^2 - p^2) * int_0^inf K(2kx; beta/2k) K(2px; beta/2p) dx."""
    beta, m, k, p = complex(beta), complex(m), complex(k), complex(p)
    if k.real <= 0 or p.real <= 0:
        raise PreconditionError("Re k, Re p must be > 0")
    return _cross(beta, m, k, p)


def k_norm_sq(beta, m, k) -> complex:
    """int_0^inf K(2kx; beta/2k)^2 dx, the diagonal of the identity."""
    beta, m, k = complex(beta), complex(m), complex(k)
    if k.real <= 0:
        raise PreconditionError("Re k must be > 0")
    return _norm(beta, m, k)


def h_cross(beta, m, mu, eta_, edge: int) -> complex:
    """(mu^2 - eta^2) * int H^e(2 mu x) H^e(2 eta x) dx on the strip."""
    beta, m, e = complex(beta), complex(m), _edge(edge)
    k, p = _k_of_mu(beta, float(mu), e), _k_of_mu(beta, float(eta_), e)
    return -_h_phase(m, e) * _cross(beta, m, k, p)   # mu^2 - eta^2 = -(k^2 - p^2)


def h_norm_sq(beta, m, mu, edge: int) -> complex:
    """int H^e(2 mu x)^2 dx, the diagonal continued to k = -e i mu."""
    beta, m, e = complex(beta), complex(m), _edge(edge)
    return _h_phase(m, e) * _norm(beta, m, _k_of_mu(beta, float(mu), e))


def hankel_k_cross(beta, m, k, edge: int) -> complex:
    """int (beta x)^{1/4} H^e_{2m}(2 sqrt(beta x)) K(2kx; beta/2k) dx.

    The identity's p -> 0 case: the boundary Wronskian of the two solutions
    divided by the eigenvalue gap k^2 (the Lagrange identity).
    """
    beta, m, k = complex(beta), complex(m), complex(k)
    if k.real <= 0:
        raise PreconditionError("Re k must be > 0")
    return _cross(beta, m, k, 0.0, _edge(edge)) / (k * k)


def hankel_norm_sq(beta, m, edge: int) -> complex:
    """int ((beta x)^{1/4} H^e_{2m}(2 sqrt(beta x)))^2 dx."""
    return _hankel_norm(complex(beta), complex(m), _edge(edge))


def bessel_kk(a, b, m) -> complex:
    """int_0^inf K_m(a x) K_m(b x) dx: the identity at beta = 0."""
    a, b, m = complex(a), complex(b), complex(m)
    if (a + b).real <= 0:
        raise PreconditionError("Re(a + b) must be > 0")
    if a == b:
        return _norm(0.0, m, a)
    return _cross(0.0, m, a, b) / ((a - b) * (a + b))


def bessel_x2kk(a, b, m) -> complex:
    """int_0^inf x^2 K_m(a x) K_m(b x) dx with the limiting cases."""
    a, b, m = complex(a), complex(b), complex(m)
    if (a + b).real <= 0:
        raise PreconditionError("Re(a + b) must be > 0")
    m_zero = nu_order(m) == 0
    if a == b:
        return (1 - m * m) * (2 / cmath.pi if m_zero else 2 * m / cmath.sin(cmath.pi * m)) / (3 * a ** 3)

    def terms(be):
        ac, bc, m_ = be.c(a), be.c(b), be.c(m)
        a2, b2, gap3 = ac * ac, bc * bc, ((bc - ac) * (bc + ac)) ** 3
        la, lb = be.log(ac), be.log(bc)
        if m_zero:
            return ((a2 + b2) * lb, -(a2 + b2) * la, a2, -b2), \
                lambda s: 8 * be.exp((la + lb) / 2) * s / (be.pi * gap3)
        am, bm = be.exp(2 * m_ * la), be.exp(2 * m_ * lb)
        return (((m_ - 1) * am * a2, -(m_ - 1) * bm * b2, (m_ + 1) * a2 * bm, -(m_ + 1) * am * b2),
                lambda s: 4 * be.exp((0.5 - m_) * (la + lb)) * s / (be.sin(be.pi * m_) * gap3))
    return _cancel_safe(terms)
