import cmath
import math
import random

import mpmath as mp
import pytest

from coulombw.integrals import (bessel_kk, bessel_x2kk, h_cross, h_norm_sq,
                                hankel_k_cross, hankel_norm_sq, k_cross,
                                k_norm_sq)
from coulombw.params import WhittakerParams as P
from coulombw.quadrature import quad_halfline, quad_ray
from coulombw.whittaker import whittaker_h, whittaker_k
from coulombw.bessel1 import bessel1_h, bessel1_k
from coulombw.spectral import Regime, SpectralPoint, projection_kernel


def test_spot_values():
    assert abs(bessel_kk(1.0, 1.0, 0.0) - 1 / math.pi) <= 1e-14
    assert abs(bessel_x2kk(2.0, 2.0, 0.0) - 2 / (3 * math.pi * 8)) <= 1e-15
    assert abs(k_norm_sq(0.0, 0.0, 1.0) - 1 / math.pi) <= 1e-14
    m = 0.27
    a = 1.3
    assert abs(bessel_x2kk(a, a, m) - 2 * m * (1 - m * m) / (3 * a ** 3 * math.sin(math.pi * m))) <= 1e-14
    assert abs(bessel_kk(a, a, m) - m / (math.sin(math.pi * m) * a)) <= 1e-14


def test_k_cross_quadrature():
    b, m, k, p = 0.8 + 0.3j, 0.27, 0.9, 1.4 + 0.2j
    dk, dp = b / (2 * k), b / (2 * p)
    f = lambda x: (whittaker_k(P(dk, m), 2 * k * x).value
                   * whittaker_k(P(dp, m), 2 * p * x).value)
    quad = quad_halfline(f, tol=3e-9).value * (k * k - p * p)
    assert abs(quad - k_cross(b, m, k, p)) <= 1e-7 * abs(k_cross(b, m, k, p))


def test_k_norm_quadrature_all_m():
    b, k = 0.6, 0.8
    for m in (0.31, 0.0, 0.5):
        d = b / (2 * k)
        f = lambda x: whittaker_k(P(d, m), 2 * k * x).value ** 2
        quad = quad_halfline(f, tol=3e-9).value
        assert abs(quad - k_norm_sq(b, m, k)) <= 1e-7 * abs(k_norm_sq(b, m, k))


def test_h_norm_quadrature():
    b, m, mu, e = 0.3 + 2.0j, 0.27, 0.7, +1
    pm = P(b / (2 * mu), m)
    f = lambda z: whittaker_h(pm, e, 2 * mu * z).value ** 2
    quad = quad_ray(f, angle=math.pi / 4, tol=3e-7).value
    assert abs(quad - h_norm_sq(b, m, mu, e)) <= 1e-5 * abs(h_norm_sq(b, m, mu, e))


def test_h_cross_lower_edge():
    b, e = -0.2 - 2.4j, -1
    mu, eta_ = 0.8, 1.1
    m = 0.23
    pm = P(b / (2 * mu), m)
    pe = P(b / (2 * eta_), m)
    f = lambda z: (whittaker_h(pm, e, 2 * mu * z).value
                   * whittaker_h(pe, e, 2 * eta_ * z).value)
    quad = quad_ray(f, angle=-math.pi / 4, tol=3e-7).value * (mu * mu - eta_ * eta_)
    assert abs(quad - h_cross(b, m, mu, eta_, e)) <= 1e-5 * abs(h_cross(b, m, mu, eta_, e))


def test_hankel_cross_quadrature():
    b, m, k, e = 0.5 + 1.2j, 0.27, 0.9, +1
    sq = cmath.sqrt(b)
    pk = P(b / (2 * k), m)
    f = lambda x: ((b * x) ** 0.25 * bessel1_h(2 * m, e, 2 * sq * math.sqrt(x)).value
                   * whittaker_k(pk, 2 * k * x).value)
    quad = quad_halfline(f, tol=3e-9).value
    ref = hankel_k_cross(b, m, k, e)
    assert abs(quad - ref) <= 1e-7 * abs(ref)


def test_hankel_norm_quadrature():
    b, m, e = 0.5 + 1.2j, 0.27, +1
    sq = cmath.sqrt(b)
    f = lambda x: ((b * x) ** 0.25 * bessel1_h(2 * m, e, 2 * sq * math.sqrt(x)).value) ** 2
    quad = quad_halfline(f, tol=3e-8).value
    ref = hankel_norm_sq(b, m, e)
    assert abs(quad - ref) <= 1e-5 * abs(ref)


def test_bessel_x2kk_quadrature_m0():
    a, b = 0.9, 1.4
    f = lambda x: x * x * bessel1_k(0.0, a * x).value * bessel1_k(0.0, b * x).value
    quad = quad_halfline(f, tol=3e-9).value
    ref = bessel_x2kk(a, b, 0.0)
    assert abs(quad - ref) <= 1e-7 * abs(ref)


def test_h_cross_quadrature_m_minus_half():
    # H_{-1} = -H_1 (DLMF 10.4.6): the m = -1/2 value is minus the m = +1/2 one
    b, m, mu, eta_, e = 0.4 + 2.0j, -0.5, 0.7, 1.1, +1
    pm = P(b / (2 * mu), m)
    pe = P(b / (2 * eta_), m)
    f = lambda z: (whittaker_h(pm, e, 2 * mu * z).value
                   * whittaker_h(pe, e, 2 * eta_ * z).value)
    quad = quad_ray(f, angle=math.pi / 4, tol=3e-7).value * (mu * mu - eta_ * eta_)
    ref = h_cross(b, m, mu, eta_, e)
    assert abs(quad - ref) <= 1e-5 * abs(ref)


def test_hankel_cross_quadrature_m_minus_half():
    b, m, k, e = 0.3 + 1.2j, -0.5, 0.9 + 0.1j, +1
    sq = cmath.sqrt(b)
    pk = P(b / (2 * k), m)
    f = lambda x: ((b * x) ** 0.25 * bessel1_h(2 * m, e, 2 * sq * math.sqrt(x)).value
                   * whittaker_k(pk, 2 * k * x).value)
    quad = quad_halfline(f, tol=3e-9).value
    ref = hankel_k_cross(b, m, k, e)
    assert abs(quad - ref) <= 1e-7 * abs(ref)


# ---------------------------------------------------------------------------
# 60-digit mpmath closed forms, written from the printed identities

def _mp_nu(mm, beta, k):
    d = beta / (2 * k)
    s = (mp.digamma(0.5 + mm - d) / 2 + mp.digamma(0.5 - mm - d) / 2 + 2 * mp.euler - 2 * mm
         + mp.log(2 * k))
    return -beta * s if mm else s


def _mp_order(m):
    return None if m not in (0, 0.5, -0.5) else abs(m)


def _mp_k_cross(beta, m, k, p):
    beta, k, p = mp.mpc(beta), mp.mpc(k), mp.mpc(p)
    mm = _mp_order(m)
    if mm is None:
        m = mp.mpc(m)
        u = lambda s, q: mp.power(2 * q, 0.5 - s) * mp.rgamma(0.5 + s - beta / (2 * q))
        return mp.pi / mp.sin(2 * mp.pi * m) * (u(-m, k) * u(m, p) - u(-m, p) * u(m, k))
    g = lambda q: mp.power(2 * q, 0.5 - mm) * mp.rgamma(0.5 + mm - beta / (2 * q))
    return (-1) ** int(2 * mm) * g(k) * g(p) * (_mp_nu(mm, beta, k) - _mp_nu(mm, beta, p))


def _mp_k_norm(beta, m, k):
    beta, k = mp.mpc(beta), mp.mpc(k)
    d = beta / (2 * k)
    mm = _mp_order(m)
    if mm == 0:
        z = 1 + d * mp.psi(1, 0.5 - d)
    elif mm == 0.5:
        z = -(1 + d / 2 * mp.psi(1, 1 - d) + d / 2 * mp.psi(1, -d))
    else:
        m = mp.mpc(m)
        z = (mp.pi * (2 * m + d * mp.digamma(0.5 + m - d) - d * mp.digamma(0.5 - m - d))
             / mp.sin(2 * mp.pi * m))
    return z * mp.rgamma(0.5 + m - d) * mp.rgamma(0.5 - m - d) / k


def _mp_h_phase(m, e):
    return -e * 1j * mp.exp(-e * 1j * mp.pi * m)


def _mp_hankel_cross(beta, m, k, e):
    beta, k = mp.mpc(beta), mp.mpc(k)
    d = beta / (2 * k)
    ld = mp.log(beta) - mp.log(2 * k)
    mm = _mp_order(m)
    if mm == 0:
        v = (-e * 1j / mp.sqrt(mp.pi) * mp.sqrt(2 * k) * mp.sqrt(beta) * mp.rgamma(0.5 - d)
             * (mp.digamma(0.5 - d) - ld + e * 1j * mp.pi))
    elif mm == 0.5:
        v = ((1 if m > 0 else -1) * e * 1j / mp.sqrt(mp.pi) * 2 * k * mp.rgamma(-d)
             * (mp.digamma(-d) / 2 + mp.digamma(1 - d) / 2 - ld + e * 1j * mp.pi))
    else:
        m = mp.mpc(m)
        v = (-e * 1j * mp.sqrt(2 * mp.pi * k) * mp.sqrt(beta) / mp.sin(2 * mp.pi * m)
             * (mp.exp(-m * ld) * mp.rgamma(0.5 - m - d)
                - mp.exp(-e * 2j * mp.pi * m) * mp.exp(m * ld) * mp.rgamma(0.5 + m - d)))
    return v / (k * k)


def _mp_hankel_norm(beta, m, e):
    mm, m = _mp_order(m), mp.mpc(m)
    if mm is None:
        sf = mp.sin(2 * mp.pi * m) / (m * (4 * m * m - 1))
    else:
        sf = -2 * mp.pi if mm == 0 else -mp.pi
    return mp.exp(-e * 2j * mp.pi * m) / (3 * mp.mpc(beta) * sf)


def _mp_bessel_kk(a, b, m):
    a, b, m = mp.mpc(a), mp.mpc(b), mp.mpc(m)
    if m == 0:
        return 2 / mp.pi * (mp.log(a) - mp.log(b)) * mp.sqrt(a * b) / (a * a - b * b)
    return ((mp.power(a, 2 * m) - mp.power(b, 2 * m)) * mp.power(a * b, 0.5 - m)
            / (mp.sin(mp.pi * m) * (a * a - b * b)))


def _mp_bessel_x2kk(a, b, m):
    a, b, m = mp.mpc(a), mp.mpc(b), mp.mpc(m)
    g = b * b - a * a
    if m == 0:
        return 8 * mp.sqrt(a * b) * ((a * a + b * b) * (mp.log(b) - mp.log(a)) - g) / (mp.pi * g ** 3)
    am, bm = mp.power(a, 2 * m), mp.power(b, 2 * m)
    return (4 * mp.power(a * b, 0.5 - m)
            * ((m - 1) * (am * a * a - bm * b * b) + (m + 1) * (a * a * bm - b * b * am))
            / (mp.sin(mp.pi * m) * g ** 3))


def _rel(v, ref):
    ref = complex(ref)
    return abs(complex(v) - ref) / abs(ref)


_FOUND_BETA = 1.914740612771844 + 1.6137647093950789j
_FOUND_M = 0.3767941993576871 - 0.22768984610384274j


@pytest.mark.parametrize("m", [_FOUND_M, 0.0, 0.5, -0.5])
def test_cross_near_the_diagonal(m):
    # the difference of the condition map cancels as p -> k; it is redone
    # in mpmath at the precision the measured cancellation needs
    rng = random.Random(11)
    with mp.workdps(60):
        for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            k = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3))
            p = k + gap * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            assert _rel(k_cross(_FOUND_BETA, m, k, p), _mp_k_cross(_FOUND_BETA, m, k, p)) <= 1e-12
            mu = rng.uniform(0.1, 0.9) * _FOUND_BETA.imag
            eta_ = mu + gap
            ref = -_mp_h_phase(m, 1) * _mp_k_cross(_FOUND_BETA, m, -1j * mu, -1j * eta_)
            assert _rel(h_cross(_FOUND_BETA, m, mu, eta_, +1), ref) <= 1e-12


@pytest.mark.parametrize("m", [0.27, 0.0])
def test_bessel_integrals_near_the_diagonal(m):
    # no snap: only a == b takes the diagonal value
    with mp.workdps(60):
        for gap in (1e-2, 1e-4, 1e-6, 2e-8, 5e-9, 1e-10):
            a, b = 1.3, 1.3 + gap
            assert _rel(bessel_x2kk(a, b, m), _mp_bessel_x2kk(a, b, m)) <= 1e-12
            assert _rel(bessel_kk(a, b, m), _mp_bessel_kk(a, b, m)) <= 1e-12


@pytest.mark.parametrize("beta,m,n", [(1.0, 0.0, 0), (2.0, 0.5, 0), (2.0, -0.5, 0), (1.6, 0.3, 0),
                                      (3.0, 0.0, 1), (6.0, 0.5, 2), (5.6, -0.3, 2)])
def test_norm_and_cross_on_the_laguerre_lattice(beta, m, n):
    # beta/2k - 1/2 - |m| = n: the hydrogen-type levels, where the integrals
    # are finite: int K^2 = n! Gamma(n+2|m|+1) (2n+2|m|+1) / 2k
    k = 1.0
    am = abs(m)
    ref = math.factorial(n) * math.gamma(n + 2 * am + 1) * (2 * n + 2 * am + 1) / (2 * k)
    assert abs(k_norm_sq(beta, m, k) - ref) <= 1e-13 * ref
    # the cross integral is entire in k: its mpmath value just off the lattice
    with mp.workdps(60):
        ref = _mp_k_cross(beta, m, mp.mpf(k) + mp.mpf(10) ** -40, 1.3)
    assert _rel(k_cross(beta, m, k, 1.3), ref) <= 1e-12


@pytest.mark.parametrize("beta,m", [(1.0, 0.0), (2.0, 0.5), (1.6, 0.3)])
def test_norm_on_the_lattice_by_quadrature(beta, m):
    k = 1.0
    d = beta / (2 * k)
    f = lambda x: whittaker_k(P(d, m), 2 * k * x).value ** 2
    quad = quad_halfline(f, tol=3e-9).value
    assert abs(quad - k_norm_sq(beta, m, k)) <= 1e-7 * abs(quad)


def test_projection_idempotent_at_a_hydrogen_level():
    # beta = 1, m = 0, k = 1 is the n = 0 level of the pure m = 0 operator
    p, pt = P(1.0, 0.0), SpectralPoint(-1.0, 1.0, Regime.NEGATIVE)
    x, y = 0.9, 1.7
    f = lambda z: projection_kernel(p, pt, x, z) * projection_kernel(p, pt, z, y)
    quad = quad_halfline(f, tol=3e-8).value
    pxy = projection_kernel(p, pt, x, y)
    assert abs(quad - pxy) <= 1e-6 * abs(pxy)


def test_every_closed_form_matches_mpmath():
    # seeded draws over generic m, m in {0, +-1/2}, both edges and beta = 0
    rng = random.Random(2024)
    with mp.workdps(60):
        for i in range(48):
            m = [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)), 0.0, 0.5, -0.5][i % 4]
            e = 1 if i % 8 < 4 else -1
            beta = 0.0 if i % 5 == 4 else complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            k = complex(rng.uniform(0.5, 1.6), rng.uniform(-0.3, 0.3))
            p = complex(rng.uniform(0.5, 1.6), rng.uniform(-0.3, 0.3))
            # the printed m = 1/2 forms are limits at beta = 0: take them just off it
            bref = beta or mp.mpf(10) ** -40
            assert _rel(k_cross(beta, m, k, p), _mp_k_cross(bref, m, k, p)) <= 1e-12
            assert _rel(k_norm_sq(beta, m, k), _mp_k_norm(bref, m, k)) <= 1e-12
            bs = complex(rng.uniform(-1, 1), e * rng.uniform(1.0, 2.8))
            mu, eta_ = (rng.uniform(0.1, 0.9) * abs(bs.imag) for _ in range(2))
            ref = -_mp_h_phase(m, e) * _mp_k_cross(bs, m, -e * 1j * mu, -e * 1j * eta_)
            assert _rel(h_cross(bs, m, mu, eta_, e), ref) <= 1e-12
            ref = _mp_h_phase(m, e) * _mp_k_norm(bs, m, -e * 1j * mu)
            assert _rel(h_norm_sq(bs, m, mu, e), ref) <= 1e-12
            # Hankel: beta off the cut, on the edge where e Im sqrt(beta) > 0
            bh = complex(rng.uniform(-1, 1), e * rng.uniform(0.3, 2))
            assert _rel(hankel_k_cross(bh, m, k, e), _mp_hankel_cross(bh, m, k, e)) <= 1e-12
            assert _rel(hankel_norm_sq(bh, m, e), _mp_hankel_norm(bh, m, e)) <= 1e-12
            mb = m.real if isinstance(m, complex) else m
            a, b = rng.uniform(0.3, 2), rng.uniform(0.3, 2)
            assert _rel(bessel_kk(a, b, mb), _mp_bessel_kk(a, b, mb)) <= 1e-12
            assert _rel(bessel_x2kk(a, b, mb), _mp_bessel_x2kk(a, b, mb)) <= 1e-12
