import cmath
import math

from coulombw.integrals import (bessel_kk, bessel_x2kk, h_cross, h_norm_sq,
                                hankel_k_cross, hankel_norm_sq, k_cross,
                                k_norm_sq)
from coulombw.params import WhittakerParams as P
from coulombw.quadrature import quad_halfline, quad_ray
from coulombw.whittaker import whittaker_h, whittaker_k
from coulombw.bessel1 import bessel1_h, bessel1_k


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
