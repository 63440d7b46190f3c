import cmath
import math

import mpmath as mp
import pytest

from coulombw.bessel1 import (BesselSolution, ZeroEnergySolution, bessel1_h,
                              bessel1_i, bessel1_j, bessel1_k, bessel1_x,
                              bessel1_y, zero_energy_j, zero_energy_y)
from coulombw.errors import BranchError, DomainError

mp.mp.dps = 35


def ref_i(m, z):
    return complex(mp.sqrt(mp.pi * mp.mpc(z) / 2) * mp.besseli(m, z))


def ref_j(m, z):
    return complex(mp.sqrt(mp.pi * mp.mpc(z) / 2) * mp.besselj(m, z))


def ref_y(m, z):
    return complex(mp.sqrt(mp.pi * mp.mpc(z) / 2) * mp.bessely(m, z))


def ref_k(m, z):
    return complex(mp.sqrt(mp.pi * mp.mpc(z) / 2) * 2 / mp.pi * mp.besselk(m, z))


def test_half_integer_closed_forms():
    z = 2.0
    assert abs(bessel1_k(0.5, z).value - math.exp(-z)) <= 1e-12 * math.exp(-z)
    assert abs(bessel1_i(0.5, z).value - math.sinh(z)) <= 1e-12 * math.sinh(z)
    assert abs(bessel1_i(-0.5, z).value - math.cosh(z)) <= 1e-12 * math.cosh(z)
    # sign convention fixed by the edge-average definition: X_{1/2} = -e^z
    assert abs(bessel1_x(0.5, z).value + math.exp(z)) <= 1e-12 * math.exp(z)
    assert abs(bessel1_x(-0.5, z).value - math.exp(z)) <= 1e-12 * math.exp(z)


def test_against_classical_normalizations():
    for m in (0.3, 0.0, 1.0, 2.0, -0.3, 1.7):
        for z in (0.7, 1.7, 28.0):
            assert abs(bessel1_i(m, z).value - ref_i(m, z)) <= 1e-10 * abs(ref_i(m, z))
            assert abs(bessel1_k(m, z).value - ref_k(m, z)) <= 1e-10 * abs(ref_k(m, z))
            assert abs(bessel1_j(m, z).value - ref_j(m, z)) <= 1e-10 * max(abs(ref_j(m, z)), 1e-3)
            assert abs(bessel1_y(m, z).value - ref_y(m, z)) <= 1e-10 * max(abs(ref_y(m, z)), 1e-3)


def test_k0_degenerate_series_value():
    # independent high-term-count oracle for the m = 0 logarithmic series
    z = mp.mpf(1)
    i0 = mp.nsum(lambda n: mp.sqrt(mp.pi) * (z / 2) ** (2 * n + mp.mpf(0.5))
                 / (mp.factorial(n) * mp.gamma(n + 1)), [0, mp.inf])
    s = mp.nsum(lambda n: (mp.digamma(n + 1) + mp.digamma(n + 1)) * (z / 2) ** (2 * n)
                / (mp.factorial(n) * mp.factorial(n)), [0, mp.inf])
    ref = complex(-(2 / mp.pi) * mp.log(z / 2) * i0
                  + (1 / mp.sqrt(mp.pi)) * (z / 2) ** mp.mpf(0.5) * s)
    got = bessel1_k(0.0, 1.0).value
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_hankel():
    m, z = 0.4, 3.0
    hp = bessel1_h(m, +1, z).value
    hm = bessel1_h(m, -1, z).value
    assert abs(hp - (ref_j(m, z) + 1j * ref_y(m, z))) <= 1e-12 * abs(hp)
    assert abs(hm - (ref_j(m, z) - 1j * ref_y(m, z))) <= 1e-12 * abs(hm)


def test_wronskian_identities():
    m, x = 0.3, 1.3
    a = BesselSolution("I", m)
    b = BesselSolution("I", -m)
    wr = a.value(x) * b.deriv(x) - a.deriv(x) * b.value(x)
    assert abs(wr + math.sin(math.pi * m)) <= 1e-11
    k = BesselSolution("K", m)
    wr = k.value(x) * a.deriv(x) - k.deriv(x) * a.value(x)
    assert abs(wr - 1.0) <= 1e-11


def test_derivatives_fd():
    h = 1e-5
    for which in ("I", "K", "X", "J", "Y"):
        s = BesselSolution(which, 0.37)
        z = 1.9
        fd = (s.value(z + h) - s.value(z - h)) / (2 * h)
        assert abs(s.deriv(z) - fd) <= 1e-6 * max(1, abs(fd))
    s = BesselSolution("H", 0.37, sign=+1)
    fd = (s.value(1.9 + h) - s.value(1.9 - h)) / (2 * h)
    assert abs(s.deriv(1.9) - fd) <= 1e-6 * max(1, abs(fd))


def test_zero_energy_values():
    assert abs(zero_energy_j(0, 0.3, 2.0) - 2.0 ** 0.8) <= 1e-13 * 2 ** 0.8
    assert zero_energy_y(0, 0.5, 2.0) == 1.0
    assert abs(zero_energy_y(0, 0.0, 2.0) - math.sqrt(2) * math.log(2)) <= 1e-13
    with pytest.raises(DomainError):
        zero_energy_j(1.0, 0.3, -1.0)
    with pytest.raises(BranchError):
        zero_energy_j(-1.0, 0.3, 1.0)  # beta on the cut without a tag
    from coulombw.branching import upper_edge
    v = zero_energy_j(upper_edge(-1.0), 0.3, 1.0)
    assert cmath.isfinite(v)


def test_zero_energy_handle_checks():
    # y exists at m in {0, +-1/2} only, and x must be positive, for the
    # handle as for zero_energy_y/j, which return its value
    for m in (0.3, 0.5j):
        with pytest.raises(DomainError):
            ZeroEnergySolution("y", 0.7, m)
        with pytest.raises(DomainError):
            zero_energy_y(0.7, m, 1.0)
    for kind, m in (("j", 0.3), ("y", 0.0), ("y", 0.5)):
        h = ZeroEnergySolution(kind, 0.7, m)
        for f in (h.value, h.deriv, h.deriv2):
            with pytest.raises(DomainError):
                f(-1.0)
    assert zero_energy_y(0.7, -0.5, 1.3) == ZeroEnergySolution("y", 0.7, 0.5).value(1.3)


def test_zero_energy_small_x():
    b, m = 0.7, 0.23
    for x in (1e-3, 1e-4):
        jv = zero_energy_j(b, m, x)
        lead = x ** (0.5 + m) * (1 - b * x / (1 + 2 * m))
        assert abs(jv / lead - 1) <= 1e-5
    # y asymptotics
    x = 1e-4
    yv = zero_energy_y(b, 0.5, x)
    assert abs(yv - (1 - b * x * math.log(x))) <= 1e-6
    yv = zero_energy_y(b, 0.0, x)
    assert abs(yv - (math.sqrt(x) * math.log(x) * (1 - b * x) + 2 * b * x ** 1.5)) <= 1e-6


def test_zero_energy_wronskians():
    b = 0.7
    for mm, expect in ((0.0, 1.0), (0.5, -1.0)):
        j = ZeroEnergySolution("j", b, mm)
        y = ZeroEnergySolution("y", b, mm)
        for x in (0.6, 1.9):
            wr = j.value(x) * y.deriv(x) - j.deriv(x) * y.value(x)
            assert abs(wr - expect) <= 1e-10
    j = ZeroEnergySolution("j", b, 0.3)
    wr = j.value(1.0) * j.deriv(1.0) - j.deriv(1.0) * j.value(1.0)
    assert wr == 0


def test_zero_energy_ode_residual():
    from coulombw.oracle import ode_residual
    from coulombw.params import WhittakerParams
    for b, m in ((0.7, 0.26), (0.9, 0.0), (1.2, 0.5)):
        p = WhittakerParams(b, m)
        assert ode_residual("j", p, "zero", 1.7) <= 1e-8
        if m in (0.0, 0.5):
            assert ode_residual("y", p, "zero", 1.7) <= 1e-8
