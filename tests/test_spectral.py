import cmath
import math

import mpmath as mp
import pytest

from coulombw.bessel1 import BesselSolution, ZeroEnergySolution
from coulombw.core import EULER_GAMMA, gamma, rgamma, trigamma
from coulombw.errors import PreconditionError, SpectrumHit
from coulombw.params import WhittakerParams as P
from coulombw.spectral import (BoundaryCondition, Family, INFINITY, KernelQuery,
                               Regime, SpectralPoint, blowup_kappa0,
                               blowup_kappa_half, eta, gamma_factor,
                               is_self_adjoint, kappa_of_k, nu_half_of_k,
                               nu_zero_of_k, omega_generic, omega_half,
                               omega_zero, positive_energy_condition,
                               projection_kernel, resolvent_kernel, xi_half,
                               xi_zero, zero_energy_condition, zeta,
                               _pure_kernel)
from coulombw.whittaker import whittaker_k

mp.mp.dps = 30


def test_kappa_examples():
    # beta = 0 reduces to the duplication-formula form
    k, m = 1.3, 0.27
    lhs = kappa_of_k(0, m, k)
    rhs = (k / 2) ** (-2 * m) * gamma(m) * rgamma(-m)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
    # independent gamma oracle for (beta=0, m=1/4, k=1/2)
    got = kappa_of_k(0, 0.25, 0.5)
    ref = complex(2 * mp.gamma(0.25) / mp.gamma(-0.25))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_kappa_scaling_and_reciprocity():
    b, m, k = 0.8 + 0.2j, 0.3, 1.1 + 0.1j
    tau = 0.37
    lhs = kappa_of_k(math.e ** tau * b, m, math.e ** tau * k)
    rhs = math.e ** (-2 * tau * m) * kappa_of_k(b, m, k)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    assert abs(kappa_of_k(b, -m, k) - 1 / kappa_of_k(b, m, k)) <= 1e-12 * abs(1 / kappa_of_k(b, m, k))


def test_kappa_preconditions():
    with pytest.raises(PreconditionError):
        kappa_of_k(1.0, 0.25, -0.5)
    # excluded lattice beta/2k + m - 1/2 in N
    with pytest.raises(PreconditionError):
        kappa_of_k(2 * 0.8 * 0.25, 0.25, 0.8)  # beta/2k = 1/4 -> +m-1/2 = 0
    # pure lattice gives kappa = 0
    b = 2 * 0.8 * 0.75
    assert kappa_of_k(b, 0.25, 0.8) == 0


def test_nu_limits():
    assert abs(nu_half_of_k(0, 1.3) + 1.3) <= 1e-14
    assert abs(nu_zero_of_k(0, 1.3) - (EULER_GAMMA + math.log(1.3 / 2))) <= 1e-13
    v4, v5 = nu_half_of_k(1e-4, 0.9), nu_half_of_k(1e-5, 0.9)
    assert abs((v5 - (v4 - v5) / 9) + 0.9) <= 1e-8
    # beta/2k within the lattice tolerance of 0 is no pole: w = -beta cancels it
    assert abs(nu_half_of_k(1e-12, 0.9) + 0.9) <= 1e-10


def test_positive_energy_conditions():
    beta = 2j
    kap = positive_energy_condition(Family.GENERIC, beta, 0.3, 1.0, +1)
    # direct formula recomputation
    d = beta / 2.0
    ref = (cmath.exp(1j * cmath.pi * 0.3) * 2.0 ** (-0.6) * gamma(0.6) * rgamma(-0.6)
           * gamma(0.5 - 0.3 - 1j * d) * rgamma(0.5 + 0.3 - 1j * d))
    assert abs(kap - ref) <= 1e-12 * abs(ref)
    nu = positive_energy_condition(Family.NU_HALF, beta, 0.5, 1.0, +1)
    assert abs(nu.imag) > 1e-3  # not self-adjoint data
    with pytest.raises(PreconditionError):
        positive_energy_condition(Family.GENERIC, beta, 0.3, 3.0, +1)  # mu > Im beta
    with pytest.raises(PreconditionError):
        positive_energy_condition(Family.GENERIC, beta, 0.3, 1.0, -1)  # wrong edge


@pytest.mark.parametrize("e", [+1, -1])
@pytest.mark.parametrize("family,cond", [
    (Family.GENERIC, lambda b, k: kappa_of_k(b, 0.3, k)),
    (Family.NU_HALF, nu_half_of_k),
    (Family.NU_ZERO, nu_zero_of_k),
])
def test_positive_energy_is_the_continuation_from_re_k_positive(family, cond, e):
    # lambda = mu^2 + e i0 is k = -e i mu, approached from Re k > 0
    b, mu = 0.4 + e * 2.0j, 0.7
    got = positive_energy_condition(family, b, 0.3, mu, e)
    ref = cond(b, 1e-9 - e * 1j * mu)
    assert abs(got - ref) <= 1e-6 * abs(ref)


def test_zero_energy_conditions():
    # kappa = Gamma(1/2)/Gamma(-1/2) = -1/2 at beta=-1, m=1/4
    v = zero_energy_condition(Family.GENERIC, -1.0, 0.25, +1)
    assert abs(v - (-0.5)) <= 1e-12
    # nu-zero at beta = i, upper edge: ln i + 2 gamma - i pi
    v = zero_energy_condition(Family.NU_ZERO, 1j, 0.0, +1)
    ref = 2 * EULER_GAMMA - 1j * math.pi / 2
    assert abs(v - ref) <= 1e-13
    v = zero_energy_condition(Family.NU_HALF, 1j, 0.5, +1)
    ref = -1j * (cmath.log(1j) + 2 * EULER_GAMMA - 1 - 1j * cmath.pi)
    assert abs(v - ref) <= 1e-13


@pytest.mark.parametrize("family,mm", [(Family.NU_HALF, 0.5), (Family.NU_ZERO, 0.0)])
@pytest.mark.parametrize("beta", [0.4 + 1.3j, -0.7 + 0.9j, 0.9 - 1.1j])
def test_zero_energy_condition_is_the_limit_and_the_wronskian_ratio(family, mm, beta):
    # the edge is the one on which h decays: e Im sqrt(beta) > 0 (both
    # edges occur among the three betas)
    e = 1 if cmath.sqrt(beta).imag > 0 else -1
    got = zero_energy_condition(family, beta, mm, e)
    # lambda = mu^2 + e i0 -> 0
    lim = positive_energy_condition(family, beta, mm, 1e-4, e)
    assert abs(got - lim) <= 1e-8 * abs(got)
    # nu makes y + nu j proportional to the decaying h = x^{1/4} H^e(2 sqrt(beta x))
    j, y = ZeroEnergySolution("j", beta, mm), ZeroEnergySolution("y", beta, mm)
    hs, sq = BesselSolution("H", 2 * mm, e), cmath.sqrt(beta)
    for x in (0.7, 1.9):
        w = 2 * sq * math.sqrt(x)
        h = x ** 0.25 * hs.value(w)
        dh = 0.25 * x ** -0.75 * hs.value(w) + x ** 0.25 * hs.deriv(w) * 2 * beta / w
        ratio = -(y.value(x) * dh - y.deriv(x) * h) / (j.value(x) * dh - j.deriv(x) * h)
        assert abs(got - ratio) <= 1e-11 * abs(got)


def test_zeta():
    b, k = 0.8, 0.9
    assert zeta(b, 0.3, k) == zeta(b, -0.3, k)
    d = b / (2 * k)
    assert abs(zeta(b, 0.0, k) - (1 + d * trigamma(0.5 - d))) == 0
    assert abs(zeta(b, 0.5, k) - (-(1 + d / 2 * trigamma(1 - d) + d / 2 * trigamma(-d)))) == 0
    # continuity of the extensions
    assert abs(zeta(b, 1e-5, k) - zeta(b, 0.0, k)) <= 1e-4
    assert abs(zeta(b, 0.5 - 1e-5, k) - zeta(b, 0.5, k)) <= 1e-4


def test_omega_blowup_limits():
    beta, k, nu = 0.8, 2.0, 0.35
    t0 = omega_zero(beta, nu, k)
    for mm in (1e-4, -1e-4):
        assert abs(omega_generic(beta, mm, blowup_kappa0(mm, nu), k) - t0) <= 1e-3
    beta, k, nu = 1.1, 1.5, 0.2
    th = omega_half(beta, nu, k)
    for mm in (0.5 + 1e-4, 0.5 - 1e-4):
        assert abs(omega_generic(beta, mm, blowup_kappa_half(beta, mm, nu), k) - th) <= 1e-3


def test_blowup_maps():
    assert blowup_kappa0(0.3, 0.0) == -1.0
    assert blowup_kappa0(0.0, 2.7) == -1.0
    assert blowup_kappa0(0.3, INFINITY) == 0.0
    assert blowup_kappa_half(0.9, 0.5, 1.3) == 0.0
    assert cmath.isinf(blowup_kappa0(0.5, -1.0))


def test_resolvent_dirichlet_closed_form():
    bc = BoundaryCondition(Family.NU_HALF, INFINITY)
    k = 0.7
    for x, y in ((1.2, 2.5), (2.5, 1.2), (0.3, 0.4)):
        val = resolvent_kernel(KernelQuery(P(0.0, 0.5), bc, k, x, y))
        ref = math.sinh(k * min(x, y)) * math.exp(-k * max(x, y)) / k
        assert abs(val - ref) <= 1e-11 * abs(ref)


def test_resolvent_symmetry_and_lines():
    b, m, kap, k = 0.9, 0.3, 0.5 + 0.2j, 0.8
    bc = BoundaryCondition(Family.GENERIC, kap)
    a = resolvent_kernel(KernelQuery(P(b, m), bc, k, 0.7, 2.0))
    c = resolvent_kernel(KernelQuery(P(b, m), bc, k, 2.0, 0.7))
    assert a == c
    # res-gen: both displayed lines agree with the factorized kernel
    d = b / (2 * k)
    x, y = 0.7, 2.0
    rm = _pure_kernel(b, m, k, x, y)
    rmm = _pure_kernel(b, -m, k, x, y)
    gp, gm = gamma_factor(b, m, k), gamma_factor(b, -m, k)
    line1 = (gp * rm + kap * gm * rmm) / (gp + kap * gm)
    om = omega_generic(b, m, kap, k)
    kk = whittaker_k(P(d, m), 2 * k * x).value * whittaker_k(P(d, m), 2 * k * y).value
    line2 = rm + gamma(0.5 + m - d) * gamma(0.5 - m - d) / (2 * k * om) * kk
    assert abs(a - line1) <= 1e-9 * abs(a)
    assert abs(a - line2) <= 1e-9 * abs(a)
    # omega and eta describe the same denominator
    om_from_eta = eta(b, m, kap, k) / (kap * gm) * cmath.pi / cmath.sin(2 * cmath.pi * m)
    assert abs(om - om_from_eta) <= 1e-12 * abs(om)
    # kappa = infinity short-circuits to the pure kernel at -m
    bci = BoundaryCondition(Family.GENERIC, INFINITY)
    v = resolvent_kernel(KernelQuery(P(b, m), bci, k, x, y))
    assert abs(v - rmm) <= 1e-12 * abs(rmm)


def test_resolvent_spectrum_hit():
    b, m = 0.9, 0.3
    k0 = 0.8
    kap = kappa_of_k(b, m, k0)
    bc = BoundaryCondition(Family.GENERIC, kap)
    with pytest.raises(SpectrumHit):
        resolvent_kernel(KernelQuery(P(b, m), bc, k0, 1.0, 2.0))
    # pure operator hit on the Laguerre lattice
    bc = BoundaryCondition(Family.NU_HALF, INFINITY)
    with pytest.raises(SpectrumHit):
        resolvent_kernel(KernelQuery(P(1.0, 0.5), bc, 0.5, 1.0, 2.0))


def test_resolvent_doubly_degenerate_kernels():
    # nu-half lattice: beta/2k = 1
    k, b, nu = 0.5, 1.0, 0.3
    bc = BoundaryCondition(Family.NU_HALF, nu)
    v = resolvent_kernel(KernelQuery(P(b, 0.5), bc, k, 0.9, 1.8))
    assert cmath.isfinite(v)
    w = resolvent_kernel(KernelQuery(P(b, 0.5), bc, k, 1.8, 0.9))
    assert v == w
    # nu-zero lattice: beta/2k - 1/2 = 0
    k, b, nu = 0.8, 0.8, 0.4
    bc = BoundaryCondition(Family.NU_ZERO, nu)
    v = resolvent_kernel(KernelQuery(P(b, 0.0), bc, k, 0.9, 1.8))
    assert cmath.isfinite(v)


def test_projection_symmetry():
    p = P(0.9, 0.27)
    pt = SpectralPoint(-(0.8 ** 2), 0.8, Regime.NEGATIVE)
    a = projection_kernel(p, pt, 0.9, 1.7)
    b = projection_kernel(P(0.9, -0.27), pt, 0.9, 1.7)
    assert abs(a - b) <= 1e-12 * abs(a)
    c = projection_kernel(p, pt, 1.7, 0.9)
    assert abs(a - c) <= 1e-14 * abs(a)


def test_projection_preconditions():
    p = P(0.2 + 2.2j, 0.31)
    pt = SpectralPoint(9.0, 3.0, Regime.POSITIVE_UPPER)  # mu outside the strip
    with pytest.raises(PreconditionError):
        projection_kernel(p, pt, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        projection_kernel(P(2.0, 0.3), SpectralPoint(0.0, None, Regime.ZERO), 1.0, 1.0)


def test_self_adjoint_table():
    cases = [
        (P(1.0, 0.3), BoundaryCondition(Family.GENERIC, 2.0), True),
        (P(1.0, 0.3), BoundaryCondition(Family.GENERIC, INFINITY), True),
        (P(1.0, 0.5j), BoundaryCondition(Family.GENERIC, cmath.exp(0.7j)), True),
        (P(1.0, 0.5j), BoundaryCondition(Family.GENERIC, 1.2), False),
        (P(1j, 0.3), BoundaryCondition(Family.GENERIC, 0.0), False),
        (P(1.0, 0.3), BoundaryCondition(Family.GENERIC, 2.0 + 1j), False),
        (P(1.0, 0.3 + 0.2j), BoundaryCondition(Family.GENERIC, 2.0), False),
        (P(0.7, 0.0), BoundaryCondition(Family.NU_ZERO, 1.5), True),
        (P(0.7, 0.0), BoundaryCondition(Family.NU_ZERO, INFINITY), True),
        (P(0.7, 0.0), BoundaryCondition(Family.NU_ZERO, 1.5 + 0.2j), False),
        (P(0.7 + 0.1j, 0.5), BoundaryCondition(Family.NU_HALF, 1.0), False),
        (P(0.7, 0.5), BoundaryCondition(Family.NU_HALF, -2.0), True),
    ]
    for p, bc, expect in cases:
        assert is_self_adjoint(p, bc) == expect


def test_xi_functions():
    # xi is finite exactly where omega has its psi poles (the dd lattice)
    v = xi_half(1.0, 0.3, 0.5)
    assert cmath.isfinite(v)
    v = xi_zero(0.8, 0.4, 0.8)
    assert cmath.isfinite(v)


def test_zeta_generic_m_cancellation():
    # positive-energy projection at |beta/2 mu| ~ 3.6: the psi terms cancel
    # to ~1/4000 of their size, recomputed in mpmath
    beta, m, mu = -0.35474704505624677 - 1.6909083042234472j, -0.127200054569925, 0.23885374527876954
    k = 1j * mu
    with mp.workdps(40):
        d, mm = mp.mpc(beta) / (2 * mp.mpc(k)), mp.mpf(m)
        ref = complex(mp.pi * (2 * mm + d * mp.digamma(0.5 + mm - d) - d * mp.digamma(0.5 - mm - d))
                      / mp.sin(2 * mp.pi * mm))
    assert abs(zeta(beta, m, k) - ref) <= 1e-14 * abs(ref)
