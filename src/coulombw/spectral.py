"""Spectral data of the half-line Coulomb operators: eigenvalue conditions
for the three boundary-condition families, Green's function kernels
(including the doubly degenerate lattice), eigenprojection kernels, the
blow-up reparameterizations, and the self-adjointness predicate.

The families are holomorphic in k: each positive-energy quantity at
lambda = mu^2 +- i0 is the negative-energy k-form (_kappa, _nu, valid on
Re k >= 0) continued to k = -+ i mu.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import mpmath as mp

from .branching import as_cvalue, principal_ln, principal_pow, lower_edge, upper_edge
from .core import EULER_GAMMA, digamma, gamma, is_nonpositive_int, rgamma, trigamma
from .errors import PreconditionError, SpectrumHit
from .params import SNAP_TOL, WhittakerParams, dist_to_natural, nu_order
from .whittaker import _FB, _MB, _memo, _rerun_dps, whittaker_i_ext, whittaker_k, whittaker_x
from .bessel1 import bessel1_h

INFINITY = complex(math.inf, 0.0)

_SPECTRUM_TOL = 1e-12
_LATTICE_TOL = 1e-10
_CANCEL = 30.0   # a sum is redone in mpmath beyond this cancellation (_cancel_safe)


def is_infinite(v) -> bool:
    v = complex(v)
    return cmath.isinf(v)


class Family(Enum):
    GENERIC = "generic"
    NU_ZERO = "nu-zero"
    NU_HALF = "nu-half"


@dataclass(frozen=True)
class BoundaryCondition:
    """One of the three holomorphic boundary-condition families.

    Generic carries kappa (m generic), NU_ZERO/NU_HALF carry nu for m = 0
    and m = 1/2 (m = -1/2 is routed to the 1/2-family).  The value lives
    on the Riemann sphere: complex(inf, 0) encodes infinity.
    """

    family: Family
    value: complex

    def validate_m(self, m: complex):
        m = complex(m)
        if self.family is Family.GENERIC:
            if abs(m.real) >= 1:
                raise PreconditionError("generic family needs |Re m| < 1")
            if nu_order(m) is not None:
                raise PreconditionError("m in {-1/2, 0, 1/2} belongs to the nu-families")
        elif nu_order(m) != _order(self.family):
            raise PreconditionError("%s family requires |m| = %g"
                                    % (self.family.value, _order(self.family)))


class Regime(Enum):
    NEGATIVE = "NegativeEnergy"
    POSITIVE_UPPER = "PositiveEnergyUpper"
    POSITIVE_LOWER = "PositiveEnergyLower"
    ZERO = "ZeroEnergy"


@dataclass(frozen=True)
class SpectralPoint:
    lam: complex
    k_or_mu: Optional[complex]
    regime: Regime
    residual: float = 0.0


@dataclass(frozen=True)
class KernelQuery:
    params: WhittakerParams
    bc: BoundaryCondition
    k: complex
    x: float
    y: float

    def __post_init__(self):
        if complex(self.k).real <= 0:
            raise PreconditionError("Re k must be > 0")
        if not (self.x > 0 and self.y > 0):
            raise PreconditionError("x, y must be > 0")


# ---------------------------------------------------------------------------
# eigenvalue conditions

def _check_re_k(k: complex):
    if complex(k).real <= 0:
        raise PreconditionError("Re k must be > 0")


def _kappa(beta, m, k) -> complex:
    """kappa(k) on Re k >= 0; positive energy is k = -+ i mu."""
    d = beta / (2 * k)
    if dist_to_natural(d + m - 0.5) < _LATTICE_TOL:
        raise PreconditionError("beta/2k + m - 1/2 in N is excluded")
    pref = principal_pow(2 * k, -2 * m) * gamma(2 * m) * rgamma(-2 * m)
    return pref * gamma(0.5 - m - d) * rgamma(0.5 + m - d)


# The nu-families are the orders mm = 1/2 and mm = 0 of one construction:
# nu = w S(d) with w = -beta (mm = 1/2) or 1 (mm = 0) and
#   S(d) = psi(1/2+mm-d)/2 + psi(1/2-mm-d)/2 + 2 gamma - 2mm + ln 2k,
# poles on the lattice n = d - 1/2 + mm in N.  omega is (-1)^{2mm} (S - nu/w)
# and xi is -omega at -d.

def _order(family: Family) -> float:
    return 0.5 if family is Family.NU_HALF else 0.0


def _lattice_index(mm, d, tol):
    """The pole n = d - 1/2 + mm of nu when it lies within tol of N, else
    None.  The 1/2-family's n = 0 is d = 0, where w = -beta cancels the
    pole of S (nu -> -k), so that family's poles start at n = 1."""
    n = d - 0.5 + mm
    if dist_to_natural(n) < tol and round(n.real) >= 2 * mm:
        return round(n.real)
    return None


def _nu_sum(mm, d, k):
    """S(d) and the sum of its terms' moduli; one digamma call at mm = 0."""
    lo = digamma(0.5 - mm - d)
    ln2k = cmath.log(2 * k)
    if mm:
        hi = digamma(0.5 + mm - d)
        psi, size = 0.5 * hi + 0.5 * lo, abs(hi) / 2 + abs(lo) / 2
    else:
        psi, size = lo, abs(lo)
    return psi + 2 * EULER_GAMMA - 2 * mm + ln2k, size + 2 * EULER_GAMMA + abs(ln2k) + 2 * mm


def _nu_value(mm, beta, d, k) -> complex:
    """w S(d), unchecked; the 1/2-family's limit -k at beta = 0."""
    if mm and beta == 0:
        return -k
    s = _nu_sum(mm, d, k)[0]
    return -beta * s if mm else s


def _nu(mm, beta, k) -> complex:
    """nu(k) of the order-mm family on Re k >= 0."""
    d = beta / (2 * k)
    if _lattice_index(mm, d, _LATTICE_TOL) is not None:
        raise PreconditionError("the poles beta/2k - 1/2 + m in N are excluded")
    return _nu_value(mm, beta, d, k)


def kappa_of_k(beta, m, k) -> complex:
    """Mixing parameter kappa for which lambda = -k^2 is an eigenvalue.

    Zero on the pure lattice beta/2k - m - 1/2 in N (the denominator gamma
    pole), infinite on beta/2k + m - 1/2 in N; the latter set is excluded
    here (the stated condition degenerates) and raises instead.  1/kappa
    is kappa at -m.
    """
    _check_re_k(k)
    return _kappa(complex(beta), complex(m), complex(k))


def nu_half_of_k(beta, k) -> complex:
    """nu(k) for the m = 1/2 family; reduces to -k as beta -> 0."""
    _check_re_k(k)
    return _nu(0.5, complex(beta), complex(k))


def nu_zero_of_k(beta, k) -> complex:
    """nu(k) for the m = 0 family; gamma + ln(k/2) at beta = 0."""
    _check_re_k(k)
    return _nu(0.0, complex(beta), complex(k))


def _edge_ln(beta, edge: int) -> complex:
    bv = as_cvalue(beta)
    if bv.on_cut:
        bv = upper_edge(bv.re) if edge > 0 else lower_edge(bv.re)
    return principal_ln(bv)


def _k_of_mu(beta: complex, mu: float, edge: int) -> complex:
    """k = -e i mu, where the k-forms give lambda = mu^2 + e i0, for mu in
    the strip (0, e Im beta) of edge e."""
    e = +1 if edge > 0 else -1
    if not 0 < mu < e * beta.imag:
        raise PreconditionError("need 0 < mu < +-Im(beta) matching the edge")
    return -e * 1j * mu


def positive_energy_condition(family: Family, beta, m, mu: float, edge: int) -> complex:
    """kappa or nu putting lambda = mu^2 +- i0 in the point spectrum."""
    beta, m = complex(beta), complex(m)
    k = _k_of_mu(beta, float(mu), edge)
    if family is Family.GENERIC:
        return _kappa(beta, m, k)
    return _nu(_order(family), beta, k)


def zero_energy_condition(family: Family, beta, m, edge: int) -> complex:
    """kappa or nu putting lambda = 0 in the point spectrum."""
    m = complex(m)
    e = +1 if edge > 0 else -1
    bv = as_cvalue(beta)
    bc = complex(bv)
    if bc == 0:
        raise PreconditionError("beta must be nonzero")
    if family is Family.GENERIC:
        return gamma(2 * m) * rgamma(-2 * m) / cmath.exp(2 * m * _edge_ln(-bc, e))
    lnb = _edge_ln(bv, e)
    sq_im = (cmath.exp(0.5 * lnb)).imag
    if not e * sq_im > 0:
        raise PreconditionError("need +-Im sqrt(beta) > 0 matching the edge")
    # nu = A/B of the zero-energy coordinates
    a, b = _coords(_FB, _order(family), bc, m, 0.0, e)
    return a / b


def _inv_nu(mm, beta, k) -> complex:
    """1/nu of the order-mm family; analytic zero on the pole lattice."""
    beta, k = complex(beta), complex(k)
    _check_re_k(k)
    d = beta / (2 * k)
    if _lattice_index(mm, d, 1e-13) is not None:
        return 0.0 + 0.0j
    return 1.0 / _nu_value(mm, beta, d, k)


def condition_for(bc: BoundaryCondition, params: WhittakerParams):
    """The map k -> condition value used for eigenvalue search."""
    beta, m = params.beta, params.m
    if bc.family is Family.GENERIC:
        if is_infinite(bc.value):
            return (lambda k: kappa_of_k(beta, -m, k)), 0.0 + 0.0j
        if abs(complex(bc.value)) > 1.0:
            return (lambda k: kappa_of_k(beta, -m, k)), 1.0 / complex(bc.value)
        return (lambda k: kappa_of_k(beta, m, k)), complex(bc.value)
    mm = _order(bc.family)
    if is_infinite(bc.value):
        return (lambda k: _inv_nu(mm, beta, k)), 0.0 + 0.0j
    fn = nu_half_of_k if mm else nu_zero_of_k
    return (lambda k: fn(beta, k)), complex(bc.value)


# ---------------------------------------------------------------------------
# omega / eta / xi / zeta

def gamma_factor(beta, m, k) -> complex:
    """(2k)^{-m} / (Gamma(1/2+m-beta/2k) Gamma(1-2m))."""
    beta, m, k = complex(beta), complex(m), complex(k)
    d = beta / (2 * k)
    return principal_pow(2 * k, -m) * rgamma(0.5 + m - d) * rgamma(1 - 2 * m)


def eta(beta, m, kappa, k) -> complex:
    """Resolvent denominator gamma_m + kappa gamma_{-m} (kappa finite)."""
    if is_infinite(kappa):
        raise PreconditionError("eta is defined for finite kappa")
    return gamma_factor(beta, m, k) + complex(kappa) * gamma_factor(beta, -complex(m), k)


def omega_generic(beta, m, kappa, k) -> complex:
    m = complex(m)
    if is_infinite(kappa):
        return cmath.pi / cmath.sin(2 * cmath.pi * m)
    kappa = complex(kappa)
    if kappa == 0:
        return INFINITY
    gp = gamma_factor(beta, m, k)
    gm = gamma_factor(beta, -m, k)
    return (gp + kappa * gm) / (kappa * gm) * cmath.pi / cmath.sin(2 * cmath.pi * m)


def _omega(mm, beta, nu, k, at_minus_d=False):
    """omega of the mm-family (at -d for xi = -omega(-d)) and the scale its
    zero is tested against."""
    beta, nu, k = complex(beta), complex(nu), complex(k)
    d = beta / (2 * k)
    s, scale = _nu_sum(mm, -d if at_minus_d else d, k)
    nw = nu / -beta if mm else nu
    return (-1.0) ** (2 * mm) * (s - nw), scale + abs(nw)


def omega_half(beta, nu, k) -> complex:
    return _omega(0.5, beta, nu, k)[0]


def omega_zero(beta, nu, k) -> complex:
    return _omega(0.0, beta, nu, k)[0]


def xi_half(beta, nu, k) -> complex:
    return -_omega(0.5, beta, nu, k, at_minus_d=True)[0]


def xi_zero(beta, nu, k) -> complex:
    return -_omega(0.0, beta, nu, k, at_minus_d=True)[0]


def _cancel_safe(terms_of):
    """finish(sum(terms)) for (terms, finish) = terms_of(backend), in doubles;
    where the terms are more than _CANCEL times their sum, redone in mpmath
    at the digits that measured cancellation needs."""
    terms, finish = terms_of(_FB)
    total = sum(terms)
    size = sum(abs(t) for t in terms)
    if size > _CANCEL * abs(total):
        dps = _rerun_dps(size / max(abs(total), 1e-300))
        with mp.workdps(dps):
            terms, finish = terms_of(_MB(dps))
            return complex(finish(sum(terms)))
    return finish(total)


@_memo
def zeta(beta, m, k) -> complex:
    """Normalization function for the eigenprojections; even in m.

    Analytic in k, so the positive-energy values are obtained by feeding
    k = -+ i mu.  Near m in {0, +-1/2} the continuous trigamma extensions
    are used.  For generic m the sum 2m + d psi(1/2+m-d) - d psi(1/2-m-d)
    cancels where |d| = |beta/2k| is large; it goes through _cancel_safe.
    """
    beta, m, k = complex(beta), complex(m), complex(k)
    d = beta / (2 * k)
    mm = nu_order(m)
    if mm == 0:
        return 1 + d * trigamma(0.5 - d)
    if mm:
        return -(1 + d / 2 * trigamma(1 - d) + d / 2 * trigamma(-d))

    def terms(be):
        dm, mc = be.c(beta) / (2 * be.c(k)), be.c(m)
        return ((2 * mc, dm * be.digamma(0.5 + mc - dm), -dm * be.digamma(0.5 - mc - dm)),
                lambda s: be.pi * s / be.sin(2 * be.pi * mc))
    return _cancel_safe(terms)


# ---------------------------------------------------------------------------
# resolvent kernels

def _pure_kernel(beta, m, k, xs, xl) -> complex:
    """Kernel of the pure operator (boundary condition ~ x^{1/2+m})."""
    d = complex(beta) / (2 * k)
    arg = 0.5 + complex(m) - d
    if is_nonpositive_int(arg, _SPECTRUM_TOL):
        raise SpectrumHit("-k^2 in the pure point spectrum", k=k)
    iv = whittaker_i_ext(WhittakerParams(d, m), 2 * k * xs).value
    kv = whittaker_k(WhittakerParams(d, m), 2 * k * xl).value
    return gamma(arg) / (2 * k) * iv * kv


def resolvent_kernel(q: KernelQuery) -> complex:
    """Green's function R(-k^2; x, y) of the selected operator.

    Symmetric in (x, y); raises SpectrumHit when the resolvent denominator
    vanishes (then -k^2 is an eigenvalue).  The doubly degenerate lattice
    of the nu-families is routed to the X-based kernels.
    """
    beta = complex(q.params.beta)
    m = complex(q.params.m)
    k = complex(q.k)
    q.bc.validate_m(m)
    xs, xl = (q.x, q.y) if q.x <= q.y else (q.y, q.x)
    d = beta / (2 * k)
    zs, zl = 2 * k * xs, 2 * k * xl
    pw = WhittakerParams(d, m)

    if q.bc.family is Family.GENERIC:
        kappa = q.bc.value
        if is_infinite(kappa):
            return _pure_kernel(beta, -m, k, xs, xl)
        kappa = complex(kappa)
        gp = gamma_factor(beta, m, k)
        gm = gamma_factor(beta, -m, k)
        den = gp + kappa * gm
        if abs(den) <= _SPECTRUM_TOL * (abs(gp) + abs(kappa) * abs(gm)):
            raise SpectrumHit("eta vanished: -k^2 is an eigenvalue", k=k)
        u = (principal_pow(2 * k, -m) * rgamma(1 - 2 * m)
             * whittaker_i_ext(pw, zs).value
             + kappa * principal_pow(2 * k, m) * rgamma(1 + 2 * m)
             * whittaker_i_ext(WhittakerParams(d, -m), zs).value)
        return u * whittaker_k(pw, zl).value / (2 * k * den)

    nu = q.bc.value
    mm = _order(q.bc.family)
    if is_infinite(nu):
        return _pure_kernel(beta, mm, k, xs, xl)
    pwm = WhittakerParams(d, mm)
    n = _lattice_index(mm, d, SNAP_TOL)
    if n is not None:
        # X-based kernel on the doubly degenerate lattice; the overall sign
        # is fixed by the jump condition Wr(u, K) = -1, which the boundary
        # mixture with (-1)^n X fails by -1 for every n (checked against
        # both the nearby regular kernel and the applied-operator
        # residual), hence the leading minus.
        xi = -_omega(mm, beta, nu, k, at_minus_d=True)[0]
        u = ((-1.0) ** (n + 1) * whittaker_x(pwm, zs).value
             + (-1.0) ** (2 * mm) * xi * (rgamma(0.5 - mm + d) * rgamma(0.5 + mm + d))
             * whittaker_k(pwm, zs).value)
        return u * whittaker_k(pwm, zl).value / (2 * k)
    om, scale = _omega(mm, beta, nu, k)
    if abs(om) <= _SPECTRUM_TOL * scale:
        raise SpectrumHit("omega vanished: -k^2 is an eigenvalue", k=k)
    u = (om * rgamma(0.5 - mm - d) * whittaker_i_ext(pwm, zs).value
         + whittaker_k(pwm, zs).value)
    return (gamma(0.5 - mm - d) * gamma(0.5 + mm - d) / (2 * k * om)
            * u * whittaker_k(pwm, zl).value)


# ---------------------------------------------------------------------------
# the Wronskian identity: integrals of products of solutions and the
# eigenprojection norms
#
# By the Lagrange identity (k^2 - p^2) int_0^inf K_k K_p dx, with
# K_k = K(2kx; beta/2k), is the Wronskian of the two solutions at 0.  In
# boundary-condition coordinates (A, B) of K_k it is C (A(k) B(p) - A(p) B(k)):
#   generic m:  A = u_{-m}, B = u_m, u_s(k) = (2k)^{1/2-s} rgamma(1/2+s-d),
#               C = pi / sin(2 pi m);
#   m = mm in {0, +-1/2} (the nu-families' orders):
#               B = (2k)^{1/2-mm} rgamma(1/2+mm-d), A = nu(k) B, C = (-1)^{2mm}.
# B/A is the condition map up to a constant, so a cross integral is a
# difference of the condition map and the norm int K_k^2 dx is its
# k-derivative (the diagonal).  Every piece is an entire product
# (rgamma psi, rgamma^2 psi'), finite on the Laguerre lattice.

def _rgamma_psi(be, z, j=0):
    """rgamma(z)^{j+1} psi^{(j)}(z) for j in {0, 1}: entire, with the value
    (-1)^{(n+1)(j+1)} n!^{j+1} at z = -n."""
    if is_nonpositive_int(complex(z)):
        n = -round(complex(z).real)
        return be.c((-1) ** ((n + 1) * (j + 1)) * math.factorial(n) ** (j + 1))
    return be.rgamma(z) ** (j + 1) * (be.trigamma(z) if j else be.digamma(z))


def _coords(be, mm, beta, m, k, e=0):
    """Boundary-condition coordinates (A(k), B(k)) of K_k.  k = 0 on edge e
    is the zero-energy limit, with K_0 = (beta x)^{1/4} H^e_{2m}(2 sqrt(beta x)),
    u_s(0) = e^{-e i pi m} (-beta)^{1/2-s} / sqrt(pi) and nu(0) =
    w (ln(-beta) + 2 gamma - 2mm), the limit of S along k = -e i mu."""
    if e:
        lb = be.log(-beta)
        ph = cmath.exp(-e * 1j * math.pi * complex(m)) / math.sqrt(math.pi)
        if mm is None:
            return ph * be.exp((0.5 + m) * lb), ph * be.exp((0.5 - m) * lb)
        nu0, b = lb + 2 * EULER_GAMMA - 2 * mm, ph * be.exp((0.5 - mm) * lb)
        return (-beta * nu0 if mm else nu0) * b, b
    d = beta / (2 * k)
    lk = be.log(2 * k)
    if mm is None:
        return (be.exp((0.5 + m) * lk) * be.rgamma(0.5 - m - d),
                be.exp((0.5 - m) * lk) * be.rgamma(0.5 + m - d))
    z = 0.5 + mm - d
    g = be.rgamma(z)
    # rgamma(z) S(d), less the 1/2d that psi(-d) = psi(1-d) + 1/d adds at
    # mm = 1/2, where w = -beta turns it into -k rgamma(z)
    gs = _rgamma_psi(be, z) + g * (2 * EULER_GAMMA - 2 * mm + lk)
    a = be.exp((0.5 - mm) * lk)
    return a * (-beta * gs - k * g if mm else gs), a * g


def _cross(beta, m, k, p, edge=0) -> complex:
    """(k^2 - p^2) int_0^inf K_k K_p dx; p = 0 with edge e is the zero-energy
    limit.  The difference goes through _cancel_safe."""
    if p == k and not edge:
        return 0j   # antisymmetric; _cancel_safe would seek the exact zero at ~320 digits
    mm = nu_order(m)

    def terms(be):
        b, mc = be.c(beta), be.c(m)
        c = be.pi / be.sin(2 * be.pi * mc) if mm is None else (-1.0) ** (2 * mm)
        ak, bk = _coords(be, mm, b, mc, be.c(k))
        ap, bp = _coords(be, mm, b, mc, be.c(p), edge)
        return (c * ak * bp, -c * ap * bk), lambda s: s
    return _cancel_safe(terms)


@_memo
def _norm(beta, m, k) -> complex:
    """int_0^inf K_k^2 dx = C (A' B - A B')(k) / 2k, the diagonal of _cross."""
    mm = nu_order(m)

    def terms(be):
        kc, mc = be.c(k), be.c(m)
        d = be.c(beta) / (2 * kc)
        if mm is None:
            gp, gm = be.rgamma(0.5 + mc - d), be.rgamma(0.5 - mc - d)
            return ((2 * mc * gp * gm, d * _rgamma_psi(be, 0.5 + mc - d) * gm,
                     -d * gp * _rgamma_psi(be, 0.5 - mc - d)),
                    lambda s: be.pi * s / (be.sin(2 * be.pi * mc) * kc))
        # (-1)^{2mm} B^2 nu'(k) / 2k; at mm = 1/2, psi'(-d) = psi'(1-d) + 1/d^2
        g2, t = be.rgamma(0.5 + mm - d) ** 2, _rgamma_psi(be, 0.5 + mm - d, 1)
        w = d if mm else 1
        return (w * g2, w * d * t, mm * g2), lambda s: s / kc
    return _cancel_safe(terms)


def _hankel_norm(beta, m, e) -> complex:
    """int ((beta x)^{1/4} H^e_{2m}(2 sqrt(beta x)))^2 dx."""
    mm = nu_order(m)
    # sin(2 pi m) / (m (4m^2 - 1)), continued to -2 pi at m = 0 and -pi at +-1/2
    sf = (cmath.sin(2 * cmath.pi * m) / (m * (4 * m * m - 1)) if mm is None
          else -2 * cmath.pi * (1 - mm))
    return cmath.exp(-e * 2j * cmath.pi * m) / (3 * beta * sf)


def projection_kernel(p: WhittakerParams, pt: SpectralPoint, x: float, y: float) -> complex:
    """Rank-one eigenprojection kernel P(lambda; x, y) = f(x) f(y) / int f^2,
    bilinear-normalized, f the eigenfunction of the regime."""
    beta, m = complex(p.beta), complex(p.m)
    if not (x > 0 and y > 0):
        raise PreconditionError("x, y must be > 0")
    if pt.regime is not Regime.ZERO:
        # positive energy is the k-form at k = -e i mu, where K(2kx) is
        # H^e(2 mu x) up to a constant phase that f f / norm cancels
        if pt.regime is Regime.NEGATIVE:
            k = complex(pt.k_or_mu)
            _check_re_k(k)
        else:
            k = _k_of_mu(beta, float(complex(pt.k_or_mu).real),
                         +1 if pt.regime is Regime.POSITIVE_UPPER else -1)
        pw = WhittakerParams(beta / (2 * k), m)
        f = lambda t: whittaker_k(pw, 2 * k * t).value
        norm = _norm(beta, m, k)
    else:
        bv = as_cvalue(beta)
        if bv.on_cut:
            e, sq = +1, 1j * math.sqrt(-bv.re)
        else:
            if beta == 0 or (beta.imag == 0 and beta.real > 0):
                raise PreconditionError("lambda = 0 needs beta outside [0, inf)")
            sq = cmath.sqrt(beta)
            e = +1 if sq.imag > 0 else -1
        f = lambda t: (beta * t) ** 0.25 * bessel1_h(2 * m, e, 2 * sq * math.sqrt(t)).value
        norm = _hankel_norm(beta, m, e)
    return f(x) * f(y) / norm


# ---------------------------------------------------------------------------
# blow-up maps and self-adjointness

def blowup_kappa0(m, nu) -> complex:
    """kappa^(0)(m, nu) = -1/(1 + 2 m nu) on the Riemann sphere."""
    m = complex(m)
    if m == 0:
        return complex(-1.0)
    if is_infinite(nu):
        return 0.0 + 0.0j
    den = 1 + 2 * m * complex(nu)
    if den == 0:
        return INFINITY
    return -1.0 / den


def blowup_kappa_half(beta, m, nu) -> complex:
    """kappa^(1/2)(beta, m, nu) = 1/(-beta/(2m-1) + nu)."""
    beta, m = complex(beta), complex(m)
    if is_infinite(nu):
        return 0.0 + 0.0j
    if m == 0.5:
        if beta != 0:
            return 0.0 + 0.0j
        den = complex(nu)
    else:
        den = -beta / (2 * m - 1) + complex(nu)
    if den == 0:
        return INFINITY
    return 1.0 / den


def is_self_adjoint(p: WhittakerParams, bc: BoundaryCondition, tol: float = 1e-12) -> bool:
    """Self-adjointness predicate for the three families."""
    beta, m = complex(p.beta), complex(p.m)
    if abs(beta.imag) > tol:
        return False
    if bc.family is Family.GENERIC:
        kappa = bc.value
        real_m = abs(m.imag) <= tol and -1 < m.real < 1
        imag_m = abs(m.real) <= tol and abs(m.imag) > tol
        if real_m:
            return is_infinite(kappa) or abs(complex(kappa).imag) <= tol
        if imag_m:
            return (not is_infinite(kappa)) and abs(abs(complex(kappa)) - 1.0) <= tol
        return False
    nu = bc.value
    return is_infinite(nu) or abs(complex(nu).imag) <= tol
