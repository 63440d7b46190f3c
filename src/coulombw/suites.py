"""Verification suites shared by the CLI `verify` command and the
acceptance tests.  Every case record carries its deviation and the
tolerance it was judged against; runs are deterministic per seed.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, asdict
from typing import Callable, Dict, List

from .bessel1 import bessel1_h, bessel1_i, bessel1_k, bessel1_x
from .core import EULER_GAMMA, gamma, log_gamma, rgamma
from .errors import NonConvergenceError
from .integrals import (bessel_kk, bessel_x2kk, h_cross, h_norm_sq, hankel_k_cross,
                        hankel_norm_sq, k_cross, k_norm_sq)
from .oracle import ode_residual, solution_handle, wronskian_numeric
from .params import WhittakerParams, dist_to_integer
from .quadrature import quad_halfline, quad_ray
from .spectral import (BoundaryCondition, Family, INFINITY, Regime, SpectralPoint,
                       blowup_kappa0, blowup_kappa_half, is_self_adjoint, kappa_of_k,
                       nu_half_of_k, nu_zero_of_k, omega_generic, omega_half,
                       omega_zero, projection_kernel)
from .whittaker import whittaker_h, whittaker_i, whittaker_k, whittaker_x


@dataclass
class CaseResult:
    suite: str
    case: int
    name: str
    passed: bool
    deviation: float
    tol: float

    def to_record(self) -> Dict:
        d = asdict(self)
        for key in ("deviation", "tol"):
            if not math.isfinite(d[key]):
                d[key] = None
        return d


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------

def _draw_wronskian_params(rng: random.Random):
    while True:
        m = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.4, 0.4))
        beta = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.0, 1.0))
        if dist_to_integer(2 * m) < 0.06:
            continue
        if dist_to_integer(m + beta) < 0.06:
            continue
        if dist_to_integer(beta - m - 0.5) < 0.05 or dist_to_integer(beta + m + 0.5) < 0.05:
            continue
        return beta, m


def run_wronskian(cases: int = 500, seed: int = 0) -> List[CaseResult]:
    """Identity suite: the three Wronskians (constancy and value), the
    solution connection formula, and the reflection identity, per draw."""
    from .branching import lower_edge, upper_edge

    rng = random.Random(seed)
    tol = 1e-9
    out = []
    for i in range(cases):
        beta, m = _draw_wronskian_params(rng)
        z1 = rng.uniform(0.6, 1.6)
        z2 = rng.uniform(1.8, 3.0)
        p = WhittakerParams(beta, m)
        pairs = [
            ("Wr(I,I-)", solution_handle("I", p), solution_handle("I", p.flip_m()),
             -cmath.sin(2 * cmath.pi * m) / cmath.pi),
            ("Wr(I,K)", solution_handle("I", p), solution_handle("K", p),
             -rgamma(0.5 + m - beta)),
            ("Wr(K,X)", solution_handle("K", p), solution_handle("X", p),
             -cmath.sin(cmath.pi * (m + beta))),
        ]
        name, f, g, expect = pairs[i % 3]
        w1 = wronskian_numeric(f, g, z1)
        w2 = wronskian_numeric(f, g, z2)
        scale = max(1.0, abs(expect))
        dev = max(abs(w1 - w2), abs(w1 - expect)) / scale
        out.append(CaseResult("wronskian", i, name, dev <= tol, dev, tol))
        # connection: I rebuilt from K and X
        iv = whittaker_i(p, z1).value
        rhs = (cmath.cos(2 * cmath.pi * m) * rgamma(0.5 + m + beta) * whittaker_k(p, z1).value
               - rgamma(0.5 + m - beta) * whittaker_x(p, z1).value) / cmath.sin(cmath.pi * (m + beta))
        dev = abs(iv - rhs) / max(1.0, abs(iv))
        out.append(CaseResult("wronskian", i, "connection", dev <= tol, dev, tol))
        # reflection through both cut edges
        up = (cmath.exp(-1j * cmath.pi * (0.5 + m))
              * whittaker_i(WhittakerParams(-beta, m), upper_edge(-z1)).value)
        dn = (cmath.exp(1j * cmath.pi * (0.5 + m))
              * whittaker_i(WhittakerParams(-beta, m), lower_edge(-z1)).value)
        dev = max(abs(iv - up), abs(iv - dn)) / max(1.0, abs(iv))
        out.append(CaseResult("wronskian", i, "reflection", dev <= tol, dev, tol))
    return out


_ODE_GRID = [
    (0.7, 0.26), (1.3, -0.4), (0.5 + 0.3j, 0.37), (-0.8, 0.11), (1.0, 0.45j),
]
_ODE_Z = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]


def run_ode(cases: int = 0, seed: int = 0) -> List[CaseResult]:
    """ODE residuals for all six families plus the zero-energy solutions."""
    tol = 1e-8
    out = []
    i = 0
    for beta, m in _ODE_GRID:
        p = WhittakerParams(beta, m)
        for z in _ODE_Z:
            for which, sign in (("I", "hyperbolic"), ("K", "hyperbolic"),
                                ("X", "hyperbolic"), ("J", "trigonometric"),
                                ("H+", "trigonometric"), ("H-", "trigonometric")):
                dev = ode_residual(which, p, sign, z)
                out.append(CaseResult("ode", i, "%s@z=%g" % (which, z), dev <= tol, dev, tol))
                i += 1
    for beta, m in ((0.7, 0.26), (0.9, 0.0), (1.2, 0.5), (0.4 + 0.2j, -0.33)):
        p = WhittakerParams(beta, m)
        for z in (0.4, 1.3, 4.0):
            dev = ode_residual("j", p, "zero", z)
            out.append(CaseResult("ode", i, "j@z=%g" % z, dev <= tol, dev, tol))
            i += 1
            if abs(complex(m)) < 1e-12 or abs(abs(complex(m)) - 0.5) < 1e-12:
                dev = ode_residual("y", p, "zero", z)
                out.append(CaseResult("ode", i, "y@z=%g" % z, dev <= tol, dev, tol))
                i += 1
    return out


# ---------------------------------------------------------------------------
# integral identities vs quadrature

def _draw_m_generic(rng, lo=0.08, hi=0.42):
    m = rng.uniform(lo, hi) * rng.choice([-1, 1])
    return m


def _case_k_cross(rng, m_kind: str = "generic"):
    beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 0.6))
    m = {"generic": _draw_m_generic(rng), "zero": 0.0, "half": 0.5}[m_kind]
    k = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.2, 0.2))
    p = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.2, 0.2))
    if abs(k - p) < 0.15:
        p = p + 0.3
    dk, dp = beta / (2 * k), beta / (2 * p)
    f = lambda x: (whittaker_k(WhittakerParams(dk, m), 2 * k * x).value
                   * whittaker_k(WhittakerParams(dp, m), 2 * p * x).value)
    quad = quad_halfline(f, tol=3e-9).value * (k * k - p * p)
    return "k_cross_" + m_kind, _rel(quad, k_cross(beta, m, k, p)), 1e-7


def _case_k_norm(rng, m_kind: str):
    beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
    k = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.15, 0.15))
    m = {"generic": _draw_m_generic(rng), "zero": 0.0, "half": 0.5}[m_kind]
    d = beta / (2 * k)
    f = lambda x: whittaker_k(WhittakerParams(d, m), 2 * k * x).value ** 2
    quad = quad_halfline(f, tol=3e-9).value
    return "k_norm_" + m_kind, _rel(quad, k_norm_sq(beta, m, k)), 1e-7


def _draw_strip(rng):
    # beta with a comfortable strip so the rotated integrand decays briskly
    im = rng.uniform(1.6, 2.8) * rng.choice([-1, 1])
    beta = complex(rng.uniform(-0.5, 0.5), im)
    e = +1 if im > 0 else -1
    mu = rng.uniform(0.35, 0.6) * abs(im)
    return beta, e, mu


def _case_h_cross(rng, m_kind: str):
    beta, e, mu = _draw_strip(rng)
    eta_ = rng.uniform(0.35, 0.6) * abs(beta.imag)
    if abs(mu - eta_) < 0.1:
        eta_ = 0.75 * eta_
    m = {"generic": _draw_m_generic(rng), "zero": 0.0, "half": 0.5}[m_kind]
    pm = WhittakerParams(beta / (2 * mu), m)
    pe = WhittakerParams(beta / (2 * eta_), m)
    f = lambda z: (whittaker_h(pm, e, 2 * mu * z).value
                   * whittaker_h(pe, e, 2 * eta_ * z).value)
    quad = quad_ray(f, angle=e * math.pi / 4, tol=3e-7).value * (mu * mu - eta_ * eta_)
    return "h_cross_" + m_kind, _rel(quad, h_cross(beta, m, mu, eta_, e)), 1e-5


def _case_h_norm(rng, m_kind: str):
    beta, e, mu = _draw_strip(rng)
    m = {"generic": _draw_m_generic(rng), "zero": 0.0, "half": 0.5}[m_kind]
    pm = WhittakerParams(beta / (2 * mu), m)
    f = lambda z: whittaker_h(pm, e, 2 * mu * z).value ** 2
    quad = quad_ray(f, angle=e * math.pi / 4, tol=3e-7).value
    return "h_norm_" + m_kind, _rel(quad, h_norm_sq(beta, m, mu, e)), 1e-5


def _draw_offcut_beta(rng):
    im = rng.uniform(0.9, 1.8) * rng.choice([-1, 1])
    beta = complex(rng.uniform(-0.6, 0.8), im)
    sq = cmath.sqrt(beta)
    e = +1 if sq.imag > 0 else -1
    return beta, e


def _case_hankel_cross(rng, m_kind: str):
    beta, e = _draw_offcut_beta(rng)
    m = {"generic": _draw_m_generic(rng), "zero": 0.0, "half": 0.5}[m_kind]
    k = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.15, 0.15))
    sq = cmath.sqrt(beta)
    pk = WhittakerParams(beta / (2 * k), m)
    f = lambda x: ((beta * x) ** 0.25 * bessel1_h(2 * m, e, 2 * sq * math.sqrt(x)).value
                   * whittaker_k(pk, 2 * k * x).value)
    quad = quad_halfline(f, tol=3e-9).value
    return "hankel_cross_" + m_kind, _rel(quad, hankel_k_cross(beta, m, k, e)), 1e-7


def _case_hankel_norm(rng, m_kind: str):
    beta, e = _draw_offcut_beta(rng)
    m = {"generic": _draw_m_generic(rng), "zero": 0.0, "half": 0.5}[m_kind]
    sq = cmath.sqrt(beta)
    f = lambda x: ((beta * x) ** 0.25 * bessel1_h(2 * m, e, 2 * sq * math.sqrt(x)).value) ** 2
    quad = quad_halfline(f, tol=3e-8).value
    return "hankel_norm_" + m_kind, _rel(quad, hankel_norm_sq(beta, m, e)), 1e-5


def _case_bessel(rng, variant: str, closed_form, weight):
    """int weight(x) K_m(a x) K_m(b x) dx against bessel_kk (weight 1) or
    bessel_x2kk (weight x^2)."""
    m = _draw_m_generic(rng, 0.1, 0.45)
    a = rng.uniform(0.7, 1.6)
    b = rng.uniform(0.7, 1.6)
    if variant == "m0":
        m = 0.0
    elif variant == "diag":
        b = a
    elif variant == "both":
        m, b = 0.0, a
    elif abs(a - b) < 0.2:
        b = a + 0.4
    f = lambda x: weight(x) * bessel1_k(m, a * x).value * bessel1_k(m, b * x).value
    quad = quad_halfline(f, tol=3e-9).value
    return closed_form.__name__ + "_" + variant, _rel(quad, closed_form(a, b, m)), 1e-7


_INTEGRAL_CYCLE = [
    lambda rng: _case_k_cross(rng, "generic"),
    lambda rng: _case_k_cross(rng, "zero"),
    lambda rng: _case_k_cross(rng, "half"),
    lambda rng: _case_k_norm(rng, "generic"),
    lambda rng: _case_k_norm(rng, "zero"),
    lambda rng: _case_k_norm(rng, "half"),
    lambda rng: _case_h_cross(rng, "generic"),
    lambda rng: _case_h_norm(rng, "generic"),
    lambda rng: _case_h_cross(rng, "zero"),
    lambda rng: _case_h_cross(rng, "half"),
    lambda rng: _case_h_norm(rng, "zero"),
    lambda rng: _case_h_norm(rng, "half"),
    lambda rng: _case_hankel_cross(rng, "generic"),
    lambda rng: _case_hankel_cross(rng, "zero"),
    lambda rng: _case_hankel_cross(rng, "half"),
    lambda rng: _case_hankel_norm(rng, "generic"),
    lambda rng: _case_hankel_norm(rng, "zero"),
    lambda rng: _case_bessel(rng, "generic", bessel_kk, lambda x: 1.0),
    lambda rng: _case_bessel(rng, "m0", bessel_kk, lambda x: 1.0),
    lambda rng: _case_bessel(rng, "diag", bessel_kk, lambda x: 1.0),
    lambda rng: _case_bessel(rng, "both", bessel_kk, lambda x: 1.0),
    lambda rng: _case_bessel(rng, "generic", bessel_x2kk, lambda x: x * x),
    lambda rng: _case_bessel(rng, "m0", bessel_x2kk, lambda x: x * x),
    lambda rng: _case_bessel(rng, "diag", bessel_x2kk, lambda x: x * x),
    lambda rng: _case_bessel(rng, "both", bessel_x2kk, lambda x: x * x),
]


def run_integrals(cases: int = 200, seed: int = 0) -> List[CaseResult]:
    """Quadrature vs every closed-form integral identity, round-robin."""
    rng = random.Random(seed)
    out = []
    for i in range(cases):
        maker = _INTEGRAL_CYCLE[i % len(_INTEGRAL_CYCLE)]
        try:
            name, dev, tol = maker(rng)
        except NonConvergenceError as exc:
            out.append(CaseResult("integrals", i, "quadrature-failed", False,
                                  float("inf"), 0.0))
            continue
        out.append(CaseResult("integrals", i, name, dev <= tol, dev, tol))
    return out


# ---------------------------------------------------------------------------
# projections

def _proj_cases():
    yield ("negative", WhittakerParams(0.9, 0.27),
           SpectralPoint(-(0.8 ** 2), 0.8, Regime.NEGATIVE))
    yield ("negative-m0", WhittakerParams(0.7, 0.0),
           SpectralPoint(-(0.9 ** 2), 0.9, Regime.NEGATIVE))
    yield ("positive", WhittakerParams(0.2 + 2.2j, 0.31),
           SpectralPoint(0.8 ** 2, 0.8, Regime.POSITIVE_UPPER))
    yield ("zero", WhittakerParams(0.4 + 1.3j, 0.27),
           SpectralPoint(0.0, None, Regime.ZERO))


def run_projections(cases: int = 0, seed: int = 0) -> List[CaseResult]:
    """Idempotency under quadrature, closed-form norms, m -> -m symmetry."""
    out = []
    i = 0
    x_pt, y_pt = 0.9, 1.7
    for name, p, pt in _proj_cases():
        beta, m = p.beta, complex(p.m)
        pxy = projection_kernel(p, pt, x_pt, y_pt)
        if pt.regime is Regime.POSITIVE_UPPER:
            # the middle-variable integrand oscillates with polynomial
            # decay, so the z-integral runs along a rotated ray; the
            # rank-one structure P(x,z)P(z,y) = P(x,y) * [c * H(z)^2]
            # reduces idempotency to c * int H^2 = 1, with c the kernel's
            # own constant P(x,y) / (H(x) H(y))
            mu = float(complex(pt.k_or_mu).real)
            pm = WhittakerParams(beta / (2 * mu), m)
            h = lambda z: whittaker_h(pm, +1, 2 * mu * z).value
            c = pxy / (h(x_pt) * h(y_pt))
            quad = c * quad_ray(lambda z: h(z) ** 2, angle=math.pi / 4, tol=3e-7).value
            dev = abs(quad - 1.0)
            tol_i = 1e-5
        else:
            f = lambda z: projection_kernel(p, pt, x_pt, z) * projection_kernel(p, pt, z, y_pt)
            quad = quad_halfline(f, tol=3e-8).value
            dev = _rel(quad, pxy)
            tol_i = 1e-6
        out.append(CaseResult("projections", i, "idempotent-" + name, dev <= tol_i, dev, tol_i))
        i += 1
        # m -> -m symmetry of the kernel
        dev = _rel(pxy, projection_kernel(WhittakerParams(beta, -m), pt, x_pt, y_pt))
        out.append(CaseResult("projections", i, "m-symmetry-" + name, dev <= 1e-10, dev, 1e-10))
        i += 1
    # closed-form norms vs quadrature
    beta, m, k = 0.9, 0.27, 0.8
    d = beta / (2 * k)
    f = lambda x: whittaker_k(WhittakerParams(d, m), 2 * k * x).value ** 2
    dev = _rel(quad_halfline(f, tol=3e-8).value, k_norm_sq(beta, m, k))
    out.append(CaseResult("projections", i, "norm-negative", dev <= 1e-6, dev, 1e-6))
    i += 1
    beta, m, mu, e = 0.2 + 2.2j, 0.31, 0.8, +1
    pm = WhittakerParams(beta / (2 * mu), m)
    f = lambda z: whittaker_h(pm, e, 2 * mu * z).value ** 2
    dev = _rel(quad_ray(f, angle=math.pi / 4, tol=3e-7).value, h_norm_sq(beta, m, mu, e))
    out.append(CaseResult("projections", i, "norm-positive", dev <= 1e-5, dev, 1e-5))
    i += 1
    beta, m = 0.4 + 1.3j, 0.27
    sq = cmath.sqrt(beta)
    f = lambda x: ((beta * x) ** 0.25 * bessel1_h(2 * m, +1, 2 * sq * math.sqrt(x)).value) ** 2
    dev = _rel(quad_halfline(f, tol=3e-8).value, hankel_norm_sq(beta, m, +1))
    out.append(CaseResult("projections", i, "norm-zero", dev <= 1e-6, dev, 1e-6))
    return out


# ---------------------------------------------------------------------------
# blow-up limits and the k -> 0 demonstration

def run_blowup(cases: int = 0, seed: int = 0) -> List[CaseResult]:
    out = []
    i = 0
    # the deviation is O(m) with a slope set by psi'(1/2 - beta/2k)-type
    # factors, so beta/2k is kept away from the psi pole lattice
    for beta, k, nu in ((0.8, 2.0, 0.35), (-0.7, 1.0, 0.5)):
        target0 = omega_zero(beta, nu, k)
        for mm in (1e-4, -1e-4):
            dev = abs(omega_generic(beta, mm, blowup_kappa0(mm, nu), k) - target0)
            out.append(CaseResult("blowup", i, "omega0@m=%g" % mm, dev <= 1e-3, dev, 1e-3))
            i += 1
    for beta, k, nu in ((1.1, 1.5, 0.2), (-0.7, 1.0, 0.5)):
        targeth = omega_half(beta, nu, k)
        for mm in (0.5 + 1e-4, 0.5 - 1e-4):
            dev = abs(omega_generic(beta, mm, blowup_kappa_half(beta, mm, nu), k) - targeth)
            out.append(CaseResult("blowup", i, "omega-half@m=%g" % (mm - 0.5), dev <= 1e-3, dev, 1e-3))
            i += 1
    # map conventions
    dev = abs(blowup_kappa0(0.3, 0.0) - (-1.0))
    out.append(CaseResult("blowup", i, "kappa0(m,0)=-1", dev == 0.0, dev, 0.0)); i += 1
    dev = abs(blowup_kappa0(0.0, 2.7) - (-1.0))
    out.append(CaseResult("blowup", i, "kappa0(0,nu)=-1", dev == 0.0, dev, 0.0)); i += 1
    dev = abs(blowup_kappa_half(0.9, 0.5, 1.3))
    out.append(CaseResult("blowup", i, "kappa-half(m=1/2)=0", dev == 0.0, dev, 0.0)); i += 1
    # k -> 0: the limit quantity shrinks monotonically while the cross
    # integral stays away from the norm (recorded, not a tolerance claim)
    beta, m, e = 0.4 + 1.3j, 0.27, +1
    prev = math.inf
    mono = True
    for kk in (1e-1, 1e-2, 1e-3, 1e-4):
        d = beta / (2 * kk)
        q = cmath.exp(log_gamma(0.5 + m - d) - log_gamma(0.5 - m - d)
                      - 2 * m * cmath.log(d)) - cmath.exp(-e * 2j * cmath.pi * m)
        if abs(q) >= prev:
            mono = False
        prev = abs(q)
    out.append(CaseResult("blowup", i, "k->0 limit monotone", mono, prev, math.inf)); i += 1
    hn = hankel_norm_sq(beta, m, e)
    # the cross integral leaves the float range below k ~ 1e-2 for off-axis
    # beta; the separation is already unambiguous on this window
    gap = min(abs(hankel_k_cross(beta, m, kk, e) - hn) for kk in (0.1, 0.03, 0.01))
    out.append(CaseResult("blowup", i, "cross stays off norm", gap > 0.5 * abs(hn), gap, 0.0))
    return out


# ---------------------------------------------------------------------------
# beta = 0 reductions and structural identities

def run_reductions(cases: int = 0, seed: int = 0) -> List[CaseResult]:
    out = []
    i = 0
    tol = 1e-10
    for m in (0.27, -0.38, 0.5, 0.0, 1.0):
        for z in (0.8, 2.6):
            p = WhittakerParams(0.0, m)
            dev = _rel(whittaker_i(p, z).value,
                       2 * rgamma(0.5 + m) * bessel1_i(m, z / 2).value)
            out.append(CaseResult("reductions", i, "I|b=0", dev <= tol, dev, tol)); i += 1
            dev = _rel(whittaker_k(p, z).value, bessel1_k(m, z / 2).value)
            out.append(CaseResult("reductions", i, "K|b=0", dev <= tol, dev, tol)); i += 1
            dev = _rel(whittaker_x(p, z).value, bessel1_x(m, z / 2).value)
            out.append(CaseResult("reductions", i, "X|b=0", dev <= tol, dev, tol)); i += 1
    # conditions reduce to their beta = 0 closed forms (the deviation is
    # linear in beta; extrapolating the 1e-4/1e-5 pair leaves the O(beta^2) tail)
    k, m = 1.1, 0.31
    target = (k / 2) ** (-2 * m) * gamma(m) * rgamma(-m)
    v3, v4 = kappa_of_k(1e-4, m, k), kappa_of_k(1e-5, m, k)
    extrap = v4 - (v3 - v4) / 9.0
    dev = abs(extrap - target) / abs(target)
    out.append(CaseResult("reductions", i, "kappa->thm_beta0", dev <= 1e-8, dev, 1e-8)); i += 1
    lin = abs(v3 - target) / abs(v4 - target)
    out.append(CaseResult("reductions", i, "kappa linear rate", 5 < lin < 20, lin, 0.0)); i += 1
    v3, v4 = nu_half_of_k(1e-4, k), nu_half_of_k(1e-5, k)
    extrap = v4 - (v3 - v4) / 9.0
    dev = abs(extrap - (-k))
    out.append(CaseResult("reductions", i, "nu-half->-k", dev <= 1e-8, dev, 1e-8)); i += 1
    v3, v4 = nu_zero_of_k(1e-4, k), nu_zero_of_k(1e-5, k)
    extrap = v4 - (v3 - v4) / 9.0
    dev = abs(extrap - (EULER_GAMMA + math.log(k / 2)))
    out.append(CaseResult("reductions", i, "nu-zero->g+ln(k/2)", dev <= 1e-8, dev, 1e-8)); i += 1
    # reciprocity and dilation
    beta, m, k = 0.8 + 0.2j, 0.3, 1.1 + 0.1j
    dev = abs(kappa_of_k(beta, -m, k) - 1.0 / kappa_of_k(beta, m, k))
    out.append(CaseResult("reductions", i, "kappa reciprocity", dev <= 1e-10, dev, 1e-10)); i += 1
    tau = 0.37
    dev = abs(kappa_of_k(math.e ** tau * beta, m, math.e ** tau * k)
              - math.e ** (-2 * tau * m) * kappa_of_k(beta, m, k))
    out.append(CaseResult("reductions", i, "kappa dilation", dev <= 1e-10, dev, 1e-10)); i += 1
    # self-adjointness truth table
    table = [
        (WhittakerParams(1.0, 0.3), BoundaryCondition(Family.GENERIC, 2.0), True),
        (WhittakerParams(1.0, 0.3), BoundaryCondition(Family.GENERIC, INFINITY), True),
        (WhittakerParams(1.0, 0.5j), BoundaryCondition(Family.GENERIC, cmath.exp(0.7j)), True),
        (WhittakerParams(1.0, 0.5j), BoundaryCondition(Family.GENERIC, 1.2), False),
        (WhittakerParams(1j, 0.3), BoundaryCondition(Family.GENERIC, 0.0), False),
        (WhittakerParams(1.0, 0.3), BoundaryCondition(Family.GENERIC, 2.0 + 1j), False),
        (WhittakerParams(0.7, 0.0), BoundaryCondition(Family.NU_ZERO, 1.5), True),
        (WhittakerParams(0.7, 0.0), BoundaryCondition(Family.NU_ZERO, INFINITY), True),
        (WhittakerParams(0.7, 0.0), BoundaryCondition(Family.NU_ZERO, 1.5 + 0.2j), False),
        (WhittakerParams(0.7 + 0.1j, 0.5), BoundaryCondition(Family.NU_HALF, 1.0), False),
        (WhittakerParams(0.7, 0.5), BoundaryCondition(Family.NU_HALF, -2.0), True),
    ]
    ok = all(is_self_adjoint(p, bc) == expect for p, bc, expect in table)
    out.append(CaseResult("reductions", i, "self-adjoint table", ok, 0.0 if ok else 1.0, 0.0))
    return out


SUITES: Dict[str, Callable[..., List[CaseResult]]] = {
    "wronskian": run_wronskian,
    "ode": run_ode,
    "integrals": run_integrals,
    "projections": run_projections,
    "blowup": run_blowup,
    "reductions": run_reductions,
}
