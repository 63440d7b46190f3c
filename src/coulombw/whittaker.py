"""Whittaker-type special functions for the hyperbolic half-line equation.

Four solutions are provided: the regularized series solution I (finite at
0 for Re m > -1/2), the exponentially decaying K, the exponentially
exploding X built from the two edge continuations of K, and the rotated
trigonometric variants J and H+-.

Regimes: direct series for |z| <= 40 (one audited path), optimally
truncated 2F0 asymptotics beyond, logarithmic series when 2m snaps to an
integer, Laguerre closed forms on the polynomial lattices.  Inside the
series regime the combinations defining K and X cancel like e^|z|; the
evaluator estimates the required working precision up front and runs the
same series code over mpmath when doubles cannot deliver the target,
reporting the achieved accuracy in err_est either way.  A run whose own
err_est shows more cancellation than the estimate allowed for (the z^beta
and Gamma-factor scales) is re-run at the precision that err_est asks for.

One code path per job: K and X share one generic combination, one
logarithmic series and one Laguerre closed form, X being K with
(beta, z) -> (-beta, -z) where the two differ.  J and H+- are I and K
rotated by a quarter turn under one rule (_rotation; J rotates toward
Re w >= 0, where I needs no reflection, and sums one I series), and every
derivative comes from one beta-ladder (_ladder) and reports the method of
the values it used.

I, K and X are memoized on the exact bits of their inputs (see _memo), so
resolvent and projection tables, which reuse the same few values at every
entry, and the derivative ladder, which reuses the value just returned,
evaluate each distinct point once.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct

import mpmath as mp

from .branching import (Branch, ComplexValue, _check_cut, as_cvalue, principal_ln, principal_pow,
                        rotate_half_pi, rotate_pi)
from .core import Evaluation, Method, digamma, gamma, rgamma, trigamma
from .errors import DomainError, NonConvergenceError
from .params import SNAP_TOL, WARN_TOL, WhittakerParams, dist_to_integer, dist_to_natural

SERIES_CAP = 40.0          # |z| above which the direct series is refused
_MAX_TERMS = 4000
_LOG10E = 0.4342944819032518
_ESCALATE_REL = 1e-13      # err_est / |value| above which a run is repeated
_MEMO_SIZE = 512           # entries per memoized function; a 6x6 table needs <= 18


# ---------------------------------------------------------------------------
# memo on exact inputs

def _exact_key(args):
    """The IEEE bits of every number in args, plus the branch tags.

    Floats are never compared: 0.0 == -0.0, yet the sign of a zero
    imaginary part picks the side of the cut (arg = +pi or -pi).
    """
    parts, tags = [], []
    for a in args:
        if isinstance(a, WhittakerParams):
            parts += (a.beta, a.m)
        else:
            av = as_cvalue(a)
            parts.append(complex(av.re, av.im))
            tags.append(av.branch)
    bits = struct.pack("<%dd" % (2 * len(parts)), *(x for c in parts for x in (c.real, c.imag)))
    return bits, tuple(tags)


def _memo(fn):
    """Bounded LRU memo of a pure function of numbers and WhittakerParams.

    Keyed by _exact_key, so a hit returns exactly what the call would have
    computed.  Exceptions are not cached.  The results (frozen Evaluations,
    complex numbers) are immutable, so sharing them between callers is
    safe.  ``cache_clear`` empties the table, e.g. before timing.
    """
    cached = functools.lru_cache(maxsize=_MEMO_SIZE)(lambda key, args: fn(*args))

    @functools.wraps(fn)
    def memoized(*args):
        return cached(_exact_key(args), args)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


# ---------------------------------------------------------------------------
# arithmetic backends: plain complex vs mpmath at a chosen precision

class _FB:
    """Double-precision backend."""

    eps = 2.3e-16
    is_mp = False

    @staticmethod
    def c(x):
        return complex(x)

    @staticmethod
    def exp(x):
        return cmath.exp(x)

    @staticmethod
    def sin(x):
        return cmath.sin(x)

    @staticmethod
    def cos(x):
        return cmath.cos(x)

    pi = math.pi

    log = staticmethod(cmath.log)
    rgamma = staticmethod(rgamma)
    digamma = staticmethod(digamma)
    trigamma = staticmethod(trigamma)

    @staticmethod
    def ln_tagged(zv: ComplexValue):
        return principal_ln(zv)

    @staticmethod
    def to_complex(x):
        return complex(x)

    @staticmethod
    def mag(x):
        return abs(x)


class _MB:
    """mpmath backend; caller must hold mp.workdps(dps)."""

    is_mp = True

    def __init__(self, dps: int):
        self.dps = dps
        self.eps = float(mp.mpf(10) ** (1 - dps))
        self.pi = mp.pi

    @staticmethod
    def c(x):
        return mp.mpc(x)

    @staticmethod
    def exp(x):
        return mp.exp(x)

    @staticmethod
    def sin(x):
        return mp.sin(x)

    @staticmethod
    def cos(x):
        return mp.cos(x)

    @staticmethod
    def rgamma(x):
        return mp.rgamma(x)

    @staticmethod
    def digamma(x):
        return mp.digamma(x)

    @staticmethod
    def trigamma(x):
        return mp.psi(1, x)

    log = staticmethod(mp.log)

    @staticmethod
    def ln_tagged(zv: ComplexValue):
        zc = complex(_check_cut(zv))
        if zv.branch is Branch.PRINCIPAL:
            return mp.log(mp.mpc(zc))
        return mp.mpc(mp.log(abs(mp.mpc(zc)))) + mp.mpc(0, 1) * zv.arg() / math.pi * mp.pi

    @staticmethod
    def to_complex(x):
        return complex(x)

    @staticmethod
    def mag(x):
        # |re| + |im| bound: within sqrt(2) of the modulus and much cheaper
        x = mp.mpc(x)
        return abs(float(x.real)) + abs(float(x.imag))


def _run(digits: float, fn):
    """Run fn(backend) -> (value, err) in doubles if they suffice, else in
    mpmath; repeat once at a higher precision if err shows it was needed.

    err / (eps |value|) is the cancellation the run actually met, so
    17 + log10 of it digits deliver a double-accurate value.  An mpmath
    run's err also counts the final rounding of its value to a double.
    """
    dps = None if digits <= 18.5 else int(math.ceil(digits)) + 4
    (val, err), eps = _run_at(dps, fn)
    if err > _ESCALATE_REL * abs(val) and val != 0:
        dps = _rerun_dps(err / (eps * abs(val)))
        (val, err), _ = _run_at(dps, fn)
    if dps is not None:
        err += _FB.eps * abs(val)   # the mpmath value's rounding to a double
    return val, err


def _rerun_dps(cancellation: float) -> int:
    """mpmath digits that leave a result accurate to double precision after
    a sum whose pieces were `cancellation` times larger than the result."""
    return int(math.ceil(17.0 + math.log10(cancellation))) + 4


def _run_at(dps, fn):
    """fn(backend) and the backend's eps: doubles for dps None, else mpmath."""
    if dps is None:
        return fn(_FB), _FB.eps
    with mp.workdps(dps):
        be = _MB(dps)
        return fn(be), be.eps


def _digits_i(z: complex) -> float:
    return 17.0 + _LOG10E * (abs(z) - z.real)


def _digits_k(z: complex) -> float:
    return 17.0 + _LOG10E * abs(z)


def _digits_x(z: complex, extra: float = 0.0) -> float:
    az = abs(z)
    return 17.0 + _LOG10E * max(az - z.real, 2.0 * math.sqrt(az)) + extra


# ---------------------------------------------------------------------------
# series kernels (backend generic)

def _i_sum(a, two_m, z, be, k0: int = 0):
    """sum_{k>=k0} (a)_k z^k / (k! Gamma(1+two_m+k)).

    k0 > 0 enters when 2m is a negative integer -k0: the earlier terms
    vanish through the Gamma in the denominator.
    """
    a = be.c(a)
    z = be.c(z)
    tm = be.c(two_m)
    if k0 == 0:
        t = be.c(be.rgamma(1 + tm))
        k_start = 1
    else:
        t = be.c(1)
        for i in range(k0):
            t *= (a + i) * z
        for i in range(1, k0 + 1):
            t /= i
        k_start = k0 + 1
    s = t
    mx = be.mag(t)
    last = mx
    small = 0
    for k in range(k_start, _MAX_TERMS):
        t = t * (a + (k - 1)) * z / (k * (tm + k))
        s += t
        last = be.mag(t)
        if last > mx:
            mx = last
        if last <= be.eps * be.mag(s) or t == 0:
            small += 1
            if small >= 3 or t == 0:
                return s, mx, float(last)
        else:
            small = 0
    raise NonConvergenceError("series cap hit at |z|=%g" % abs(complex(z)))


def _i_value(beta, m, zv: ComplexValue, be, k0: int):
    """I_{beta,m}(z) = z^{1/2+m} e^{-z/2} * sum, in the given backend."""
    lz = be.ln_tagged(zv)
    z = be.c(complex(zv))
    s, mx, last = _i_sum(be.c(0.5) + be.c(m) - be.c(beta), 2 * complex(m), z, be, k0)
    pref = be.exp((be.c(0.5) + be.c(m)) * lz - z / 2)
    err = be.mag(pref) * (be.eps * mx + last)
    return be.to_complex(pref * s), float(err)


def _snap_two_m(m: complex):
    """Return (p, dist) where p = round(2m) when 2m is near an integer."""
    d = dist_to_integer(2 * m)
    return round((2 * m).real), d


@_memo
def whittaker_i(p: WhittakerParams, z) -> Evaluation:
    """Regular series solution; raises NonConvergence beyond |z| = 40.

    The sign option in the defining series is fixed to e^{-z/2} with
    argument +z; arguments with Re z < 0 are first reflected to the right
    half-plane, which keeps the summation well conditioned.
    """
    zv = as_cvalue(z)
    zc = complex(zv)
    if zc == 0:
        raise DomainError("z must be nonzero")
    if abs(zc) > SERIES_CAP:
        raise NonConvergenceError(
            "direct series refused for |z|=%g > %g; use the connection "
            "formula through K and X" % (abs(zc), SERIES_CAP)
        )
    return _i_eval(p.beta, p.m, zv)


def _i_eval(beta, m, zv: ComplexValue) -> Evaluation:
    zc = complex(zv)
    if zc.real < 0:
        # reflect to Re z > 0: I_{b,m}(z) = e^{s i pi(1/2+m)} I_{-b,m}(e^{-s i pi} z)
        s = 1 if zv.arg() > 0 else -1
        w = rotate_pi(zv, -s)
        factor = cmath.exp(1j * s * cmath.pi * (0.5 + complex(m)))
        inner = _i_eval(-complex(beta), m, w)
        return Evaluation(factor * inner.value, abs(factor) * inner.err_est, inner.method)
    # 2m snapped to a negative integer -k0: the first k0 terms vanish
    p_int, d2 = _snap_two_m(complex(m))
    k0 = -p_int if d2 <= SNAP_TOL and p_int <= -1 else 0
    m_eff = p_int / 2.0 if k0 > 0 else complex(m)
    val, err = _run(_digits_i(zc), lambda be: _i_value(beta, m_eff, zv, be, k0))
    return Evaluation(val, err, Method.DIRECT_SERIES)


# ---------------------------------------------------------------------------
# K: decaying solution, and the bodies X shares with it

def _canonical_m(m: complex) -> complex:
    """K and related even-in-m objects are evaluated at a canonical m."""
    if m.real < 0 or (m.real == 0 and m.imag < 0):
        return -m
    return m


def laguerre(n: int, p, z) -> complex:
    """Laguerre polynomial L_n^(p)(z) by its finite double-factorial sum."""
    n = int(n)
    if n < 0:
        raise DomainError("Laguerre index must be a natural number")
    p = complex(p)
    z = complex(z)
    total = 0j
    for k in range(n + 1):
        c = 1.0 + 0.0j
        for i in range(n - k):
            c *= p + k + 1 + i
        total += c * (-z) ** k / (math.factorial(n - k) * math.factorial(k))
    return total


def _k_asym_tagged(beta, m, zv: ComplexValue):
    """z^beta e^{-z/2} 2F0(1/2+m-beta, 1/2-m-beta; -; -1/z), optimally truncated."""
    zc = complex(zv)
    a = 0.5 + complex(m) - complex(beta)
    b = 0.5 - complex(m) - complex(beta)
    w = -1.0 / zc
    t = 1.0 + 0.0j
    s = t
    prev = abs(t)
    err = prev
    n = 0
    while n < 2 * abs(zc) + 20:
        t_next = t * (a + n) * (b + n) * w / (n + 1)
        if abs(t_next) >= prev and n > 2:
            err = abs(t_next)
            break
        t = t_next
        s += t
        prev = abs(t)
        err = prev
        n += 1
        if prev <= 1e-18 * abs(s):
            break
    pref = cmath.exp(complex(beta) * principal_ln(zv) - zc / 2)
    return pref * s, abs(pref) * err


# One body per regime for K and X, X being K with (beta, z) -> (-beta, -z)
# where the two differ (sgn = +1 for K, -1 for X).

def _degenerate_value(beta, p_int: int, zv: ComplexValue, be, sgn: int):
    """Logarithmic series for K (sgn = +1) or X (sgn = -1) at 2m = p_int >= 0.

    The log term is the same regular-solution series for both; the
    psi-weighted series and the finite part run in sgn*z with sgn*beta.
    """
    z = be.c(complex(zv))
    sz = z if sgn > 0 else -z
    lz = be.ln_tagged(zv)
    a = be.c((1 + p_int) / 2.0) - be.c(beta if sgn > 0 else -beta)
    g = a - p_int
    rg_g = be.c(be.rgamma(g))
    rg_a = be.c(be.rgamma(a))
    ipref = be.exp(-z / 2)
    epref = ipref if sgn > 0 else be.exp(-sz / 2)
    zpref = be.exp(be.c((1 + p_int) / 2.0) * lz)
    pieces = be.c(0)
    err_terms = 0.0
    if rg_g != 0:
        i_sum, i_mx, _ = _i_sum(be.c((1 + p_int) / 2.0) - be.c(beta), p_int, z, be, 0)
        log_term = lz * zpref * ipref * i_sum
        # infinite psi-weighted sum
        t = be.c(1) / math.factorial(p_int)
        psi_a = be.digamma(a)
        psi_p = be.digamma(be.c(p_int + 1))
        psi_1 = be.digamma(be.c(1))
        ssum = t * (psi_a - psi_p - psi_1)
        smx = be.mag(ssum)
        small = 0
        for k in range(1, _MAX_TERMS):
            t = t * (a + (k - 1)) * sz / (k * (p_int + k))
            psi_a += 1 / (a + (k - 1))
            psi_p += 1 / be.c(p_int + k)
            psi_1 += 1 / be.c(k)
            term = t * (psi_a - psi_p - psi_1)
            ssum += term
            last = be.mag(term)
            smx = max(smx, last)
            if last <= be.eps * max(be.mag(ssum), 1e-300):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        else:
            raise NonConvergenceError("degenerate series cap hit")
        pieces = rg_g * (log_term + epref * zpref * ssum)
        err_terms += be.eps * be.mag(rg_g) * (
            be.mag(lz) * be.mag(zpref) * be.mag(ipref) * i_mx
            + be.mag(epref) * be.mag(zpref) * smx
        )
    # finite part, written with entire coefficients (g)_{p-j} / Gamma(a)
    if p_int > 0:
        fsum = be.c(0)
        for j in range(1, p_int + 1):
            coef = be.c(1)
            for i in range(p_int - j):
                coef *= g + i
            if sgn > 0:
                coef *= (-1.0) ** (j - 1)
            fsum += (coef * math.factorial(j - 1) / math.factorial(p_int - j)
                     * be.exp(be.c(-j) * lz))
        finite = rg_a * epref * zpref * fsum
        pieces += finite if sgn > 0 else -finite
        err_terms += be.eps * be.mag(rg_a) * be.mag(epref) * be.mag(zpref) * be.mag(fsum)
    return be.to_complex(be.c((-1.0) ** (p_int + 1)) * pieces), err_terms


def _snapped_value(beta, p_int: int, zv: ComplexValue, digits: float, sgn: int) -> Evaluation:
    """K (sgn = +1) or X (sgn = -1) at 2m = p_int >= 0: the Laguerre closed
    form on the lattice sgn*beta - (1+p_int)/2 = n in N, else the log series."""
    n_lag = (beta if sgn > 0 else -beta) - (1 + p_int) / 2.0
    if dist_to_natural(n_lag) <= SNAP_TOL:
        n = round(n_lag.real)
        zc = complex(zv)
        zs = zc if sgn > 0 else -zc
        val = ((-1.0) ** n * math.factorial(n)
               * principal_pow(zv, (1 + p_int) / 2.0) * cmath.exp(-zs / 2)
               * laguerre(n, float(p_int), zs))
        return Evaluation(val, 1e-15 * abs(val) * (1 + abs(zc)), Method.CLOSED_FORM)
    val, err = _run(digits, lambda be: _degenerate_value(beta, p_int, zv, be, sgn))
    return Evaluation(val, err, Method.DEGENERATE_SERIES)


def _generic_value(beta, m, zv: ComplexValue, digits: float, sgn: int) -> Evaluation:
    """K (sgn = +1) or X (sgn = -1) as a combination of the two series
    solutions S_+- (sums of I_{beta,+-m} without their z^{+-m}), namely
    pi/sin(2 pi m) z^{1/2} e^{-z/2} times

        -z^m S_+ / Gamma(1/2-m-sgn beta) + w z^-m S_- / Gamma(1/2+m-sgn beta),

    with w = 1 for K and cos(2 pi m) for X.  Between the snap and warn
    tolerances of 2m the result carries accuracy_loss and an inflated
    err_est: the combination cancels to O(dist) of its pieces on top of
    the e^|z| series cancellation.
    """
    zc = complex(zv)
    d2 = dist_to_integer(2 * m)
    accuracy_loss = d2 < WARN_TOL
    sb = beta if sgn > 0 else -beta

    def body(be):
        lz = be.ln_tagged(zv)
        z_n = be.c(zc)
        mm = be.c(m)
        bb = be.c(beta)
        s_plus, mx_p, last_p = _i_sum(be.c(0.5) + mm - bb, 2 * m, z_n, be, 0)
        s_minus, mx_m, last_m = _i_sum(be.c(0.5) - mm - bb, -2 * m, z_n, be, 0)
        zp = be.exp(mm * lz)
        zm = be.exp(-mm * lz)
        base = be.exp(be.c(0.5) * lz - z_n / 2)
        g_plus = be.c(be.rgamma(0.5 - mm - be.c(sb)))
        g_minus = be.c(be.rgamma(0.5 + mm - be.c(sb)))
        # X keeps the overall sign outside: folding it into the combination
        # would flip the sign of exactly-zero imaginary parts
        if sgn > 0:
            combo = -g_plus * zp * s_plus + g_minus * zm * s_minus
        else:
            g_minus = be.cos(2 * be.pi * mm) * g_minus
            combo = g_plus * zp * s_plus - g_minus * zm * s_minus
        factor = sgn * be.pi / be.sin(2 * be.pi * mm)
        val = factor * base * combo
        # each series' error is weighted by the Gamma coefficient it is
        # multiplied by: |rgamma| >> 1 at large |beta|, and the re-run in
        # _run only fires when err_est shows that growth
        scale = be.mag(factor) * be.mag(base) * (
            be.mag(g_plus) * be.mag(zp) * (be.eps * mx_p + last_p)
            + be.mag(g_minus) * be.mag(zm) * (be.eps * mx_m + last_m)
        )
        return be.to_complex(val), float(scale)

    val, err = _run(digits if not accuracy_loss else 17.0, body)
    if accuracy_loss:
        err = max(err, abs(val) * 2.3e-16 * math.exp(min(abs(zc), 40.0))
                  / (2 * math.pi * max(d2, 1e-16)))
    return Evaluation(val, err, Method.DIRECT_SERIES, accuracy_loss=accuracy_loss)


@_memo
def whittaker_k(p: WhittakerParams, z) -> Evaluation:
    """Exponentially decaying solution K_{beta,m}(z); even in m.

    Generic m: combination of two series solutions.  2m within snap of an
    integer: logarithmic series, or the Laguerre closed form on the
    polynomial lattice.  |z| > 40: optimally truncated asymptotics.
    Between the snap and warn tolerances the generic combination is
    returned with accuracy_loss set and err_est inflated.
    """
    zv = as_cvalue(z)
    zc = complex(zv)
    if zc == 0:
        raise DomainError("z must be nonzero")
    beta = complex(p.beta)
    m = _canonical_m(complex(p.m))
    if abs(zc) > SERIES_CAP:
        val, err = _k_asym_tagged(beta, m, zv)
        return Evaluation(val, err, Method.ASYMPTOTIC_SERIES)
    p_int, d2 = _snap_two_m(m)
    if d2 <= SNAP_TOL:
        return _snapped_value(beta, p_int, zv, _digits_k(zc), +1)
    return _generic_value(beta, m, zv, _digits_k(zc), +1)


# ---------------------------------------------------------------------------
# X: exploding companion built from the edge continuations of K

def _x_asym(beta, m, zv: ComplexValue):
    """Large-|z| X from the edge continuations of the decaying asymptotics."""
    a = zv.arg()
    out = []
    errs = []
    for s in (+1, -1):
        if abs(a + s * math.pi) > math.pi + 1e-12:
            continue
        w = rotate_pi(zv, s)
        kv, ke = _k_asym_tagged(-beta, m, w)
        factor = cmath.exp(-1j * s * cmath.pi * (0.5 + complex(m)))
        out.append(factor * kv)
        errs.append(abs(factor) * ke)
    if len(out) == 2:
        val = (out[0] + out[1]) / 2.0
        err = (errs[0] + errs[1]) / 2.0 + 2.3e-16 * (abs(out[0]) + abs(out[1]))
        return val, err
    # off the real axis only one edge rotation stays on the sheet; correct
    # the single continuation by the regular solution (exact relation).
    s = +1 if a <= 0 else -1
    ival, ierr = _i_large(beta, -complex(m), zv)
    corr = 1j * s * cmath.pi * rgamma(0.5 + complex(m) + beta)
    return out[0] + corr * ival, errs[0] + abs(corr) * ierr


@_memo
def whittaker_x(p: WhittakerParams, z) -> Evaluation:
    """Exponentially exploding companion solution X_{beta,m}(z).

    Snaps to the K-proportional closed relation when m + beta is an
    integer (there the two are dependent); otherwise combination of the
    series solutions, logarithmic series at integer 2m, Laguerre closed
    form on the exploding lattice, and edge-continued asymptotics for
    |z| > 40.
    """
    zv = as_cvalue(z)
    zc = complex(zv)
    if zc == 0:
        raise DomainError("z must be nonzero")
    beta = complex(p.beta)
    m = complex(p.m)
    d_mb = dist_to_integer(m + beta)
    if d_mb <= SNAP_TOL:
        kv = whittaker_k(p, zv)
        ratio = gamma(0.5 - m - beta) * rgamma(0.5 - m + beta)
        return Evaluation(ratio * kv.value, abs(ratio) * kv.err_est + 1e-16 * abs(ratio * kv.value),
                          kv.method, kv.accuracy_loss)
    if abs(zc) > SERIES_CAP:
        val, err = _x_asym(beta, m, zv)
        return Evaluation(val, err, Method.ASYMPTOTIC_SERIES)
    extra = 0.0
    if d_mb < 1e-2:
        extra = _LOG10E * min(-math.log(math.pi * d_mb), max(zc.real, 0.0))
    digits = _digits_x(zc, extra)
    p_int, d2 = _snap_two_m(m)
    if d2 <= SNAP_TOL:
        ev = _snapped_value(beta, abs(p_int), zv, digits, -1)
        flip = (-1.0) ** p_int if p_int < 0 else 1.0
        return Evaluation(flip * ev.value, ev.err_est, ev.method)
    return _generic_value(beta, m, zv, digits, -1)


# ---------------------------------------------------------------------------
# large-|z| regular solution through the well-conditioned {K, edge-K} basis

def _i_large(beta, m, zv: ComplexValue):
    """I for |z| > 40 via I = A*K(z) + B*E(z), E the single-edge continuation.

    The {K, E} pair has Wronskian of unit modulus for every (beta, m), so
    the coefficients below stay bounded; both pieces are evaluated by the
    decaying asymptotics on their own sheets.
    """
    beta = complex(beta)
    m = complex(m)
    zc = complex(zv)
    s = -1 if zv.arg() > 0 else +1
    w = rotate_pi(zv, s)
    theta = cmath.pi * (m + beta)
    a_coef = -s * 1j * rgamma(0.5 + m + beta) * cmath.exp(s * 1j * (theta - 2 * cmath.pi * m))
    b_coef = s * 1j * rgamma(0.5 + m - beta) * cmath.exp(s * 1j * theta)
    kv, ke = _k_asym_tagged(beta, m, zv)
    ev, ee = _k_asym_tagged(-beta, m, w)
    e_pref = cmath.exp(-s * 1j * cmath.pi * (0.5 + m))
    val = a_coef * kv + b_coef * e_pref * ev
    err = abs(a_coef) * ke + abs(b_coef) * ee
    return val, err


def whittaker_i_ext(p: WhittakerParams, z) -> Evaluation:
    """I_{beta,m} for any |z|: series below the cap, connected asymptotics above."""
    zv = as_cvalue(z)
    if abs(complex(zv)) <= SERIES_CAP:
        return whittaker_i(p, zv)
    val, err = _i_large(p.beta, p.m, zv)
    return Evaluation(val, err, Method.ASYMPTOTIC_SERIES)


# ---------------------------------------------------------------------------
# trigonometric rotations

def _rotation(which: str, p: WhittakerParams, zv: ComplexValue):
    """J and H+- as I and K rotated by a quarter turn.

    Returns (kind, params, w, prefactor, dz) such that
    which_p(z) = prefactor * kind_params(w) and d/dz = prefactor * dz * d/dw.
    For I, K and X it returns (which, p, zv, None, None).  J rotates toward
    Re w >= 0 (w = e^{i s pi/2} z with s = +1 for arg z <= 0, else -1),
    where I needs no reflection; H+- rotate by -+pi/2.
    """
    if which in ("I", "K", "X"):
        return which, p, zv, None, None
    beta = complex(p.beta)
    if which == "J":
        s = +1 if zv.arg() <= 0 else -1
        kind, inner_beta, rs = "I", -s * 1j * beta, s
    elif which in ("H+", "H-"):
        s = +1 if which == "H+" else -1
        kind, inner_beta, rs = "K", s * 1j * beta, -s
    else:
        raise DomainError("unknown function tag %r" % (which,))
    w = rotate_half_pi(zv, rs)
    prefactor = cmath.exp(-s * 1j * cmath.pi / 2 * (0.5 + complex(p.m)))
    return kind, WhittakerParams(inner_beta, p.m), w, prefactor, cmath.exp(rs * 1j * cmath.pi / 2)


def whittaker_h(p: WhittakerParams, sign: int, z) -> Evaluation:
    """H^+ or H^- (sign = +1 / -1), the rotated decaying solutions."""
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    _, q, w, pref, _ = _rotation("H+" if sign > 0 else "H-", p, as_cvalue(z))
    kv = whittaker_k(q, w)
    return Evaluation(pref * kv.value, abs(pref) * kv.err_est, kv.method, kv.accuracy_loss)


def whittaker_j(p: WhittakerParams, z) -> Evaluation:
    """Rotated regular solution: one I series, at the quarter turn toward
    Re w >= 0."""
    _, q, w, pref, _ = _rotation("J", p, as_cvalue(z))
    iv = whittaker_i(q, w)
    return Evaluation(pref * iv.value, abs(pref) * iv.err_est, iv.method)


def whittaker_j_ext(p: WhittakerParams, z) -> Evaluation:
    """J for any |z| via the extended regular solution."""
    _, q, w, pref, _ = _rotation("J", p, as_cvalue(z))
    iv = whittaker_i_ext(q, w)
    return Evaluation(pref * iv.value, abs(pref) * iv.err_est, iv.method)


# ---------------------------------------------------------------------------
# derivatives via the ladder recurrences (never finite differences)

def _evaluator(kind: str, ext: bool = False):
    """whittaker_i (or _i_ext), whittaker_k or whittaker_x by tag, looked up
    at call time so that a rebound module global is the one called."""
    if kind == "I":
        return whittaker_i_ext if ext else whittaker_i
    return whittaker_k if kind == "K" else whittaker_x


def _ladder(kind: str, p: WhittakerParams, zv: ComplexValue, ext: bool = False):
    """f' for f = I, K or X from the beta-ladder z f' = c f_{beta+1} - (beta - z/2) f.

    Returns (f', err, f, f_{beta+1}, c) with f and f_{beta+1} Evaluations.
    """
    zc = complex(zv)
    beta, m = p.beta, p.m
    fn = _evaluator(kind, ext)
    f0 = fn(p, zv)
    f1 = fn(WhittakerParams(beta + 1, m), zv)
    if kind == "I":
        c = 0.5 + m + beta
    elif kind == "K":
        c = -1.0
    else:
        c = (0.5 + m + beta) * (0.5 - m + beta)
    val = (c * f1.value - (beta - zc / 2) * f0.value) / zc
    err = (abs(c) * f1.err_est + abs(beta - zc / 2) * f0.err_est) / abs(zc)
    return val, err, f0, f1, c


def whittaker_deriv(which: str, p: WhittakerParams, z) -> Evaluation:
    """d/dz of I, K, X, J, H+ or H- from the parameter-ladder identities.

    The method and accuracy_loss are those of the values the ladder used.
    """
    kind, q, w, pref, dz = _rotation(which, p, as_cvalue(z))
    val, err, f0, f1, _ = _ladder(kind, q, w)
    if pref is not None:
        factor = pref * dz
        val, err = factor * val, abs(factor) * err
    return Evaluation(val, err, f0.method, f0.accuracy_loss or f1.accuracy_loss)


class WhittakerSolution:
    """Callable handle bundling value/derivative/second derivative.

    Derivatives come from the beta-ladder, the second derivative from
    applying the ladder twice (three evaluations at beta, beta+1, beta+2).
    """

    def __init__(self, which: str, params: WhittakerParams, ext: bool = False):
        if which not in ("I", "K", "X", "J", "H+", "H-"):
            raise DomainError("unknown function tag %r" % (which,))
        self.which = which
        self.params = params
        self.ext = ext

    def value(self, x) -> complex:
        kind, q, w, pref, _ = _rotation(self.which, self.params, as_cvalue(x))
        f = _evaluator(kind, self.ext)(q, w).value
        return f if pref is None else pref * f

    def deriv(self, x) -> complex:
        kind, q, w, pref, dz = _rotation(self.which, self.params, as_cvalue(x))
        d = _ladder(kind, q, w, self.ext)[0]
        return d if pref is None else pref * dz * d

    def deriv2(self, x) -> complex:
        # f'' = (c f'_{b+1} + f/2 - (b - z/2) f' - f')/z with f' from the ladder
        kind, q, w, pref, dz = _rotation(self.which, self.params, as_cvalue(x))
        wc = complex(w)
        d0, _, f0, _, c = _ladder(kind, q, w, self.ext)
        d1 = _ladder(kind, WhittakerParams(q.beta + 1, q.m), w, self.ext)[0]
        d2 = (c * d1 + 0.5 * f0.value - (q.beta - wc / 2) * d0 - d0) / wc
        return d2 if pref is None else pref * dz * dz * d2
