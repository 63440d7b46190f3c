"""Complex elementary special functions: Gamma, ln Gamma, psi, psi', ...

Everything downstream (Whittaker/Bessel evaluators, spectral formulas) is
built on these.  Gamma uses a 15-term Lanczos approximation on the right
half-plane and the reflection formula on the left; ln Gamma uses the
Stirling series after an upward recurrence lift, which keeps it continuous
on C \\ (-inf, 0]; psi and psi' use recurrence-plus-asymptotics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import NonConvergenceError, PoleError

EULER_GAMMA = 0.5772156649015328606065120900824024
SQRT_TWO_PI = 2.5066282746310005024157652848110453
LN_SQRT_TWO_PI = 0.9189385332046727417803297364056176

POLE_SNAP = 1e-14  # absolute distance below which an argument counts as a pole


class Method(Enum):
    DIRECT_SERIES = "DirectSeries"
    ASYMPTOTIC_SERIES = "AsymptoticSeries"
    DEGENERATE_SERIES = "DegenerateSeries"
    CLOSED_FORM = "ClosedForm"


@dataclass(frozen=True)
class Evaluation:
    """A computed value with an a-posteriori absolute-error proxy.

    err_est is the magnitude of the last included term for convergent
    series, of the first omitted term for asymptotic ones; never negative.
    """

    value: complex
    err_est: float
    method: Method
    accuracy_loss: bool = False

    def __post_init__(self):
        if self.err_est < 0:
            raise ValueError("err_est must be >= 0")


def is_nonpositive_int(z, tol: float = POLE_SNAP) -> bool:
    z = complex(z)
    n = round(z.real)
    return n <= 0 and abs(z - n) < tol


def _require_no_pole(z: complex):
    if is_nonpositive_int(z):
        raise PoleError("argument %r is a pole of Gamma" % (z,))


# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set); relative
# accuracy ~1e-15 on Re(z) >= 1/2 in double precision.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_sum(z: complex) -> complex:
    s = _LANCZOS_C[0]
    for k in range(1, 15):
        s += _LANCZOS_C[k] / (z - 1.0 + k)
    return s


def gamma(z) -> complex:
    """Gamma(z) for complex z off the poles -N.

    Lanczos on Re(z) >= 1/2, reflection formula otherwise.  Beyond
    |z| = 128 the combined exponent loses the last two digits in doubles,
    so that cold path is delegated to mpmath.  Raises OverflowError once
    |Gamma| exceeds the double range (use log_gamma).
    """
    z = complex(z)
    _require_no_pole(z)
    if abs(z) > 128.0:
        import mpmath as _mp

        with _mp.workdps(30):
            value = complex(_mp.gamma(_mp.mpc(z)))
        if cmath.isinf(value):
            raise OverflowError("Gamma overflow at %r; use log_gamma" % (z,))
        return value
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise PoleError("argument %r is a pole of Gamma" % (z,))
        return cmath.pi / (s * gamma(1.0 - z))
    t = z + (_LANCZOS_G - 0.5)
    value = SQRT_TWO_PI * t ** (z - 0.5) * cmath.exp(-t) * _lanczos_sum(z)
    if cmath.isinf(value):
        raise OverflowError("Gamma overflow at %r; use log_gamma" % (z,))
    return value


def rgamma(z) -> complex:
    """1/Gamma(z); entire, returns exact 0 at the poles of Gamma."""
    z = complex(z)
    if is_nonpositive_int(z):
        return 0.0 + 0.0j
    if abs(z) > 128.0:
        import mpmath as _mp

        with _mp.workdps(30):
            return complex(_mp.rgamma(_mp.mpc(z)))
    if z.real < 0.5:
        return cmath.sin(cmath.pi * z) * gamma(1.0 - z) / cmath.pi
    t = z + (_LANCZOS_G - 0.5)
    return cmath.exp(t) * t ** (0.5 - z) / (SQRT_TWO_PI * _lanczos_sum(z))


# Bernoulli numbers B_2..B_16 over 2n(2n-1) for the Stirling series of ln Gamma.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def _log_gamma_stirling(z: complex) -> complex:
    # valid for large |z| away from the negative axis; callers lift first
    s = (z - 0.5) * cmath.log(z) - z + LN_SQRT_TWO_PI
    zi = 1.0 / z
    z2 = zi * zi
    p = zi
    for c in _STIRLING:
        s += c * p
        p *= z2
    return s


def _log_sin_pi(z: complex) -> complex:
    """ln sin(pi z), continuous off the real axis, principal on (0,1)."""
    if z.imag > 0:
        # sin(pi z) = e^{-i pi z}(e^{2 i pi z} - 1)/(2i); the second factor
        # stays in the closed upper half-plane, so its principal log is fine.
        return -1j * cmath.pi * z + cmath.log((cmath.exp(2j * cmath.pi * z) - 1.0) / 2j)
    if z.imag < 0:
        return _log_sin_pi(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(cmath.pi * z))


def log_gamma(z) -> complex:
    """Branch-consistent ln Gamma, continuous on C \\ (-inf, 0].

    exp(log_gamma(z)) == gamma(z); Stirling expansion after an upward
    recurrence lift on Re(z) >= 1/2, reflection with an unwound ln sin
    on the left half-plane.
    """
    z = complex(z)
    _require_no_pole(z)
    if z.real >= 0.5:
        shift = 0.0 + 0.0j
        w = z
        while abs(w) < 32.0:
            shift -= cmath.log(w)
            w += 1.0
        return _log_gamma_stirling(w) + shift
    # reflection: ln Gamma(z) = ln pi - ln sin(pi z) - ln Gamma(1 - z)
    return math.log(math.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)


def digamma(z) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z); recurrence lift plus asymptotic series."""
    z = complex(z)
    _require_no_pole(z)
    if z.real < 0.5 and abs(z.imag) < 16.0:
        # psi(z) = psi(1-z) - pi cot(pi z)
        return digamma(1.0 - z) - cmath.pi / cmath.tan(cmath.pi * z)
    s = 0.0 + 0.0j
    w = z
    while w.real < 16.0 and abs(w) < 16.0:
        s -= 1.0 / w
        w += 1.0
    # psi(w) ~ ln w - 1/2w - sum B_2n / (2n w^2n)
    r = cmath.log(w) - 0.5 / w
    w2 = 1.0 / (w * w)
    p = w2
    for c in (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
              1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0):
        r -= c * p
        p *= w2
    return r + s


def trigamma(z) -> complex:
    """psi'(z) by the same recurrence-plus-asymptotics strategy."""
    z = complex(z)
    _require_no_pole(z)
    if z.real < 0.5 and abs(z.imag) < 16.0:
        # psi'(z) + psi'(1-z) = pi^2 / sin^2(pi z)
        s = cmath.sin(cmath.pi * z)
        return (cmath.pi / s) ** 2 - trigamma(1.0 - z)
    s = 0.0 + 0.0j
    w = z
    while w.real < 16.0 and abs(w) < 16.0:
        s += 1.0 / (w * w)
        w += 1.0
    wi = 1.0 / w
    w2 = wi * wi
    r = wi + 0.5 * w2
    # psi'(w) ~ 1/w + 1/2w^2 + sum B_2n / w^{2n+1}
    p = w2 * wi
    for b in (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0):
        r += b * p
        p *= w2
    return r + s


def pochhammer(a, j: int) -> complex:
    """(a)_j = Gamma(a+j)/Gamma(a) extended to all integer j.

    Direct product for |j| <= 64, gamma ratio beyond; exact 0 when a is a
    nonpositive integer and the rising product crosses zero.
    """
    a = complex(a)
    j = int(j)
    if j == 0:
        return 1.0 + 0.0j
    if j > 0:
        if is_nonpositive_int(a) and j > -round(a.real):
            return 0.0 + 0.0j
        if j <= 64:
            r = 1.0 + 0.0j
            for i in range(j):
                r *= a + i
            return r
        if is_nonpositive_int(a):
            # finite product over a stretch containing no zero factor
            r = 1.0 + 0.0j
            for i in range(j):
                r *= a + i
            return r
        return cmath.exp(log_gamma(a + j) - log_gamma(a))
    # j < 0: (a)_{-n} = 1 / ((a-1)(a-2)...(a-n))
    n = -j
    if n <= 64:
        r = 1.0 + 0.0j
        for i in range(1, n + 1):
            f = a - i
            if abs(f - round(f.real)) < POLE_SNAP and round(f.real) == 0:
                raise PoleError("(a)_j singular: a - %d = 0 for a=%r" % (i, a))
            r *= f
        if r == 0:
            raise PoleError("(a)_j singular for a=%r, j=%d" % (a, j))
        return 1.0 / r
    if is_nonpositive_int(a + j) and not is_nonpositive_int(a):
        raise PoleError("(a)_j singular for a=%r, j=%d" % (a, j))
    return cmath.exp(log_gamma(a + j) - log_gamma(a))


_HYP1F1_MAX_TERMS = 10_000


def hyp1f1(a, b, z) -> Evaluation:
    """Kummer's 1F1(a;b;z) by direct summation.

    Terms are added until three consecutive ones fall below eps*|partial
    sum| (cap 1e4 terms); err_est is the magnitude of the last included
    term.  Reliable for |z| <= 40; no Kummer transformation is attempted.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if is_nonpositive_int(b):
        raise PoleError("1F1 undefined for b a nonpositive integer: %r" % (b,))
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    eps = 2.3e-16
    small_run = 0
    last = 0.0
    for k in range(_HYP1F1_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        s += term
        last = abs(term)
        if last <= eps * abs(s):
            small_run += 1
            if small_run >= 3:
                return Evaluation(s, last, Method.DIRECT_SERIES)
        else:
            small_run = 0
    if last > 1e-10 * max(abs(s), 1.0):
        raise NonConvergenceError(
            "1F1 series cap hit at |z|=%g" % abs(z), value=s, err_est=last
        )
    return Evaluation(s, last, Method.DIRECT_SERIES)
