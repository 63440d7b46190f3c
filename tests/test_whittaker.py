import cmath
import math
import random
import struct

import mpmath as mp
import pytest

from coulombw.branching import lower_edge, upper_edge
from coulombw.core import Method, gamma, rgamma
from coulombw.errors import BranchError, DomainError, NonConvergenceError
from coulombw.params import WhittakerParams as P
from coulombw.whittaker import (WhittakerSolution, laguerre,
                                whittaker_deriv, whittaker_h, whittaker_i,
                                whittaker_i_ext, whittaker_j, whittaker_k,
                                whittaker_x)

mp.mp.dps = 40


def mp_i(b, m, z, terms=400):
    """Independent summation oracle at elevated precision."""
    b, m, z = mp.mpc(b), mp.mpc(m), mp.mpc(z)
    s = mp.mpc(0)
    for k in range(terms):
        s += mp.rf(mp.mpf(0.5) + m - b, k) * mp.rgamma(1 + 2 * m + k) * z ** k / mp.factorial(k)
    return z ** (mp.mpf(0.5) + m) * mp.exp(-z / 2) * s


def mp_x(b, m, z):
    """X through its defining edge average of the decaying solution."""
    zp = mp.mpc(z) * mp.exp(mp.mpc(0, mp.pi))
    zm = mp.mpc(z) * mp.exp(mp.mpc(0, -mp.pi))
    em = mp.exp(mp.mpc(0, -mp.pi) * (mp.mpf(0.5) + mp.mpc(m)))
    ep = mp.exp(mp.mpc(0, mp.pi) * (mp.mpf(0.5) + mp.mpc(m)))
    return (em * mp.whitw(-b, m, zp) + ep * mp.whitw(-b, m, zm)) / 2


def test_golden_values():
    v = whittaker_i(P(0, 0.5), 2.0)
    assert abs(v.value - 2 * math.sinh(1)) <= 1e-12 * 2 * math.sinh(1)
    v = whittaker_k(P(0, 0.5), 2.0)
    assert abs(v.value - math.exp(-1)) <= 1e-12 * math.exp(-1)


def test_small_z_leading_behavior():
    b, m = 0.8, 0.3
    for z in (1e-4, 1e-5):
        v = whittaker_i(P(b, m), z).value
        lead = v * gamma(1 + 2 * m) / z ** (0.5 + m)
        assert abs(lead - (1 - b * z / (1 + 2 * m))) < 1e-7


def test_series_vs_oracle():
    cases = [(1.0, 0.3, 2 + 1j), (0.7, 0.25, 5.0), (-0.5 + 0.2j, 0.4 - 0.1j, 3 + 2j),
             (2.5, -0.35, 1.5), (1.0, 0.3, complex(-3, 1)), (0.3, -0.5, 2.0)]
    for b, m, z in cases:
        iv = whittaker_i(P(b, m), z).value
        ref = complex(mp_i(b, m, z))
        assert abs(iv - ref) <= 1e-12 * max(abs(ref), 1e-12)
    for b, m, z in [(1.0, 0.3, 2 + 1j), (0.7, 0.25, 5.0), (2.5, -0.35, 1.5)]:
        kv = whittaker_k(P(b, m), z).value
        ref = complex(mp.whitw(b, m, z))
        assert abs(kv - ref) <= 1e-12 * abs(ref)


def test_k_escalated_window_and_asymptotic():
    b, m = 0.8, 0.22
    for z in (25.0, 33.0, complex(20, 18)):
        kv = whittaker_k(P(b, m), z)
        ref = complex(mp.whitw(b, m, z))
        assert abs(kv.value - ref) <= 1e-11 * abs(ref)
        assert kv.method is Method.DIRECT_SERIES
    kv = whittaker_k(P(b, m), 60.0)
    ref = complex(mp.whitw(b, m, 60.0))
    assert abs(kv.value - ref) <= 1e-12 * abs(ref)
    assert kv.method is Method.ASYMPTOTIC_SERIES
    # decay normalization: K z^{-beta} e^{z/2} -> 1
    for z in (80.0, 160.0):
        kv = whittaker_k(P(b, m), z).value
        assert abs(kv * z ** (-b) * math.exp(z / 2) - 1) < 0.05


def test_laguerre_polynomial():
    assert laguerre(0, 0.7, 2.0) == 1
    p, z = 0.7, 1.3
    assert abs(laguerre(1, p, z) - (p + 1 - z)) < 1e-14
    assert abs(laguerre(2, 0.0, 1.0) - (-0.5)) < 1e-14


def test_laguerre_lattice_closed_forms():
    # decaying: K_{(1+p)/2+n, p/2} = (-1)^n n! z^{(1+p)/2} e^{-z/2} L_n^p(z)
    n, p, z = 2, 0.0, 1.7  # m = 0, beta = 1/2 + 2
    b = (1 + p) / 2 + n
    kv = whittaker_k(P(b, p / 2), z)
    ref = (-1) ** n * math.factorial(n) * z ** ((1 + p) / 2) * math.exp(-z / 2) * laguerre(n, p, z)
    assert abs(kv.value - ref) <= 1e-12 * abs(ref)
    assert kv.method is Method.CLOSED_FORM
    # I on the same lattice: I = n! z^{(1+p)/2} e^{-z/2} L_n^p(z) / Gamma(1+p+n)
    iv = whittaker_i(P(b, p / 2), z).value
    ref_i = math.factorial(n) * z ** ((1 + p) / 2) * math.exp(-z / 2) * laguerre(n, p, z) \
        * rgamma(1 + p + n)
    assert abs(iv - ref_i) <= 1e-12 * max(abs(ref_i), 1e-10)
    # exploding: X_{-1/2, 0}(z) = z^{1/2} e^{z/2}
    xv = whittaker_x(P(-0.5, 0.0), 2.0)
    assert abs(xv.value - math.sqrt(2) * math.e) <= 1e-12 * math.sqrt(2) * math.e


def test_x_identities():
    for b, m, z in [(0.7, 0.22, 2.0), (1.3, 0.41, 5.0), (0.5 + 0.3j, 0.27, 1.2),
                    (0.7, 0.5, 2.0), (0.7, 0.0, 2.0), (0.9, -0.5, 1.4)]:
        xv = whittaker_x(P(b, m), z).value
        ref = complex(mp_x(b, m, z))
        assert abs(xv - ref) <= 1e-11 * max(abs(ref), 1e-12)
    # proportionality on m + beta in Z: X_{1,0} = Gamma(-1/2)/Gamma(3/2) K = -4 K
    xv = whittaker_x(P(1.0, 0.0), 2.0).value
    kv = whittaker_k(P(1.0, 0.0), 2.0).value
    assert abs(xv + 4 * kv) <= 1e-12 * abs(xv)
    # parity in m on the degenerate lattice
    xp = whittaker_x(P(0.7, 0.5), 2.0).value
    xm = whittaker_x(P(0.7, -0.5), 2.0).value
    assert abs(xm + xp) <= 1e-12 * abs(xp)   # (-1)^p with p = 1


def test_k_symmetry_in_m():
    for b, m, z in [(0.9, 0.31, 2.0), (0.4 + 0.1j, 0.27 - 0.05j, 1.0 + 0.3j)]:
        a = whittaker_k(P(b, m), z).value
        c = whittaker_k(P(b, -m), z).value
        assert a == c  # canonicalized to the same code path


def test_degenerate_continuity():
    for b, z in [(0.7, 1.0), (1.2, 3.0)]:
        a = whittaker_k(P(b, 0.5 + 1e-5), z).value
        c = whittaker_k(P(b, 0.5), z).value
        assert abs(a - c) <= 1e-4 * max(1.0, abs(c))
        a = whittaker_x(P(b, 1e-5), z).value
        c = whittaker_x(P(b, 0.0), z).value
        assert abs(a - c) <= 1e-4 * max(1.0, abs(c))


def test_accuracy_loss_band():
    v = whittaker_k(P(0.7, 0.5 + 1e-7), 1.0)
    assert v.accuracy_loss
    assert v.err_est > 1e-12
    # value still close to the snapped evaluation
    c = whittaker_k(P(0.7, 0.5), 1.0).value
    assert abs(v.value - c) <= 1e-5


def test_nonconvergence_beyond_cap():
    with pytest.raises(NonConvergenceError):
        whittaker_i(P(0.5, 0.3), 41.0)
    with pytest.raises(DomainError):
        whittaker_k(P(0.5, 0.3), 0.0)


def test_i_ext_connection():
    for b, m, z in [(0.7, 0.22, 55.0), (0.7, 0.5, 60.0), (0.0, 1.0, 50.0),
                    (1.2, 0.31, complex(45, 25))]:
        iv = whittaker_i_ext(P(b, m), z).value
        ref = complex(mp_i(b, m, z, terms=700))
        assert abs(iv - ref) <= 1e-9 * abs(ref)


def test_reflection_identity():
    rnd = random.Random(2)
    for _ in range(25):
        b = complex(rnd.uniform(-1, 1), rnd.uniform(-0.5, 0.5))
        m = complex(rnd.uniform(-0.7, 0.7), rnd.uniform(-0.3, 0.3))
        z = rnd.uniform(0.5, 6.0)
        lhs = whittaker_i(P(b, m), z).value
        up = cmath.exp(-1j * cmath.pi * (0.5 + m)) * whittaker_i(P(-b, m), upper_edge(-z)).value
        dn = cmath.exp(+1j * cmath.pi * (0.5 + m)) * whittaker_i(P(-b, m), lower_edge(-z)).value
        assert abs(lhs - up) <= 1e-9 * max(1, abs(lhs))
        assert abs(lhs - dn) <= 1e-9 * max(1, abs(lhs))


def test_connection_formula():
    rnd = random.Random(4)
    for _ in range(25):
        b = complex(rnd.uniform(-1, 1), rnd.uniform(-0.5, 0.5))
        m = complex(rnd.uniform(-0.7, 0.7), rnd.uniform(-0.3, 0.3))
        if abs(cmath.sin(cmath.pi * (m + b))) < 0.15 or abs(cmath.sin(2 * cmath.pi * m)) < 0.15:
            continue
        z = rnd.uniform(0.5, 4.0)
        iv = whittaker_i(P(b, m), z).value
        kv = whittaker_k(P(b, m), z).value
        xv = whittaker_x(P(b, m), z).value
        rhs = (cmath.cos(2 * cmath.pi * m) * rgamma(0.5 + m + b) * kv
               - rgamma(0.5 + m - b) * xv) / cmath.sin(cmath.pi * (m + b))
        assert abs(iv - rhs) <= 1e-9 * max(1, abs(iv))


def test_wronskians_via_deriv():
    b, m = 0.8, 0.27
    p = P(b, m)
    si = WhittakerSolution("I", p)
    sim = WhittakerSolution("I", p.flip_m())
    sk = WhittakerSolution("K", p)
    sx = WhittakerSolution("X", p)
    for z in (0.9, 2.6):
        wr = si.value(z) * sim.deriv(z) - si.deriv(z) * sim.value(z)
        assert abs(wr + math.sin(2 * math.pi * m) / math.pi) < 1e-10
        wr = si.value(z) * sk.deriv(z) - si.deriv(z) * sk.value(z)
        assert abs(wr + rgamma(0.5 + m - b)) < 1e-10
        wr = sk.value(z) * sx.deriv(z) - sk.deriv(z) * sx.value(z)
        assert abs(wr + math.sin(math.pi * (m + b))) < 1e-10


def test_deriv_examples():
    b, m, z = 0.8, 0.27, 2.0
    # K' from the ladder equals the rearranged recurrence
    kd = whittaker_deriv("K", P(b, m), z).value
    rhs = (-whittaker_k(P(b + 1, m), z).value
           - (b - z / 2) * whittaker_k(P(b, m), z).value) / z
    assert abs(kd - rhs) == 0
    # closed form: d/dz I_{0,1/2}(z) = cosh(z/2) (I = 2 sinh(z/2))
    idv = whittaker_deriv("I", P(0.0, 0.5), z).value
    assert abs(idv - math.cosh(z / 2)) < 1e-12
    # finite-difference cross-check
    h = 1e-5
    for which in ("I", "K", "X", "J", "H+", "H-"):
        s = WhittakerSolution(which, P(b, m))
        fd = (s.value(z + h) - s.value(z - h)) / (2 * h)
        assert abs(s.deriv(z) - fd) <= 1e-6 * max(1, abs(fd))


def test_trig_functions():
    b, m, x = 0.9, 0.3, 2.0
    hp = whittaker_h(P(b, m), +1, x).value
    hm = whittaker_h(P(b, m), -1, x).value
    jv = whittaker_j(P(b, m), x)
    jm = whittaker_j(P(b, -m), x).value
    # H through J (the alternative display of the definition)
    for sign, hv in ((+1, hp), (-1, hm)):
        rhs = (sign * 1j * math.pi / cmath.sin(2 * cmath.pi * m)
               * (cmath.exp(-sign * 1j * cmath.pi * m) * jv.value * rgamma(0.5 - m - sign * 1j * b)
                  - jm * rgamma(0.5 + m - sign * 1j * b)))
        assert abs(hv - rhs) <= 1e-10 * max(1, abs(hv))


def test_h_asymptotic_prefactor():
    # H^e(2 mu x) e^{-e i mu x} (2 mu x)^{-e i delta} -> e^{-e i pi/2(1/2+m)} e^{pi beta/(4 mu)}
    b, m, mu = 0.6, 0.23, 0.9
    delta = b / (2 * mu)
    for e in (+1, -1):
        target = cmath.exp(-e * 1j * cmath.pi / 2 * (0.5 + m)) * math.exp(math.pi * b / (4 * mu))
        prev = None
        for x in (60.0, 150.0):
            hv = whittaker_h(P(b / (2 * mu), m), e, 2 * mu * x).value
            val = hv * cmath.exp(-e * 1j * mu * x) * (2 * mu * x) ** (-e * 1j * delta)
            dev = abs(val - target)
            if prev is not None:
                assert dev < prev
            prev = dev
        assert prev < 5e-2 * abs(target)


def test_ode_residuals_grid():
    from coulombw.oracle import ode_residual
    for b, m in [(0.7, 0.26), (1.3, -0.4), (0.5 + 0.3j, 0.37)]:
        p = P(b, m)
        for z in (0.5, 2.0, 10.0, 20.0):
            for which, sign in (("I", "hyperbolic"), ("K", "hyperbolic"), ("X", "hyperbolic"),
                                ("J", "trigonometric"), ("H+", "trigonometric"),
                                ("H-", "trigonometric")):
                assert ode_residual(which, p, sign, z) <= 1e-8


def test_beta_zero_reduction():
    from coulombw.bessel1 import bessel1_i, bessel1_k, bessel1_x
    for m in (0.27, -0.38, 1.0):
        for z in (0.8, 2.6):
            assert abs(whittaker_i(P(0, m), z).value
                       - 2 * rgamma(0.5 + m) * bessel1_i(m, z / 2).value) <= 1e-10
            assert abs(whittaker_k(P(0, m), z).value
                       - bessel1_k(m, z / 2).value) <= 1e-10
            assert abs(whittaker_x(P(0, m), z).value
                       - bessel1_x(m, z / 2).value) <= 1e-10 * max(1, abs(whittaker_x(P(0, m), z).value))


def test_zero_energy_rescaling_limit():
    # (1/2k)^{1/2+m} I_{beta/2k, m}(2kx) -> beta^{-m-1/2} (beta x)^{1/4} J_{2m}(2 sqrt(beta x)) / sqrt(pi)
    from coulombw.bessel1 import bessel1_j
    b, m, x = 0.9, 0.22, 1.3
    target = (b ** (-m - 0.5) * (b * x) ** 0.25 / math.sqrt(math.pi)
              * bessel1_j(2 * m, 2 * math.sqrt(b * x)).value)
    prev = math.inf
    for k in (1e-1, 1e-2, 1e-3):
        val = (1 / (2 * k)) ** (0.5 + m) * whittaker_i(P(b / (2 * k), m), 2 * k * x).value
        dev = abs(val - target)
        assert dev < prev
        prev = dev
    assert prev < 1e-3 * abs(target)


# ---------------------------------------------------------------------------
# memo on exact inputs

def _bits(ev):
    return (struct.pack("<3d", ev.value.real, ev.value.imag, ev.err_est),
            ev.method, ev.accuracy_loss)


def test_memo_keeps_signed_zeros_apart():
    p = P(0.3 + 0.1j, 0.27)
    below, above = complex(-5.0, -0.0), complex(-5.0, 0.0)
    for order in ((below, above), (above, below)):
        whittaker_i.cache_clear()
        vals = {z.imag.hex(): whittaker_i(p, z).value for z in order}
        assert abs(vals[(-0.0).hex()] - (-12.330485793270523 - 16.236393838870935j)) <= 1e-12
        assert abs(vals[(0.0).hex()] - (-17.65378467976498 + 10.198296488603752j)) <= 1e-12


def test_memo_keeps_edge_tags_apart():
    p = P(0.3 + 0.1j, 0.27)
    for fn in (whittaker_i, whittaker_k, whittaker_x):
        expect = {e: _bits(fn.__wrapped__(p, e(-3.0))) for e in (upper_edge, lower_edge)}
        assert expect[upper_edge] != expect[lower_edge]
        for order in ((upper_edge, lower_edge), (lower_edge, upper_edge)):
            fn.cache_clear()
            for e in order:
                assert _bits(fn(p, e(-3.0))) == expect[e]


@pytest.mark.parametrize("fn,b,m,z", [
    (whittaker_i, 0.3 + 0.1j, 0.27, 2.0),              # doubles series
    (whittaker_i, 0.3 + 0.1j, 0.27, complex(10, 3)),   # escalated series
    (whittaker_i, 0.3 + 0.1j, 0.27, complex(-5, 2)),   # reflected
    (whittaker_i, 0.7, -1.0, 3.0),                     # series starting at k0 > 0
    (whittaker_k, 0.3 + 0.1j, 0.27, 2.0),
    (whittaker_k, 0.3 + 0.1j, 0.27, 10.0),
    (whittaker_k, 0.8, 0.0, 5.0),                      # logarithmic series
    (whittaker_k, 2.0, 0.5, 3.0),                      # Laguerre closed form
    (whittaker_k, 0.3, 0.27, 50.0),                    # asymptotic
    (whittaker_k, 0.7, 0.5 + 1e-7, 1.0),               # accuracy-loss band
    (whittaker_k, -4.8498 + 0.2178j, -0.264, -3.0314j),  # a-posteriori re-run
    (whittaker_x, 0.3, 0.27, 2.0),
    (whittaker_x, 0.3, 0.27, 10.0),
    (whittaker_x, 0.8, 0.0, 4.0),
    (whittaker_x, -2.0, 0.5, 3.0),
    (whittaker_x, 0.3, 0.27, 50.0),
    (whittaker_x, 0.5, 0.5, 2.0),                      # m + beta integer: through K
])
def test_memo_hit_is_bit_identical(fn, b, m, z):
    p = P(b, m)
    fn.cache_clear()
    expect = _bits(fn.__wrapped__(p, z))
    assert _bits(fn(p, z)) == expect          # miss
    hits = fn.cache_info().hits
    assert _bits(fn(p, z)) == expect          # hit
    assert fn.cache_info().hits == hits + 1


def test_memo_does_not_cache_errors():
    for fn in (whittaker_i, whittaker_k, whittaker_x):
        fn.cache_clear()
        for _ in range(3):
            with pytest.raises(DomainError):
                fn(P(0.3, 0.27), 0.0)
        assert fn.cache_info().currsize == 0


def test_memo_stays_bounded():
    whittaker_k.cache_clear()
    size = whittaker_k.cache_info().maxsize
    for j in range(size + 100):
        whittaker_k(P(0.3, 0.27), complex(41.0, 0.01 * j))
    assert whittaker_k.cache_info().currsize == size


def test_k_rerun_when_err_est_shows_cancellation():
    # |z| ~ 3 passes the up-front e^|z| rule in doubles, but the z^beta
    # scale at |beta| ~ 5 cancels ~1e7; err_est flags it and the run is
    # repeated at the precision it asks for
    b, m, z = -4.8498 + 0.2178j, -0.264, -3.0314j
    kv = whittaker_k(P(b, m), z)
    ref = complex(mp.whitw(b, m, z))
    assert abs(kv.value - ref) <= 1e-14 * abs(ref)


# ---------------------------------------------------------------------------
# K and X share one logarithmic series; J and H share one rotation rule;
# derivatives report the method of the values they come from

def _mp_edge(z, s):
    """-z just above (s = +1) or just below (s = -1) the cut, for mpmath."""
    return mp.mpc(-z, s * 1e-30)


@pytest.mark.parametrize("b", [0.7 + 0.3j, -1.3 + 0.4j, 2.2 - 0.6j])
@pytest.mark.parametrize("m", [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5])
def test_degenerate_series_against_mpmath(b, m):
    # K and X at 2m in Z, finite part included for |2m| >= 2; 20 digits keep
    # the references (mpmath raises its own precision on cancellation) far
    # inside the tolerance
    p = P(b, m)
    with mp.workdps(20):
        for z, ref_z in [(0.4, 0.4), (2.5, 2.5), (7.0, 7.0), (3 + 2j, 3 + 2j), (18.0, 18.0),
                         (upper_edge(-2.0), _mp_edge(2, +1)), (lower_edge(-2.0), _mp_edge(2, -1))]:
            kv = whittaker_k(p, z)
            assert kv.method is Method.DEGENERATE_SERIES
            ref = complex(mp.whitw(b, m, ref_z))
            assert abs(kv.value - ref) <= 1e-11 * abs(ref)
        for z in (0.4, 2.5, 7.0, 18.0):
            xv = whittaker_x(p, z)
            assert xv.method is Method.DEGENERATE_SERIES
            ref = complex(mp_x(b, m, z))
            assert abs(xv.value - ref) <= 1e-11 * abs(ref)


def test_j_handle_below_minus_half_pi():
    # arg z = -0.7 pi: only the +pi/2 rotation keeps the argument on the sheet
    p = P(0.3 + 0.2j, 0.27)
    z = cmath.rect(2.0, -0.7 * math.pi)
    s = WhittakerSolution("J", p)
    jv = whittaker_j(p, z).value
    jd = whittaker_deriv("J", p, z).value
    assert abs(s.value(z) - jv) <= 1e-14 * abs(jv)
    assert abs(s.deriv(z) - jd) <= 1e-14 * abs(jd)


@pytest.mark.parametrize("which,b,m,z,method,loss", [
    ("K", 0.3, 0.27, 50.0, Method.ASYMPTOTIC_SERIES, False),
    ("K", 0.7, 0.5 + 1e-7, 1.0, Method.DIRECT_SERIES, True),
    ("K", 0.8, 0.0, 5.0, Method.DEGENERATE_SERIES, False),
    ("K", 2.0, 0.5, 3.0, Method.CLOSED_FORM, False),
    ("X", 0.3, 0.27, 50.0, Method.ASYMPTOTIC_SERIES, False),
    ("H+", 0.3, 0.27, 50.0, Method.ASYMPTOTIC_SERIES, False),
    ("H-", 0.3, 0.5 + 1e-7, 1.0, Method.DIRECT_SERIES, True),
])
def test_deriv_reports_method_of_its_values(which, b, m, z, method, loss):
    d = whittaker_deriv(which, P(b, m), z)
    assert d.method is method
    assert d.accuracy_loss is loss


def test_j_sums_one_i_series(monkeypatch):
    import coulombw.whittaker as wmod
    calls = []
    inner = wmod._i_value

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(wmod, "_i_value", spy)
    p = P(0.3 + 0.2j, 0.27)
    for z in (2 - 1j, 2 + 1j):
        whittaker_i.cache_clear()
        calls.clear()
        jv = whittaker_j(p, z).value
        assert len(calls) == 1
        # J(z) = e^{-s i pi (1/2+m)/2} I_{-s i beta}(e^{s i pi/2} z), s = -sign(arg z)
        s = 1 if z.imag < 0 else -1
        ref = (cmath.exp(-s * 1j * math.pi / 2 * (0.5 + 0.27))
               * whittaker_i(P(-s * 1j * p.beta, 0.27), 1j * s * z).value)
        assert abs(jv - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("fn,z", [(whittaker_i, 12j), (whittaker_k, 12 - 1j), (whittaker_x, 12 - 1j)])
def test_mpmath_err_est_counts_the_rounding_to_double(fn, z):
    # these run in mpmath, whose own error is ~1e-22; the returned double
    # carries at least half an ulp more
    fn.cache_clear()
    ev = fn(P(0.3 + 0.1j, 0.27), z)
    assert ev.err_est >= 1.1e-16 * abs(ev.value)


# ---------------------------------------------------------------------------
# err_est weighted by the Gamma coefficients; one cut rule for K and X

@pytest.mark.parametrize("b", [40 + 0.3j, 20 + 0.3j])
def test_k_at_large_beta_reruns_on_gamma_weighted_err_est(b):
    # |rgamma(1/2 -+ m - beta)| >> 1 multiplies the series errors; an
    # err_est without that weight is ~1e-56 and 2e-29 of |ref| here, too
    # small to re-run values that are 1e-10 and 1.5e-12 off
    whittaker_k.cache_clear()
    kv = whittaker_k(P(b, 0.27), 2.0)
    with mp.workdps(60):
        ref = complex(mp.whitw(b, 0.27, 2))
    assert abs(kv.value - ref) <= 1e-14 * abs(ref)
    assert abs(kv.value - ref) <= 10 * kv.err_est + 4 * 2.3e-16 * abs(ref)


@pytest.mark.parametrize("fn", [whittaker_k, whittaker_x])
@pytest.mark.parametrize("r", [2.5, 7.0, 20.0, 45.0])
def test_k_and_x_refuse_untagged_points_on_the_cut(fn, r):
    # doubles (2.5), mpmath series (7, 20) and asymptotics (45) alike; a
    # signed zero is not an edge tag (I honours it, see the memo test above)
    for im in (0.0, -0.0):
        with pytest.raises(BranchError):
            fn(P(0.3, 0.27), complex(-r, im))
