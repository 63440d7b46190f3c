"""The 25 integral-identity case types of the `integrals` suite.

Each type draws its parameters from the same domain as the matching
``_case_*`` maker in ``coulombw/suites.py`` and builds its integrand from
the public evaluators; the closed form it is checked against comes from
``coulombw.integrals``.  ``draw`` needs only the stdlib; ``integrand``,
``integrate`` and ``closed_form`` receive the imported library.
"""

from __future__ import annotations

import cmath
import math

TYPES = (
    ("k_cross", "generic"), ("k_cross", "zero"), ("k_cross", "half"),
    ("k_norm", "generic"), ("k_norm", "zero"), ("k_norm", "half"),
    ("h_cross", "generic"), ("h_norm", "generic"),
    ("h_cross", "zero"), ("h_cross", "half"),
    ("h_norm", "zero"), ("h_norm", "half"),
    ("hankel_cross", "generic"), ("hankel_cross", "zero"), ("hankel_cross", "half"),
    ("hankel_norm", "generic"), ("hankel_norm", "zero"),
    ("bessel_kk", "generic"), ("bessel_kk", "m0"), ("bessel_kk", "diag"), ("bessel_kk", "both"),
    ("bessel_x2kk", "generic"), ("bessel_x2kk", "m0"), ("bessel_x2kk", "diag"),
    ("bessel_x2kk", "both"),
)

# quadrature tolerance and pass tolerance of each family, as in the suite
QUAD_TOL = {"k_cross": 3e-9, "k_norm": 3e-9, "h_cross": 3e-7, "h_norm": 3e-7,
            "hankel_cross": 3e-9, "hankel_norm": 3e-8, "bessel_kk": 3e-9,
            "bessel_x2kk": 3e-9}
PASS_TOL = {"k_cross": 1e-7, "k_norm": 1e-7, "h_cross": 1e-5, "h_norm": 1e-5,
            "hankel_cross": 1e-7, "hankel_norm": 1e-5, "bessel_kk": 1e-7,
            "bessel_x2kk": 1e-7}


def _m(rng, kind, lo=0.08, hi=0.42):
    if kind == "zero":
        return 0.0
    if kind == "half":
        return 0.5
    return rng.uniform(lo, hi) * rng.choice([-1, 1])


def _strip(rng):
    im = rng.uniform(1.6, 2.8) * rng.choice([-1, 1])
    beta = complex(rng.uniform(-0.5, 0.5), im)
    return beta, (+1 if im > 0 else -1), rng.uniform(0.35, 0.6) * abs(im)


def _offcut(rng):
    im = rng.uniform(0.9, 1.8) * rng.choice([-1, 1])
    beta = complex(rng.uniform(-0.6, 0.8), im)
    return beta, (+1 if cmath.sqrt(beta).imag > 0 else -1)


def draw(rng, family: str, kind: str) -> dict:
    """Parameters of one case; plain numbers only."""
    if family == "k_cross":
        beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 0.6))
        m = _m(rng, kind)
        k = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.2, 0.2))
        p = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.2, 0.2))
        if abs(k - p) < 0.15:
            p = p + 0.3
        return {"beta": beta, "m": m, "k": k, "p": p}
    if family == "k_norm":
        beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
        k = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.15, 0.15))
        return {"beta": beta, "m": _m(rng, kind), "k": k}
    if family == "h_cross":
        beta, e, mu = _strip(rng)
        eta = rng.uniform(0.35, 0.6) * abs(beta.imag)
        if abs(mu - eta) < 0.1:
            eta = 0.75 * eta
        return {"beta": beta, "e": e, "mu": mu, "eta": eta, "m": _m(rng, kind)}
    if family == "h_norm":
        beta, e, mu = _strip(rng)
        return {"beta": beta, "e": e, "mu": mu, "m": _m(rng, kind)}
    if family == "hankel_cross":
        beta, e = _offcut(rng)
        m = _m(rng, kind)
        k = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.15, 0.15))
        return {"beta": beta, "e": e, "m": m, "k": k}
    if family == "hankel_norm":
        beta, e = _offcut(rng)
        return {"beta": beta, "e": e, "m": _m(rng, kind)}
    # bessel_kk / bessel_x2kk
    m = _m(rng, "generic", 0.1, 0.45)
    a = rng.uniform(0.7, 1.6)
    b = rng.uniform(0.7, 1.6)
    if kind == "m0":
        m = 0.0
    elif kind == "diag":
        b = a
    elif kind == "both":
        m, b = 0.0, a
    elif abs(a - b) < 0.2:
        b = a + 0.4
    return {"a": a, "b": b, "m": m}


def integrand(cw, family: str, c: dict):
    """The integrand of one case, built from public evaluators."""
    P = cw.WhittakerParams
    if family == "k_cross":
        k, p = c["k"], c["p"]
        pk = P(c["beta"] / (2 * k), c["m"])
        pp = P(c["beta"] / (2 * p), c["m"])
        return lambda x: (cw.whittaker_k(pk, 2 * k * x).value
                          * cw.whittaker_k(pp, 2 * p * x).value)
    if family == "k_norm":
        k = c["k"]
        pk = P(c["beta"] / (2 * k), c["m"])
        return lambda x: cw.whittaker_k(pk, 2 * k * x).value ** 2
    if family == "h_cross":
        e, mu, eta = c["e"], c["mu"], c["eta"]
        pm = P(c["beta"] / (2 * mu), c["m"])
        pe = P(c["beta"] / (2 * eta), c["m"])
        return lambda z: (cw.whittaker_h(pm, e, 2 * mu * z).value
                          * cw.whittaker_h(pe, e, 2 * eta * z).value)
    if family == "h_norm":
        e, mu = c["e"], c["mu"]
        pm = P(c["beta"] / (2 * mu), c["m"])
        return lambda z: cw.whittaker_h(pm, e, 2 * mu * z).value ** 2
    if family == "hankel_cross":
        beta, e, k = c["beta"], c["e"], c["k"]
        sq = cmath.sqrt(beta)
        pk = P(beta / (2 * k), c["m"])
        two_m = 2 * c["m"]
        return lambda x: ((beta * x) ** 0.25
                          * cw.bessel1_h(two_m, e, 2 * sq * math.sqrt(x)).value
                          * cw.whittaker_k(pk, 2 * k * x).value)
    if family == "hankel_norm":
        beta, e = c["beta"], c["e"]
        sq = cmath.sqrt(beta)
        two_m = 2 * c["m"]
        return lambda x: ((beta * x) ** 0.25
                          * cw.bessel1_h(two_m, e, 2 * sq * math.sqrt(x)).value) ** 2
    a, b, m = c["a"], c["b"], c["m"]
    if family == "bessel_kk":
        return lambda x: cw.bessel1_k(m, a * x).value * cw.bessel1_k(m, b * x).value
    return lambda x: x * x * cw.bessel1_k(m, a * x).value * cw.bessel1_k(m, b * x).value


def integrate(cw, family: str, c: dict, f):
    """Run the quadrature; returns (value compared to the closed form,
    QuadratureResult)."""
    tol = QUAD_TOL[family]
    if family in ("h_cross", "h_norm"):
        res = cw.quad_ray(f, angle=c["e"] * math.pi / 4, tol=tol)
    else:
        res = cw.quad_halfline(f, tol=tol)
    value = res.value
    if family == "k_cross":
        value *= c["k"] ** 2 - c["p"] ** 2
    elif family == "h_cross":
        value *= c["mu"] ** 2 - c["eta"] ** 2
    return value, res


def closed_form(cw, family: str, c: dict) -> complex:
    if family == "k_cross":
        return cw.k_cross(c["beta"], c["m"], c["k"], c["p"])
    if family == "k_norm":
        return cw.k_norm_sq(c["beta"], c["m"], c["k"])
    if family == "h_cross":
        return cw.h_cross(c["beta"], c["m"], c["mu"], c["eta"], c["e"])
    if family == "h_norm":
        return cw.h_norm_sq(c["beta"], c["m"], c["mu"], c["e"])
    if family == "hankel_cross":
        return cw.hankel_k_cross(c["beta"], c["m"], c["k"], c["e"])
    if family == "hankel_norm":
        return cw.hankel_norm_sq(c["beta"], c["m"], c["e"])
    if family == "bessel_kk":
        return cw.bessel_kk(c["a"], c["b"], c["m"])
    return cw.bessel_x2kk(c["a"], c["b"], c["m"])
