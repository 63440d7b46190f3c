"""Independent mpmath references, computed outside the timed region.

Every reference here uses mpmath's own special functions (whitm, whitw,
gamma, digamma, ...) at 40-80 digits, never the library's evaluators, so a
shared bug cannot cancel.  Results are cached on disk under
``perfbench/.refcache``, keyed by the exact inputs, so repeated runs on the
same seed skip the slow part.
"""

from __future__ import annotations

import hashlib
import json
import os

import mpmath as mp

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".refcache")


class RefCache:
    """JSON file of reference values for one workload, keyed by input repr."""

    def __init__(self, workload: str):
        self.path = os.path.join(CACHE_DIR, workload + ".json")
        self.dirty = False
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    @staticmethod
    def key(key_obj) -> str:
        return hashlib.sha256(repr(key_obj).encode()).hexdigest()

    def __contains__(self, key_obj) -> bool:
        return self.key(key_obj) in self.data

    def __getitem__(self, key_obj):
        return self.data[self.key(key_obj)]

    def __setitem__(self, key_obj, value):
        self.data[self.key(key_obj)] = value
        self.dirty = True

    def save(self):
        if not self.dirty:
            return
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh)
        os.replace(tmp, self.path)
        self.dirty = False


def pack(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# Whittaker family (definitions as in tests/test_stress_reference.py)

def ref_i(b, m, z):
    """Regularized I = M * rgamma(1 + 2m)."""
    with mp.workdps(60):
        return mp.whitm(b, m, z) * mp.rgamma(1 + 2 * mp.mpc(m))


def ref_k(b, m, z):
    with mp.workdps(60):
        return mp.whitw(b, m, z)


def ref_x(b, m, z):
    """X on the positive real axis as the average of the two edge
    continuations of the decaying solution; 80 digits because the edges
    cancel like e^|z|."""
    with mp.workdps(80):
        zp = mp.mpc(z) * mp.exp(mp.mpc(0, mp.pi))
        zm = mp.mpc(z) * mp.exp(mp.mpc(0, -mp.pi))
        em = mp.exp(mp.mpc(0, -mp.pi) * (mp.mpf(0.5) + mp.mpc(m)))
        ep = mp.exp(mp.mpc(0, mp.pi) * (mp.mpf(0.5) + mp.mpc(m)))
        return (em * mp.whitw(-b, m, zp) + ep * mp.whitw(-b, m, zm)) / 2


def _ladder_c(kind, beta, m):
    """Coefficient of f_{beta+1} in z f' = c f_{beta+1} - (beta - z/2) f."""
    if kind == "I":
        return 0.5 + m + beta
    if kind == "K":
        return -1.0
    return (0.5 + m + beta) * (0.5 - m + beta)


_BASE = {"I": ref_i, "K": ref_k, "X": ref_x}


def whittaker_point(func: str, beta: complex, m: complex, z: complex, deriv: bool):
    """(value, derivative, derivative scale) of I, K, X, H+, H- or J at z;
    the last two are None unless ``deriv``.

    The derivative comes from the exact beta-ladder identity evaluated on
    two independent mpmath values; the scale is the sum of the magnitudes
    of the ladder's two terms, which bounds how a relative error in the
    values propagates into the derivative.  H and J are the rotated K and
    I, with the rotations the library documents (J with the -pi/2 one).
    """
    if func in ("I", "K", "X"):
        kind, b2, w, pref, rot = func, beta, z, 1.0, 1.0
    elif func in ("H+", "H-"):
        s = 1 if func == "H+" else -1
        kind, b2 = "K", s * 1j * beta
        w = z * complex(0, -s)
        pref = complex(mp.exp(-s * 1j * mp.pi / 2 * (0.5 + m)))
        rot = complex(0, -s)
    else:
        kind, b2 = "I", 1j * beta
        w = z * complex(0, -1)
        pref = complex(mp.exp(1j * mp.pi / 2 * (0.5 + m)))
        rot = complex(0, -1)
    base = _BASE[kind]
    f0 = base(b2, m, w)
    val = complex(pref * complex(f0))
    if not deriv:
        return val, None, None
    f1 = base(b2 + 1, m, w)
    with mp.workdps(60):
        c = _ladder_c(kind, mp.mpc(b2), mp.mpc(m))
        t1 = c * f1
        t0 = (mp.mpc(b2) - mp.mpc(w) / 2) * f0
        d = (t1 - t0) / mp.mpc(w)
        scale = (abs(t1) + abs(t0)) / abs(mp.mpc(w))
    return val, complex(pref * rot * complex(d)), float(abs(pref) * scale)


# ---------------------------------------------------------------------------
# spectral data: planted eigenvalue targets and kernel entries

EULER = mp.euler


def _mc(x):
    return mp.mpc(complex(x))


def eigen_target(kind: str, beta, m, k0):
    """Value of the boundary-condition parameter that puts -k0^2 in the
    spectrum (kappa for the generic family, nu for the others), from the
    printed condition maps with mpmath's Gamma and psi."""
    with mp.workdps(40):
        beta, m, k0 = _mc(beta), _mc(m), _mc(k0)
        d = beta / (2 * k0)
        if kind == "generic":
            return complex(mp.power(2 * k0, -2 * m) * mp.gamma(2 * m) * mp.rgamma(-2 * m)
                           * mp.gamma(0.5 - m - d) * mp.rgamma(0.5 + m - d))
        if kind == "nu_half":
            return complex(-beta * (mp.digamma(1 - d) / 2 + mp.digamma(-d) / 2
                                    + 2 * EULER - 1 + mp.log(2 * k0)))
        return complex(mp.digamma(0.5 - d) + 2 * EULER + mp.log(2 * k0))


def _i(d, m, z):
    return mp.whitm(d, m, z) * mp.rgamma(1 + 2 * m)


def _h(d, m, e, z):
    """H^e_{d,m}(z): the decaying solution rotated by -e*pi/2."""
    return (mp.exp(-e * mp.j * mp.pi / 2 * (0.5 + m))
            * mp.whitw(e * mp.j * d, m, z * mp.exp(-e * mp.j * mp.pi / 2)))


def _zeta(beta, m, k):
    d = beta / (2 * k)
    return (mp.pi * (2 * m + d * mp.digamma(0.5 + m - d) - d * mp.digamma(0.5 - m - d))
            / mp.sin(2 * mp.pi * m))


def kernel_entry(kind: str, c: dict, x: float, y: float) -> complex:
    """One resolvent or projection kernel entry from the printed Green's
    function and projection formulas, every special function from mpmath."""
    with mp.workdps(60):
        beta, m = _mc(c["beta"]), _mc(c["m"])
        x, y = mp.mpf(x), mp.mpf(y)
        if kind.startswith("projection"):
            return complex(_projection_entry(kind, c, beta, m, x, y))
        k = _mc(c["k"])
        nu = _mc(c.get("bc", 0))
        xs, xl = min(x, y), max(x, y)
        d = beta / (2 * k)
        zs, zl = 2 * k * xs, 2 * k * xl
        kl = mp.whitw(d, m, zl)
        if kind == "generic":
            gp = mp.power(2 * k, -m) * mp.rgamma(0.5 + m - d) * mp.rgamma(1 - 2 * m)
            gm = mp.power(2 * k, m) * mp.rgamma(0.5 - m - d) * mp.rgamma(1 + 2 * m)
            u = (mp.power(2 * k, -m) * mp.rgamma(1 - 2 * m) * _i(d, m, zs)
                 + nu * mp.power(2 * k, m) * mp.rgamma(1 + 2 * m) * _i(d, -m, zs))
            return complex(u * kl / (2 * k * (gp + nu * gm)))
        if kind == "generic_inf":
            return complex(mp.gamma(0.5 - m - d) / (2 * k) * _i(d, -m, zs) * kl)
        if kind == "nu_half":
            om = (-mp.digamma(1 - d) / 2 - mp.digamma(-d) / 2 - 2 * EULER
                  - mp.log(2 * k) + 1 - nu / beta)
            u = om * mp.rgamma(-d) * _i(d, m, zs) + mp.whitw(d, m, zs)
            return complex(mp.gamma(-d) * mp.gamma(1 - d) / (2 * k * om) * u * kl)
        if kind == "nu_zero":
            om = mp.digamma(0.5 - d) + 2 * EULER + mp.log(2 * k) - nu
            u = om * mp.rgamma(0.5 - d) * _i(d, m, zs) + mp.whitw(d, m, zs)
            return complex(mp.gamma(0.5 - d) ** 2 / (2 * k * om) * u * kl)
        # doubly degenerate lattices: X-based kernels with the library's
        # documented sign convention (leading (-1)^(n+1))
        xv = ref_x(complex(d), complex(m), float(zs.real))
        n = int(mp.nint(mp.re(d))) if kind == "dd_half" else int(mp.nint(mp.re(d) - 0.5))
        if kind == "dd_half":
            xi = (mp.digamma(1 + d) / 2 + mp.digamma(d) / 2 + 2 * EULER
                  + mp.log(2 * k) - 1 + nu / beta)
            u = (-1) ** (n + 1) * xv - xi * mp.rgamma(d) * mp.rgamma(1 + d) * mp.whitw(d, m, zs)
        else:
            xi = -mp.digamma(0.5 + d) - 2 * EULER - mp.log(2 * k) + nu
            u = (-1) ** (n + 1) * xv + xi * mp.rgamma(0.5 + d) ** 2 * mp.whitw(d, m, zs)
        return complex(u * kl / (2 * k))


def _projection_entry(kind, c, beta, m, x, y):
    if kind == "projection_negative":
        k = _mc(c["k"])
        d = beta / (2 * k)
        cc = k * mp.gamma(0.5 + m - d) * mp.gamma(0.5 - m - d) / _zeta(beta, m, k)
        return cc * mp.whitw(d, m, 2 * k * x) * mp.whitw(d, m, 2 * k * y)
    if kind == "projection_positive":
        e, mu = c["e"], mp.mpf(c["mu"])
        d = beta / (2 * mu)
        cc = (mp.exp(e * mp.j * mp.pi * m) * mu
              * mp.gamma(0.5 + m - e * mp.j * d) * mp.gamma(0.5 - m - e * mp.j * d)
              / _zeta(beta, m, -e * mp.j * mu))
        return cc * _h(d, m, e, 2 * mu * x) * _h(d, m, e, 2 * mu * y)
    e = c["e"]
    sq = mp.sqrt(beta)
    sinf = mp.sin(2 * mp.pi * m) / (m * (4 * m * m - 1))
    cc = 3 * mp.exp(e * 2j * mp.pi * m) * beta * sinf
    hx = mp.power(beta * x, 0.25) * _h(0, 2 * m, e, 4 * sq * mp.sqrt(x))
    hy = mp.power(beta * y, 0.25) * _h(0, 2 * m, e, 4 * sq * mp.sqrt(y))
    return cc * hx * hy


def main(argv):
    """python3 refs.py <workloads function> <input file> <output file>:
    one input literal per line in, one JSON reference per line out."""
    import ast
    import sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    fn = getattr(workloads, argv[0])
    with open(argv[1]) as src, open(argv[2], "w") as dst:
        for line in src:
            dst.write(json.dumps(fn(ast.literal_eval(line))) + "\n")


if __name__ == "__main__":
    import sys
    main(sys.argv[1:])
