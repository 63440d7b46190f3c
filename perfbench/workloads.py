"""The four workloads: seeded inputs, the library calls of one op, and the
correctness rule each op is checked against.

Inputs are made here from the seed alone and are plain Python values
(str, int, float, complex, tuples and dicts of them), so ``repr`` and
``ast.literal_eval`` round-trip them exactly.  This module imports only the
stdlib at load time: the set-up probe loads it before it starts its clock
at ``import coulombw``.  mpmath references live in ``refs.py`` and are
computed after the timed loop.

Op i of a workload draws from ``random.Random("<workload>:<seed>:<i>")``,
so every input depends only on (seed, i), never on how many ops a run
reaches.
"""

from __future__ import annotations

import cmath
import math
import random

import quadcases

EPS = 2.220446049250313e-16


def rng_for(workload: str, seed: int, i: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, i))


def rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# points: one (function, beta, m) draw swept along a fixed |z| ladder

POINT_FUNCS = ("I", "K", "X", "H+", "H-", "J")
SNAP_CLASSES = 5
POINTS_PERIOD = len(POINT_FUNCS) * 2 * SNAP_CLASSES   # functions x tiers x snap classes
# 3 points in the double-precision series band (|z| <= 3.4), 4 in the
# escalated mid band (3.4 < |z| <= 40) and 2 in the asymptotic band
LADDER = (0.1, 0.8, 2.5, 6.0, 12.0, 22.0, 36.0, 50.0, 80.0)
BANDS = ((0, 1, 2), (3, 4, 5, 6), (7, 8))
BETA_MAX = 8.0   # calibration domain of the ROADMAP: |beta| <= 8, |Re m| < 1


def _point_beta(rng, tier):
    if tier == "stress":
        # the box of tests/test_stress_reference.py
        return complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
    return cmath.rect(BETA_MAX * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))


GOLDEN = 0.6180339887498949


def points_input(seed: int, i: int) -> dict:
    """Op i sweeps function POINT_FUNCS[i % 6].  The mix is stratified so
    every POINTS_PERIOD ops hold the same shares: tiers alternate per block
    of six ops, and of each five tier-blocks three draw a generic m, one
    snaps 2m to {0, 1, 2} and one also puts beta on a Laguerre lattice.
    The ray angle follows a golden-ratio sequence shifted by the seed."""
    rng = rng_for("points", seed, i)
    func = POINT_FUNCS[i % len(POINT_FUNCS)]
    block = i // len(POINT_FUNCS)
    tier = ("stress", "calibration")[block % 2]
    snap = (block // 2) % SNAP_CLASSES
    while True:
        if snap >= 3:
            p = rng.choice((0, 1, 2))
            m = complex(p / 2.0)
            if snap == 4:
                top = int((1.5 if tier == "stress" else BETA_MAX) - (1 + p) / 2.0)
                lat = rng.randint(0, max(top, 0)) + (1 + p) / 2.0
                # the lattice of the solution the function is built from:
                # I, K decaying (beta), X exploding (-beta), H+-/J rotated
                beta = {"I": lat, "K": lat, "X": -lat, "H+": -1j * lat,
                        "H-": 1j * lat, "J": -1j * lat}[func]
            else:
                beta = _point_beta(rng, tier)
        else:
            beta = _point_beta(rng, tier)
            m = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.3, 0.3))
            # stated exclusion: mpmath's whitm/whitw cannot be evaluated
            # within 1e-3 of an integer 2m (exactly at it they can)
            if abs(2 * m - round((2 * m).real)) < 1e-3:
                continue
        # stated exclusion, as in the stress test: the edge average that
        # defines the X reference cancels near integer m + beta
        if func == "X" and 0 < abs((m + beta) - round((m + beta).real)) < 1e-2:
            continue
        break
    # X is defined on the positive real axis; the others on a ray
    u = (random.Random("points:%d" % seed).random() + i * GOLDEN) % 1.0
    ang = 0.0 if func == "X" else (0.9 * u - 0.45) * math.pi
    # the derivative is checked at one ladder point per band (its mpmath
    # reference costs a second evaluation); the value at every point
    dchk = tuple(rng.choice(band) for band in BANDS)
    return {"func": func, "beta": complex(beta), "m": m, "ang": ang, "tier": tier,
            "dchk": dchk}


def point_z(inp: dict, r: float):
    return r if inp["func"] == "X" else cmath.rect(r, inp["ang"])


def evaluate_point(cw, func: str, p, z):
    """The public evaluator of one function, returning an Evaluation."""
    if func == "I":
        return cw.whittaker_i_ext(p, z)
    if func == "K":
        return cw.whittaker_k(p, z)
    if func == "X":
        return cw.whittaker_x(p, z)
    if func == "J":
        return cw.whittaker.whittaker_j_ext(p, z)
    return cw.whittaker_h(p, 1 if func == "H+" else -1, z)


def points_run(cw, inp: dict):
    p = cw.WhittakerParams(inp["beta"], inp["m"])
    sol = cw.WhittakerSolution(inp["func"], p, ext=True)
    out = []
    for r in LADDER:
        z = point_z(inp, r)
        ev = evaluate_point(cw, inp["func"], p, z)
        out.append((ev.value, ev.err_est, ev.accuracy_loss, sol.deriv(z)))
    return out


def points_reference(inp: dict):
    import refs
    rows = []
    for j, r in enumerate(LADDER):
        v, d, scale = refs.whittaker_point(inp["func"], inp["beta"], inp["m"],
                                           point_z(inp, r), j in inp["dchk"])
        rows.append([refs.pack(v), None if d is None else refs.pack(d), scale])
    return rows


def points_check(inp: dict, out, ref) -> dict:
    """The stress test's rule, |v - ref| <= max(1e-10 |ref|, 10 err_est),
    on every value; on every checked derivative the same relative
    allowance, propagated through the beta-ladder by the reference's term
    scale.

    Only ``stress``-tier draws fail on a miss: that is the domain where
    the library already asserts the rule.  ``calibration``-tier draws
    (|beta| <= 8) fail only on a non-finite result; their misses are
    counted for the per-layer report (ROADMAP aim 3).
    """
    errs, misses, under, pessimism = [], 0, 0, []
    finite = True
    for (v, est, _loss, d), (vr, dr, scale) in zip(out, ref):
        vr = complex(*vr)
        finite &= all(math.isfinite(t) for t in (v.real, v.imag, d.real, d.imag, est))
        allow = max(1e-10, 10 * est / max(abs(vr), 1e-300))
        dev = abs(v - vr)
        miss = dev > allow * abs(vr)
        errs.append(rel_err(v, vr))
        if dr is not None:
            dr = complex(*dr)
            miss = miss or abs(d - dr) > allow * scale
            errs.append(abs(d - dr) / max(scale, 1e-300))
        misses += miss
        # ROADMAP calibration rule and how far err_est overstates the error
        under += dev > 10 * est + 4 * EPS * abs(vr)
        pessimism.append(math.log10(max(est, 1e-300) / max(dev, EPS * abs(vr), 1e-300)))
    failed = not finite or (inp["tier"] == "stress" and misses > 0)
    return {"failed": failed, "gated_errs": errs if inp["tier"] == "stress" else [],
            "calib_errs": errs if inp["tier"] == "calibration" else [],
            "calib_misses": misses if inp["tier"] == "calibration" else 0,
            "under": under, "pessimism": pessimism,
            "accuracy_loss": sum(1 for row in out if row[2])}


# ---------------------------------------------------------------------------
# quadrature: one integral-identity case, rotating over the 25 suite types

QUAD_STRIDE = 7   # coprime to 25: consecutive ops visit different families


def quadrature_input(seed: int, i: int) -> dict:
    family, kind = quadcases.TYPES[(i * QUAD_STRIDE) % len(quadcases.TYPES)]
    rng = rng_for("quadrature", seed, i)
    return {"family": family, "kind": kind, "case": quadcases.draw(rng, family, kind)}


def quadrature_run(cw, inp: dict, wrap=None):
    f = quadcases.integrand(cw, inp["family"], inp["case"])
    if wrap is not None:
        f = wrap(f)
    value, res = quadcases.integrate(cw, inp["family"], inp["case"], f)
    return value, res.evaluations


def quadrature_reference(cw, inp: dict):
    return quadcases.closed_form(cw, inp["family"], inp["case"])


def quadrature_check(inp: dict, out, ref) -> dict:
    value, _ = out
    dev = abs(value - ref) / max(abs(value), abs(ref), 1e-300)
    ok = dev <= quadcases.PASS_TOL[inp["family"]] and math.isfinite(dev)
    return {"failed": not ok, "gated_errs": [dev]}


# ---------------------------------------------------------------------------
# eigen: one find_eigenvalues search around a planted root

EIGEN_KINDS = ("generic", "generic_inf", "nu_half", "nu_half_inf", "nu_zero", "nu_zero_inf")
EIGEN_TOL = 1e-9     # acceptance criterion 4
EIGEN_GRID = (18, 14)


def eigen_input(seed: int, i: int) -> dict:
    """Plant k0 and map it to the boundary value that makes -k0^2 an
    eigenvalue.  Finite values come from mpmath (refs.eigen_target); the
    infinite ones put k0 on the pole lattice of the condition map."""
    import refs
    kind = EIGEN_KINDS[i % len(EIGEN_KINDS)]
    rng = rng_for("eigen", seed, i)
    while True:
        k0 = complex(rng.uniform(0.5, 1.1), rng.uniform(-0.15, 0.15))
        beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 0.6))
        m = rng.uniform(0.08, 0.42) * rng.choice([-1, 1])
        if kind == "generic_inf":
            # 1/kappa vanishes at beta/2k = 1/2 - m + n
            beta = 2 * k0 * (rng.randint(0, 2) + 0.5 - m)
        elif kind == "nu_half_inf":
            beta = 2 * k0 * rng.randint(1, 2)          # beta/2k in N+1
        elif kind == "nu_zero_inf":
            beta = 2 * k0 * (rng.randint(0, 2) + 0.5)  # beta/2k in N+1/2
        if kind.startswith("nu_half"):
            m = 0.5
        elif kind.startswith("nu_zero"):
            m = 0.0
        if kind.endswith("_inf"):
            bc = None
            break
        bc = refs.eigen_target(kind, beta, m, k0)
        # stated exclusion, as in acceptance criterion 4: the residual gate
        # scales with 1 + |target|, so kappa beyond [1e-6, 1e6] is skipped
        if kind == "generic" and not (1e-6 <= abs(bc) <= 1e6):
            continue
        break
    return {"kind": kind, "beta": complex(beta), "m": float(m), "k0": k0, "bc": bc}


def eigen_bc(cw, inp: dict):
    if inp["kind"].startswith("generic"):
        family = cw.Family.GENERIC
    else:
        family = cw.Family.NU_HALF if inp["kind"].startswith("nu_half") else cw.Family.NU_ZERO
    value = cw.INFINITY if inp["bc"] is None else inp["bc"]
    return cw.BoundaryCondition(family, value)


def eigen_run(cw, inp: dict):
    k0 = inp["k0"]
    box = (k0.real - 0.25, k0.real + 0.25, k0.imag - 0.25, k0.imag + 0.25)
    res = cw.find_eigenvalues(cw.WhittakerParams(inp["beta"], inp["m"]),
                              eigen_bc(cw, inp), box, grid=EIGEN_GRID)
    return [pt.k_or_mu for pt in res.points], res.seeds, res.converged, res.rejected


def eigen_check(inp: dict, out, ref) -> dict:
    dev = min((abs(k - inp["k0"]) for k in out[0]), default=math.inf)
    return {"failed": not dev <= EIGEN_TOL, "gated_errs": [dev / abs(inp["k0"])]}


# ---------------------------------------------------------------------------
# kernels: one n x n resolvent or projection table

KERNEL_KINDS = ("generic", "generic_inf", "nu_half", "nu_zero", "dd_half", "dd_zero",
                "projection_negative", "projection_positive", "projection_zero")
TABLE_N = 6
# the grid is laid out in |2 k x| (in |4 sqrt(beta x)| at zero energy), so
# every table crosses the same evaluator bands whatever k is drawn
TABLE_Z = (0.25, 16.0)
CHECKED_ENTRIES = 3
KERNEL_TOL = 1e-8


def _near_threshold_k(rng, beta):
    """k with |beta/2k| in [0.3, 5]: up to the near-threshold values."""
    d_abs = math.exp(rng.uniform(math.log(0.3), math.log(5.0)))
    return cmath.rect(abs(beta) / (2 * d_abs), rng.uniform(-0.3, 0.3))


def kernels_input(seed: int, i: int) -> dict:
    kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
    rng = rng_for("kernels", seed, i)
    beta = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5))
    m = rng.uniform(0.08, 0.42) * rng.choice([-1, 1])
    c = {"beta": beta, "m": m}
    if kind in ("generic", "generic_inf"):
        c["k"] = _near_threshold_k(rng, beta)
        if kind == "generic":
            c["bc"] = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
    elif kind in ("nu_half", "nu_zero"):
        c["m"] = 0.5 if kind == "nu_half" else 0.0
        c["k"] = _near_threshold_k(rng, beta)
        c["bc"] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
    elif kind in ("dd_half", "dd_zero"):
        # the doubly degenerate lattice: beta/2k in N (m = 1/2) or in
        # N + 1/2 (m = 0), up to 5
        beta = complex(rng.uniform(0.5, 2.0))
        n = rng.randint(1, 5) if kind == "dd_half" else rng.randint(0, 4) + 0.5
        c.update(beta=beta, m=0.5 if kind == "dd_half" else 0.0, k=beta / (2 * n),
                 bc=complex(rng.uniform(-1.0, 1.0)))
    elif kind == "projection_negative":
        c["k"] = _near_threshold_k(rng, beta)
    elif kind == "projection_positive":
        e = rng.choice([-1, 1])
        beta = complex(rng.uniform(-0.5, 0.5), e * rng.uniform(1.6, 2.8))
        d_abs = math.exp(rng.uniform(math.log(abs(beta) / (1.6 * abs(beta.imag))), math.log(5.0)))
        c.update(beta=beta, e=e, mu=abs(beta) / (2 * d_abs))
    else:
        beta = complex(rng.uniform(-0.6, 0.8), rng.uniform(0.9, 1.8) * rng.choice([-1, 1]))
        c.update(beta=beta, e=1 if cmath.sqrt(beta).imag > 0 else -1)
    lo, hi = TABLE_Z
    zs = [lo * (hi / lo) ** (j / (TABLE_N - 1)) for j in range(TABLE_N)]
    if kind == "projection_zero":
        xs = [(z / (4 * abs(cmath.sqrt(c["beta"])))) ** 2 for z in zs]
    else:
        scale = 2 * abs(c["mu"] if kind == "projection_positive" else c["k"])
        xs = [z / scale for z in zs]
    checked = [(rng.randrange(TABLE_N), rng.randrange(TABLE_N)) for _ in range(CHECKED_ENTRIES)]
    return {"kind": kind, "case": c, "xs": xs, "checked": checked}


def kernel_fn(cw, inp: dict):
    """(x, y) -> kernel entry through the public resolvent/projection API."""
    kind, c = inp["kind"], inp["case"]
    p = cw.WhittakerParams(c["beta"], c["m"])
    if kind.startswith("projection"):
        if kind == "projection_negative":
            pt = cw.SpectralPoint(-c["k"] ** 2, c["k"], cw.Regime.NEGATIVE)
        elif kind == "projection_positive":
            regime = cw.Regime.POSITIVE_UPPER if c["e"] > 0 else cw.Regime.POSITIVE_LOWER
            pt = cw.SpectralPoint(c["mu"] ** 2, c["mu"], regime)
        else:
            pt = cw.SpectralPoint(0.0, None, cw.Regime.ZERO)
        return lambda x, y: cw.projection_kernel(p, pt, x, y)
    if kind.startswith("generic"):
        family = cw.Family.GENERIC
    else:
        family = cw.Family.NU_HALF if c["m"] == 0.5 else cw.Family.NU_ZERO
    bc = cw.BoundaryCondition(family, cw.INFINITY if kind == "generic_inf" else c["bc"])
    return lambda x, y: cw.resolvent_kernel(cw.KernelQuery(p, bc, c["k"], x, y))


def kernels_run(cw, inp: dict):
    f = kernel_fn(cw, inp)
    xs = inp["xs"]
    return [[f(x, y) for y in xs] for x in xs]


def kernels_reference(inp: dict):
    import refs
    xs = inp["xs"]
    return [refs.pack(refs.kernel_entry(inp["kind"], inp["case"], xs[a], xs[b]))
            for a, b in inp["checked"]]


def kernels_check(inp: dict, out, ref) -> dict:
    errs = [rel_err(out[a][b], complex(*r)) for (a, b), r in zip(inp["checked"], ref)]
    finite = all(math.isfinite(abs(v)) for row in out for v in row)
    return {"failed": not finite or max(errs) > KERNEL_TOL, "gated_errs": errs}
