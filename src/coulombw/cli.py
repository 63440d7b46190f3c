"""Command-line front end: evaluation, spectral queries, verification sweeps.

Machine-readable output only: JSON lines by default, CSV for kernel tables
via --format csv.  Data goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 usage, 2 precondition violated, 3 numerical failure,
4 resolvent queried on the spectrum.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .bessel1 import bessel1_h, bessel1_i, bessel1_j, bessel1_k, bessel1_x, bessel1_y, zero_energy_j, zero_energy_y
from .branching import Branch, ComplexValue
from .core import Evaluation, Method
from .errors import (BranchError, DomainError, GridTooCoarse, NonConvergenceError,
                     PoleError, PreconditionError, SolverDiverged, SpectrumHit,
                     StepperFailure)
from .params import WhittakerParams, classify_region
from .rootfind import find_eigenvalues
from .spectral import (BoundaryCondition, Family, INFINITY, KernelQuery, Regime,
                       SpectralPoint, projection_kernel, resolvent_kernel)
from .suites import SUITES
from .whittaker import whittaker_h, whittaker_i, whittaker_j, whittaker_k, whittaker_x

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_SPECTRUM = 4

_PRECONDITION_ERRORS = (PreconditionError, DomainError, PoleError, BranchError, ValueError)
_NUMERICAL_ERRORS = (NonConvergenceError, SolverDiverged, StepperFailure,
                     GridTooCoarse, OverflowError, ZeroDivisionError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_complex(s: str) -> complex:
    """Parse 'a+bi' literals (optional parentheses); 'inf' is accepted."""
    t = s.strip().lower().replace(" ", "")
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    if t in ("inf", "+inf", "infinity"):
        return INFINITY
    if not re.fullmatch(r"[0-9eij+\-.()]*", t):
        raise _UsageError("cannot parse complex literal %r" % s)
    try:
        return complex(t.replace("i", "j"))
    except ValueError:
        raise _UsageError("cannot parse complex literal %r" % s)


def _emit(record: dict, fmt: str, csv_header: list, out):
    if fmt == "jsonl":
        out.write(json.dumps(record, sort_keys=True, separators=(",", ":"),
                             default=str) + "\n")
    else:
        out.write(",".join("%.17g" % record[k] if isinstance(record[k], float)
                           else str(record[k]) for k in csv_header) + "\n")


_EVAL_FUNCS = {
    "I": lambda p, z: whittaker_i(p, z),
    "K": lambda p, z: whittaker_k(p, z),
    "X": lambda p, z: whittaker_x(p, z),
    "J": lambda p, z: whittaker_j(p, z),
    "H+": lambda p, z: whittaker_h(p, +1, z),
    "H-": lambda p, z: whittaker_h(p, -1, z),
    "bessel-I": lambda p, z: bessel1_i(p.m, z),
    "bessel-K": lambda p, z: bessel1_k(p.m, z),
    "bessel-X": lambda p, z: bessel1_x(p.m, z),
    "bessel-J": lambda p, z: bessel1_j(p.m, z),
    "bessel-Y": lambda p, z: bessel1_y(p.m, z),
    "bessel-H+": lambda p, z: bessel1_h(p.m, +1, z),
    "bessel-H-": lambda p, z: bessel1_h(p.m, -1, z),
}


def _cmd_eval(args, out) -> int:
    beta = parse_complex(args.beta)
    m = parse_complex(args.m)
    zc = parse_complex(args.z)
    branch = {"principal": Branch.PRINCIPAL, "upper": Branch.UPPER_EDGE,
              "lower": Branch.LOWER_EDGE}[args.branch]
    p = WhittakerParams(beta, m)
    if args.function in ("zero-j", "zero-y"):
        x = zc.real
        val = zero_energy_j(beta, m, x) if args.function == "zero-j" \
            else zero_energy_y(beta, m, x)
        ev = Evaluation(val, 1e-14 * abs(val), Method.CLOSED_FORM)
    else:
        fn = _EVAL_FUNCS.get(args.function)
        if fn is None:
            raise _UsageError("unknown function %r" % args.function)
        z = ComplexValue(zc.real, zc.imag, branch)
        ev = fn(p, z)
    region = classify_region(p)
    record = {
        "command": "eval",
        "inputs": {"function": args.function, "beta": str(beta), "m": str(m),
                   "z": str(zc), "branch": args.branch},
        "value": {"re": ev.value.real, "im": ev.value.imag},
        "err_est": ev.err_est,
        "method": ev.method.value,
        "region": region.tag.value,
        "diagnostics": {"accuracy_loss": 1.0 if ev.accuracy_loss else 0.0},
    }
    if args.format == "csv":
        out.write("re,im,err_est,method,region\n")
        out.write("%.17g,%.17g,%.17g,%s,%s\n" % (
            ev.value.real, ev.value.imag, ev.err_est, ev.method.value, region.tag.value))
    else:
        _emit(record, "jsonl", [], out)
    return EXIT_OK


def _bc_from_args(args) -> BoundaryCondition:
    fam = {"generic": Family.GENERIC, "nu-half": Family.NU_HALF,
           "nu-zero": Family.NU_ZERO}[args.family]
    return BoundaryCondition(fam, parse_complex(args.bc))


def _default_m(args) -> complex:
    if args.m is not None:
        return parse_complex(args.m)
    return {"generic": None, "nu-half": 0.5 + 0j, "nu-zero": 0.0 + 0j}[args.family]


def _cmd_eigen(args, out) -> int:
    m = _default_m(args)
    if m is None:
        raise _UsageError("--m is required for the generic family")
    p = WhittakerParams(parse_complex(args.beta), m)
    bc = _bc_from_args(args)
    bc.validate_m(p.m)
    box = tuple(args.box)
    res = find_eigenvalues(p, bc, box, tol=args.tol, grid=tuple(args.grid))
    for pt in res.points:
        _emit({
            "command": "eigen",
            "k": {"re": pt.k_or_mu.real, "im": pt.k_or_mu.imag},
            "lambda": {"re": pt.lam.real, "im": pt.lam.imag},
            "regime": pt.regime.value,
            "residual": pt.residual,
        }, "jsonl", [], out)
    _emit({"command": "eigen", "summary": {"seeds": res.seeds, "converged": res.converged,
                                           "rejected": res.rejected, "found": len(res.points)}},
          "jsonl", [], out)
    return EXIT_OK


def _grid(triple) -> np.ndarray:
    a, b, n = float(triple[0]), float(triple[1]), int(triple[2])
    if not (a > 0 and b >= a and n >= 1):
        raise PreconditionError("grids must be positive and ordered")
    return np.linspace(a, b, n)


def _cmd_resolvent(args, out) -> int:
    m = _default_m(args)
    if m is None:
        raise _UsageError("--m is required for the generic family")
    p = WhittakerParams(parse_complex(args.beta), m)
    bc = _bc_from_args(args)
    k = parse_complex(args.k)
    xs = _grid(args.x_grid)
    ys = _grid(args.y_grid)
    rows = []
    for x in xs:
        for y in ys:
            val = resolvent_kernel(KernelQuery(p, bc, k, float(x), float(y)))
            rows.append((float(x), float(y), val.real, val.imag))
    if args.format == "csv":
        out.write("x,y,re,im\n")
        for r in rows:
            out.write("%.17g,%.17g,%.17g,%.17g\n" % r)
    else:
        for r in rows:
            _emit({"command": "resolvent", "x": r[0], "y": r[1],
                   "value": {"re": r[2], "im": r[3]}}, "jsonl", [], out)
    return EXIT_OK


def _cmd_project(args, out) -> int:
    p = WhittakerParams(parse_complex(args.beta), parse_complex(args.m))
    edge = +1 if args.edge == "+" else -1
    if args.k is not None:
        k = parse_complex(args.k)
        pt = SpectralPoint(-k * k, k, Regime.NEGATIVE)
    elif args.mu is not None:
        mu = float(args.mu)
        reg = Regime.POSITIVE_UPPER if edge > 0 else Regime.POSITIVE_LOWER
        pt = SpectralPoint(mu * mu, mu, reg)
    elif args.zero:
        pt = SpectralPoint(0.0, None, Regime.ZERO)
    else:
        raise _UsageError("one of --k, --mu, --zero is required")
    xs = _grid(args.x_grid)
    ys = _grid(args.y_grid)
    if args.format == "csv":
        out.write("x,y,re,im\n")
    for x in xs:
        for y in ys:
            val = projection_kernel(p, pt, float(x), float(y))
            if args.format == "csv":
                out.write("%.17g,%.17g,%.17g,%.17g\n" % (float(x), float(y), val.real, val.imag))
            else:
                _emit({"command": "project", "x": float(x), "y": float(y),
                       "value": {"re": val.real, "im": val.imag}}, "jsonl", [], out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    runner = SUITES.get(args.suite)
    if runner is None:
        raise _UsageError("unknown suite %r (choose from %s)" % (args.suite, sorted(SUITES)))
    kwargs = {"seed": args.seed}
    if args.cases is not None:
        kwargs["cases"] = args.cases
    results = runner(**kwargs)
    all_pass = True
    worst = 0.0
    for r in results:
        all_pass &= r.passed
        worst = max(worst, 0.0 if not math.isfinite(r.deviation) else r.deviation)
        _emit({"command": "verify", **r.to_record()}, "jsonl", [], out)
    _emit({"command": "verify", "summary": {"suite": args.suite, "cases": len(results),
                                            "passed": int(sum(r.passed for r in results)),
                                            "failed": int(sum(not r.passed for r in results))}},
          "jsonl", [], out)
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="coulombw", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("eval", help="evaluate a special function")
    pe.add_argument("function", help="I K X J H+ H- bessel-* zero-j zero-y")
    pe.add_argument("--beta", default="0")
    pe.add_argument("--m", default="0")
    pe.add_argument("--z", required=True)
    pe.add_argument("--branch", choices=["principal", "upper", "lower"], default="principal")
    pe.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    pe.set_defaults(fn=_cmd_eval)

    pg = sub.add_parser("eigen", help="search eigenvalues in a k-box")
    pg.add_argument("--family", choices=["generic", "nu-half", "nu-zero"], required=True)
    pg.add_argument("--beta", required=True)
    pg.add_argument("--m")
    pg.add_argument("--bc", required=True, help="kappa or nu value; 'inf' allowed")
    pg.add_argument("--box", nargs=4, type=float, required=True,
                    metavar=("RE0", "RE1", "IM0", "IM1"))
    pg.add_argument("--grid", nargs=2, type=int, default=[40, 40])
    pg.add_argument("--tol", type=float, default=1e-10)
    pg.set_defaults(fn=_cmd_eigen)

    pr = sub.add_parser("resolvent", help="Green's function kernel table")
    pr.add_argument("--family", choices=["generic", "nu-half", "nu-zero"], required=True)
    pr.add_argument("--beta", required=True)
    pr.add_argument("--m")
    pr.add_argument("--bc", required=True)
    pr.add_argument("--k", required=True)
    pr.add_argument("--x-grid", nargs=3, required=True, metavar=("A", "B", "N"))
    pr.add_argument("--y-grid", nargs=3, required=True, metavar=("A", "B", "N"))
    pr.add_argument("--format", choices=["jsonl", "csv"], default="csv")
    pr.set_defaults(fn=_cmd_resolvent)

    pp = sub.add_parser("project", help="eigenprojection kernel table")
    pp.add_argument("--beta", required=True)
    pp.add_argument("--m", required=True)
    pp.add_argument("--k")
    pp.add_argument("--mu")
    pp.add_argument("--zero", action="store_true")
    pp.add_argument("--edge", choices=["+", "-"], default="+")
    pp.add_argument("--x-grid", nargs=3, required=True, metavar=("A", "B", "N"))
    pp.add_argument("--y-grid", nargs=3, required=True, metavar=("A", "B", "N"))
    pp.add_argument("--format", choices=["jsonl", "csv"], default="csv")
    pp.set_defaults(fn=_cmd_project)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help="|".join(sorted(SUITES)))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=None)
    pv.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args, sys.stdout)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SpectrumHit as exc:
        print("spectrum hit: %s (k=%s)" % (exc, exc.k), file=sys.stderr)
        return EXIT_SPECTRUM
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except _PRECONDITION_ERRORS as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
