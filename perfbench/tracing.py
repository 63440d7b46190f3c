"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder never edits the library's files.  For the traced run it
rebinds the public functions of each layer, in every coulombw module that
imported them, to recording wrappers defined here, and restores the
originals afterwards; the untraced run uses the library untouched.

A span is ``[name, start, end, parent, op, info]`` in one flat list, kept
in memory until the run ends.  Spans nest as the calls do (one thread),
so a span's self time is its duration minus the durations of its direct
children.  Gamma/psi calls in ``spectral`` and ``integrals`` take about a
microsecond, so instead of spans they only record their arguments; the
report then times every Gamma/psi function at a sample of them.
"""

from __future__ import annotations

import cmath
import random
import statistics
import time
from collections import defaultdict

perf = time.perf_counter

SMALL_Z = 3.4        # |z| below which the K/X series runs in doubles
CORE_FUNCS = ("gamma", "rgamma", "digamma", "log_gamma", "trigamma")
CORE_ARGS_CAP = 4000

WHITTAKER_SPANS = {
    "whittaker_i": "whittaker.I", "whittaker_i_ext": "whittaker.I",
    "whittaker_k": "whittaker.K", "whittaker_x": "whittaker.X",
    "whittaker_h": "whittaker.H",
    "whittaker_j": "whittaker.J", "whittaker_j_ext": "whittaker.J",
    "whittaker_deriv": "whittaker.deriv",
}
OTHER_SPANS = {
    "bessel1_h": "bessel1.h", "bessel1_k": "bessel1.k",
    "quad_halfline": "quadrature.quad", "quad_ray": "quadrature.quad",
    "find_eigenvalues": "rootfind.search",
    "resolvent_kernel": "spectral.resolvent", "projection_kernel": "spectral.projection",
    "k_cross": "integrals.closed_form", "k_norm_sq": "integrals.closed_form",
    "h_cross": "integrals.closed_form", "h_norm_sq": "integrals.closed_form",
    "hankel_k_cross": "integrals.closed_form", "hankel_norm_sq": "integrals.closed_form",
    "bessel_kk": "integrals.closed_form", "bessel_x2kk": "integrals.closed_form",
}
REGIMES = ("series_small", "series_mid", "degenerate", "closed_form", "asymptotic")


def _key(args):
    """Hashable form of an evaluator's arguments (params, [sign,] z)."""
    out = []
    for a in args:
        if hasattr(a, "beta"):
            out += [a.beta, a.m]
        elif isinstance(a, (int, float, complex)):
            out.append(a)
        else:
            out.append(complex(a))
    return tuple(out)


def _regime(method_name: str, z) -> str:
    if method_name == "DIRECT_SERIES":
        return "series_small" if abs(complex(z)) <= SMALL_Z else "series_mid"
    return {"DEGENERATE_SERIES": "degenerate", "CLOSED_FORM": "closed_form",
            "ASYMPTOTIC_SERIES": "asymptotic"}[method_name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.core_args = defaultdict(list)
        self.condition_s = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                rec[1] = t0
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, i):
        self.op = i

    # -- installing into the library -----------------------------------------

    def install(self, cw):
        import coulombw.bessel1 as bessel1
        import coulombw.integrals as integrals
        import coulombw.quadrature as quadrature
        import coulombw.rootfind as rootfind
        import coulombw.spectral as spectral
        import coulombw.whittaker as whittaker
        modules = (cw, whittaker, bessel1, spectral, integrals, quadrature, rootfind)

        def rebind(fn_name, new):
            for mod in modules:
                old = mod.__dict__.get(fn_name)
                if old is not None and old is getattr(new, "__wrapped__", None):
                    setattr(mod, fn_name, new)
                    self._undo.append((mod, fn_name, old))

        for fn_name, span in WHITTAKER_SPANS.items():
            info = None
            if span[-1] in "IKX":
                def info(args, ev):
                    return _regime(ev.method.name, args[-1]), _key(args)
            elif span != "whittaker.deriv":
                def info(args, ev):
                    return None, _key(args)
            rebind(fn_name, self.wrap(span, getattr(whittaker, fn_name), info))
        for fn_name, span in OTHER_SPANS.items():
            src = next(m for m in modules if fn_name in m.__dict__)
            rebind(fn_name, self.wrap(span, getattr(src, fn_name)))
        sol = whittaker.WhittakerSolution
        for meth in ("deriv", "deriv2"):
            old = sol.__dict__[meth]
            setattr(sol, meth, self.wrap("whittaker." + meth, old))
            self._undo.append((sol, meth, old))
        # Gamma/psi as the spectral formulas and closed forms call them
        for mod in (spectral, integrals):
            for fn_name in CORE_FUNCS:
                old = mod.__dict__.get(fn_name)
                if old is not None:
                    setattr(mod, fn_name, self._arg_recorder(fn_name, old))
                    self._undo.append((mod, fn_name, old))
        # the condition map k -> kappa/nu that the eigen search evaluates
        old_cf = rootfind.condition_for
        times = self.condition_s

        def condition_for(bc, params):
            cond, target = old_cf(bc, params)

            def timed(k):
                t0 = perf()
                try:
                    return cond(k)
                finally:
                    times.append(perf() - t0)
            return timed, target

        rootfind.condition_for = condition_for
        self._undo.append((rootfind, "condition_for", old_cf))

    def _arg_recorder(self, name, fn):
        bucket = self.core_args[name]

        def recorded(z, *rest):
            if len(bucket) < CORE_ARGS_CAP:
                bucket.append(complex(z))
            return fn(z, *rest)
        return recorded

    def uninstall(self):
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)


# ---------------------------------------------------------------------------
# reduction of the spans to per-layer metrics

def _p50(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(spans, op_kinds: dict) -> dict:
    """Per-layer metrics of one traced run.

    ``op_kinds`` maps each op id to its input kind (kernels tables) or None.
    Counts are per op, so runs of different lengths compare.
    A span nested directly in a span of the same name (whittaker_i_ext
    calling whittaker_i, quad_ray calling quad_halfline) is the same call
    and is not counted twice.
    """
    out = {}
    selfs = self_times(spans)
    n_ops = sum(1 for s in spans if s[0] == "op")
    op_time = sum(s[2] - s[1] for s in spans if s[0] == "op")
    outer = [s[3] < 0 or spans[s[3]][0] != s[0] for s in spans]

    # self time per layer, per op
    per_layer = defaultdict(float)
    for s, st in zip(spans, selfs):
        per_layer[layer_of(s[0])] += st
    for layer in ("op", "bench", "whittaker", "bessel1", "quadrature", "spectral",
                  "rootfind", "integrals"):
        out["self.%s.ms_per_op" % layer] = per_layer[layer] / max(n_ops, 1) * 1e3

    # evaluator regimes
    durs = defaultdict(list)
    in_wh = [False] * len(spans)
    top_wh = 0.0
    for i, s in enumerate(spans):
        is_wh = s[0].startswith("whittaker.")
        parent_in = s[3] >= 0 and in_wh[s[3]]
        in_wh[i] = is_wh or parent_in
        if is_wh and not parent_in:
            top_wh += s[2] - s[1]
        if not outer[i]:
            continue
        d = s[2] - s[1]
        if s[0] in ("whittaker.I", "whittaker.K", "whittaker.X") and s[5] is not None:
            durs[s[0] + "." + s[5][0]].append(d)
        durs[s[0]].append(d)
    for f in "IKX":
        for r in REGIMES:
            vals = durs["whittaker.%s.%s" % (f, r)]
            out["whittaker.%s.%s.calls" % (f, r)] = len(vals) / max(n_ops, 1)
            out["whittaker.%s.%s.p50_us" % (f, r)] = _p50(vals, 1e6)
    for f in ("H", "J", "deriv", "deriv2"):
        out["whittaker.%s.p50_us" % f] = _p50(durs["whittaker." + f], 1e6)
    out["whittaker.busy_share"] = top_wh / op_time if op_time else 0.0
    out["bessel1.h.p50_us"] = _p50(durs["bessel1.h"], 1e6)
    out["bessel1.k.p50_us"] = _p50(durs["bessel1.k"], 1e6)
    out["integrals.closed_form.p50_us"] = _p50(durs["integrals.closed_form"], 1e6)
    out["rootfind.search.p50_ms"] = _p50(durs["rootfind.search"], 1e3)

    # quadrature: time inside the benchmark's integrand wrappers vs the rest
    quad_spans = [i for i, s in enumerate(spans) if s[0] == "quadrature.quad" and outer[i]]
    integrand = defaultdict(float)
    for s in spans:
        if s[0] == "bench.integrand" and s[3] >= 0:
            integrand[s[3]] += s[2] - s[1]
    inner_of = {}
    for i, s in enumerate(spans):
        if s[0] == "quadrature.quad" and not outer[i]:
            inner_of[s[3]] = i
    if quad_spans:
        tot = sum(spans[i][2] - spans[i][1] for i in quad_spans)
        f_time = sum(integrand[i] + integrand.get(inner_of.get(i, -1), 0.0) for i in quad_spans)
        out["quadrature.integrand_s"] = f_time / len(quad_spans)
        out["quadrature.self_s"] = (tot - f_time) / len(quad_spans)
    else:
        out["quadrature.integrand_s"] = out["quadrature.self_s"] = 0.0

    # kernel entries by table kind, and the table-to-distinct-calls ratio
    entry = defaultdict(list)
    for s in spans:
        if s[0] in ("spectral.resolvent", "spectral.projection"):
            entry[op_kinds.get(s[4])].append(s[2] - s[1])
    for kind in ("generic", "generic_inf", "nu_half", "nu_zero", "dd_half", "dd_zero"):
        out["spectral.resolvent.%s.entry_us" % kind] = _p50(entry[kind], 1e6)
    for kind in ("negative", "positive", "zero"):
        out["spectral.projection.%s.entry_us" % kind] = _p50(entry["projection_" + kind], 1e6)
    table_t, distinct_t, seen = 0.0, 0.0, set()
    for i, s in enumerate(spans):
        if s[0] == "op" and op_kinds.get(s[4]) is not None:
            table_t += s[2] - s[1]
        elif (s[0].startswith("whittaker.") and s[3] >= 0 and spans[s[3]][0].startswith("spectral.")
              and s[5] is not None):
            key = (s[4], s[0], s[5][1])
            if key not in seen:
                seen.add(key)
                distinct_t += s[2] - s[1]
    out["spectral.table_to_row_ratio"] = table_t / distinct_t if distinct_t else 0.0
    out["trace.spans"] = len(spans)
    return out


def core_probe(tracer, reps: int = 3, sample: int = 300, seed: int = 0) -> dict:
    """Time every Gamma/psi function at a sample of the arguments the
    spectral formulas passed during the traced ops."""
    import coulombw as cw
    from coulombw.errors import CoulombwError
    args = sorted({z for vals in tracer.core_args.values() for z in vals},
                  key=lambda z: (z.real, z.imag))
    if len(args) > sample:
        args = random.Random(seed).sample(args, sample)
    out = {}
    for name in CORE_FUNCS:
        fn = getattr(cw, name)
        times = []
        for z in args:
            best = None
            for _ in range(reps):
                t0 = perf()
                try:
                    fn(z)
                except (CoulombwError, OverflowError):
                    break
                dt = perf() - t0
                best = dt if best is None else min(best, dt)
            if best is not None:
                times.append(best)
        out["core.%s.p50_us" % name] = _p50(times, 1e6)
    out["spectral.condition.p50_us"] = _p50(tracer.condition_s, 1e6)
    return out


ANCHOR_BETA = 0.3 + 0.1j
ANCHORS = (("anchor.k_z2_ms", 0.27, 2.0), ("anchor.k_z10_ms", 0.27, 10.0),
           ("anchor.k_z30_ms", 0.27, 30.0), ("anchor.k_z50_ms", 0.27, 50.0),
           ("anchor.k_m0_z20_ms", 0.0, 20.0))


def anchor_probe(reps: int = 5) -> dict:
    """The ROADMAP's K timings, untraced, median of ``reps`` calls each;
    plus the second derivative, which no workload op calls."""
    import coulombw as cw
    out = {}
    for name, m, z in ANCHORS:
        p = cw.WhittakerParams(ANCHOR_BETA, m)
        ts = []
        for _ in range(reps):
            t0 = perf()
            cw.whittaker_k(p, z)
            ts.append(perf() - t0)
        out[name] = statistics.median(ts) * 1e3
    sol = cw.WhittakerSolution("K", cw.WhittakerParams(ANCHOR_BETA, 0.27))
    ts = []
    for z in (2.0, 10.0, 50.0):
        t0 = perf()
        sol.deriv2(cmath.rect(z, 0.3))
        ts.append(perf() - t0)
    out["whittaker.deriv2.p50_us"] = statistics.median(ts) * 1e6
    return out
