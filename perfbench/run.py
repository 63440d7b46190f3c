"""coulombw benchmark: four seeded workloads against the public API.

    python3 perfbench/run.py --workload points --seed 1 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file).  The library is imported from ``src/`` of the same checkout.

One client, one process, no threads: ops run back to back (a closed loop)
until ``--seconds`` of op time have been spent and the workload's rotation
cycle is complete.  Every op's result is then checked against its
workload's reference, outside the timed region.  Reported times are scaled
to a reference machine speed (speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
untraced loop, replays the same ops with the span recorder of tracing.py
installed, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402  (stdlib-only modules of this directory)
import workloads as W  # noqa: E402

SETUP_REPS = 3
CALIBRATE_S = 0.05    # how often measure() re-reads the machine speed
WARMUP_S = 1.0        # untimed ops before the loop (lazy imports, first-call caches)
REF_WORKERS = 2
REL_ERR_FLOOR = 1e-17   # an exact match counts as 17 correct digits
TAIL_BEYOND = 10        # the tail percentile keeps this many ops above it
# op_tail_ms picks from these, so the percentile a workload reports stays
# put when its op count moves a little between runs
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "rel_err_p50_neglog10": "digits",
    "rel_err_tail_neglog10": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _per_layer_units():
    from tracing import REGIMES
    units = {}
    for f in "IKX":
        for r in REGIMES:
            units["whittaker.%s.%s.calls" % (f, r)] = "count"
            units["whittaker.%s.%s.p50_us" % (f, r)] = "us"
    for f in ("H", "J", "deriv", "deriv2"):
        units["whittaker.%s.p50_us" % f] = "us"
    units.update({
        "whittaker.busy_share": "share",
        "whittaker.err_est.under_count": "count",
        "whittaker.err_est.pessimism_p50_log10": "log10",
        "whittaker.accuracy_loss.count": "count",
        "whittaker.calibration.miss_count": "count",
        "whittaker.calibration.rel_err_max_neglog10": "digits",
    })
    for f in ("gamma", "rgamma", "digamma", "log_gamma", "trigamma"):
        units["core.%s.p50_us" % f] = "us"
    units.update({
        "spectral.condition.p50_us": "us",
        "rootfind.search.p50_ms": "ms",
        "rootfind.seeds": "count",
        "rootfind.converged": "count",
        "rootfind.rejected": "count",
        "rootfind.found_per_seed": "share",
        "quadrature.evals_per_case": "count",
        "quadrature.integrand_s": "s",
        "quadrature.self_s": "s",
        "quadrature.us_per_eval": "us",
    })
    for kind in ("generic", "generic_inf", "nu_half", "nu_zero", "dd_half", "dd_zero"):
        units["spectral.resolvent.%s.entry_us" % kind] = "us"
    for kind in ("negative", "positive", "zero"):
        units["spectral.projection.%s.entry_us" % kind] = "us"
    units.update({
        "spectral.table_to_row_ratio": "ratio",
        "bessel1.h.p50_us": "us",
        "bessel1.k.p50_us": "us",
        "integrals.closed_form.p50_us": "us",
        "setup.import_s": "s",
        "setup.import_scipy_s": "s",
        "setup.first_call_s": "s",
        "anchor.k_z2_ms": "ms",
        "anchor.k_z10_ms": "ms",
        "anchor.k_z30_ms": "ms",
        "anchor.k_z50_ms": "ms",
        "anchor.k_m0_z20_ms": "ms",
    })
    for layer in ("op", "bench", "whittaker", "bessel1", "quadrature", "spectral",
                  "rootfind", "integrals"):
        units["self.%s.ms_per_op" % layer] = "ms"
    units["trace.overhead_share"] = "share"
    units["trace.spans"] = "count"
    return units


PER_LAYER = _per_layer_units()


class Spec:
    """How one workload makes, runs, references and checks its ops."""

    def __init__(self, make, run, check, reference=None, mp_reference=None, chunk=8,
                 cycle=1):
        self.make, self.run, self.check, self.chunk = make, run, check, chunk
        # ops rotate over `cycle` kinds; a run ends on a whole cycle so that
        # every run holds the same mix of kinds
        self.cycle = cycle
        # reference(cw, inp) uses the library (closed forms); mp_reference(inp)
        # is a module-level mpmath function, cached on disk and run in workers
        self.reference, self.mp_reference = reference, mp_reference


SPECS = {
    "points": Spec(W.points_input, lambda cw, inp, tr: W.points_run(cw, inp),
                   W.points_check, mp_reference=W.points_reference,
                   cycle=W.POINTS_PERIOD),
    "quadrature": Spec(W.quadrature_input,
                       lambda cw, inp, tr: W.quadrature_run(
                           cw, inp, None if tr is None else
                           (lambda f: tr.wrap("bench.integrand", f))),
                       W.quadrature_check, W.quadrature_reference, chunk=5,
                       cycle=len(W.quadcases.TYPES)),
    "eigen": Spec(W.eigen_input, lambda cw, inp, tr: W.eigen_run(cw, inp),
                  W.eigen_check, chunk=258, cycle=len(W.EIGEN_KINDS)),
    "kernels": Spec(W.kernels_input, lambda cw, inp, tr: W.kernels_run(cw, inp),
                    W.kernels_check, mp_reference=W.kernels_reference, chunk=9,
                    cycle=len(W.KERNEL_KINDS)),
}


class Op:
    __slots__ = ("i", "inp", "out", "error", "latency", "scaled", "result")

    def __init__(self, i, inp, out, error, latency, scaled):
        self.i, self.inp, self.out, self.error = i, inp, out, error
        self.latency, self.scaled = latency, scaled
        self.result = None


def measure(spec, cw, seed, seconds, tracer=None, count=None):
    """Closed loop, one client: run ops until ``seconds`` of raw op time
    have passed and the current rotation cycle is complete (or exactly
    ``count`` ops).  Inputs are made in chunks and the machine
    speed (speed.py) is re-measured every CALIBRATE_S, both between ops and
    off the clock; an op longer than that is scaled by the mean of the
    speeds before and after it.  A typed coulombw error fails the op; it is
    not skipped.  Returns the ops and the raw busy time."""
    from coulombw.errors import CoulombwError
    run = spec.run if tracer is None else tracer.wrap("op", spec.run)
    ops, inputs, busy = [], [], 0.0
    factor, calibrated = 1.0, -math.inf
    while (busy < seconds or len(ops) % spec.cycle) if count is None else (len(ops) < count):
        i = len(ops)
        if i == len(inputs):
            inputs.extend(spec.make(seed, j) for j in range(i, i + spec.chunk))
        if time.perf_counter() - calibrated >= CALIBRATE_S:
            factor, calibrated = speed.scale(), time.perf_counter()
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out, err = run(cw, inputs[i], tracer), None
        except CoulombwError as exc:
            out, err = None, exc
        dt = time.perf_counter() - t0
        busy += dt
        scaled = dt * factor
        if dt >= CALIBRATE_S:
            before, factor, calibrated = factor, speed.scale(), time.perf_counter()
            scaled = dt * 0.5 * (before + factor)
        ops.append(Op(i, inputs[i], out, err, dt, scaled))
    return ops, busy


def warm_up(spec, cw, seed):
    """Run about WARMUP_S of ops, untimed and unchecked, on inputs of their
    own (op indices -1, -2, ...), so that first-call costs, which setup_s
    reports, do not land among the timed ops: without it the slowest ten
    of ~1500 eigen ops came from the first ones and the tail latency moved
    by 30% between runs of one seed."""
    from coulombw.errors import CoulombwError
    end, j = time.perf_counter() + WARMUP_S, 1
    while True:
        try:
            spec.run(cw, spec.make(seed, -j), None)
        except CoulombwError:
            pass
        if time.perf_counter() >= end:
            return
        j += 1


def check_ops(name, spec, cw, ops, tracer=None):
    """Attach each op's check result.  References are computed here, after
    the timed loop; the mpmath ones are cached on disk and, when missing,
    computed by REF_WORKERS processes."""
    if spec.mp_reference is not None:
        import refs
        cache = refs.RefCache(name)
        todo = {refs.RefCache.key((name, op.inp)): op.inp for op in ops
                if op.error is None and (name, op.inp) not in cache}
        if todo:
            for inp, ref in zip(todo.values(), _map(spec.mp_reference, list(todo.values()))):
                cache[(name, inp)] = ref
            cache.save()
    for op in ops:
        if op.error is not None:
            op.result = {"failed": True, "gated_errs": [], "error": repr(op.error)}
            continue
        if tracer is not None:
            tracer.begin_op(op.i)
        ref = None
        if spec.mp_reference is not None:
            ref = cache[(name, op.inp)]
        elif spec.reference is not None:
            ref = spec.reference(cw, op.inp)
        op.result = spec.check(op.inp, op.out, ref)


def _map(fn, inputs):
    """fn over inputs, split across REF_WORKERS processes (refs.py's
    command line) that read and write files under perfbench/.refcache."""
    if len(inputs) < 4:
        return [fn(inp) for inp in inputs]
    import refs
    os.makedirs(refs.CACHE_DIR, exist_ok=True)
    jobs = []
    try:
        for k in range(REF_WORKERS):
            stem = os.path.join(refs.CACHE_DIR, "job-%d-%d" % (os.getpid(), k))
            with open(stem + ".in", "w") as fh:
                fh.writelines(repr(inp) + "\n" for inp in inputs[k::REF_WORKERS])
            proc = subprocess.Popen([sys.executable, refs.__file__, fn.__name__,
                                     stem + ".in", stem + ".out"])
            jobs.append((stem, proc))
        parts = []
        for stem, proc in jobs:
            if proc.wait() != 0:
                raise RuntimeError("reference worker failed")
            with open(stem + ".out") as fh:
                parts.append([json.loads(line) for line in fh])
    finally:
        for stem, proc in jobs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for ext in (".in", ".out"):
                if os.path.exists(stem + ext):
                    os.remove(stem + ext)
    out = [None] * len(inputs)
    for k, part in enumerate(parts):
        out[k::REF_WORKERS] = part
    return out


def tail_latency(values, percentiles=None):
    """The highest percentile with at least TAIL_BEYOND of the sorted
    ``values`` above it: (value, percentile, count).  With ``percentiles``
    only those (nearest rank) are candidates; without, any rank is.  When
    none qualifies it is the largest value."""
    n = len(values)
    ranks = ([(math.ceil(p / 100.0 * n) - 1, p) for p in reversed(percentiles)]
             if percentiles else [(n - TAIL_BEYOND - 1, None)])
    for idx, p in ranks:
        if idx >= 0 and n - 1 - idx >= TAIL_BEYOND:
            return values[idx], (100.0 * (idx + 1) / n if p is None else p), n
    return values[-1], 100.0, n


def digits(err):
    return -math.log10(max(err, REL_ERR_FLOOR))


def setup_probe(workload, inp, importtime=False):
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "setup_probe.py"), ROOT, workload, repr(inp)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        rec["import_scipy_s"] = scipy_import_s(proc.stderr) * rec["scale"]
    return rec


def scipy_import_s(stderr):
    """Cumulative -X importtime of the outermost scipy modules."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total, stack = 0, []
    for level, name, cum in reversed(rows):   # parents come after children
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        if top == "scipy" and all(n.split(".")[0] != "scipy" for _, n in stack):
            total += cum
        stack.append((level, name))
    return total / 1e6


def end_to_end(ops, setup_s, rss_mb):
    """End-to-end metrics from the speed-scaled op times (speed.py)."""
    lat = sorted(op.scaled for op in ops)
    failed = sum(op.result["failed"] for op in ops)
    errs = sorted(e for op in ops for e in op.result["gated_errs"]) or [REL_ERR_FLOOR]
    tail, pct, n = tail_latency(lat, TAIL_PERCENTILES)
    err_tail, err_pct, n_errs = tail_latency(errs)
    values = {
        "ops_per_s": (len(ops) - failed) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "rel_err_p50_neglog10": digits(statistics.median(errs)),
        "rel_err_tail_neglog10": digits(err_tail),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    raw = sum(op.latency for op in ops)
    notes = ("tail=p%.1f of %d ops; rel_err tail=p%.1f of %d, max %.3g; fail_frac=%d/%d; "
             "raw ops_per_s=%.4g; speed scale=%.3f" % (
                 pct, n, err_pct, n_errs, errs[-1], failed, len(ops),
                 (len(ops) - failed) / raw, sum(lat) / raw))
    return values, notes


def workload_layer_metrics(name, ops):
    """Per-layer numbers that come from op outputs and checks rather than
    spans: err_est calibration (points), quadrature work, search counts.
    Counts are per op."""
    res = [op.result for op in ops]
    out = {}
    pess = [p for r in res for p in r.get("pessimism", [])]
    calib = [e for r in res for e in r.get("calib_errs", [])]
    n = max(len(res), 1)
    out["whittaker.err_est.under_count"] = sum(r.get("under", 0) for r in res) / n
    out["whittaker.err_est.pessimism_p50_log10"] = statistics.median(pess) if pess else 0.0
    out["whittaker.accuracy_loss.count"] = sum(r.get("accuracy_loss", 0) for r in res) / n
    out["whittaker.calibration.miss_count"] = sum(r.get("calib_misses", 0) for r in res) / n
    out["whittaker.calibration.rel_err_max_neglog10"] = digits(max(calib)) if calib else 0.0
    done = [op.out for op in ops if op.out is not None]
    if name == "eigen" and done:
        seeds = sum(o[1] for o in done)
        out["rootfind.seeds"] = seeds / len(done)
        out["rootfind.converged"] = sum(o[2] for o in done) / len(done)
        out["rootfind.rejected"] = sum(o[3] for o in done) / len(done)
        out["rootfind.found_per_seed"] = sum(len(o[0]) for o in done) / max(seeds, 1)
    if name == "quadrature" and done:
        out["quadrature.evals_per_case"] = sum(o[1] for o in done) / len(done)
    return out


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for name, start, end, parent, op, _info in spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coulombw", "__init__.py")):
        print("run.py: no coulombw sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import coulombw as cw
    if not os.path.abspath(cw.__file__).startswith(SRC + os.sep):
        print("run.py: imported coulombw from %s, not %s" % (cw.__file__, SRC), file=sys.stderr)
        return 2

    spec = SPECS[args.workload]
    first = spec.make(args.seed, 0)
    probes = [setup_probe(args.workload, first, importtime=bool(args.trace))
              for _ in range(SETUP_REPS)]
    setup_s = statistics.median(p["import_s"] + p["first_call_s"] for p in probes)

    warm_up(spec, cw, args.seed)
    ops, busy = measure(spec, cw, args.seed, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_ops(args.workload, spec, cw, ops)
    values, notes = end_to_end(ops, setup_s, rss_mb)
    all_ops = list(ops)

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(cw)
        try:
            tops, tbusy = measure(spec, cw, args.seed, 0, tracer=tracer, count=len(ops))
            check_ops(args.workload, spec, cw, tops, tracer=tracer)
        finally:
            tracer.uninstall()
        all_ops += tops
        kinds = {op.i: op.inp["kind"] for op in tops} if args.workload == "kernels" else {}
        metrics = tracing.span_metrics(tracer.spans, kinds)
        metrics.update(workload_layer_metrics(args.workload, tops))
        evals = metrics.get("quadrature.evals_per_case", 0.0)
        metrics["quadrature.us_per_eval"] = (
            metrics["quadrature.integrand_s"] / evals * 1e6 if evals else 0.0)
        metrics.update(tracing.core_probe(tracer))
        metrics.update(tracing.anchor_probe())
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["setup.import_scipy_s"] = statistics.median(p["import_scipy_s"] for p in probes)
        metrics["setup.first_call_s"] = statistics.median(p["first_call_s"] for p in probes)
        metrics["trace.overhead_share"] = (sum(op.scaled for op in tops)
                                           / sum(op.scaled for op in ops) - 1.0)
        write_spans(os.path.join(HERE, "out", "spans-%s-%d.jsonl" % (args.workload, args.seed)),
                    tracer.spans)
        report = {name: metrics.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        report, units = values, END_TO_END

    failed = sum(op.result["failed"] for op in all_ops)
    print("workload=%s seed=%d ops=%d busy=%.2fs %s" % (
        args.workload, args.seed, len(ops), busy, notes))
    for op in all_ops:
        if op.result["failed"]:
            print("FAILED op %d: %r %s" % (op.i, op.inp, op.result.get("error", "")))
    for name, unit in units.items():
        print("%-48s %14.6g %s" % (name, report[name], unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": float(report[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
