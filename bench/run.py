"""chargeflow benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload trap_large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports chargeflow from its
``src/``.  With ``--trace 0`` it times closed-loop ops for ``--seconds``
seconds (finishing the current round) and reports the end-to-end metrics;
with ``--trace 1`` it runs a fixed op list once untraced and once traced
and reports the per-layer metrics.  Every op's outputs are checked.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a JSON report with run metadata, every metric with its sample count, the
output readings and the known-defect probe.  Artifacts go to a temporary
directory under ``.bench_out/`` that is removed at exit; a traced run
leaves its spans in ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # this process plus two fresh ones


def declared(kind):
    """The ``workloads``, ``end_to_end`` or ``per_layer`` list of
    BENCHMARK.json; the result line reports exactly the declared metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def declared_metrics(kind):
    return [(m["name"], m["unit"]) for m in declared(kind)]


def _cpu():
    """CPU seconds of this process and its reaped children: (self, children)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), ch.ru_utime + ch.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Op:
    """Outcome of one op: timings, check results and readings."""

    def __init__(self, wall, cpu, child_cpu, work, errors, readings):
        self.wall, self.cpu, self.child_cpu = wall, cpu, child_cpu
        self.work, self.errors, self.readings = work, errors, readings
        # a check that ran and found a wrong output, as opposed to an op
        # that raised or exited nonzero
        self.wrong = bool(errors) and not errors[0].startswith(("exit ", "raised "))


def run_op(wl, inp, tmp, jobs, tracer=None, op_id=None):
    out_dir = tempfile.mkdtemp(dir=tmp, prefix="op-")
    try:
        span = tracer.op_span(op_id) if tracer else contextlib.nullcontext()
        captured = io.StringIO()
        own0, child0 = _cpu()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(captured):
                res = wl.execute(inp, out_dir, jobs)
        except Exception as exc:  # any escape from chargeflow is a failed op
            traceback.print_exc(file=sys.stderr)
            res = None
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        own1, child1 = _cpu()
        if res is None:
            return Op(wall, own1 - own0 + child1 - child0, child1 - child0, 0, [error], {})
        res["stdout"] = captured.getvalue()
        try:
            errors, readings = wl.check(inp, out_dir, res)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors, readings = [f"output unreadable: {type(exc).__name__}: {exc}"], {}
        work = 0 if errors else wl.work(inp)
        return Op(wall, own1 - own0 + child1 - child0, child1 - child0, work, errors, readings)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def tail(values):
    """Highest percentile with at least ten values beyond it (None below 20)."""
    n = len(values)
    if n < 20:
        return None
    return {"value": sorted(values)[n - 11], "percentile": round(100.0 * (n - 10) / n, 2), "ops": n}


def summarize_readings(ops):
    keys = sorted({k for op in ops for k in op.readings})
    out = {}
    for k in keys:
        vals = [op.readings[k] for op in ops if k in op.readings]
        out[k] = {"median": statistics.median(vals), "max": max(vals), "ops": len(vals)}
    return out


def failures(ops):
    return [{"op": i, "errors": op.errors} for i, op in enumerate(ops) if op.errors]


def setup_probe_samples(args):
    """Set-up time of fresh processes running this script to the same point."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(wl, args, tmp):
    deadline = time.perf_counter() + args.seconds
    ops = []
    for inp, round_end in wl.inputs(args.seed):
        ops.append(run_op(wl, inp, tmp, wl.jobs))
        if round_end and time.perf_counter() >= deadline:
            break
    peak = _peak_rss_mb()
    probe = [run_op(wl, inp, tmp, wl.jobs) for inp in wl.probe_inputs(args.seed)]
    setup = [args.setup_s] + setup_probe_samples(args)

    good = [op for op in ops if not op.errors]
    walls = [op.wall for op in ops]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "op_s.p50": (statistics.median(walls), len(ops)),
        "op_cpu_s.p50": (statistics.median(op.cpu for op in ops), len(ops)),
        "work_per_s": (sum(op.work for op in good) / sum(walls), len(ops)),
        "peak_rss_mb": (peak, 1),
    }
    work_name = "certs_per_s" if wl.name == "exact_certs" else "periods_per_s"
    recert = [op.readings["recert_s"] for op in good if "recert_s" in op.readings]
    report_metrics = {
        "setup_s": {"value": metrics["setup_s"][0], "unit": "s", "samples": setup},
        "op_s.p50": {"value": metrics["op_s.p50"][0], "unit": "s", "ops": len(ops)},
        "op_s.tail": tail(walls) or f"omitted: {len(ops)} ops, fewer than 20",
        "op_cpu_s.p50": {"value": metrics["op_cpu_s.p50"][0], "unit": "s", "ops": len(ops)},
        work_name: {"value": metrics["work_per_s"][0], "unit": "1/s",
                    "ops": len(good), "wall_s": sum(walls)},
        "recert_s.p50": (
            {"value": statistics.median(recert), "unit": "s", "ops": len(recert)}
            if recert else "not applicable: no re-certification in this workload"
        ),
        "failed_share": {"value": (len(ops) - len(good)) / len(ops), "unit": "1",
                         "failed": len(ops) - len(good), "attempted": len(ops)},
        "peak_rss_mb": {"value": peak, "unit": "MB",
                        "counts_children": wl.jobs > 1},
    }
    return ops, probe, metrics, report_metrics


def traced_run(wl, args, tmp):
    from tracer import Tracer, per_layer

    inputs = wl.trace_inputs(args.seed) + wl.probe_inputs(args.seed)
    n_timed = len(inputs) - len(wl.probe_inputs(args.seed))
    untraced = [run_op(wl, inp, tmp, wl.jobs) for inp in inputs]
    # traced ops run in this process only: the sweep is traced with --jobs 1
    with Tracer() as tracer:
        traced = [run_op(wl, inp, tmp, 1, tracer, i) for i, inp in enumerate(inputs)]
    spans_path = ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.write(spans_path)

    busy = sum(op.wall for op in untraced) * wl.jobs
    pool = (sum(op.child_cpu for op in untraced) / busy, len(untraced))
    # total CPU, so that the sweep's --jobs 1 traced run compares with its
    # --jobs 2 untraced run; for one-process ops CPU time ~ wall time
    overhead = (sum(op.cpu for op in traced) / sum(op.cpu for op in untraced), len(inputs))
    units = declared_metrics("per_layer")
    metrics = per_layer(tracer, [name for name, _ in units], len(inputs), pool, overhead)
    report_metrics = {
        name: {"value": metrics[name][0], "unit": unit, "samples": metrics[name][1]}
        for name, unit in units
    }
    report_metrics["trace.wall_s"] = {
        "untraced": sum(op.wall for op in untraced), "traced": sum(op.wall for op in traced),
        "ops": len(inputs), "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
    }
    ops = untraced[:n_timed] + traced[:n_timed]
    probe = untraced[n_timed:] + traced[n_timed:]
    return ops, probe, metrics, report_metrics


def metadata(wl, args):
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "why": next(w["why"] for w in declared("workloads") if w["name"] == wl.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": wl.params,
        "load": "closed loop, one client: the next op starts when the previous returns",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in declared("workloads")])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chargeflow
    except ImportError as exc:
        print(f"cannot import chargeflow from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(chargeflow.__file__).resolve().is_relative_to(src):
        print(f"chargeflow imported from {chargeflow.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](tiny=args.smoke)
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_root, prefix=f"{wl.name}-")
    try:
        wl.setup(tmp)
        warm = [run_op(wl, inp, tmp, wl.jobs) for inp in wl.warmup()]
        args.setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(args.setup_s)
            return 0
        if args.trace:
            ops, probe, metrics, report_metrics = traced_run(wl, args, tmp)
            units = declared_metrics("per_layer")
        else:
            ops, probe, metrics, report_metrics = timed_run(wl, args, tmp)
            units = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for op in ops if op.errors)
    # probe ops may fail (that is the defect they show); a probe op that
    # succeeds must still pass its checks
    wrong = [op for op in warm + ops + probe if op.wrong]
    correct = not wrong and failed == 0 and not any(op.errors for op in warm)
    report = {
        "meta": metadata(wl, args),
        "metrics": report_metrics,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures(ops),
        "op_walls_s": [op.wall for op in ops],
        "warmup_failures": failures(warm),
        "readings": summarize_readings(ops),
        "known_defect_probe": {
            "what": "laguerre_pair draws, k = 4: certify fails on the repeated root at z = 0",
            "attempted": len(probe),
            "failed": sum(1 for op in probe if op.errors),
            "wrong_output": sum(1 for op in probe if op.wrong),
            "failures": failures(probe),
        } if probe else None,
    }
    print(json.dumps(report, indent=1, default=float))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
