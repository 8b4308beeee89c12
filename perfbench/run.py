"""rtune benchmark: one seeded, single-process run of one named workload.

    python3 perfbench/run.py --workload tune_paper --seed 0 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, runs passes of it for about
``--seconds`` seconds (at least two, so every pass after the first is checked
against the first), checks every unit's output, and prints one JSON object as
the last line of standard output. Times are divided by the machine's slowdown,
measured just before each unit (see calibration.py). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics. A human-readable summary goes to standard error.
``--record FILE`` also appends the result, the environment and the quality
table to a JSON file. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

# Held fixed on every commit so runs compare: the multiplications here are
# small (32 x 48), and one BLAS thread is steadier when other load shares
# the cores.
BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tune_paper", "desk_arms", "sweep_csv"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append this run to a JSON list in FILE")
    return parser.parse_args(argv)


def import_program():
    """Import rtune from this checkout's src/, and nothing else.

    The BLAS thread count must be pinned before numpy is first imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("RTUNE_THREADS", None)  # the sweep's default single worker
    src = ROOT / "src"
    if not (src / "rtune" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rtune sources at {src / 'rtune'}")
    sys.path.insert(0, str(src))
    import rtune
    if Path(rtune.__file__).resolve().parent != (src / "rtune").resolve():
        raise SystemExit(f"perfbench: imported rtune from {rtune.__file__}, "
                         f"not from {src}")


def run_pass(workload, calibrator, tracer):
    """One pass: every unit timed on its own, right after a calibration, and
    its output checked afterwards."""
    workload.before_pass()
    units = workload.units()
    results = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for key, fn in units:
            slowdown = calibrator.slowdown()
            t = time.perf_counter()
            try:
                out, err = fn(), ""
            except Exception:  # a failed unit is counted, not fatal
                out, err = None, traceback.format_exc()
            results.append((key, time.perf_counter() - t, slowdown, out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    pass_s = sum(dt for _, dt, _, _, _ in results)

    outcomes, failures = [], []
    for key, _, _, out, err in results:
        if err:
            failures.append(f"{key}: raised\n{err}")
            outcomes.append(None)
            continue
        outcome = workload.check(key, out)
        outcomes.append(outcome)
        if not outcome.ok:
            failures.append(f"{key}: {outcome.why}")
    failed = sum(o is None or not o.ok for o in outcomes)
    if not failures:
        why = workload.check_pass(outcomes)
        if why:
            failures.append(why)
            failed = len(outcomes)
    return {
        "traced": tracer is not None,
        "pass_s": pass_s,
        "unit_s": [dt for _, dt, _, _, _ in results],
        "slowdown": [f for _, _, f, _, _ in results],
        "outcomes": outcomes,
        "failed": failed,
        "failures": failures,
        "layers": tracer.pass_metrics(pass_s) if tracer is not None else None,
        "spans": list(tracer.spans) if tracer is not None else None,
    }


def measure(workload, calibrator, seconds, tracer):
    """Passes until `seconds` have elapsed; with a tracer, every second pass
    is traced. Only the first traced pass keeps its spans."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, calibrator,
                               tracer if traced else None))
        if traced and len(passes) > 2:
            passes[-1]["spans"] = None
    return passes


def normalized(p):
    """A pass's unit times divided by the machine's slowdown before each."""
    return [dt / f for dt, f in zip(p["unit_s"], p["slowdown"])]


def end_to_end(passes, setup_s):
    """The end-to-end metrics, times normalized by the machine's slowdown."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(normalized(p)) for p in passes), "s"),
        "unit_s_p50": (statistics.median(x for p in passes for x in normalized(p)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(passes, setup):
    """The same times as measured, before normalization, for the record."""
    return {
        "setup_s": setup["import_s"] + statistics.median(setup["build_s"]),
        "wall_s": statistics.median(p["pass_s"] for p in passes),
        "unit_s_p50": statistics.median(dt for p in passes for dt in p["unit_s"]),
        "slowdown_p50": statistics.median(f for p in passes for f in p["slowdown"]),
        "setup_slowdown": setup["slowdown"],
    }


def _unit(name):
    if name.endswith("_s") or name.endswith("_s_p50"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.startswith("quality."):
        return "1"
    if "_per_" in name:
        return "ratio"
    return "count"


def per_layer(passes, workload):
    """Per-layer metrics: counts from one traced pass (they must repeat in
    every traced pass), times as medians over the traced passes."""
    traced = [p["layers"] for p in passes if p["traced"]]
    problems = []
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if _unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    wall = {True: [], False: []}
    for p in passes:
        wall[p["traced"]].append(sum(normalized(p)))
    metrics["trace.overhead_s"] = (statistics.median(wall[True])
                                   - statistics.median(wall[False]))
    first = [o for o in passes[0]["outcomes"] if o is not None]
    if first:
        for key, value in workload.quality(first).items():
            metrics[f"quality.{key}"] = value
    return {k: (v, _unit(k)) for k, v in metrics.items()}, problems


def layer_shares(metrics):
    """Each layer's self time as a share of all traced self time."""
    self_s = {name.split(".")[0]: value for name, (value, _) in metrics.items()
              if name.endswith(".self_s") or name == "replay.build_s"}
    total = sum(self_s.values())
    return {layer: (v / total if total else 0.0) for layer, v in self_s.items()}


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(numpy),
        "machine": platform.machine(),
    }


def blas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_state():
    """Commit of the checkout, and whether src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "src_dirty": bool(git("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        return {"sha": None, "src_dirty": None}


def record(path, args, workload, passes, result, shares, raw):
    entry = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git": git_state(),
        "env": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": workload.unit,
        "passes": len(passes),
        "units_per_pass": len(passes[0]["unit_s"]),
        "result": result,
        "raw_times": raw,
        "quality_table": {key: o.detail for (key, _), o in
                          zip(workload.units(), passes[0]["outcomes"])
                          if o is not None},
    }
    if shares:
        entry["layer_self_share"] = shares
    path = Path(path)
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import calibration
    import tracing
    import workloads
    import_s = time.perf_counter() - _T0

    calibrator = calibration.Calibrator()
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup = {"import_s": import_s, "build_s": [], "slowdown": []}
    try:
        for _ in range(SETUP_REPEATS):
            setup["slowdown"].append(calibrator.slowdown())
            t = time.perf_counter()
            workload.build()
            setup["build_s"].append(time.perf_counter() - t)
        # imports run before the first calibration; scale them by it
        setup_s = (import_s / setup["slowdown"][0]
                   + statistics.median(b / f for b, f in
                                       zip(setup["build_s"], setup["slowdown"])))
        passes = measure(workload, calibrator, args.seconds,
                         tracing.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = raw_times(passes, setup)

    attempted = sum(len(p["unit_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    shares = None
    if args.trace:
        metrics, count_problems = per_layer(passes, workload)
        problems += count_problems
        shares = layer_shares(metrics)
        spans_path = HERE / "out" / f"spans-{args.workload}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for row in tracing.span_lines(passes[1]["spans"]):
                fh.write(json.dumps(row) + "\n")
    else:
        metrics = end_to_end(passes, setup_s)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    err = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} units ({workload.unit}), fail_frac "
          f"{failed / attempted:.3f}", file=err)
    print("  raw (unnormalized): " + ", ".join(
        f"{k} {v if isinstance(v, list) else round(v, 4)}" for k, v in raw.items()),
        file=err)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}", file=err)
    if shares:
        print("  self-time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
            file=err)
        print("  wait time: 0 by construction (one process, one caller, "
              "sequential sweep)", file=err)
    if args.record:
        record(args.record, args, workload, passes, result, shares, raw)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
