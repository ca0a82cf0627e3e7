"""proxycause benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload frames --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from ``src/``
of that checkout, never from an installed copy.  Standard output ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``).  The line
before it records the environment and the output digest.  Working files
and traces go to ``.perfbench/`` in the checkout.  See
``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s", "accuracy": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="frames, scatter-anm, scatter-rcc or nlp")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1); inputs are a pure function of it")
    p.add_argument("--seconds", type=float, default=20.0, help="measure at least this long (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    return p.parse_args(argv)


def _pin_blas_threads():
    # Worker threads are the only parallelism: with BLAS on one thread, no
    # run starts more threads than its workload's jobs, which is at most
    # nproc on the 2-core machines the benchmark was sized on.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_record(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes
        import glob

        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            fn.argtypes = []
            threads = fn()
    except (OSError, AttributeError):
        threads = None
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _import_time():
    """Seconds a fresh interpreter takes to import numpy and the library,
    as the benchmark does.  Imports are paid once per process, so each
    repetition needs a process of its own."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    code = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "proxycause")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def closed_loop(wl, items, seed, seconds, tracer, op_ids, between=lambda: None):
    """Run passes over ``items`` until ``seconds`` have passed, always
    finishing the first pass; ``between`` runs before each operation.
    Returns (durations, failed, first-pass results, first-pass canonical
    outputs)."""
    durations, failed = [], 0
    results, canon = {}, {}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, item in enumerate(items):
            if passes > 0 and time.perf_counter() - start >= seconds:
                break
            between()
            op_id = next(op_ids)
            with tracer.op(op_id), tracer.span("bench.op") as extra:
                t = time.perf_counter()
                try:
                    result = wl.run(item, seed, tracer)
                except Exception:
                    traceback.print_exc()
                    result = None
                durations.append(time.perf_counter() - t)
            ok = False
            if result is not None:
                try:
                    ok, text = wl.check(item, result)
                except Exception:
                    traceback.print_exc()
                    ok = False
            if ok and i not in canon:
                canon[i], results[i] = text, result
            elif ok and canon[i] != text:
                print(f"op {op_id}: output differs from the first pass", file=sys.stderr)
                ok = False
            if ok and hasattr(wl, "exact"):
                extra["exact"] = wl.exact(item, result)
            failed += not ok
        passes += 1
    return durations, failed, results, canon


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proxycause", "__init__.py")):
        print(f"error: no proxycause sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, SRC)

    import numpy as np
    import proxycause

    if os.path.dirname(os.path.abspath(proxycause.__file__)) != os.path.join(SRC, "proxycause"):
        print(f"error: proxycause imported from {proxycause.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import drift
    import layers
    import spans
    import workloads

    work_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_dir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        for module, attr, name, note in layers.WRAPS:
            tracer.wrap(module, attr, name, note)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload][args.size]
    import_times = [_import_time() for _ in range(SETUP_REPEATS)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        items = wl.make(args.seed, work_dir)
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    ref = drift.Reference()
    between = ref.measure if wl.short_ops else (lambda: None)
    op_ids = iter(range(1, 1 << 62))
    ticks = drift.cpu_ticks()
    durations, failed, results, canon = closed_loop(wl, items, args.seed, args.seconds, tracer, op_ids, between)
    steal = drift.steal_share(ticks, drift.cpu_ticks())
    op_raw_s = statistics.median(durations)
    op_s = op_raw_s * (ref.scale() if wl.short_ops else 1.0 - steal)
    attempted = len(durations)

    digest = hashlib.sha256(
        "\n".join(canon.get(i, "<failed>") for i in range(len(items))).encode("utf-8")
    ).hexdigest()
    session_path = os.path.join(work_dir, "session.json")
    session = _load_json(session_path)
    key = f"{args.workload}/{args.size}/{args.seed}"
    if len(canon) == len(items):
        if session.get(key, digest) != digest:
            print(f"output digest {digest} differs from {session[key]} of an earlier run", file=sys.stderr)
            failed += 1
        session.setdefault(key, digest)
        with open(session_path, "w", encoding="utf-8") as fh:
            json.dump(session, fh, indent=1, sort_keys=True)
    golden = _load_json(os.path.join(HERE, "golden.json")).get(args.workload, {})
    golden_digest = golden.get(str(args.seed)) if args.size == "full" else None
    golden_status = "none" if golden_digest is None else ("match" if golden_digest == digest else "differs")

    if args.trace:
        workloads.direct_calls(tracer, args.seed, args.size)
        primary = list(tracer.spans)
        metrics = layers.layer_metrics(primary, primary)
        missing = [m for m, v in metrics.items() if v is None]
        if missing:
            # Layers this workload never reaches are timed on the tiny
            # sizes of the other workloads, so every run reports every layer.
            tracer.phase = "probe"
            for other, sizes in workloads.WORKLOADS.items():
                if other != args.workload:
                    closed_loop(sizes["tiny"], sizes["tiny"].make(args.seed, work_dir), args.seed, 0, tracer, op_ids)
            probe = [s for s in tracer.spans if s["phase"] == "probe"]
            fallback = layers.layer_metrics(probe, tracer.spans)
            for m in missing:
                metrics[m] = fallback[m]
        tracer.unwrap()
        tracer.dump(os.path.join(work_dir, f"trace-{args.workload}-{args.size}-{args.seed}.jsonl"))
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_s": op_s,
            "accuracy": wl.accuracy(items, [results[i] for i in sorted(results)]) if len(results) == len(items) else None,
        }
        units = E2E_UNITS

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": getattr(wl, "jobs", 1),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_record(np),
        "commit": _git_commit(),
        "src_lines": _src_lines(),
        "import_runs_s": import_times,
        "input_runs_s": setup_times,
        "ops": attempted,
        "op_raw_s": op_raw_s,
        "reference_runs_s": ref.times,
        "steal_share": steal,
        "digest": digest,
        "golden": golden_status,
    }
    print(json.dumps({"env": env}, sort_keys=True))
    result = {
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
