"""Record a baseline: every workload at each seed, untraced, then one traced
run per workload, written to ``perfbench/baseline.json``.

    python3 perfbench/record.py --seeds 1-10 [--golden]

Run from the root of a checkout, on an otherwise idle machine; it takes
about 20 minutes on 2 cores.  ``--golden`` also rewrites
``perfbench/golden.json`` from the digests seen, which only a change
that means to alter the library's outputs should do.

For each workload and end-to-end metric the summary holds the median and
the quartiles of the per-seed values (``statistics.quantiles(n=4)``) and
their spread, (q3 - q1) / median.  The tracing overhead is the traced
run's ``trace.op_s`` minus the untraced run's unscaled operation time
(``op_raw_s``) at the same seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def _summary(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    p.add_argument("--golden", action="store_true", help="also rewrite golden.json")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    untraced = {w: [] for w in names}
    env = None
    for seed in args.seeds:
        for w in names:
            env, result = _run(w, seed, 0, seconds)
            untraced[w].append({
                "seed": seed, "digest": env["digest"], "golden": env["golden"],
                "op_raw_s": env["op_raw_s"], "result": result,
            })
            print(f"{w} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)

    doc = {
        "commit": env["commit"],
        "env": {k: env[k] for k in ("nproc", "python", "numpy", "blas", "src_lines")},
        "run_seconds": seconds,
        "workloads": {},
    }
    for w in names:
        runs = untraced[w]
        traced_env, traced = _run(w, runs[0]["seed"], 1, seconds)
        traced_op = traced["metrics"]["trace.op_s"]["value"]
        untraced_op = runs[0]["op_raw_s"]
        doc["workloads"][w] = {
            "summary": _summary([r["result"] for r in runs]),
            "runs": runs,
            "traced": {"seed": runs[0]["seed"], "result": traced},
            "trace_overhead_s": traced_op - untraced_op,
            "trace_overhead_frac": (traced_op - untraced_op) / untraced_op,
        }
        print(f"{w} traced: overhead {traced_op - untraced_op:+.3f} s", file=sys.stderr)

    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.golden:
        golden = {w: {str(r["seed"]): r["digest"] for r in untraced[w]} for w in names}
        with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
