"""airymax benchmark: four workloads over the edge-limit, pointwise, finite-N
and Monte-Carlo layers, each checked against independent references.

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each workload runs in its own fresh
interpreter (perfbench/workloads.py), one after another, with one
BLAS/OpenMP thread.  Set-up time is the median over five
fresh interpreters of `import airymax` plus the Hastings-McLeod solve, plus
any set-up of the workload's own.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("edge_grid", "edge_points", "finite_n", "monte_carlo")
SETUP_PROBES = 4          # fresh interpreters besides the workload's own
CHILD_TIMEOUT_S = 160


def _units():
    """Metric name -> unit, from the benchmark definition."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child(argv, env):
    """Run one fresh interpreter to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)}: exit {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, args, env, scratch):
    probes = [_child(["--probe"], env)["import_solve_s"] for _ in range(SETUP_PROBES)]
    out = tempfile.mkdtemp(prefix=name + "-", dir=scratch)
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out]
    if args.trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        argv += ["--spans", os.path.join(HERE, "results", f"spans-{name}-seed{args.seed}.json")]
    try:
        res = _child(argv, env)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    res["setup_s"] = statistics.median(probes + [res["import_solve_s"]]) + res["extra_setup_s"]
    return res


def report(res, trace, e2e_units, layer_units):
    """Human-readable lines, then the metrics for the JSON line."""
    name = res["workload"]
    print(f"== {name}: rounds untraced/traced {res['rounds']}, attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for failure in res["failures"]:
        print(f"   failed op  {failure}")
    for check, ok, value, bound in res["checks"]:
        if not ok:
            print(f"   CHECK FAILED  {check}: {value:.3e} > {bound:.3e}")
    print(f"   checks passed {sum(c[1] for c in res['checks'])}/{len(res['checks'])}")
    if trace:
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in e2e_units.items()}
        for k, v in res["ops"].items():
            print(f"   {k:32s} {v:12.6g} {layer_units['op.' + k]}")
    for k, m in metrics.items():
        print(f"   {k:40s} {m['value']:12.6g} {m['unit']}")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")

    if not os.path.isfile(os.path.join(ROOT, "src", "airymax", "__init__.py")):
        print("error: no airymax sources under src/; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread: the package's matrices are small (80 x 80 at
    # most), and a second OpenBLAS thread only busy-waits, which on 2 cores
    # made tw-f1 slower and doubled the run-to-run spread
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    scratch = os.path.join(HERE, "scratch")
    os.makedirs(scratch, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args, env, scratch) for n in names]
    units = _units()
    metrics = {}
    for res in results:
        per = report(res, args.trace, *units)
        metrics.update(per if len(results) == 1 else {f"{res['workload']}.{k}": v for k, v in per.items()})
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
