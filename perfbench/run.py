"""Benchmark of certified batch selection with batchdesign.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of linear-wide, ordinal-deep, bootstrap-small, cli-select, or
`all`, which runs each of them in its own process.  --trace 0 measures the
end-to-end metrics of BENCHMARK.json; --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics.  Run it from anywhere inside a
checkout: the program is imported from the checkout's src/.  The last line
of standard output is one JSON object with the verdict and the metrics; the
exit code is nonzero when any output check failed.
"""

import os

# pinned before numpy is first imported, here and in every child process:
# iteration counts repeat exactly only at a fixed BLAS thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# every large array gets its own mapping, so a freed one leaves the resident
# set at once and peak RSS does not hang on glibc's adaptive mmap threshold
# (which made it jump by a whole atom array between seeds); children read the
# environment variable, this process is set through mallopt
os.environ["MALLOC_MMAP_THRESHOLD_"] = "131072"
try:
    ctypes.CDLL(None).mallopt(-3, 131072)  # -3 is M_MMAP_THRESHOLD
except (OSError, AttributeError):  # not glibc
    pass

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("linear-wide", "ordinal-deep", "bootstrap-small", "cli-select")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    env = workloads.environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    recorded = workloads.load_reference(args.workload, args.seed)
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        reference=recorded)
    values = workloads.per_layer(res) if args.trace else workloads.end_to_end(args.workload, res)
    declared = declared_metrics(args.trace)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics computed {sorted(values)} differ from declared {sorted(names)}")

    outcomes = res.outcomes
    failed = [o for o in outcomes if o.failures]
    for o in failed:
        for why in o.failures:
            print(f"FAILED {args.workload} {o.job}: {why}", flush=True)
    if not failed:  # candidates for reference.json, see record.py
        phis = {o.job: o.phi for o in res.untraced.outcomes if o.phi is not None}
        workloads.WORK.mkdir(exist_ok=True)
        (workloads.WORK / f"phi-{args.workload}-s{args.seed}.json").write_text(json.dumps(phis))

    walls = res.untraced.walls
    print(f"{args.workload} seed {args.seed}: {len(walls)} instances"
          f"{' (and again traced)' if res.traced else ''}, {len(outcomes)} jobs, "
          f"reference values checked: {len(recorded)}")
    print("  seconds per instance pass: " + " ".join(f"{w:.3f}" for w in walls))
    setups = res.untraced.setups
    imports = res.untraced.imports
    print(f"  set-up: import {workloads.median_or_zero(imports):.4f} s (median of {len(imports)} "
          f"fresh interpreters), program-side set-up {workloads.median_or_zero(setups):.4f} s "
          f"(median of {len(setups)})")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value} {m['unit']} ({m['better']} is better)")
    print(f"  failed_frac = {len(failed) / len(outcomes)} ({len(failed)} of {len(outcomes)} jobs; "
          f"lower is better)")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}), flush=True)
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"FAILED {name}: no result (exit code {proc.returncode})", flush=True)
            correct = False
            continue
        correct &= bool(result["correct"]) and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "batchdesign" / "__init__.py").is_file():
        print(f"error: no batchdesign sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
