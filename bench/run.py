"""dynmr benchmark: end-to-end metrics (untraced) or per-module metrics (traced).

    python3 bench/run.py --workload {admm,net_infer,net_train,all} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--corrupt]

Run from anywhere; the package is imported from the `src/` next to this
directory, never from an installed copy.  Workloads are described in
bench/workloads.py.  Each workload runs in its own worker process (a closed
loop, one client) with BLAS limited to one thread.

--trace 0 runs SETUP_RUNS - 1 set-up-only workers and one worker that times
ops for S seconds, and reports:

    setup_s      median over the workers of process start to the first timed
                 op (imports, inputs, file writes, one untimed warm-up op)
    op_s_p50     median op wall time
    op_s_tail    op wall time at the highest percentile (at least p50) that
                 has at least 10 ops beyond it
    ops_per_s    ops completed / wall time of the timed phase
    peak_rss_mb  ru_maxrss of the timing worker
    psnr_db      mean PSNR of each distinct input's output (admm, net_infer),
                 or of the parameters at a fixed epoch end on held-out
                 phantoms (net_train); computed after timing
    ok_frac      ops that passed every check / ops attempted (1 - fail_frac;
                 a metric may not be 0, so the fraction that passed is
                 reported and `failed` carries the failures)

--trace 1 runs one untraced and two traced workers with the same fixed op
count and reports per-module metrics `<module>.<function>[.<class>].<stat>`
(see bench/spans.py), `trace.unattributed_s` (mean op time under no module
span below the op's entry point) and `trace.overhead_ratio` (traced over
untraced op_s_p50).  The two traced runs must give identical work counts.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the environment and the sample details, which are also
written to .bench_work/results/.  Exit 0 when every check passed, 1 when an
output check failed, 2 when the checkout or the machine is unfit to measure,
3 when a worker crashed or ran out of time.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from config import trace_ops

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("admm", "net_infer", "net_train")
SETUP_RUNS = 5
BUDGET_S = 170.0
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "psnr_db": "dB",
    "ok_frac": "ratio",
}


class Unfit(Exception):
    """The checkout or the machine cannot be measured (exit 2)."""


class Crashed(Exception):
    """A worker failed outside an op or ran past the time budget (exit 3)."""


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".gflop_per_s"):
        return "GFLOP/s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_mb") or name.endswith(".mb_moved"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for {name}")


def tail(walls):
    """(value, percentile) at the highest percentile >= 50 with 10 ops beyond it."""
    n = len(walls)
    pct = max(50.0, 100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return sorted(walls)[rank - 1], pct


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + BUDGET_S
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.env.pop("PYTHONPATH", None)

    def worker(self, *mode, trace=False):
        """Run one worker; returns (its JSON result, spawn time on the shared clock)."""
        a = self.args
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", ROOT,
            "--workload", a.workload, "--seed", str(a.seed), "--size", a.size, *mode,
        ]
        if trace:
            cmd.append("--trace")
        if a.corrupt:
            cmd.append("--corrupt")
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise Crashed("out of time before starting a worker")
        spawn_t = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise Crashed("worker ran past the time budget") from exc
        if proc.returncode == 2:
            raise Unfit("worker refused to measure")
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise Crashed(f"worker exited {proc.returncode}")
        return json.loads(lines[-1]), spawn_t

    def untraced(self):
        a = self.args
        setups = []
        for _ in range(SETUP_RUNS - 1):
            r, spawn_t = self.worker("--setup-only")
            setups.append(r["ready_t"] - spawn_t)
        main, spawn_t = self.worker("--seconds", str(a.seconds))
        setups.append(main["ready_t"] - spawn_t)
        walls = main["walls"]
        if not walls:
            raise Crashed("no timed op completed")
        failed = len(main["failed_ops"])
        attempted = len(walls)
        tail_s, tail_pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(walls),
            "op_s_tail": tail_s,
            "ops_per_s": len(walls) / (main["end_t"] - main["ready_t"]),
            "peak_rss_mb": main["peak_rss_mb"],
            "psnr_db": main["psnr_db"] if main["psnr_db"] is not None else 0.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        correct = failed == 0 and not main["warmup_failed"] and main["psnr_db"] is not None
        detail = {
            "env": main["env"],
            "n_ops": len(walls),
            "op_s_tail_percentile": tail_pct,
            "setup_s_samples": setups,
            "op_s_samples": walls,
            "failed_ops": main["failed_ops"],
            "quality": main["detail"],
        }
        return correct, attempted, failed, metrics, END_TO_END_UNITS, detail

    def traced(self):
        a = self.args
        n_ops = str(trace_ops(a.workload, a.size, a.seconds))
        plain, _ = self.worker("--ops", n_ops)
        runs = [self.worker("--ops", n_ops, trace=True)[0] for _ in range(2)]
        results = [plain] + runs
        failed = sum(len(r["failed_ops"]) for r in results)
        attempted = sum(len(r["walls"]) for r in results)
        counts_equal = runs[0]["counts"] == runs[1]["counts"]
        metrics = {}
        for name, v0 in runs[0]["trace"].items():
            metrics[name] = v0 if name in runs[0]["counts"] else (v0 + runs[1]["trace"][name]) / 2
        metrics["trace.unattributed_s"] = (
            runs[0]["unattributed_s"] + runs[1]["unattributed_s"]
        ) / 2
        metrics["trace.overhead_ratio"] = statistics.median(
            runs[0]["walls"] + runs[1]["walls"]
        ) / statistics.median(plain["walls"])
        units = {name: per_layer_unit(name) for name in metrics}
        correct = failed == 0 and counts_equal and all(
            not r["warmup_failed"] and r["psnr_db"] is not None for r in results
        )
        detail = {
            "env": plain["env"],
            "n_ops_per_run": int(n_ops),
            "op_s_samples": {"untraced": plain["walls"], "traced": [r["walls"] for r in runs]},
            "counts_equal": counts_equal,
            "trace_files": [r["trace_file"] for r in runs],
        }
        if not counts_equal:
            diff = {
                k: (runs[0]["counts"].get(k), runs[1]["counts"].get(k))
                for k in set(runs[0]["counts"]) | set(runs[1]["counts"])
                if runs[0]["counts"].get(k) != runs[1]["counts"].get(k)
            }
            print(f"traced runs disagree on counts: {diff}", file=sys.stderr)
        return correct, attempted, failed, metrics, units, detail


def measure(args):
    """Run one workload; returns (exit code, result object or None)."""
    runner = Runner(args)
    try:
        correct, attempted, failed, metrics, units, detail = (
            runner.traced() if args.trace else runner.untraced()
        )
    except Unfit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Crashed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, None
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size)
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    ), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return (0 if correct else 1), result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="'all' runs every workload and prefixes metric names")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true", help="self-test: spoil one output")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "dynmr", "__init__.py")):
        print(f"error: no dynmr sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, result = measure(args)
        if result is not None:
            print(json.dumps(result))
        return code

    codes, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, result = measure(argparse.Namespace(**{**vars(args), "workload": name}))
        codes.append(code)
        if result is None:
            continue
        print(json.dumps({"workload": name, **result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if any(code > 1 for code in codes):
        return max(codes)
    print(json.dumps(combined))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
