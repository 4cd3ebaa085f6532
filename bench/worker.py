"""One benchmark process: set up a workload, run its ops, check, report JSON.

Run by run.py, never by hand:

    python3 bench/worker.py --root DIR --workload NAME --seed N --size full
        (--seconds S | --ops N | --setup-only) [--trace] [--corrupt]

The last stdout line is a JSON object with the ready time (process-wide
monotonic clock, so the parent can subtract its own spawn time), the wall time
of every timed op, failures, peak RSS, psnr_db, the environment and, with
--trace, the per-module report.  Exit 2: the environment is unfit to measure.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import traceback


def _log(msg):
    print(f"[worker] {msg}", file=sys.stderr, flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import dynmr  # noqa: F401  (the whole package: every namespace the tracer patches)

    if not os.path.dirname(os.path.abspath(dynmr.__file__)) == os.path.join(
        os.path.abspath(args.root), "src", "dynmr"
    ):
        _log(f"imported dynmr from {dynmr.__file__}, not from the checkout")
        return 2

    import envinfo
    import workloads
    from spans import Tracer, exact_counts

    env = envinfo.environment(args.root)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        _log(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} cpus; refusing")
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install()
    workdir = os.path.join(args.root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make(args.workload, args.size, workdir, args.seed)
        wl.corrupt = args.corrupt
        wl.setup()
        clock = workloads.OpClock(
            tracer if args.trace else None,
            seconds=args.seconds,
            n_ops=args.ops,
        )
        try:
            wl.run(clock, tracer, _log)
        except workloads.Stop:
            pass
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.setup_only:
            psnr_db, detail = None, {}
        else:
            tracer.op = -2  # validation
            psnr_db, detail = wl.validate(tracer, _log)
        report = tracer.report() if args.trace else None
        result = {
            "ready_t": clock.ready_t,
            "end_t": clock.end_t,
            "walls": clock.walls,
            "failed_ops": sorted(op for op in wl.failed if op >= 1),
            "warmup_failed": 0 in wl.failed,
            "peak_rss_mb": peak_rss_mb,
            "psnr_db": psnr_db,
            "detail": detail,
            "env": env,
        }
        if report is not None:
            ops = clock.walls
            result["trace"] = report
            result["counts"] = exact_counts(report)
            result["unattributed_s"] = sum(clock.unattributed) / max(len(ops), 1)
            trace_dir = os.path.join(args.root, ".bench_work", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_file = os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
            )
            with open(trace_file, "w") as fh:
                for op, name, cls, start, end, depth in tracer.spans:
                    fh.write(json.dumps([op, name, cls, start, end, depth]) + "\n")
            result["trace_file"] = os.path.relpath(trace_file, args.root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
