"""Self-test of the benchmark at a tiny size; exits 0 when every check passes.

    python3 bench/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json and a traced run every per-module metric, each with
its unit, with identical counts across the two traced runs; that a
deliberately corrupted output counts as a failed op (ok_frac < 1, exit 1);
and that the benchmark refuses, without a result, to run in a directory that
holds only BENCHMARK.json and the benchmark itself.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("admm", "net_infer", "net_train")
TIMEOUT_S = 170


def _run(root, *args):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--seed", "3",
           "--seconds", "1", "--size", "tiny", *args]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(f"{'pass' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            code, r = _run(ROOT, "--workload", w, "--trace", str(trace))
            check(code == 0 and r is not None and r["correct"], f"{w} trace={trace}: runs clean")
            if r is None:
                continue
            got = _units(r)
            missing = sorted(set(want[trace]) - set(got))
            wrong = sorted(n for n in want[trace] if n in got and got[n] != want[trace][n])
            extra = sorted(set(got) - set(want[trace]))
            check(not (missing or wrong or extra),
                  f"{w} trace={trace}: metric names and units match "
                  f"(missing {missing}, wrong unit {wrong}, extra {extra})")
            check(r["failed"] == 0 and r["attempted"] >= 1, f"{w} trace={trace}: no failed op")
        code, r = _run(ROOT, "--workload", w, "--trace", "0", "--corrupt")
        check(
            code == 1 and r is not None and not r["correct"] and r["failed"] >= 1
            and r["metrics"]["ok_frac"]["value"] < 1.0,
            f"{w}: a corrupted output counts as a failed op",
        )

    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, r = _run(bare, "--workload", "admm", "--trace", "0")
        check(code != 0 and r is None, "refuses without a result when src/ is missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
