#!/usr/bin/env python3
"""Build and run the Adaptix benchmark (perfbench).

    python3 perfbench/run.py --workload serve_seq --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --test

Run from the root of a source tree. The first call configures and builds
perfbench/ (and the library sources under src/) in Release mode into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. The workload then runs in its own process
(adx_perfbench). Its report is forwarded to stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. A copy of the result, with the run's metadata, and the traced
run's span file (Chrome trace-event JSON) are written to the build
directory's results/ folder.

--test builds and runs the benchmark's own tests instead.

Exit status: 0 with a result printed; non-zero, printing no result, when the
sources are missing, the build fails, the build is not Release, the host has
fewer CPUs than the workload's threads, or the report is malformed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_seq", "serve_sharded", "cs_sweep", "tsp_central")
DEFAULT_SEED = 42
HELD_OUT_SEED = 20260
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir, targets):
    """Configures (once) and builds `targets`; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                fail("cmake configure failed", 3)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed", 3)


def source_id():
    """The git commit when run in a clone, else a digest of the source files."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric name -> unit from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the workload's last line is not JSON", 4)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}", 4)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a whole number >= 1", 4)
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"or units differ", 4)
    return res


def run_workload(a):
    bdir = build_dir()
    build(bdir, ["adx_perfbench"])
    out_dir = bdir / "results"
    commit = source_id()
    cmd = [str(bdir / "adx_perfbench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", "1" if a.trace else "0",
           "--out-dir", str(out_dir), "--commit", commit]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    if proc.returncode != 0:
        fail(f"{a.workload} exited with status {proc.returncode}", max(proc.returncode, 1))
    lines = proc.stdout.rstrip("\n").split("\n")
    res = check_result(lines[-1], a.trace)
    meta = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    for line in lines[:-1]:
        for tag in ("# perfbench meta: ", "# perfbench summary: "):
            if line.startswith(tag):
                meta.update(json.loads(line[len(tag):]))
        print(line)
    stem = f"{a.workload}-seed{a.seed}" + ("-trace" if a.trace else "")
    (out_dir / f"{stem}.result.json").write_text(
        json.dumps({"meta": meta, "result": res}, indent=1) + "\n")
    print(json.dumps(res), flush=True)


def run_tests():
    bdir = build_dir()
    build(bdir, ["perfbench_tests"])
    r = subprocess.run([str(bdir / "perfbench_tests")], cwd=bdir)
    sys.exit(r.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    a = p.parse_args()
    if a.test:
        run_tests()
    if a.workload is None:
        p.error("--workload is required")
    if not 0 < a.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    if a.seed < 0:
        p.error("--seed must be >= 0")
    run_workload(a)


if __name__ == "__main__":
    main()
