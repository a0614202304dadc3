"""Benchmark of the classprop package.

    python3 perfbench/run.py --workload {analytic,tables,sampling,cli}
                             --seed N --seconds S --trace {0,1}

Run from any directory; the package is taken from src/ next to perfbench/.
Set-up (interpreter start, ``import classprop``, input generation) runs
five times in fresh interpreters and reports the median; for ``cli`` the
table cache pre-fill, which runs once, is added to it.

With ``--trace 0`` fresh-process passes of the workload repeat until S
seconds have been measured, and the result line carries the end-to-end
metrics: median pass wall time, set-up time and peak resident memory.  With
``--trace 1`` one untraced pass and two traced passes run, and the result
line carries the per-layer metrics listed in layers.py.  The two traced
passes must give the same exact counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
name every metric with its unit, the failure ratio, the environment and
any failed check.  A broken benchmark exits non-zero without that line.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # a run, set-up included, must end within this
SETUP_REPEATS = 5
TRACED_PASSES = 2
STARTUP_REPEATS = 3
# the top-level spans of a traced pass must cover its wall time to this share
SPAN_COVERAGE_TOL = 0.10


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result line is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("CLASSPROP_CACHE", None)
    # the workloads run in one thread; keep numpy's BLAS pools from starting more
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, deadline):
    """Run a fresh interpreter to completion; return (its stdout, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:2]} did not finish within the run limit") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout, elapsed


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    def __init__(self, args, work, deadline):
        self.args, self.work, self.deadline = args, work, deadline
        self.env = child_env()
        self.ck = checks.Checker()  # every check of every pass, plus the run's own
        self.passes = 0
        self.cache = None

    def worker(self, *argv, env=None):
        """Run worker.py; return (its JSON line, seconds)."""
        out, elapsed = run_child([str(HERE / "worker.py"), *argv], env or self.env,
                                 self.deadline)
        return json.loads(out.strip().splitlines()[-1]), elapsed

    def setup(self):
        """Median set-up time and the generated inputs."""
        times, inputs = [], None
        for _ in range(SETUP_REPEATS):
            got, elapsed = self.worker("setup", self.args.workload, str(self.args.seed))
            if inputs is not None and got != inputs:
                raise BenchError("one seed generated two different inputs")
            inputs = got
            times.append(elapsed)
        setup_s = statistics.median(times)
        if self.args.workload == "cli":
            self.cache = self.work / "cli-cache"
            self.cache.mkdir()
            _, elapsed = self.worker("prefill", env=dict(self.env, CLASSPROP_CACHE=str(self.cache)))
            setup_s += elapsed
        return setup_s, inputs

    def one_pass(self, inputs, trace):
        self.passes += 1
        scratch = self.work / f"pass-{self.passes}"
        scratch.mkdir()
        cache = self.cache
        if self.args.workload == "tables":  # every pass writes a new, empty cache
            cache = scratch / "cache"
            cache.mkdir()
        spec = {"workload": self.args.workload, "inputs": inputs, "trace": trace,
                "cache_dir": str(cache) if cache else None, "scratch": str(scratch),
                "deadline": self.deadline}
        spec_file = scratch / "spec.json"
        spec_file.write_text(json.dumps(spec))
        env = dict(self.env, CLASSPROP_CACHE=str(cache)) if cache else self.env
        result, _ = self.worker("pass", str(spec_file), env=env)
        self.ck.results += result["results"]
        return result

    def startup_s(self):
        """Median time of a no-work cli invocation (print the version)."""
        times = []
        for _ in range(STARTUP_REPEATS):
            _, elapsed = run_child([str(HERE / "cli_child.py"), "-", "--version"],
                                   self.env, self.deadline)
            times.append(elapsed)
        return statistics.median(times)

    def traced_checks(self, traced):
        ck = self.ck
        first = layers.exact_counts(traced[0]["trace"])
        for other in traced[1:]:
            diff = checks.repeated_exactly(first, layers.exact_counts(other["trace"]))
            ck.check("exact counters repeat between traced passes", not diff, diff)
        for p in traced:
            cover = p["trace"]["top_s"] / p["wall_s"]
            ck.check("span self times add up to the traced wall time",
                     abs(1 - cover) <= SPAN_COVERAGE_TOL, f"coverage {cover:.3f}")
        counters = traced[0]["trace"]["counters"]
        hits = counters.get("matgroup.cache_hits", 0)
        writes = counters.get("matgroup.cache_writes", 0)
        if self.args.workload == "tables":
            ck.check("tables: no cache hits, one write per ambient group",
                     hits == 0 and writes == 3, counters)
        if self.args.workload == "cli":
            ck.check("cli: every table load is a cache hit", writes == 0 and hits > 0, counters)


def measure(args, work, deadline):
    run = Run(args, work, deadline)
    setup_s, inputs = run.setup()
    if not args.trace:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            if passes and time.time() + passes[-1]["wall_s"] * 1.5 > deadline:
                break
            passes.append(run.one_pass(inputs, trace=False))
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
        info = {"passes": len(passes)}
        rates = [p["extra"]["mc_samples_per_s"] for p in passes if "mc_samples_per_s" in p["extra"]]
        if rates:
            info["mc_samples_per_s"] = statistics.median(rates)
    else:
        untraced = run.one_pass(inputs, trace=False)
        traced = [run.one_pass(inputs, trace=True)]
        while len(traced) < TRACED_PASSES:
            if time.time() + traced[-1]["wall_s"] * 1.5 > deadline:
                print("perfbench: no time left for a second traced pass; "
                      "exact-counter repeat check skipped", file=sys.stderr)
                break
            traced.append(run.one_pass(inputs, trace=True))
        run.traced_checks(traced)
        startup = run.startup_s() if args.workload == "cli" else 0.0
        metrics = layers.per_layer_metrics(untraced, traced, startup)
        info = {"passes": 1 + len(traced)}
    ck = run.ck
    return {"correct": ck.failed == 0, "attempted": ck.attempted, "failed": ck.failed,
            "metrics": metrics}, info, ck.failures()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "classprop" / "__init__.py").is_file():
        print(f"perfbench: no classprop package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.time() + RUN_LIMIT_S
    env = environment(args)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, info, failures = measure(args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    print("environment: " + json.dumps(env, sort_keys=True))
    print("run: " + json.dumps(info, sort_keys=True))
    for r in failures:
        print(f"FAILED {r['name']}: {r['detail']}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {result['failed'] / result['attempted']:.6g} 1")
    if "mc_samples_per_s" in info:
        print(f"{args.workload} mc_samples_per_s = {info['mc_samples_per_s']:.6g} 1/s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
