"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py setup <workload> <seed>
        import classprop and print the generated inputs as JSON
    python3 perfbench/worker.py prefill
        build the tables the cli workload reads into $CLASSPROP_CACHE
    python3 perfbench/worker.py pass <spec.json>
        run one timed pass and print its result as JSON

run.py starts these; they print exactly one JSON line on success.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import classprop from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import classprop

    if not Path(classprop.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"classprop imported from {classprop.__file__}, not {ROOT / 'src'}")
    # load every layer module now, so tracing can wrap all of them
    from classprop import cli, cyclo, gf, limits, matgroup, series, stats  # noqa: F401
    return classprop


class Context:
    """What a workload needs from its process: cache, tracer, child runner."""

    def __init__(self, spec, tracer):
        self.cache_dir = spec.get("cache_dir")
        self.scratch = spec["scratch"]
        self.deadline = spec["deadline"]
        self.tracer = tracer
        self.extra = {}
        self.report_bytes = 0
        self._children = 0

    def cache_listing(self):
        return {e.name: e.stat().st_mtime_ns for e in os.scandir(self.cache_dir)}

    def run_cli(self, argv):
        """Run cli.main(argv) in a child process; return (exit code, stdout)."""
        self._children += 1
        trace_file = os.path.join(self.scratch, f"cli-{self._children}.json")
        cmd = [sys.executable, str(HERE / "cli_child.py"),
               trace_file if self.tracer else "-", *argv]
        env = dict(os.environ, CLASSPROP_CACHE=self.cache_dir)

        def child():
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  timeout=max(1.0, self.deadline - time.time()))
            if self.tracer and proc.returncode == 0:
                with open(trace_file) as fh:
                    self.tracer.add_child_process(json.load(fh))
            return proc

        proc = self.tracer.span("cli.process", child) if self.tracer else child()
        self.report_bytes += len(proc.stdout)
        return proc.returncode, proc.stdout


def run_pass(spec):
    tracer = None
    if spec["workload"] != "cli":
        import_package()
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        if spec["workload"] != "cli":
            spans.install(tracer)
    import checks
    import workloads

    ck = checks.Checker()
    ctx = Context(spec, tracer)
    start = time.perf_counter()
    workloads.RUNNERS[spec["workload"]](spec["inputs"], ck, ctx)
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if spec["workload"] == "cli" else resource.RUSAGE_SELF
    return {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "results": ck.results,
        "extra": ctx.extra,
        "report_bytes": ctx.report_bytes,
        "trace": tracer.summary() if tracer else None,
    }


def main(argv):
    mode = argv[1]
    if mode == "setup":
        import_package()
        import workloads

        out = workloads.make_inputs(argv[2], int(argv[3]))
    elif mode == "prefill":
        import_package()
        import workloads
        from classprop.matgroup import build_group

        for fam, n, q in workloads.CLI_TABLES:
            build_group(fam, n, q)
        out = sorted(os.listdir(os.environ["CLASSPROP_CACHE"]))
    elif mode == "pass":
        with open(argv[2]) as fh:
            out = run_pass(json.load(fh))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
