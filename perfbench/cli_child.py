"""Run classprop's cli.main(argv) as one command-line invocation.

    python3 perfbench/cli_child.py <trace-file or -> <classprop arguments...>

This is what the ``classprop`` entry point runs.  With a trace file, every
layer function is wrapped first and the span summary is written there.
"""

import json
import sys

import worker


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    worker.import_package()
    tracer = None
    if trace_file != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from classprop import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    if tracer:
        with open(trace_file, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
