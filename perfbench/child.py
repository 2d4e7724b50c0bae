"""Child process for one timed CLI invocation.

    python3 perfbench/child.py --ready FILE [--setup-only] [--spans FILE] -- <camsim args>

Imports ``camsim.cli`` and parses the run config (the set-up), writes the
``time.monotonic()`` reading at that point to ``--ready``, then calls
``camsim.cli.main`` with the remaining arguments, which is what
``python -m camsim.cli`` does. With ``--spans`` the layer functions are
wrapped first and the recorded spans are written to that file at exit.
CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its own
readings from the one written here.
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import camsim.cli as cli

    cli.RunConfig.from_file(cli_args[1])
    with open(args.ready, "w") as f:
        f.write(repr(time.monotonic()))
    if args.setup_only:
        return 0
    if args.spans is None:
        return cli.main(cli_args)

    import trace_layers

    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.uninstall()
    leftovers = trace_layers.find_wrappers()
    with open(args.spans, "w") as f:
        json.dump({"spans": tracer.spans, "leftover_wrappers": leftovers}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
