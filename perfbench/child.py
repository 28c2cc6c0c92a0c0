"""Runs `imlab.cli` in a benchmark child process, instrumented from outside.

    python child.py setup RESULT -- <imlab arguments>
        Stops the command as soon as `Laboratory.certify` returns, before the
        first solve, and writes the monotonic clock at that moment to RESULT.
    python child.py trace RESULT -- <imlab arguments>
        Runs the command with every target in `spans.TARGETS` wrapped and
        writes the spans and computed counts to RESULT (gzipped JSON).

The exit code is the command's own. `imlab` must be importable (PYTHONPATH).
"""
from __future__ import annotations

import gzip
import json
import sys
import time

import spans


class _SetupDone(BaseException):
    """Raised past the CLI's error handlers once the lab is certified."""


def run_setup(result_path, argv) -> int:
    from imlab import cli, config

    certify = config.Laboratory.certify

    def certify_then_stop(self, *args, **kwargs):
        certify(self, *args, **kwargs)
        raise _SetupDone

    config.Laboratory.certify = certify_then_stop
    try:
        cli.main(argv)
    except _SetupDone:
        with open(result_path, "w") as fh:
            json.dump({"certified_at": time.monotonic()}, fh)
        return 0
    print("setup probe: the command never certified a lab", file=sys.stderr)
    return 1


def run_trace(result_path, argv) -> int:
    recorder = spans.Recorder()
    spans.install(recorder)
    from imlab import cli

    try:
        return cli.main(argv)
    finally:
        with gzip.open(result_path, "wt") as fh:
            json.dump(recorder.dump(), fh)


def main(argv) -> int:
    mode, result_path, sep, rest = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--" or mode not in ("setup", "trace"):
        print(__doc__, file=sys.stderr)
        return 1
    runner = run_setup if mode == "setup" else run_trace
    return runner(result_path, rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
