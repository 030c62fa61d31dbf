"""Runs inside each fresh interpreter the benchmark starts.

    python3 child.py setup REPORT CONFIG
    python3 child.py cli REPORT SPANS -- CLI-ARGS...

``setup`` imports ``cellbal.cli``, builds the scenario from CONFIG and
records the monotonic clock, which the parent compares with the moment it
launched the interpreter.  ``cli`` times ``cellbal.cli.main(CLI-ARGS)`` from
after the imports to its return and records the process's peak resident
memory; unless SPANS is ``-`` it first wraps the layers in ``spans.LAYERS``
and writes the spans to SPANS when the command returns.  Results go to the
JSON file REPORT, so the CLI's own output stays as it is.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def setup(config: str) -> dict:
    from cellbal import cli

    cli.build_scenario(cli.effective_config(cli.load_config(config)))
    return {"ready": time.monotonic()}


def run_cli(spans_path: str, argv: list[str]) -> dict:
    from cellbal import cli

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    report = {
        "rc": rc,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(spans_path)
        report["counts"] = dict(tracer.counts)
    return report


def main(argv: list[str]) -> None:
    mode, report_path = argv[0], argv[1]
    if mode == "setup":
        report = setup(argv[2])
    elif mode == "cli" and argv[3] == "--":
        report = run_cli(argv[2], argv[4:])
    else:
        raise SystemExit(f"usage error: {argv!r}")
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
