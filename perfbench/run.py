"""The repository benchmark: one command, every workload, every layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload syscode --seed 0 --seconds 20 --trace 0

Workloads (see ``manifest.json`` for why each was chosen, its
generator, counts, held-out seed and predicted layer -> metric map):
``syscode``, ``fpppp``, ``nasa7-verify-j2`` (batch compiles of Table 3
profiles) and ``serve-wal`` (a durable daemon under a closed loop).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
lines before it start with ``#``.  Exit status: 0 when every
correctness gate holds, 1 when one fails, 2 when the benchmark cannot
run (for instance outside a checkout with ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import (
    END_TO_END,
    PER_LAYER,
    BenchError,
    with_units,
)

#: failed checks printed before the result line; the rest are counted
MAX_SHOWN = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {root}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import inputs

    spec = inputs.load_manifest()["workloads"].get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if spec["kind"] == "batch":
        import workload_batch as half
    else:
        import workload_serve as half

    # SIGTERM unwinds like Ctrl-C, so every ``finally`` below stops and
    # reaps what this run started.
    signal.signal(signal.SIGTERM, _interrupt)
    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems, attempted, failed, values = half.run(
            spec, args.seed, args.seconds, bool(args.trace), workdir, src)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's directory is still there

    for problem in problems[:MAX_SHOWN]:
        print(f"# FAIL: {problem}")
    if len(problems) > MAX_SHOWN:
        print(f"# FAIL: ... and {len(problems) - MAX_SHOWN} more")
    metrics, absent = with_units(values, PER_LAYER if args.trace
                                 else END_TO_END)
    if absent:
        print(f"# not on this workload's path (reported as 0): "
              f"{', '.join(absent)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


if __name__ == "__main__":
    raise SystemExit(main())
