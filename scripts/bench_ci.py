#!/usr/bin/env python
"""Performance-trend CI gate: snapshot the benchmark matrix, compare
against the previous ``BENCH_<seq>.json``, and fail on regression.

Default mode runs the engine x suite evaluation matrix serially
(``--quick`` selects the CI-sized tier: per-suite subsampling, smaller
budget), writes the next ``BENCH_<seq>.json`` at the repo root (or
``--root``), and compares it against the newest older snapshot.  Exit
status: 0 when there is no previous snapshot (baseline) or no
regression, 1 on regression, 2 on usage errors.

``--compare-only PREV CUR`` skips the run and just gates two existing
snapshot files — the hook the tests use to inject a slowdown fixture.

Examples::

    PYTHONPATH=src python scripts/bench_ci.py --quick
    PYTHONPATH=src python scripts/bench_ci.py --compare-only \\
        BENCH_0001.json BENCH_0002.json
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.bench import compare as compare_mod
from repro.bench import snapshot as snapshot_mod

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bench_ci",
        description="BENCH snapshot + regression gate "
                    "(see benchmarks/README.md for the schema)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI tier: per-suite subsampling, small budget")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="directory holding BENCH_*.json (default: repo "
                             "root)")
    parser.add_argument("--stride", type=int, default=None,
                        help="keep every N-th problem per suite")
    parser.add_argument("--fuel", type=int, default=None,
                        help="per-problem fuel budget")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per-problem wall-clock budget")
    parser.add_argument("--time-rel", type=float,
                        default=compare_mod.DEFAULT_TIME_REL,
                        help="relative timing-regression gate (default "
                             "%.2f)" % compare_mod.DEFAULT_TIME_REL)
    parser.add_argument("--time-abs", type=float,
                        default=compare_mod.DEFAULT_TIME_ABS,
                        help="absolute timing floor in seconds (default "
                             "%.3f)" % compare_mod.DEFAULT_TIME_ABS)
    parser.add_argument("--compare-only", nargs=2, metavar=("PREV", "CUR"),
                        default=None,
                        help="gate two existing snapshot files and exit")
    return parser


def gate(prev, cur, args):
    """Compare two loaded snapshots; print the report; return the exit
    status (0 clean, 1 regressed)."""
    report = compare_mod.compare(
        prev, cur, time_rel=args.time_rel, time_abs=args.time_abs,
    )
    print(compare_mod.render_report(report, prev, cur))
    return 1 if compare_mod.has_regressions(report) else 0


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.compare_only:
        prev_path, cur_path = args.compare_only
        try:
            prev = snapshot_mod.load_snapshot(prev_path)
            cur = snapshot_mod.load_snapshot(cur_path)
        except (OSError, ValueError) as exc:
            print("bench_ci: %s" % exc, file=sys.stderr)
            return 2
        return gate(prev, cur, args)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("bench_ci: not a directory: %s" % root, file=sys.stderr)
        return 2

    def progress(engine, done, total):
        print("  %s: %d/%d" % (engine, done, total), flush=True)

    snapshot = snapshot_mod.collect(
        root, quick=args.quick, stride=args.stride, fuel=args.fuel,
        seconds=args.seconds, progress=progress,
    )
    path = snapshot_mod.write_snapshot(snapshot, root)
    print("wrote %s (%d cells, %d problems x %d engines)" % (
        os.path.basename(path), len(snapshot["cells"]),
        snapshot["config"]["problems"], len(snapshot["config"]["engines"]),
    ))
    print("matrix: wall %.2fs" % snapshot["timing"]["wall_s"])

    prev_path = snapshot_mod.previous_snapshot(root, snapshot["seq"])
    if prev_path is None:
        print("no previous snapshot; %s is the baseline"
              % os.path.basename(path))
        return 0
    prev = snapshot_mod.load_snapshot(prev_path)
    return gate(prev, snapshot, args)


if __name__ == "__main__":
    sys.exit(main())
