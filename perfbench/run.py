"""Run one workload (or all) of the served benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --workload all --toy --seconds 1   # smoke sizes

Every line but the last is for people: provenance, then one line per
metric with its unit.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the traced pass and
reports the per-layer ledger.  Exit code 0 means every cover matched.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs (tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # A shell that starts us in the background may have set SIGINT to
    # "ignore", which every child would inherit; the servers are stopped
    # with SIGINT, so give it back its default handler (reset on exec).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM, unwind through the ``finally`` blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import children

    children.adopt_orphans()
    try:
        return _run(args)
    finally:
        children.reap_all()


def _run(args: argparse.Namespace) -> int:
    from perfbench import harness, provenance
    from perfbench.workloads import FULL, TOY, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        info = provenance.collect(ROOT, name, args.seed)
        started = time.perf_counter()
        result = harness.run(
            ROOT, name, args.seed, args.seconds, bool(args.trace), TOY if args.toy else FULL
        )
        info["loadavg_after"] = provenance.load_average()
        info["run_seconds"] = round(time.perf_counter() - started, 3)
        print(json.dumps({"provenance": info}))
        print(json.dumps({"details": result.details}))
        for problem in result.problems:
            print(f"{name}: FAILED {problem}")
        print(f"{name}: requests sent {result.attempted}, failed {result.failed}")
        for metric, entry in result.metrics.items():
            print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
        for key, value in result.details.items():
            if key.startswith("p50_") and key.endswith("_s"):  # per-class medians
                print(f"{name}: {key} = {value:.6g} s (details only)")
        results[name] = result
    if len(names) == 1:
        only = results[names[0]]
        summary = {
            "correct": only.correct,
            "attempted": only.attempted,
            "failed": only.failed,
            "metrics": only.metrics,
        }
    else:
        summary = {
            "correct": all(r.correct for r in results.values()),
            "attempted": sum(r.attempted for r in results.values()),
            "failed": sum(r.failed for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result.metrics.items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
