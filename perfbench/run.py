"""The repository benchmark: one command, six workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the
checkout's ``src/repro`` package, started in fresh child processes;
inputs come from ``--seed`` only.  Prints every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) with its unit,
then one JSON result object as the last stdout line.  Exits non-zero if
any output, accounting or leak check fails.  Metric names, units and
directions live in ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SRC,
    CheckFailed,
    children_peak_rss_mib,
    git_commit,
    host_stamp,
    leak_check,
    prepare_import_path,
    shm_segments,
    source_digest,
)

SCRATCH = ROOT / ".perfbench_tmp"


#: the layers per-layer metrics are named after (the package's modules,
#: plus the benchmark's own load generator and tracer).
LAYERS = (
    "core.compiled", "frontier.encoding", "frontier.engine",
    "frontier.spill", "frontier.bidirectional", "frontier.sharded",
    "serve.wire", "serve.server", "serve.engine", "serve.shard",
    "cluster.router", "loadgen", "trace",
)


def _stage(metric: str) -> str:
    return next(layer for layer in LAYERS
                if metric.startswith(layer + "."))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(workload: str, seed: int, seconds: float, tmp: Path,
             trace: bool, failures, pgids) -> dict:
    if workload.startswith("frontier"):
        import frontier

        return frontier.measure(workload, seed, seconds, tmp, trace,
                                failures, pgids)
    import serving

    return serving.measure(workload, seed, seconds, tmp, trace,
                           failures, pgids)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {SRC / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(names)})", file=sys.stderr)
        return 2
    prepare_import_path()

    tmp = SCRATCH / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    shm_before = shm_segments()
    failures, pgids = [], []
    started = time.monotonic()
    result = None
    try:
        result = _measure(args.workload, args.seed, args.seconds, tmp,
                          bool(args.trace), failures, pgids)
    except CheckFailed as exc:
        failures.append(str(exc))
    except Exception as exc:  # the program under test misbehaved
        traceback.print_exc()
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        leak_check(pgids, tmp, shm_before, failures)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch dir is still there

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if result is not None:
        values = dict(result["per_layer"] if args.trace else result["e2e"])
        if not args.trace:
            values["peak_rss_mib"] = children_peak_rss_mib()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if result is not None and not args.trace and missing:
        failures.append(f"end-to-end metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }

    record = {
        "bench": "perfbench", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_stamp(), "commit": git_commit(),
        "source_digest": source_digest(),
        "wall_s": time.monotonic() - started,
        "metrics": [
            {"name": name, "value": m["value"], "unit": m["unit"],
             "stage": _stage(name) if args.trace else "end_to_end"}
            for name, m in metrics.items()
        ],
    }
    for note in (result or {}).get("notes", []):
        print(f"note: {note}")
    if args.trace and missing:
        print("note: not exercised by this workload (reported as 0): "
              + ", ".join(missing))
    print("record: " + json.dumps(record))
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    attempted = (result or {}).get("attempted", 0)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": (result or {}).get("failed", 0) if attempted else 1,
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
