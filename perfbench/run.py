"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An untraced run (``--trace 0``) reports the end-to-end metrics of the
named workload.  A traced run (``--trace 1``) records the whole stage
ledger: it runs every workload, the named one for ``--seconds`` and the
others for a short fixed probe, and reports every per-layer metric.
``--smoke`` shrinks every graph for the self-test.  Diagnostics go to
standard error; lines starting with ``FLAG`` mark a run whose numbers
the generator, not the program, may have set.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Graph size of each workload, in nodes; ``build`` cycles through
#: eight graphs of this size.  The query graph stays at 10k nodes
#: because each of its set-ups builds two engines.
NODES = {"build": 1_000, "query": 10_000, "serve_read": 5_000,
         "serve_write": 5_000}
#: The same under ``--smoke``.
SMOKE_NODES = {"build": 300, "query": 1_500, "serve_read": 400,
               "serve_write": 400}
#: Set-ups per untraced run; ``setup_s`` is their median.  ``query``
#: spreads them through its window.  ``build`` takes no count: it sets
#: up before every cycle of builds.
SETUPS = {"query": 3, "serve_read": 5, "serve_write": 5}
#: Seconds each workload other than the named one runs in a traced run.
PROBE_SECONDS = 8.0


def _workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inproc
    import serve
    return {"build": inproc.build, "query": inproc.query,
            "serve_read": serve.serve_read, "serve_write": serve.serve_write}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads)}")

    from common import host_ref_ops_s

    nodes = SMOKE_NODES if args.smoke else NODES
    if args.trace:
        plan = [(name, args.seconds if name == args.workload
                 else min(args.seconds, PROBE_SECONDS)) for name in workloads]
    else:
        plan = [(args.workload, args.seconds)]

    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ref_before = host_ref_ops_s()
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT))
    attempted = failed = 0
    metrics = {}
    notes = []
    try:
        for name, seconds in plan:
            options = {"trace": bool(args.trace), "nodes": nodes[name]}
            if name in SETUPS:
                options["setups"] = 1 if args.trace else SETUPS[name]
            result = workloads[name](args.seed, seconds, workdir, **options)
            attempted += result.attempted
            failed += result.failed
            metrics.update(result.layers if args.trace else result.metrics)
            notes += result.notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_after = host_ref_ops_s()
    notes.append(f"host.ref_ops_s before {ref_before:.1f}, after "
                 f"{ref_after:.1f}")
    if args.trace:
        metrics["host.ref_ops_s"] = (ref_before + ref_after) / 2

    for note in notes:
        print(note, file=sys.stderr)
        if note.startswith("FLAG"):
            print(note)
    # Metric names and units: ``end_to_end`` for untraced runs and
    # ``per_layer`` for traced ones.  What each measures on each workload
    # is tabulated in ``perfbench/README.md``.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
