"""One round of a workload, in a fresh interpreter.

Usage: python3 bench/round.py '<json config>'

The config names the workload, seed, size, the parent's clock reading at
spawn time and, for a traced round, the file that receives the spans.  The
round imports the package, builds its requests, runs them closed loop,
checks every output outside the timed region and prints one JSON record.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def main() -> int:
    config = json.loads(sys.argv[1])
    import probe
    import stripwalks
    import tracing
    import workloads

    if Path(stripwalks.__file__).resolve().parent != ROOT / "src" / "stripwalks":
        print(f"stripwalks imported from {stripwalks.__file__}, not this checkout", file=sys.stderr)
        return 2
    requests = workloads.generate(config["workload"], config["seed"], config["size"])
    # perf_counter is CLOCK_MONOTONIC, shared with the parent that spawned us.
    setup_wall_s = time.perf_counter() - config["spawned_at"]
    setup_s = setup_wall_s * probe.NOMINAL_KERNEL_S / probe.kernel_seconds()

    tracer = tracing.Tracer() if config["trace_file"] else None
    if tracer:
        tracer.install()
    try:
        records = workloads.run(requests, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import oracle  # loads the reference tables; not part of set-up

    failed = oracle.check(records)
    output_bytes = sum(len(r["output"]["stdout"]) for r in records
                       if r["req"]["kind"] == "cli" and r["output"] is not None)
    if tracer:
        tracer.counters["cli.output_bytes"] = output_bytes
        tracer.write(config["trace_file"])

    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": rss_mb,
        "failed": failed,
        "walks": sum(r["walks"] for r in records),
        "requests": [
            {"name": r["req"]["name"], "wall_s": r["wall"], "cpu_s": r["cpu"],
             "wall_ref": r["ref"], "problems": r["problems"]}
            for r in records
        ],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
