"""Benchmark of the stripwalks library and CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists): count-deep, irreducible,
algebra, cli-session; ``--workload all`` runs them one after another.  Each is one client in a closed loop.  A round runs
the workload's whole request list once in a fresh interpreter
(bench/round.py), so module caches start empty and no request repeats
inside a process.  Rounds repeat until ``--seconds`` have passed.  A
round's time is the sum of its requests' medians over rounds, in units of a
reference kernel timed alongside (bench/probe.py); set-up time is the median
over rounds.  The seed picks only among inputs of equal cost.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics derived from
the traced rounds' spans, plus the traced/untraced wall-time ratio.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Raw
rounds, machine information and traces are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

ROUND_TIMEOUT_S = 150
# No new round starts after this much measuring, whatever --seconds says,
# so that a run ends well inside its time limit.
MAX_MEASURE_S = 120

# End-to-end metrics in the final JSON line.  Request time is reported in
# units of a reference kernel sampled alongside it, and set-up time is
# rescaled to the kernel's nominal speed (probe.py), because raw seconds on
# a shared machine drift by up to 1.7x.
END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Raw times, printed with their medians but not part of the JSON line.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_wall_s": "s"}
REQUEST_TIMES = ("wall_ref", "wall_s", "cpu_s")
# Per-request latencies printed for the cli-session workload.
CLI_COMMANDS = {"verify_all_s": "cli/verify/all", "mu_width4_s": "cli/mu/width4",
                "count_w4_s": "cli/count/saw"}


class RoundError(RuntimeError):
    pass


def machine_info() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_round(args: argparse.Namespace, index: int, traced: bool) -> dict:
    trace_file = OUT / f"trace-{args.workload}-s{args.seed}-r{index}.json" if traced else None
    config = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace_file": str(trace_file) if trace_file else None,
              "spawned_at": time.perf_counter()}
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "round.py"), json.dumps(config)],
            capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise RoundError(f"round {index} did not finish within {ROUND_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["traced"] = traced
    if traced:
        record["trace"] = json.loads(trace_file.read_text())
    return record


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def request_samples(rounds: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Per request name and time metric, one sample per round."""
    out: dict[str, dict[str, list[float]]] = {}
    for r in rounds:
        for req in r["requests"]:
            per = out.setdefault(req["name"], {})
            for key in REQUEST_TIMES:
                per.setdefault(key, []).append(req[key])
    return dict(sorted(out.items()))


def round_time(rounds: list[dict], key: str) -> float:
    """Time of one round: the sum over requests of each one's median.

    Summing per-request medians keeps one slow stretch of the machine, which
    hits one long request in one round, out of the total."""
    return sum(median(per[key]) for per in request_samples(rounds).values())


def per_layer(rounds: list[dict]) -> tuple[dict[str, float], dict[str, str], dict[str, float]]:
    """Per-layer metrics: times are medians over traced rounds, counts come
    from the first traced round (they are the same in every round)."""
    import tracing

    traced = [r for r in rounds if r["traced"]]
    per_round = [tracing.layer_metrics(r["trace"]) for r in traced]
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    for name in tracing.TIME_METRICS:
        values[name] = median([m[name] for m in per_round])
        units[name] = "s"
    for name, unit in tracing.COUNT_METRICS.items():
        values[name] = per_round[0][name]
        units[name] = unit
    plain = [r for r in rounds if not r["traced"]]
    values["trace_overhead"] = round_time(traced, "wall_ref") / round_time(plain, "wall_ref")
    units["trace_overhead"] = "ratio"
    shares = tracing.layer_shares(traced[0]["trace"])
    return values, units, shares


def measure(args: argparse.Namespace) -> list[dict]:
    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, len(rounds), traced))
        elapsed = time.perf_counter() - start
        enough = not args.trace or len(rounds) >= 2
        if enough and (elapsed >= args.seconds or elapsed >= MAX_MEASURE_S):
            return rounds


def report(args: argparse.Namespace, machine: dict, rounds: list[dict]) -> dict:
    attempted = sum(len(r["requests"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    n_traced = sum(r["traced"] for r in rounds)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(rounds)} rounds ({n_traced} traced), {attempted} requests, {failed} failed, "
          f"error_rate {failed / attempted:.4g}")
    for r in rounds:
        for req in r["requests"]:
            for problem in req["problems"][:3]:
                print(f"  FAILED {req['name']}: {problem}")

    plain = [r for r in rounds if not r["traced"]]
    values = {key: round_time(plain, key) for key in REQUEST_TIMES}
    values["setup_s"] = median([r["setup_s"] for r in rounds])
    values["setup_wall_s"] = median([r["setup_wall_s"] for r in rounds])
    values["peak_rss_mb"] = median([r["peak_rss_mb"] for r in plain])
    print(f"  round times from per-request medians over {len(plain)} untraced rounds; "
          f"set-up median of {len(rounds)} fresh interpreters")
    metrics: dict[str, dict] = {}
    for name, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        print(f"  {name:<28} {values[name]:12.6g} {unit}")
        if not args.trace and name in END_TO_END_UNITS:
            metrics[name] = {"value": values[name], "unit": unit}
    walks = median([r["walks"] for r in plain])
    if walks:
        print(f"  {'walks_per_s':<28} {walks / values['wall_s']:12.6g} 1/s (walks in the outputs)")

    requests = request_samples(plain)
    for name, request in CLI_COMMANDS.items():
        if request in requests:
            per = requests[request]
            print(f"  {name:<28} {median(per['wall_s']):12.6g} s "
                  f"({median(per['wall_ref']):.4g} ref, median of {len(per['wall_s'])})")
    print("  per request: median ms, quartiles, median ref, samples")
    for name, per in requests.items():
        q1, q3 = quartiles(per["wall_s"])
        print(f"    {name:<40} {median(per['wall_s']) * 1e3:10.3f} "
              f"[{q1 * 1e3:.3f} .. {q3 * 1e3:.3f}] {median(per['wall_ref']):10.3f} "
              f"n={len(per['wall_s'])}")

    if args.trace:
        layer_values, layer_units, shares = per_layer(rounds)
        for name, value in layer_values.items():
            print(f"  {name:<28} {value:12.6g} {layer_units[name]}")
            metrics[name] = {"value": value, "unit": layer_units[name]}
        print("  self-time share by layer: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), "machine": machine, "result": result,
                               "rounds": [{k: v for k, v in r.items() if k != "trace"}
                                          for r in rounds]}, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "stripwalks" / "__init__.py").is_file():
        print(f"no stripwalks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    machine = machine_info()
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        try:
            rounds = measure(one)
        except RoundError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(one, machine, rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
