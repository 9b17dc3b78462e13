"""Seeded workload generation and request execution for the benchmark.

A workload is a list of requests (plain JSON-able dicts) built from the
workload name, the seed and a size.  The seed picks only among inputs of
equal cost: the mirror orientation of a strip or a start line, the request
order, and values inside fixed tolerance and length bands.  Every request
of one run is executed once per round, in a fresh interpreter, so the
module-wide ``lru_cache`` of the irreducible tables never sees a request
twice.

Requests call the library only through its public functions, looked up at
call time on the package modules so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from typing import Any, Callable

import probe
import stripwalks
from stripwalks import cli, enumeration, genfunc

WORKLOADS = ("count-deep", "irreducible", "algebra", "cli-session")

# Lengths per size.  "full" sizes give rounds of two to three seconds on a
# 2-core Xeon; "tiny" sizes exist for the smoke tests.
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "count_n": {2: 24, 3: 17, 4: 15},
        "irreducible_n": {3: 14, 4: 14},
        "structure_m": {3: 12, 4: 11},
        "atom_lengths": (10, 20, 30, 40, 50, 60),
        "series_terms": (1500, 1520),
        "tol_exponents": (12.0, 13.0),
        "cli_verify_n": 14,
        "cli_count_n": 16,
        "cli_irreducible_n": 14,
        "cli_series": 1000,
    },
    "tiny": {
        "count_n": {2: 10, 3: 8, 4: 7},
        "irreducible_n": {3: 8, 4: 7},
        "structure_m": {3: 6, 4: 6},
        "atom_lengths": (6, 10),
        "series_terms": (60, 64),
        "tol_exponents": (12.0, 13.0),
        "cli_verify_n": 8,
        "cli_count_n": 8,
        "cli_irreducible_n": 8,
        "cli_series": 50,
    },
}

# Every n-th walk of a structural request keeps its full decomposition so
# that the oracle can check round trips outside the timed region.
SAMPLE_EVERY = 97

# Mirror pairs (strip, outer start, inner start) of equal cost.
_ORIENTATIONS = {
    2: (((0, 1), 1, None), ((-1, 0), -1, None)),
    3: (((-1, 1), 1, 0), ((-1, 1), -1, 0)),
    4: (((-1, 2), 2, 1), ((-2, 1), -2, -1)),
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _tol(rng: random.Random, size: dict) -> float:
    lo, hi = size["tol_exponents"]
    return 10.0 ** -rng.uniform(lo, hi)


def generate(workload: str, seed: int, size_name: str = "full") -> list[dict]:
    """The request list of one run: the same arguments give the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[size_name]
    rng = _rng(workload, seed)
    requests = {
        "count-deep": _gen_count_deep,
        "irreducible": _gen_irreducible,
        "algebra": _gen_algebra,
        "cli-session": _gen_cli,
    }[workload](rng, size)
    rng.shuffle(requests)
    return requests


def _gen_count_deep(rng: random.Random, size: dict) -> list[dict]:
    out = []
    for width, n in size["count_n"].items():
        strip = list(rng.choice(_ORIENTATIONS[width])[0])
        for fn in ("count_saws", "count_half_space", "count_bridges", "bridge_span_table"):
            out.append({"name": f"{fn}/w{width}", "kind": "count", "fn": fn,
                        "strip": strip, "n": n})
    return out


def _gen_irreducible(rng: random.Random, size: dict) -> list[dict]:
    out = []
    for width, n in size["irreducible_n"].items():
        strip, outer, inner = rng.choice(_ORIENTATIONS[width])
        for start, types, where in ((outer, ("OO", "OI"), "outer"), (inner, ("IO", "II"), "inner")):
            for tailless in (False, True):
                for t in types:
                    tag = "tailless" if tailless else "tailed"
                    out.append({"name": f"irreducible/w{width}/{where}/{tag}/{t}",
                                "kind": "irreducible", "strip": list(strip), "type": t,
                                "n": n, "start": start, "tailless": tailless})
    for width, m in size["structure_m"].items():
        strip = list(rng.choice(_ORIENTATIONS[width])[0])
        out.append({"name": f"decompose/w{width}", "kind": "decompose", "strip": strip, "m": m})
        out.append({"name": f"hw/w{width}", "kind": "hw", "strip": strip, "m": m})
    return out


def _gen_algebra(rng: random.Random, size: dict) -> list[dict]:
    out = []
    for width in (3, 4):
        for length in size["atom_lengths"]:
            out.append({"name": f"atoms_root/w{width}/L{length}", "kind": "atoms_root",
                        "width": width, "L": length, "tol": _tol(rng, size)})
        lo, hi = size["series_terms"]
        out.append({"name": f"series/w{width}", "kind": "series", "width": width,
                    "terms": rng.randint(lo, hi)})
        out.append({"name": f"reduced/w{width}", "kind": "reduced", "width": width})
    out.append({"name": "mu_bounds_width4", "kind": "mu_bounds", "tol": _tol(rng, size)})
    out.append({"name": "connective_constant_width3", "kind": "mu_width3", "tol": _tol(rng, size)})
    return out


def cli_argvs(size: dict, orientation: int) -> list[list[str]]:
    """The argv list of one cli-session, for one mirror orientation of the strip."""
    strip, outer, _ = _ORIENTATIONS[4][orientation]
    strip_arg = f"{strip[0]},{strip[1]}"
    irreducible = ["count", "--strip", strip_arg, "--class", "irreducible",
                   "--start-line", str(outer), "--n", str(size["cli_irreducible_n"])]
    return [
        ["verify", "all", "--n", str(size["cli_verify_n"])],
        ["mu", "width4"],
        ["mu", "width3", "--tol", "1e-14"],
        ["gf", "upper4"],
        ["gf", "bridge3", "--series", str(size["cli_series"])],
        ["count", "--strip", strip_arg, "--n", str(size["cli_count_n"])],
        # Same strip, start line and length: the second one is served from
        # the irreducible-table cache, as in a real session.
        irreducible + ["--type", "OO"],
        irreducible + ["--type", "OI"],
        ["verify", "sandwich", "--mu", "2.3", "--n", str(size["cli_verify_n"])],
    ]


def _gen_cli(rng: random.Random, size: dict) -> list[dict]:
    argvs = cli_argvs(size, rng.randrange(2))
    return [{"name": cli_name(argv), "kind": "cli", "argv": argv} for argv in argvs]


def cli_name(argv: list[str]) -> str:
    """Request name of a CLI argv, the same for both strip orientations."""
    if argv[0] == "count":
        klass = argv[argv.index("--class") + 1] if "--class" in argv else "saw"
        kind = argv[argv.index("--type") + 1] if "--type" in argv else ""
        return f"cli/count/{klass}{kind}"
    return "cli/" + "/".join(a for a in argv[:2])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _strip(req: dict) -> stripwalks.StripGeometry:
    return stripwalks.StripGeometry(*req["strip"])


def _run_count(req: dict) -> tuple[Any, int]:
    result = getattr(enumeration, req["fn"])(_strip(req), req["n"])
    if req["fn"] == "bridge_span_table":
        return dict(result), sum(result.values())
    return result.counts, sum(result.counts)


def _run_irreducible(req: dict) -> tuple[Any, int]:
    table = enumeration.count_irreducible(
        _strip(req), req["type"], req["n"], req["start"], req["tailless"]
    )
    return table.counts, sum(table.counts)


def _run_decompose(req: dict) -> tuple[Any, int]:
    strip = _strip(req)
    per_length = [0] * (req["m"] + 1)
    types: dict[str, int] = {}
    tails = trailing = 0
    transformed: dict[str, dict] = {}
    samples = []
    for i, walk in enumerate(enumeration.iter_walks(strip, req["m"], "bridge")):
        per_length[walk.length] += 1
        dec = enumeration.decompose_bridge(walk, strip)
        for f in dec.factors:
            types[f.bridge_type] = types.get(f.bridge_type, 0) + 1
            tails += f.tail_length
            if strip.width == 4 and f.tail_length == 0 and not enumeration.is_simple_factor(f):
                image = enumeration.transform_irreducible_w4(f, strip)
                transformed.setdefault(f.bridge_type, {})[(f.start_line, f.walk.points)] = image
        trailing += dec.trailing_right_run
        if i % SAMPLE_EVERY == 0:
            samples.append((walk, dec))
    summary = {"per_length": per_length, "types": types, "tails": tails,
               "trailing": trailing, "transformed": transformed, "samples": samples}
    return summary, sum(per_length)


def _run_hw(req: dict) -> tuple[Any, int]:
    strip = _strip(req)
    per_length = [0] * (req["m"] + 1)
    k_hist: dict[int, int] = {}
    reflected = 0
    samples = []
    for i, walk in enumerate(enumeration.iter_walks(strip, req["m"], "half_space")):
        per_length[walk.length] += 1
        if walk.length == 0:
            continue
        dec = enumeration.hw_decompose(walk)
        k_hist[dec.k] = k_hist.get(dec.k, 0) + 1
        image = enumeration.hw_reflect(walk, dec) if dec.k >= 2 else None
        reflected += image is not None
        if i % SAMPLE_EVERY == 0:
            samples.append((walk, dec, image))
    summary = {"per_length": per_length, "k_hist": k_hist, "reflected": reflected,
               "samples": samples}
    return summary, sum(per_length)


def _truncated_atoms(width: int, length: int) -> dict[str, genfunc.RationalGF]:
    atoms = genfunc.atoms_width3() if width == 3 else genfunc.atoms_width4_upper()
    return {
        t: genfunc.RationalGF.from_polynomial(
            genfunc.IntPolynomial.from_coefficients(gf.series(length))
        )
        for t, gf in atoms.items()
    }


def _root_fields(res: Any) -> dict:
    return {"root": res.root, "mu": res.mu, "bracket": list(res.bracket)}


def _run_atoms_root(req: dict) -> tuple[Any, int]:
    atoms = _truncated_atoms(req["width"], req["L"])
    den = genfunc.important_part_denominator(atoms, req["width"])
    res = stripwalks.smallest_positive_root(den, req["tol"])
    return {"den": den.coefficients, **_root_fields(res)}, 0


def _composed(width: int) -> genfunc.RationalGF:
    atoms = genfunc.atoms_width3() if width == 3 else genfunc.atoms_width4_upper()
    return genfunc.compose_bridge_code(atoms, width)


def _run_series(req: dict) -> tuple[Any, int]:
    gf = _composed(req["width"])
    series = gf.series(req["terms"])
    return {"num": gf.numerator.coefficients, "den": gf.denominator.coefficients,
            "series": series}, 0


def _run_reduced(req: dict) -> tuple[Any, int]:
    gf = _composed(req["width"])
    red = gf.reduced()
    return {"num": gf.numerator.coefficients, "den": gf.denominator.coefficients,
            "red_num": red.numerator.coefficients, "red_den": red.denominator.coefficients}, 0


def _run_mu_bounds(req: dict) -> tuple[Any, int]:
    lower, upper = stripwalks.mu_bounds_width4(req["tol"])
    return {"lower": _root_fields(lower), "upper": _root_fields(upper)}, 0


def _run_mu_width3(req: dict) -> tuple[Any, int]:
    return _root_fields(stripwalks.connective_constant_width3(req["tol"])), 0


def _run_cli(req: dict) -> tuple[Any, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(req["argv"]))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": buf.getvalue()}, 0


EXECUTORS: dict[str, Callable[[dict], tuple[Any, int]]] = {
    "count": _run_count,
    "irreducible": _run_irreducible,
    "decompose": _run_decompose,
    "hw": _run_hw,
    "atoms_root": _run_atoms_root,
    "series": _run_series,
    "reduced": _run_reduced,
    "mu_bounds": _run_mu_bounds,
    "mu_width3": _run_mu_width3,
    "cli": _run_cli,
}


def run(requests: list[dict], tracer: Any = None) -> list[dict]:
    """Execute the requests in order, closed loop, one client.

    Returns one record per request: its output, walks accounted for, wall
    seconds and the same time in reference-kernel units (probe.py), CPU
    seconds, and the exception if it raised.  Kernel runs are excluded from
    all three times.
    """
    records = []
    with probe.SpeedSampler() as sampler:
        first = sampler.sample()
        for req in requests:
            span = tracer.open("bench.request") if tracer else None
            c0 = time.process_time()
            output, walks, error = None, 0, None
            try:
                output, walks = EXECUTORS[req["kind"]](req)
            except Exception as exc:  # a raising request is a failed request
                error = f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - c0
            if span:
                tracer.close(span)
            last = sampler.sample()
            wall, ref, kernel_cpu = sampler.work(first, last)
            records.append({"req": req, "output": output, "walks": walks, "wall": wall,
                            "ref": ref, "cpu": cpu - kernel_cpu, "error": error})
            first = last
    return records
