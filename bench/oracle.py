"""Correctness checks for every request, run outside the timed region.

Counts are compared with reference tables made by the seed's DFS
(``reference.json``) and with closed-form identities.  The algebra checks
use this module's own truncated power series and exact Horner evaluation,
not ``stripwalks.genfunc``.  CLI outputs are compared with golden JSON
(``golden_cli.json``) with ``runtime_ms`` left out.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
GOLDEN_CLI = json.loads((HERE / "golden_cli.json").read_text())

# Added right steps of the width-4 transformation, per type.
ADDED_STEPS = {"OO": 2, "OI": 1, "IO": 1, "II": 0}


# ---------------------------------------------------------------------------
# Keys into the reference tables
# ---------------------------------------------------------------------------


def row_key(width: int, offset: int) -> int:
    """A row's distance from the nearer boundary: equal for mirror images."""
    return min(offset, width - 1 - offset)


def strip_key(strip: list[int]) -> str:
    """Reference key of walks from the origin row of a strip."""
    width = strip[1] - strip[0] + 1
    return f"w{width}o{row_key(width, -strip[0])}"


def irreducible_key(strip: list[int], start: int, tailless: bool) -> str:
    width = strip[1] - strip[0] + 1
    tag = "tailless" if tailless else "tailed"
    return f"w{width}s{row_key(width, start - strip[0])}/{tag}"


# ---------------------------------------------------------------------------
# Own truncated power series and polynomial arithmetic
# ---------------------------------------------------------------------------


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two power series, truncated after t^n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def geometric_star(a: list[int], n: int) -> list[int]:
    """1 / (1 - a) truncated after t^n; requires a[0] == 0."""
    if a and a[0]:
        raise ValueError("star needs a zero constant term")
    out = [1] + [0] * n
    for k in range(1, n + 1):
        out[k] = sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def divide_series(num: list[int], den: list[int], n: int) -> list[int]:
    """num / den as a power series truncated after t^n; requires den[0] == 1."""
    out = []
    for k in range(n + 1):
        v = num[k] if k < len(num) else 0
        v -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(v)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    return trim(convolve(a, b, len(a) + len(b) - 2))


def poly_sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def horner(coefficients: list[int], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


def atom_series(width: int, n: int) -> dict[str, list[int]]:
    """Series of the width-3 atoms (closed forms) or the width-4 upper atoms."""
    if width == 3:
        return {
            "OI": [0, 0] + [1] * (n - 1),
            "IO": [0, 0] + [2] * (n - 1),
            "OO": [k // 3 for k in range(n + 1)],
        }
    polys = REFERENCE["polynomials"]
    den = polys["upper_atom_denominator"]
    return {t: divide_series(num, den, n) for t, num in polys["upper_atom_numerators"].items()}


def loop_denominator(atoms: dict[str, list[int]], width: int) -> list[int]:
    """Denominator of the starred loop built from polynomial atoms."""
    one = [1]
    den = poly_sub(one, atoms["OO"])
    if width == 4:
        den = poly_mul(den, poly_sub(one, atoms["II"]))
    return poly_sub(den, poly_mul(atoms["IO"], atoms["OI"]))


def bridge_series(width: int, n: int) -> list[int]:
    """Bridge series composed from the atom series: the code of the alphabet."""
    a = atom_series(width, n)
    oo_star = geometric_star(a["OO"], n)
    io_oo = convolve(a["IO"], oo_star, n)
    loop = convolve(io_oo, a["OI"], n)
    tilde = [1 + c if k == 0 else c for k, c in enumerate(io_oo)]
    out = tilde
    if width == 4:
        ii_star = geometric_star(a["II"], n)
        loop = convolve(ii_star, loop, n)
        out = convolve(ii_star, out, n)
    out = convolve(geometric_star(loop, n), out, n)
    return convolve(out, [1] * (n + 1), n)


def sign_change(coefficients: list[int], bracket: list[float]) -> bool:
    """p > 0 at the bracket's lower end and p <= 0 at its upper end, exactly."""
    lo, hi = Fraction(bracket[0]), Fraction(bracket[1])
    p_lo, p_hi = horner(coefficients, lo), horner(coefficients, hi)
    if lo == hi:
        return p_lo == 0
    return p_lo > 0 and p_hi <= 0


# ---------------------------------------------------------------------------
# Checks per request kind: each returns a list of problems
# ---------------------------------------------------------------------------


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _library_series(kind: str, width: int, n: int) -> tuple[int, ...]:
    from stripwalks import genfunc

    atoms = {"w3": genfunc.atoms_width3, "lower": genfunc.atoms_width4_lower,
             "upper": genfunc.atoms_width4_upper}[kind]()
    return genfunc.compose_bridge_code(atoms, width).series(n)


def check_count(req: dict, out: Any) -> list[str]:
    problems: list[str] = []
    n, strip = req["n"], req["strip"]
    key = strip_key(strip)
    width = strip[1] - strip[0] + 1
    bridges = REFERENCE["tables"][key]["bridge"][: n + 1]
    if req["fn"] == "bridge_span_table":
        expected = REFERENCE["span_tables"][f"{key}/n{n}"]
        _expect(problems, {str(k): v for k, v in out.items()} == expected, "span table != reference")
        _expect(problems, sum(out.values()) == bridges[n], "span table does not sum to b_n")
        return problems
    kind = {"count_saws": "saw", "count_half_space": "half_space", "count_bridges": "bridge"}[req["fn"]]
    table = list(out)
    _expect(problems, table == REFERENCE["tables"][key][kind][: n + 1], f"{kind} table != reference")
    if kind == "saw" and width == 2:
        closed = [8 * fibonacci(k) - (4 if k % 2 else k) for k in range(2, n + 1)]
        _expect(problems, table[2:] == closed, "width-2 saws != 8 F_n - delta_n")
    if kind == "bridge" and width == 3:
        _expect(problems, tuple(table) == _library_series("w3", 3, n), "w3 bridges != composed GF")
    if kind == "bridge" and width == 4:
        low, up = _library_series("lower", 4, n), _library_series("upper", 4, n)
        _expect(problems, all(l <= b <= u for l, b, u in zip(low, table, up)),
                "w4 bridges outside the lower/upper composed series")
    return problems


def check_irreducible(req: dict, out: Any) -> list[str]:
    from stripwalks import genfunc

    problems: list[str] = []
    n, t = req["n"], req["type"]
    width = req["strip"][1] - req["strip"][0] + 1
    key = irreducible_key(req["strip"], req["start"], req["tailless"])
    table = list(out)
    _expect(problems, table == REFERENCE["irreducible"][key][t][: n + 1],
            f"irreducible {key} {t} != reference")
    if req["tailless"]:
        return problems
    if width == 3 and t != "II":
        atom = genfunc.atoms_width3()[t].series(n)
        _expect(problems, tuple(table) == atom, f"w3 {t} counts != atom series")
    if width == 4:
        low = genfunc.atoms_width4_lower()[t].series(n)
        up = genfunc.atoms_width4_upper()[t].series(n)
        _expect(problems, all(l <= e <= u for l, e, u in zip(low, table, up)),
                f"w4 {t}: not lower atom <= exact <= upper atom")
    return problems


def check_decompose(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    key, m = strip_key(req["strip"]), req["m"]
    ref = REFERENCE["structure"][f"decompose/{key}/m{m}"]
    _expect(problems, out["per_length"] == REFERENCE["tables"][key]["bridge"][: m + 1],
            "bridges yielded != bridge table")
    summary = {"per_length": out["per_length"], "types": out["types"], "tails": out["tails"],
               "trailing": out["trailing"],
               "transformed": {t: len(v) for t, v in out["transformed"].items()}}
    _expect(problems, json.loads(json.dumps(summary)) == ref, "decomposition summary != reference")
    for walk, dec in out["samples"]:
        _expect(problems, dec.reassemble_steps() == walk.steps(),
                f"reassemble_steps() does not round-trip {walk.steps()}")
    for t, images in out["transformed"].items():
        per_line: dict[int, list] = {}
        for (start_line, points), image in images.items():
            steps = image.steps()
            per_line.setdefault(start_line, []).append(image.points)
            _expect(problems, "L" not in steps, f"transformed {t} factor steps left")
            _expect(problems, len({y for _, y in image.points}) <= 2,
                    f"transformed {t} factor leaves two rows")
            _expect(problems, len(steps) == len(points) - 1 + ADDED_STEPS[t],
                    f"transformed {t} factor has the wrong length")
        _expect(problems, all(len(set(v)) == len(v) for v in per_line.values()),
                f"transformation is not injective on {t}")
    return problems


def check_hw(req: dict, out: dict) -> list[str]:
    from stripwalks import enumeration

    problems: list[str] = []
    key, m = strip_key(req["strip"]), req["m"]
    width = req["strip"][1] - req["strip"][0] + 1
    ref = REFERENCE["structure"][f"hw/{key}/m{m}"]
    _expect(problems, out["per_length"] == REFERENCE["tables"][key]["half_space"][: m + 1],
            "half-space walks yielded != half-space table")
    summary = {"per_length": out["per_length"], "k_hist": out["k_hist"], "reflected": out["reflected"]}
    _expect(problems, json.loads(json.dumps(summary)) == ref, "span-decomposition summary != reference")
    _expect(problems, max(out["k_hist"], default=0) <= width, "span decomposition longer than the width")
    for walk, dec, image in out["samples"]:
        if image is None:
            _expect(problems, dec.k < 2, "walk with k >= 2 was not reflected")
            continue
        _expect(problems, all(x > 0 for x, _ in image.points[1:]), "reflection left the half-space")
        expected = (dec.spans[0] + dec.spans[1],) + dec.spans[2:]
        _expect(problems, enumeration.hw_decompose(image).spans == expected,
                f"reflection of {walk.steps()} has the wrong span decomposition")
    return problems


def check_atoms_root(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    width, length = req["width"], req["L"]
    atoms = {t: trim(s) for t, s in atom_series(width, length).items()}
    den = list(out["den"])
    _expect(problems, den == loop_denominator(atoms, width), "loop denominator != own composition")
    _expect(problems, sign_change(den, out["bracket"]), "root bracket shows no exact sign change")
    lo, hi = out["bracket"]
    _expect(problems, lo <= out["root"] <= hi, "root outside its bracket")
    return problems


def check_atoms_round(records: list[dict]) -> None:
    """mu_L is nondecreasing in L and converges to the published constants."""
    targets = REFERENCE["constants"]
    for width, target in ((3, targets["w3"][1]), (4, targets["w4_upper"][1])):
        rows = sorted((r for r in records if r["req"]["kind"] == "atoms_root"
                       and r["req"]["width"] == width and r["output"] is not None),
                      key=lambda r: r["req"]["L"])
        for prev, cur in zip(rows, rows[1:]):
            if cur["output"]["mu"] < prev["output"]["mu"] - 1e-9:
                cur["problems"].append(f"mu_L decreased from L={prev['req']['L']}")
        for r in rows:
            if r["req"]["L"] >= 50 and abs(r["output"]["mu"] - target) > 1e-5:
                r["problems"].append(f"mu_L at L={r['req']['L']} has not converged to {target}")


def check_series(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    s, num, den = out["series"], out["num"], out["den"]
    _expect(problems, len(s) == req["terms"] + 1, "wrong number of terms")
    recurrence_ok = all(
        sum(den[k] * s[n - k] for k in range(min(n, len(den) - 1) + 1))
        == (num[n] if n < len(num) else 0)
        for n in range(len(s))
    )
    _expect(problems, recurrence_ok, "series does not satisfy den * series = num")
    head = min(120, req["terms"])
    _expect(problems, list(s[: head + 1]) == bridge_series(req["width"], head),
            "series != own convolution/star oracle")
    if req["width"] == 3:
        table = REFERENCE["tables"]["w3o1"]["bridge"]
        _expect(problems, list(s[: len(table)]) == table[: len(s)], "w3 series != enumerated bridges")
    return problems


def check_reduced(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    num, den, rnum, rden = (list(out[k]) for k in ("num", "den", "red_num", "red_den"))
    _expect(problems, poly_mul(rnum, den) == poly_mul(num, rden), "reduced form is a different function")
    _expect(problems, rden[:1] == [1] and len(rden) <= len(den), "reduced denominator not normalised")
    return problems


def _check_root(problems: list[str], fields: dict, poly: str, constants: list[float]) -> None:
    _expect(problems, [round(fields["root"], 6), round(fields["mu"], 6)] == constants,
            f"{poly} root/mu != {constants}")
    _expect(problems, sign_change(REFERENCE["polynomials"][poly], fields["bracket"]),
            f"{poly} bracket shows no exact sign change")


def check_mu_bounds(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    _check_root(problems, out["lower"], "w4_lower_den", REFERENCE["constants"]["w4_lower"])
    _check_root(problems, out["upper"], "w4_loop_den", REFERENCE["constants"]["w4_upper"])
    return problems


def check_mu_width3(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    _check_root(problems, out, "w3_loop", REFERENCE["constants"]["w3"])
    return problems


def strip_runtime(stdout: str) -> Any:
    """The JSON envelope without its wall-clock field."""
    envelope = json.loads(stdout)
    envelope.pop("runtime_ms", None)
    return envelope


def check_cli(req: dict, out: dict) -> list[str]:
    problems: list[str] = []
    golden = GOLDEN_CLI[" ".join(req["argv"])]
    _expect(problems, out["exit"] == golden["exit"], f"exit {out['exit']} != {golden['exit']}")
    try:
        envelope = strip_runtime(out["stdout"])
    except json.JSONDecodeError:
        problems.append("output is not JSON")
        return problems
    _expect(problems, envelope == golden["output"], "output != golden JSON")
    return problems


CHECKS: dict[str, Callable[[dict, Any], list[str]]] = {
    "count": check_count,
    "irreducible": check_irreducible,
    "decompose": check_decompose,
    "hw": check_hw,
    "atoms_root": check_atoms_root,
    "series": check_series,
    "reduced": check_reduced,
    "mu_bounds": check_mu_bounds,
    "mu_width3": check_mu_width3,
    "cli": check_cli,
}


def check(records: list[dict]) -> int:
    """Mark each record with its problems; return the number of failed requests."""
    for r in records:
        if r["error"] is not None:
            r["problems"] = [r["error"]]
            continue
        try:
            r["problems"] = CHECKS[r["req"]["kind"]](r["req"], r["output"])
        except Exception as exc:  # a check that cannot run fails its request
            r["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
    check_atoms_round(records)
    return sum(1 for r in records if r["problems"])
