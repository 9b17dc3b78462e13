"""The CLI's one-pass JSON writer, ``cli._json``, byte for byte against
``json.dumps``.

``reference`` is the conversion the CLI made before it wrote its own JSON:
exact ints become strings, floats are rounded, tuples become lists.  The
writer's text must equal ``json.dumps(reference(value), indent=2)``, so that
no drift in whitespace, separators or float rendering slips past the tests
that compare parsed output.
"""

import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from stripwalks import cli
from stripwalks.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden_cli.json").read_text()
)


def reference(value):
    """Make a report JSON-ready: exact ints as strings, floats rounded."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return None
        if value == 0.0 or abs(value) >= 1e-6:
            return round(value, 6)
        return float(f"{value:.6e}")
    if isinstance(value, dict):
        return {k: reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference(v) for v in value]
    return value


def expected_output(command, parameters, results, passed, runtime_ms):
    envelope = {
        "command": command,
        "parameters": reference(parameters),
        "results": reference(results),
        "pass": passed,
        "runtime_ms": runtime_ms,
    }
    return json.dumps(envelope, indent=2) + "\n"


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_envelope_bytes(capsys, monkeypatch, command):
    emitted = []
    emit = cli._emit

    def recording_emit(*args):
        emitted.append(args[:4])
        return emit(*args)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    main(command.split())
    out = capsys.readouterr().out
    [args] = emitted
    assert out == expected_output(*args, json.loads(out)["runtime_ms"])


EDGE_RESULTS = {
    "inf": [math.inf, -math.inf],
    "tiny": [1.234567891e-7, -5e-324, 9.9999999e-7],
    "zero": [0.0, -0.0],
    "rounded": [0.1234565, 2.0506723, 1e300, -3.5],
    "bools": [True, False],
    "none": None,
    "empty": {"list": [], "dict": {}, "tuple": ()},
    "nested": ((1, (2.5, ()), {"k": (10**40, -7)}),),
    "text": "µ — \"q\" \\ \n\t \x01 \U0001f600",
    "non-ASCII key é": "",
}


def test_edge_values_match_json_dumps(capsys):
    parameters = {"n": 12, "strip": (-1, 2), "tol": 1e-14}
    assert cli._emit("edge", parameters, EDGE_RESULTS, False, time.perf_counter()) == 1
    out = capsys.readouterr().out
    assert out == expected_output("edge", parameters, EDGE_RESULTS, False,
                                  json.loads(out)["runtime_ms"])
    assert "Infinity" not in out


leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
values = st.recursive(
    leaves,
    lambda children: st.lists(children) | st.tuples(children, children)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@given(values)
def test_any_report_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(reference(value), indent=2)


def test_unknown_types_are_refused():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json({"strip": cli.StripGeometry(-1, 1)})
