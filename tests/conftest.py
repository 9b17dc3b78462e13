"""Shared fixtures: enumeration tables are expensive, so build them once.

Also provides truncated-sequence arithmetic (convolution, geometric star)
used as an independent oracle for the rational-function layer.
"""

from __future__ import annotations

import pytest

from stripwalks import StripGeometry, count_bridges, count_half_space, count_saws

W2 = StripGeometry(0, 1)
W3 = StripGeometry(-1, 1)
W4 = StripGeometry(-1, 2)
W5 = StripGeometry(-2, 2)


@pytest.fixture(scope="session")
def saws_w2_22():
    return count_saws(W2, 22)


@pytest.fixture(scope="session")
def saws_w3_14():
    return count_saws(W3, 14)


@pytest.fixture(scope="session")
def saws_w3_16():
    return count_saws(W3, 16)


@pytest.fixture(scope="session")
def saws_w4_14():
    return count_saws(W4, 14)


@pytest.fixture(scope="session")
def bridges_w3_18():
    return count_bridges(W3, 18)


@pytest.fixture(scope="session")
def bridges_w4_16():
    return count_bridges(W4, 16)


@pytest.fixture(scope="session")
def half_space_w3_14():
    return count_half_space(W3, 14)


@pytest.fixture(scope="session")
def half_space_w4_14():
    return count_half_space(W4, 14)


# --- truncated power-series helpers (independent of stripwalks.genfunc) ----


def seq_mul(a: tuple[int, ...], b: tuple[int, ...], n_max: int) -> tuple[int, ...]:
    out = [0] * (n_max + 1)
    for i, ca in enumerate(a[: n_max + 1]):
        if ca == 0:
            continue
        for j, cb in enumerate(b[: n_max + 1 - i]):
            out[i + j] += ca * cb
    return tuple(out)


def seq_add(a: tuple[int, ...], b: tuple[int, ...], n_max: int) -> tuple[int, ...]:
    out = [0] * (n_max + 1)
    for i, c in enumerate(a[: n_max + 1]):
        out[i] += c
    for i, c in enumerate(b[: n_max + 1]):
        out[i] += c
    return tuple(out)


def seq_star(g: tuple[int, ...], n_max: int) -> tuple[int, ...]:
    """Coefficients of 1/(1 - g) for a sequence with g_0 = 0."""
    assert g[0] == 0
    out = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        s = 0
        for k in range(1, min(n, len(g) - 1) + 1):
            s += g[k] * out[n - k]
        out[n] = s
    return tuple(out)


def seq_one(n_max: int) -> tuple[int, ...]:
    return (1,) + (0,) * n_max


def seq_geometric(n_max: int) -> tuple[int, ...]:
    """1/(1-t): the all-ones sequence."""
    return (1,) * (n_max + 1)
