"""Fuzz of ``cli.run``: one value or one whole block of a small valid config
replaced by a malformed entry must end in a documented exit code, never in
a traceback (the warning filters of the suite turn numpy warnings into
errors too)."""

import copy
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chargeflow import cli

MENU = [None, True, False, "x", [], {}, [1, "x"], -1, 0, -0.5, math.nan, math.inf, -math.inf]

_SPECIES = [
    {"charge": 1.0, "positions": [[1.0, 0.0], [-1.0, 0.5]]},
    {"positions": [[0.0, -1.0]]},
]
_OUTPUT = {"dir": "out", "formats": ["csv", "json"], "svg": True, "prefix": "p_"}
_INTEGRATION = {
    "t_end": 0.05, "periods": 0.01, "rtol": 1e-9, "atol": 1e-11,
    "samples_per_period": 16, "samples": 3,
}

# one small valid config per mode, plus the other system kinds and recipes
BASES = [
    {
        "mode": "simulate",
        "seed": 0,
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 1},
        "initial": {"species": _SPECIES},
        "integration": _INTEGRATION,
        "output": _OUTPUT,
    },
    {
        "mode": "simulate",
        "system": {"kind": "polylinear", "P": [1.0], "U": [0.0, [1.0, 0.0]],
                   "charges": [1.0, 2.0], "sizes": [1, 2]},
        "initial": {"random": {"seed": 1, "scale": 1.5, "min_separation": 0.3}},
        "integration": _INTEGRATION,
        "output": _OUTPUT,
    },
    {
        "mode": "conserved",
        "system": {"kind": "bilinear", "P": [1.0, 0.0, 0.5], "U": [0.0, -2.0],
                   "Lambda": 1.0, "n": 2, "m": 1},
        "initial": {"random": {"seed": 1, "scale": 1.0, "min_separation": 0.3}},
        "integration": _INTEGRATION,
        "period": {"tol": 1e-5, "base_period": 0.02},
        "output": _OUTPUT,
    },
    {
        "mode": "conserved",
        "system": {"kind": "angular", "n": 2, "m": 1},
        "initial": {"species": _SPECIES},
        "integration": _INTEGRATION,
        "output": _OUTPUT,
    },
    {
        # the certified inventory of hermite_pair([1, 2], b=1) is a fixed
        # point of the trap flow at omega = b, so it returns at every j T
        "mode": "period",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 1},
        "initial": {"species": [
            {"charge": 1.0, "positions": [[-1.0, 0.0], [1.0, 0.0]]},
            {"positions": [[0.0, 0.0]]},
        ]},
        "integration": _INTEGRATION,
        "period": {"tol": 1e-5, "base_period": 0.02},
        "output": _OUTPUT,
    },
    {
        "mode": "simulate",
        "system": {"kind": "linear", "P": [1.0], "U": [0.0, -2.0], "n": 2},
        "initial": {"species": [_SPECIES[0]]},
        "integration": _INTEGRATION,
        "output": _OUTPUT,
    },
    {"mode": "equilibrium", "equilibrium": {"recipe": "hermite", "indices": [1, 2], "b": -2},
     "output": _OUTPUT},
    {"mode": "equilibrium", "equilibrium": {"recipe": "laguerre", "indices": [0, 1, 2, 3, 4], "b": 1},
     "output": _OUTPUT},
    {"mode": "equilibrium", "equilibrium": {"recipe": "monomial", "indices": [1, 2], "b": "1/2"},
     "output": _OUTPUT},
    {"mode": "equilibrium", "equilibrium": {"recipe": "adler_moser", "k": 2, "ts": ["1/2", 1]},
     "output": _OUTPUT},
    {"mode": "equilibrium", "equilibrium": {"recipe": "cylinder", "indices": [1, 2], "ts": [0.3, 1.1]},
     "output": _OUTPUT},
    {
        "mode": "verify-identities",
        "seed": 3,
        "identities": {"phi": "coth", "trials": 2, "n": 3, "m": 2},
        "output": _OUTPUT,
    },
]


def paths(doc, prefix=()):
    """The path of every value in ``doc``, blocks and list entries included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


CASES = [(base, path) for base in BASES for path in paths(base)]


@pytest.mark.parametrize("base", BASES)
def test_fuzz_bases_are_valid(tmp_path, monkeypatch, base):
    monkeypatch.chdir(tmp_path)
    assert cli.run(base) == cli.EXIT_OK


@settings(
    derandomize=True,
    deadline=None,
    max_examples=1000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.sampled_from(CASES), value=st.sampled_from(MENU))
def test_malformed_value_ends_in_documented_exit(tmp_path, monkeypatch, case, value):
    monkeypatch.chdir(tmp_path)
    base, path = case
    assert cli.run(replaced(base, path, value)) in (0, 2, 3, 4, 5)
