"""Command-line entry point.

One JSON config describes one experiment; flags can stand in for the
config in the common cases.  Artifacts are written atomically (temp file
+ rename) and are byte-identical under replay with the same seed.

Exit codes: 0 success, 2 collision abort, 3 validation error,
4 non-convergence, 5 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import tempfile
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import equilibria
from ._schema import REQUIRED, Variants, list_of, one_of, such_that, typed, walk
from .conserved import detect_period, has_lax_pair, integrals, period_multiples
from .dynamics import (
    FlowSpec,
    Trajectory,
    integrate_lanes,
    monitors,
    over_samples,
    phi_identity_i1,
    phi_identity_i2,
    uniform_grid,
)
from .errors import (
    CertificationFailure,
    ChargeflowError,
    Collision,
    NoReturnFound,
    NonConvergence,
    ValidationError,
)
from .operators import ChargeConfiguration, Species, SystemCoefficients
from .polynomials import _distance, pair_matrix

__all__ = ["main", "run", "plot_svg", "validate_config"]

EXIT_OK = 0
EXIT_COLLISION = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_CERTIFICATION = 5


# -- config schema ------------------------------------------------------------
#
# Every config key is one row of the table ``_SCHEMA`` below, which
# ``_schema.walk`` reads; a converter also takes a flag's string.


def _real(value) -> float:
    """A finite number or numeric string; a bool is not a number."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{out} is not finite")
    return out


def _integer(value) -> int:
    """An integer, integral float or integer string; a bool is not one."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _at_least(low, convert=_integer):
    return such_that(lambda v: v >= low, convert)


_positive = such_that(lambda v: v > 0, _real)


def _rational(value) -> Fraction:
    return Fraction(str(value))


def _point(value) -> complex:
    """An [re, im] pair."""
    re, im = typed(list)(value)
    return complex(_real(re), _real(im))


def _coeff(value) -> complex:
    """A number or an [re, im] pair."""
    return _point(value) if isinstance(value, list) else complex(_real(value))


_MODES = ("simulate", "equilibrium", "conserved", "period", "verify-identities")
# A run holds every sample's positions, so its sample count is capped far
# below what np.linspace or the memory would refuse.
MAX_SAMPLES = 1_000_000
_SEED = (_at_least(0), 0)
_SIZE = (_at_least(0), REQUIRED)
_COEFFS = (list_of(_coeff), REQUIRED)
_LAMBDA = (_real, 1.0)
_INDICES = (list_of(_integer), REQUIRED)

_SYSTEM = Variants("kind", "rational_omega", {
    "rational_omega": {"omega": (_real, 1.0), "Lambda": _LAMBDA, "n": _SIZE, "m": _SIZE},
    "angular": {"n": _SIZE, "m": _SIZE},
    "linear": {"P": _COEFFS, "U": _COEFFS, "n": _SIZE},
    "bilinear": {"P": _COEFFS, "U": _COEFFS, "Lambda": _LAMBDA, "n": _SIZE, "m": _SIZE},
    "polylinear": {
        "P": _COEFFS, "U": _COEFFS,
        "charges": (list_of(_real), REQUIRED), "sizes": (list_of(_at_least(0)), REQUIRED),
    },
})

# recipe -> (constructor, its parameters, named as the constructor names them)
_RECIPES = {
    "hermite": (equilibria.hermite_pair, {"indices": _INDICES, "b": (_rational, -2)}),
    "laguerre": (equilibria.laguerre_pair, {"indices": _INDICES, "b": (_rational, 1)}),
    "monomial": (equilibria.monomial_pair, {"indices": _INDICES, "b": (_rational, 1)}),
    "adler_moser": (
        equilibria.adler_moser, {"k": (_integer, REQUIRED), "ts": (list_of(_rational), [])}
    ),
    "cylinder": (equilibria.cylinder_pair, {"indices": _INDICES, "ts": (list_of(_real), [])}),
}
_EQUILIBRIUM = Variants("recipe", REQUIRED, {name: keys for name, (_, keys) in _RECIPES.items()})

_NEEDS = {"simulate": ("system", "initial"), "conserved": ("system", "initial"),
          "period": ("system", "initial"), "equilibrium": ("equilibrium",)}

_SCHEMA = {
    "mode": (one_of(*_MODES), REQUIRED),
    "seed": _SEED,
    "system": (_SYSTEM, None),
    "initial": ({
        "species": ([{"positions": (list_of(_point), REQUIRED), "charge": (_real, None)}], None),
        "random": ({"seed": _SEED, "scale": (_real, 1.0), "min_separation": (_real, 0.25)}, None),
    }, None),
    "integration": ({
        "t_end": (_real, None), "periods": (_real, None),
        "rtol": (_at_least(0.0, _real), 1e-10), "atol": (_positive, 1e-12),
        "samples_per_period": (_at_least(1), 128),
        "samples": (such_that(lambda v: 2 <= v <= MAX_SAMPLES, _integer), 257),
    }, {}),
    "equilibrium": (_EQUILIBRIUM, None),
    "identities": ({
        "phi": (one_of("inverse", "coth"), "inverse"), "trials": (_at_least(0), 100),
        "n": (_at_least(2), 6), "m": (_at_least(1), 6),
    }, {}),
    "period": ({"base_period": (_positive, None), "tol": (_real, 1e-5)}, {}),
    "output": ({
        "dir": (typed(str), "."), "prefix": (typed(str), ""), "svg": (typed(bool), False),
        "formats": (list_of(one_of("csv", "json")), ["csv", "json"]),
    }, {}),
}


def validate_config(doc: dict) -> dict:
    """The typed config: every key of ``doc`` converted through the schema
    table, with defaults filled in and absent blocks ``None``."""
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    doc = walk(doc, _SCHEMA, "config")
    for block in _NEEDS.get(doc["mode"], ()):
        if doc[block] is None:
            raise ValidationError(f"{doc['mode']} mode needs the {block} block")
    return doc


def _build_flow(system: dict) -> FlowSpec:
    """The flow of a validated ``system`` block; it must move a particle."""
    kind = system["kind"]
    if kind == "rational_omega":
        sys_c = SystemCoefficients.rational_omega(system["omega"], system["Lambda"])
    elif kind == "angular":
        sys_c = None
    elif kind == "linear":
        sys_c = SystemCoefficients.linear(system["P"], system["U"])
    elif kind == "bilinear":
        sys_c = SystemCoefficients.bilinear(system["P"], system["U"], Lambda=system["Lambda"])
    else:
        sys_c = SystemCoefficients.polylinear(system["P"], system["U"], system["charges"])
    sizes = system.get("sizes", [system[key] for key in ("n", "m") if key in system])
    flow = FlowSpec(sys_c, tuple(sizes))
    if not sum(flow.sizes):
        raise ValidationError("system has no particles")
    return flow


_DRAW_ATTEMPTS = 1000
# attempts per block: at most 32, and at most about 2^15 pairs in all, so
# the (block, N, N) distance arrays stay small at any N
_DRAW_PAIRS = 2**15


def _random_initial(flow: FlowSpec, options: dict) -> ChargeConfiguration:
    """The first of up to 1000 Gaussian draws (real parts, then imaginary
    parts, times ``scale``) whose pair distances all exceed
    ``min_separation * scale``.

    Attempts are drawn in blocks, one ``rng.normal(size=(m, 2, N))`` call
    each.  That consumes the same normals in the same order as drawing
    each attempt's real and imaginary parts in turn, so the first
    separated attempt of a block is the start a one-at-a-time loop finds.
    """
    rng = np.random.default_rng(options["seed"])
    scale = options["scale"]
    min_sep = options["min_separation"] * scale
    total = sum(flow.sizes)
    block = max(1, min(32, _DRAW_PAIRS // total**2))
    for drawn in range(0, _DRAW_ATTEMPTS, block):
        draws = rng.normal(size=(min(block, _DRAW_ATTEMPTS - drawn), 2, total))
        pts = draws[:, 0] * scale + 1j * draws[:, 1] * scale
        dist = pair_matrix(pts, _distance, diagonal=np.inf)
        separated = np.all(dist > min_sep, axis=(-2, -1))
        if separated.any():
            pts = pts[separated.argmax()]
            break
    else:
        raise ValidationError("could not draw separated initial conditions")
    parts = np.split(pts, np.cumsum(flow.sizes)[:-1])
    species = (Species(q, tuple(p)) for q, p in zip(flow.charges, parts))
    return ChargeConfiguration(tuple(species))


def _build_initial(flow: FlowSpec, initial: dict) -> ChargeConfiguration:
    if initial["random"] is not None:
        return _random_initial(flow, initial["random"])
    species_doc = initial["species"]
    if species_doc is None:
        raise ValidationError("initial block needs 'species'")
    if len(species_doc) != len(flow.sizes):
        raise ValidationError(
            f"initial conditions have {len(species_doc)} species, "
            f"flow expects {len(flow.sizes)}"
        )
    species = []
    for idx, (sp, q, size) in enumerate(zip(species_doc, flow.charges, flow.sizes)):
        if len(sp["positions"]) != size:
            raise ValidationError(
                f"species size {len(sp['positions'])} does not match flow size {size}"
            )
        if sp["charge"] is not None and sp["charge"] != q:
            raise ValidationError(
                f"initial species {idx} charge {sp['charge']!r} differs from the flow's {q}"
            )
        species.append(Species(q, tuple(sp["positions"])))
    return ChargeConfiguration(tuple(species))


# -- artifact writers ---------------------------------------------------------


def _atomic_write(path: str, text: str):
    folder = os.path.dirname(path) or "."
    try:
        os.makedirs(folder, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {folder!r}: {exc}") from exc
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(doc: dict, name: str, content):
    """Write the artifact ``name`` of a run atomically into its output
    directory, under its prefix, and report its path; ``content`` is text,
    or a document written as indent-1 JSON."""
    out = doc["output"]
    path = os.path.join(out["dir"], out["prefix"] + name)
    _atomic_write(path, content if isinstance(content, str) else json.dumps(content, indent=1))
    print(f"wrote {path}")


def trajectory_csv(traj: Trajectory, mon: dict) -> str:
    """Times, (re, im) column pairs per particle, then the columns of ``mon``."""
    header = ["t"]
    for s_idx, size in enumerate(traj.flow.sizes):
        for p_idx in range(size):
            header.append(f"s{s_idx}_p{p_idx}_re")
            header.append(f"s{s_idx}_p{p_idx}_im")
    Z = traj.positions
    columns = [traj.times, np.stack([Z.real, Z.imag], axis=2).reshape(len(Z), -1)]
    if "bilinear_residual" in mon:
        header.append("residual")
        columns.append(mon["bilinear_residual"])
    header.append("min_sep")
    columns.append(mon["min_separation"])
    if "conserved" in mon:
        header.extend(f"I{k+1}" for k in range(mon["conserved"].shape[1]))
        columns.append(mon["conserved"])
    lines = [",".join(header)]
    for row in np.column_stack(columns).tolist():
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def conserved_report(times: np.ndarray, traces, period_info=None) -> dict:
    """Per-sample Lax traces ``traces`` (S, K), or None where the flow has
    no Lax pair, with their drift relative to the first sample."""
    doc = {"integrals": [], "drift": []}
    if traces is not None:
        base = np.maximum(np.abs(traces[0]), 1e-300)
        doc["integrals"] = np.column_stack([times, traces]).tolist()
        doc["drift"] = (np.max(np.abs(traces - traces[0]), axis=0) / base).tolist()
    if period_info is not None:
        doc["period"] = {"k": period_info[0], "mismatch": period_info[1]}
    return doc


_SVG_SIZE = 640


def plot_svg(traj: Trajectory) -> str:
    """One polyline per particle in its own (Re, Im) plane, on a square
    canvas of ``_SVG_SIZE`` pixels; the second species is drawn as a gray
    solid curve, further species dashed."""
    Z = traj.positions
    all_re = Z.real.ravel()
    all_im = Z.imag.ravel()
    lo_x, hi_x = float(all_re.min()), float(all_re.max())
    lo_y, hi_y = float(all_im.min()), float(all_im.max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.08 * span
    lo_x, lo_y = lo_x - pad, lo_y - pad
    span += 2 * pad

    def sx(v):
        return (v - lo_x) / span * (_SVG_SIZE - 20) + 10

    def sy(v):
        return _SVG_SIZE - ((v - lo_y) / span * (_SVG_SIZE - 20) + 10)

    styles = [
        'stroke="black" fill="none" stroke-width="1.2"',
        'stroke="gray" fill="none" stroke-width="2.0"',
        'stroke="black" fill="none" stroke-width="1.0" stroke-dasharray="4 3"',
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">'
    ]
    col = 0
    for s_idx, size in enumerate(traj.flow.sizes):
        style = styles[min(s_idx, len(styles) - 1)]
        for _ in range(size):
            zs = Z[:, col]
            col += 1
            if len(zs) == 1 or np.max(np.abs(zs - zs[0])) < 1e-12:
                dot_style = style.replace('fill="none"', 'fill="black"')
                parts.append(
                    f'<circle cx="{sx(zs[0].real):.3f}" cy="{sy(zs[0].imag):.3f}" '
                    f'r="3" {dot_style}/>'
                )
                continue
            pts = " ".join(
                f"{sx(z.real):.3f},{sy(z.imag):.3f}" for z in zs
            )
            parts.append(f'<polyline points="{pts}" {style}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- mode runners -------------------------------------------------------------


class _Plan(NamedTuple):
    """A run's flow, start, ``integrate_lanes`` settings (output ``times``
    and tolerances), sample ``grid`` and base period (None without one)."""

    flow: FlowSpec
    init: ChargeConfiguration
    settings: dict
    grid: np.ndarray
    base: Optional[float]


def _lane_plan(doc: dict) -> _Plan:
    """The plan of a simulate, conserved or period config.  Its samples
    are on ``integrate``'s uniform grid.  A period run reads only the
    states at 0 and at each multiple j T of the base period, so its output
    times are 0, each j T below t_end and t_end (a collision after the
    last j T still ends the run); a conserved run adds those j T to its
    grid.  The base period (the configured one, else 2 pi / omega) is
    resolved first, so a period config without one fails before anything
    is integrated, and its period count is capped as the sample count is."""
    flow = _build_flow(doc["system"])
    mode = doc["mode"]
    trap = 2 * math.pi / flow.omega if flow.omega else None
    base = doc["period"]["base_period"] or trap
    if base is None and mode == "period":
        raise ValidationError("period mode needs omega or base_period")
    init = _build_initial(flow, doc["initial"])
    block = doc["integration"]
    t_end, n_samples = block["t_end"], block["samples"]
    if t_end is None:
        if block["periods"] is None or not trap:
            raise ValidationError("integration block needs t_end or periods")
        t_end = block["periods"] * trap
    if trap:
        count = t_end / trap * block["samples_per_period"]
        if not count <= MAX_SAMPLES - 1:
            raise ValidationError(
                f"integration over t_end {t_end} has no finite sample count "
                f"up to the cap of {MAX_SAMPLES} samples per run"
            )
        n_samples = max(2, int(round(count)) + 1)
    if t_end < 0:
        raise ValidationError("t_end must be >= 0")
    grid = uniform_grid(t_end, n_samples)
    times = uniform_grid(t_end, 2) if mode == "period" else grid
    if base is not None and mode != "simulate":
        periods = t_end / base
        if not periods <= MAX_SAMPLES - 1:
            raise ValidationError(
                f"integration over {periods:g} base periods exceeds the cap of "
                f"{MAX_SAMPLES} samples per run"
            )
        times = np.union1d(times, [t for t in period_multiples(base, t_end) if t < t_end])
    settings = {"times": times, "rtol": block["rtol"], "atol": block["atol"]}
    return _Plan(flow, init, settings, grid, base)


def _write_simulate(doc: dict, plan: _Plan, traj: Trajectory) -> int:
    mon = monitors(traj)
    formats = doc["output"]["formats"]
    if "csv" in formats:
        _write(doc, "trajectory.csv", trajectory_csv(traj, mon))
    if "json" in formats and "conserved" in mon:
        _write(doc, "conserved.json", conserved_report(traj.times, mon["conserved"]))
    if doc["output"]["svg"]:
        _write(doc, "trajectory.svg", plot_svg(traj))
    if "bilinear_residual" in mon:
        print(f"monitor residual: max {max(mon['bilinear_residual']):.3e}")
    print(f"monitor min_separation: {min(mon['min_separation']):.6g}")
    return EXIT_OK


def _write_conserved(doc: dict, plan: _Plan, traj: Trajectory) -> int:
    """Write the Lax traces at the grid times and, with a base period, the
    return period; a run that does not return writes no period."""
    flow = traj.flow
    traces = None
    if has_lax_pair(flow):
        on_grid = traj.positions[np.isin(traj.times, plan.grid)]
        traces = over_samples(lambda Z: integrals(Z, flow), on_grid)
    period_info = None
    if plan.base is not None:
        try:
            period_info = detect_period(traj, plan.base, doc["period"]["tol"])
        except NoReturnFound:
            pass
    report = conserved_report(plan.grid, traces, period_info)
    _write(doc, "conserved.json", report)
    if report["drift"]:
        print(f"monitor trace drift: max {max(report['drift']):.3e}")
    if period_info:
        print(f"monitor period: k={period_info[0]} mismatch={period_info[1]:.3e}")
    return EXIT_OK


def _write_period(doc: dict, plan: _Plan, traj: Trajectory) -> int:
    """Detect the return period of ``traj`` and write ``period.json``."""
    k, mismatch = detect_period(traj, plan.base, doc["period"]["tol"])
    _write(doc, "period.json", {"k": k, "mismatch": mismatch})
    print(f"monitor period: k={k} mismatch={mismatch:.3e}")
    return EXIT_OK


def _run_equilibrium(doc: dict) -> int:
    params = dict(doc["equilibrium"])
    cert = equilibria.check_built(_RECIPES[params.pop("recipe")][0](**params))
    _write(doc, "certificate.json", cert.to_json())
    print(
        f"certificate: recipe={cert.recipe} degrees={cert.degrees} "
        f"exact_zero={cert.residual_exact_zero} charges={len(cert.inventory)}"
    )
    return EXIT_OK


def _run_identities(doc: dict) -> int:
    blk = doc["identities"]
    phi_name, trials, nmax, mmax = blk["phi"], blk["trials"], blk["n"], blk["m"]
    rng = np.random.default_rng(doc["seed"])
    if phi_name == "inverse":
        phi = lambda x: 1.0 / x
        i1_offset = lambda n: 0.0
        i2_offset = lambda n, m: 0.0
    else:
        phi = lambda x: 1.0 / np.tanh(x)
        # the pair product identity holds with constant -1, which shifts
        # the sums by per-triple counts
        i1_offset = lambda n: 2.0 * (n * (n - 1) * (n - 2) // 6)
        i2_offset = lambda n, m: float(n * m * (m - n))
    worst_i1 = worst_i2 = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, nmax + 1))
        m = int(rng.integers(1, mmax + 1))
        xs = rng.normal(size=n) * 1.5
        ys = rng.normal(size=m) * 1.5 + 4.0
        i1, pair = phi_identity_i1(xs, phi)
        i2 = phi_identity_i2(xs, ys, phi)
        worst_i1 = max(worst_i1, abs(i1 - pair - i1_offset(n)))
        worst_i2 = max(worst_i2, abs(i2 - i2_offset(n, m)))
    _write(doc, "identities.json", {
        "phi": phi_name,
        "trials": trials,
        "max_I1_deviation": worst_i1,
        "max_I2_deviation": worst_i2,
    })
    print(f"monitor identities: |I1 dev| {worst_i1:.3e}  |I2 dev| {worst_i2:.3e}")
    return EXIT_OK


_WRITERS = {"simulate": _write_simulate, "conserved": _write_conserved, "period": _write_period}
_RUNNERS = {
    "equilibrium": _run_equilibrium,
    "verify-identities": _run_identities,
}


# package error -> stderr label and exit code; the first matching row wins
_EXITS = (
    (ValidationError, "validation error", EXIT_VALIDATION),
    (Collision, "collision abort", EXIT_COLLISION),
    (NonConvergence, "non-convergence", EXIT_NONCONVERGENCE),
    (CertificationFailure, "certification failure", EXIT_CERTIFICATION),
    (ChargeflowError, "error", EXIT_VALIDATION),
)


def _exit_code(exc: ChargeflowError) -> int:
    """Report a package error on stderr and return its exit code."""
    label, code = next((label, code) for kind, label, code in _EXITS if isinstance(exc, kind))
    print(f"{label}: {exc}", file=_sys.stderr)
    return code


def run(doc: dict) -> int:
    """Validate and execute one experiment config; returns the exit code."""
    try:
        doc = validate_config(doc)
        if doc["mode"] in _WRITERS:
            return _lanes([(doc, _lane_plan(doc))])[0]
        return _RUNNERS[doc["mode"]](doc)
    except ChargeflowError as exc:
        return _exit_code(exc)


def _seed_doc(doc: dict, seed: int) -> dict:
    """The config of one seed of a sweep; values that are not what the
    schema wants are left for validation to reject."""
    doc = json.loads(json.dumps(doc))
    init = doc.get("initial")
    if isinstance(init, dict) and isinstance(init.get("random"), dict):
        init["random"]["seed"] = seed
    out = doc.setdefault("output", {})
    if isinstance(out, dict) and isinstance(out.get("prefix", ""), (str, type(None))):
        out["prefix"] = f"{out.get('prefix') or ''}seed{seed}_"
    return doc


def _sweep(doc: dict, seeds: list) -> list:
    """Exit codes of a period sweep, in seed order.

    Each seed's config is validated and its start drawn as a run of its
    own would; the valid starts are then run by ``_lanes``, as a run
    alone runs its one start.  A lane is bit-identical to its start
    integrated alone, so every seed writes what ``run`` would write for
    it."""
    codes = [None] * len(seeds)
    plans = {}
    for i, seed in enumerate(seeds):
        try:
            seed_doc = validate_config(_seed_doc(doc, seed))
            plans[i] = (seed_doc, _lane_plan(seed_doc))
        except ChargeflowError as exc:
            codes[i] = _exit_code(exc)
    for i, code in zip(plans, _lanes(list(plans.values()))):
        codes[i] = code
    return codes


def _lanes(plans: list) -> list:
    """Exit codes of integrating runs, (config, ``_lane_plan``) pairs of
    one mode that differ only in their start and output prefix, so that
    every lane shares the first one's flow and settings.  The starts are
    integrated as lanes of one stepper, in chunks of at most
    ``MAX_SAMPLES`` output states, and each lane's trajectory goes to its
    mode's writer."""
    if not plans:
        return []
    flow, settings = plans[0][1].flow, plans[0][1].settings
    chunk = max(1, MAX_SAMPLES // len(settings["times"]))
    codes = []
    for lo in range(0, len(plans), chunk):
        part = plans[lo : lo + chunk]
        starts = np.array([plan.init.all_positions() for _, plan in part], dtype=complex)
        for (doc, plan), out in zip(part, integrate_lanes(flow, starts, **settings)):
            try:
                if isinstance(out, ChargeflowError):
                    raise out
                codes.append(_WRITERS[doc["mode"]](doc, plan, out))
            except ChargeflowError as exc:
                codes.append(_exit_code(exc))
    return codes


def _comma_list(text: str) -> list:
    return text.split(",")


# Flags write their text into the config, where the schema table converts
# it: flag, the modes that read its key, block (None: top level), key,
# argparse keywords.
_FLAGS = (
    ("--out", _MODES, "output", "dir", {"help": "output directory override"}),
    ("--format", ("simulate",), "output", "formats", {"action": "append"}),
    ("--svg", ("simulate",), "output", "svg", {"action": "store_const", "const": True}),
    ("--seed", ("verify-identities",), None, "seed", {}),
    ("--recipe", ("equilibrium",), "equilibrium", "recipe", {}),
    ("--indices", ("equilibrium",), "equilibrium", "indices",
     {"type": _comma_list, "help": "comma-separated index set"}),
    ("--b", ("equilibrium",), "equilibrium", "b", {"help": "field slope (rational)"}),
    ("--ts", ("equilibrium",), "equilibrium", "ts",
     {"type": _comma_list, "help": "comma-separated chain parameters"}),
    ("--k", ("equilibrium",), "equilibrium", "k", {}),
    ("--phi", ("verify-identities",), "identities", "phi", {}),
    ("--trials", ("verify-identities",), "identities", "trials", {}),
)


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is a validation error (exit 3); exit 2 is
    reserved for collision aborts."""

    def error(self, message):
        raise ValidationError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="chargeflow",
        description="Root-dynamics experiments: simulate flows, certify "
        "Wronskian equilibria, verify conserved quantities.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        sp = sub.add_parser(mode, allow_abbrev=False)  # --seed is not --seeds
        sp.add_argument("--config", help="JSON experiment config")
        # accepted for compatibility; a sweep runs its seeds as lanes of
        # one integrator in this process, so it starts no worker
        sp.add_argument("--jobs", type=int, default=1)
        if mode == "period":
            sp.add_argument("--seeds", type=lambda text: [_SEED[0](v) for v in _comma_list(text)],
                            help="comma-separated seed sweep")
        for flag, modes, _, _, keywords in _FLAGS:
            if mode in modes:
                sp.add_argument(flag, **keywords)
    try:
        args = parser.parse_args(argv)
        doc = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ValidationError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        doc["mode"] = args.mode
        for flag, _, block, key, _ in _FLAGS:
            value = getattr(args, flag[2:], None)
            if value is None:
                continue
            target = doc if block is None else doc.setdefault(block, {})
            if not isinstance(target, dict):
                raise ValidationError(f"{block} block must be an object")
            target[key] = value
    except ValidationError as exc:
        print(f"validation error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION

    seeds = getattr(args, "seeds", None)
    if seeds:
        codes = _sweep(doc, seeds)
        for seed, code in zip(seeds, codes):
            print(f"seed {seed}: exit {code}")
        return max(codes)

    return run(doc)


if __name__ == "__main__":
    raise SystemExit(main())
