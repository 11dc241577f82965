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
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import equilibria
from .conserved import detect_period, has_lax_pair, integrals
from .dynamics import (
    FlowKind,
    FlowSpec,
    Trajectory,
    integrate,
    monitors,
    over_samples,
    phi_identity_i1,
    phi_identity_i2,
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
from .scalars import to_complex
from .polynomials import _distance, pair_matrix

__all__ = ["main", "run", "plot_svg", "validate_config"]

EXIT_OK = 0
EXIT_COLLISION = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_CERTIFICATION = 5


# -- config schema ------------------------------------------------------------

_TOP_KEYS = {
    "mode",
    "system",
    "initial",
    "integration",
    "equilibrium",
    "identities",
    "period",
    "output",
    "seed",
}
_MODES = {"simulate", "equilibrium", "conserved", "period", "verify-identities"}
_SYSTEM_KEYS = {"kind", "P", "U", "Lambda", "charges", "omega", "lambda", "n", "m", "sizes"}
_INITIAL_KEYS = {"species", "random"}
_INTEGRATION_KEYS = {"t_end", "periods", "rtol", "atol", "samples_per_period", "samples"}
_EQ_KEYS = {"recipe", "indices", "b", "ts", "k"}
_ID_KEYS = {"phi", "trials", "n", "m"}
_PERIOD_KEYS = {"base_period", "tol"}
_OUTPUT_KEYS = {"dir", "formats", "svg", "prefix"}

_DEFAULTS = {
    "rtol": 1e-10,
    "atol": 1e-12,
    "samples_per_period": 128,
    "period_tol": 1e-5,
}


def _reject_unknown(doc, allowed, where):
    unknown = set(doc) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def validate_config(doc: dict) -> dict:
    """Schema-check a run config; returns it with defaults filled in."""
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    mode = doc.get("mode")
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {sorted(_MODES)}")
    for key, allowed in (
        ("system", _SYSTEM_KEYS),
        ("initial", _INITIAL_KEYS),
        ("integration", _INTEGRATION_KEYS),
        ("equilibrium", _EQ_KEYS),
        ("identities", _ID_KEYS),
        ("period", _PERIOD_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        if key in doc:
            if not isinstance(doc[key], dict):
                raise ValidationError(f"{key} block must be an object")
            _reject_unknown(doc[key], allowed, key)
    if mode in ("simulate", "conserved", "period"):
        if "system" not in doc:
            raise ValidationError(f"{mode} needs a system block")
        if "initial" not in doc:
            raise ValidationError(f"{mode} needs initial conditions")
    if mode == "equilibrium" and "equilibrium" not in doc:
        raise ValidationError("equilibrium mode needs an equilibrium block")
    return doc


_REQUIRED = object()


def _field(block: dict, key: str, convert, default=_REQUIRED, where="system"):
    """``convert(block[key])``, or ``default`` when the key is missing or
    null; a missing required key or a value that does not convert is a
    validation error that names ``where`` the block sits."""
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object: {block!r}")
    if block.get(key) is None:
        if default is _REQUIRED:
            raise ValidationError(f"{where} block needs {key!r}")
        return default
    try:
        return convert(block[key])
    except (TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"{where} {key!r} is malformed: {block[key]!r}") from exc


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return value


def _at_least(low: int):
    """Converter to an integer no smaller than ``low``."""

    def convert(value) -> int:
        out = int(value)
        if out < low:
            raise ValueError(f"{out} < {low}")
        return out

    return convert


_size = _at_least(0)


def _list_of(convert):
    """Converter of a JSON list, entry by entry."""
    return lambda values: [convert(v) for v in _list(values)]


def _rational(value) -> Fraction:
    return Fraction(str(value))


def _coeff(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _coeffs(values) -> list:
    return [_coeff(c) for c in values]


def _points(values) -> list:
    """[[re, im], ...] position pairs as complex numbers."""
    return [complex(re, im) for re, im in _list(values)]


def _build_flow(system: dict) -> FlowSpec:
    kind = system.get("kind", "rational_omega")
    if kind == "rational_omega":
        return FlowSpec.rational_omega(
            _field(system, "omega", float, 1.0),
            _field(system, "Lambda", float, 1.0),
            _field(system, "n", _size),
            _field(system, "m", _size),
        )
    if kind == "angular":
        return FlowSpec.angular(_field(system, "n", _size), _field(system, "m", _size))
    if kind not in ("linear", "bilinear", "polylinear"):
        raise ValidationError(f"unknown system kind {kind!r}")
    P = _field(system, "P", _coeffs)
    U = _field(system, "U", _coeffs)
    lam = _field(system, "lambda", _coeff, None)
    if kind == "linear":
        sys_c = SystemCoefficients.linear(P, U)
        return FlowSpec.linear(sys_c, _field(system, "n", _size))
    if kind == "bilinear":
        Lambda = _field(system, "Lambda", float, 1.0)
        sys_c = SystemCoefficients.bilinear(P, U, Lambda=Lambda, lam=lam)
        return FlowSpec.bilinear(sys_c, _field(system, "n", _size), _field(system, "m", _size))
    charges = _field(system, "charges", _list_of(float))
    sizes = _field(system, "sizes", _list_of(_size))
    sys_c = SystemCoefficients.polylinear(P, U, charges, lam=lam)
    return FlowSpec.polylinear(sys_c, sizes)


def system_to_config(flow: FlowSpec) -> dict:
    """Serialize a flow back into the config schema's system block."""
    if flow.kind is FlowKind.ANGULAR:
        n, m = flow.sizes
        return {"kind": "angular", "n": n, "m": m}
    sys = flow.sys
    if sys.omega is not None:
        n, m = flow.sizes
        return {
            "kind": "rational_omega",
            "omega": sys.omega,
            "Lambda": -flow.charges[1],
            "n": n,
            "m": m,
        }
    doc = {
        "kind": sys.mode,
        "P": [[c.real, c.imag] for c in flow.P.coeffs],
        "U": [[c.real, c.imag] for c in flow.U.coeffs],
    }
    if sys.lam is not None:
        lam = to_complex(sys.lam)
        doc["lambda"] = [lam.real, lam.imag]
    if sys.mode == "linear":
        doc["n"] = flow.sizes[0]
    elif sys.mode == "bilinear" and flow.charges[0] == 1.0:  # charges {+1, -Lambda}
        doc["Lambda"] = -flow.charges[1]
        doc["n"], doc["m"] = flow.sizes
    else:
        doc["kind"] = "polylinear"
        doc["charges"] = list(flow.charges)
        doc["sizes"] = list(flow.sizes)
    return doc


def _random_initial(flow: FlowSpec, options: dict) -> ChargeConfiguration:
    where = "initial random"
    seed = _field(options, "seed", _size, 0, where)
    scale = _field(options, "scale", float, 1.0, where)
    min_sep = _field(options, "min_separation", float, 0.25, where) * scale
    rng = np.random.default_rng(seed)
    total = sum(flow.sizes)
    for _ in range(1000):
        pts = rng.normal(size=total) * scale + 1j * rng.normal(size=total) * scale
        if np.all(pair_matrix(pts, _distance, diagonal=np.inf) > min_sep):
            break
    else:
        raise ValidationError("could not draw separated initial conditions")
    parts = np.split(pts, np.cumsum(flow.sizes)[:-1])
    species = (Species(q, tuple(p)) for q, p in zip(flow.charges, parts))
    return ChargeConfiguration(tuple(species))


def _build_initial(flow: FlowSpec, initial: dict) -> ChargeConfiguration:
    if "random" in initial:
        return _random_initial(flow, initial["random"])
    species_doc = _field(initial, "species", _list, where="initial")
    if len(species_doc) != len(flow.sizes):
        raise ValidationError(
            f"initial conditions have {len(species_doc)} species, "
            f"flow expects {len(flow.sizes)}"
        )
    species = []
    for idx, (sp_doc, q, size) in enumerate(zip(species_doc, flow.charges, flow.sizes)):
        where = f"initial species {idx}"
        pts = _field(sp_doc, "positions", _points, where=where)
        if len(pts) != size:
            raise ValidationError(
                f"species size {len(pts)} does not match flow size {size}"
            )
        if _field(sp_doc, "charge", float, q, where) != q:
            raise ValidationError(
                f"{where} charge {sp_doc['charge']!r} differs from the flow's {q}"
            )
        species.append(Species(q, tuple(pts)))
    return ChargeConfiguration(tuple(species))


# -- artifact writers ---------------------------------------------------------


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def plot_svg(traj: Trajectory, width: int = 640, height: int = 640) -> str:
    """One polyline per particle in its own (Re, Im) plane; the second
    species is drawn as a gray solid curve, further species dashed."""
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
        return (v - lo_x) / span * (width - 20) + 10

    def sy(v):
        return height - ((v - lo_y) / span * (height - 20) + 10)

    styles = [
        'stroke="black" fill="none" stroke-width="1.2"',
        'stroke="gray" fill="none" stroke-width="2.0"',
        'stroke="black" fill="none" stroke-width="1.0" stroke-dasharray="4 3"',
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
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


def _integration_params(doc: dict, flow: FlowSpec):
    block, where = doc.get("integration", {}), "integration"
    rtol = _field(block, "rtol", float, _DEFAULTS["rtol"], where)
    atol = _field(block, "atol", float, _DEFAULTS["atol"], where)
    spp = _field(block, "samples_per_period", int, _DEFAULTS["samples_per_period"], where)
    t_end = _field(block, "t_end", float, None, where)
    periods = _field(block, "periods", float, None, where)
    omega = flow.sys.omega if flow.sys is not None else None
    if t_end is None:
        if periods is None or not omega:
            raise ValidationError("integration block needs t_end or periods")
        t_end = periods * 2 * math.pi / omega
    if omega:
        base = 2 * math.pi / omega
        n_samples = max(2, int(round(t_end / base * spp)) + 1)
    else:
        n_samples = _field(block, "samples", int, 257, where)
    return t_end, rtol, atol, n_samples


def _period_tol(doc: dict) -> float:
    return _field(doc.get("period", {}), "tol", float, _DEFAULTS["period_tol"], "period")


def _out_path(doc, name):
    out = doc.get("output", {})
    prefix = out.get("prefix", "")
    return os.path.join(out.get("dir", "."), prefix + name)


def _integrate_doc(doc: dict) -> Trajectory:
    """The flow, initial state and integration settings of a config, run."""
    flow = _build_flow(doc["system"])
    init = _build_initial(flow, doc["initial"])
    t_end, rtol, atol, n_samples = _integration_params(doc, flow)
    return integrate(flow, init, t_end, rtol=rtol, atol=atol, n_samples=n_samples)


def _run_simulate(doc: dict) -> int:
    traj = _integrate_doc(doc)
    mon = monitors(traj)
    formats = doc.get("output", {}).get("formats", ["csv", "json"])
    if "csv" in formats:
        path = _out_path(doc, "trajectory.csv")
        _atomic_write(path, trajectory_csv(traj, mon))
        print(f"wrote {path}")
    if "json" in formats and "conserved" in mon:
        path = _out_path(doc, "conserved.json")
        report = conserved_report(traj.times, mon["conserved"])
        _atomic_write(path, json.dumps(report, indent=1))
        print(f"wrote {path}")
    if doc.get("output", {}).get("svg"):
        path = _out_path(doc, "trajectory.svg")
        _atomic_write(path, plot_svg(traj))
        print(f"wrote {path}")
    if "bilinear_residual" in mon:
        print(f"monitor residual: max {max(mon['bilinear_residual']):.3e}")
    print(f"monitor min_separation: {min(mon['min_separation']):.6g}")
    return EXIT_OK


def _run_conserved(doc: dict) -> int:
    traj = _integrate_doc(doc)
    flow = traj.flow
    traces = None
    if has_lax_pair(flow):
        traces = over_samples(lambda Z: integrals(Z, flow), traj.positions)
    period_info = None
    if flow.sys is not None and flow.sys.omega:
        base = 2 * math.pi / flow.sys.omega
        tol = _period_tol(doc)
        try:
            period_info = detect_period(traj, base, tol)
        except NoReturnFound:
            period_info = None
    report = conserved_report(traj.times, traces, period_info)
    path = _out_path(doc, "conserved.json")
    _atomic_write(path, json.dumps(report, indent=1))
    print(f"wrote {path}")
    if report["drift"]:
        print(f"monitor trace drift: max {max(report['drift']):.3e}")
    if period_info:
        print(f"monitor period: k={period_info[0]} mismatch={period_info[1]:.3e}")
    return EXIT_OK


def _run_period(doc: dict) -> int:
    traj = _integrate_doc(doc)
    flow = traj.flow
    base = _field(doc.get("period", {}), "base_period", float, None, "period")
    if base is None:
        if flow.sys is None or not flow.sys.omega:
            raise ValidationError("period mode needs omega or base_period")
        base = 2 * math.pi / flow.sys.omega
    k, mismatch = detect_period(traj, base, _period_tol(doc))
    path = _out_path(doc, "period.json")
    _atomic_write(path, json.dumps({"k": k, "mismatch": mismatch}, indent=1))
    print(f"wrote {path}")
    print(f"monitor period: k={k} mismatch={mismatch:.3e}")
    return EXIT_OK


def _eq_field(blk: dict, key: str, convert, default=_REQUIRED):
    return _field(blk, key, convert, default, "equilibrium")


def _indices(blk: dict) -> list:
    return _eq_field(blk, "indices", _list_of(int))


_RECIPES = {
    "hermite": lambda blk: equilibria.hermite_pair(
        _indices(blk), _eq_field(blk, "b", _rational, Fraction(-2))
    ),
    "laguerre": lambda blk: equilibria.laguerre_pair(
        _indices(blk), _eq_field(blk, "b", _rational, Fraction(1))
    ),
    "monomial": lambda blk: equilibria.monomial_pair(
        _indices(blk), _eq_field(blk, "b", _rational, Fraction(1))
    ),
    "adler_moser": lambda blk: equilibria.adler_moser(
        _eq_field(blk, "k", int), _eq_field(blk, "ts", _list_of(_rational), [])
    ),
    "cylinder": lambda blk: equilibria.cylinder_pair(
        _indices(blk), _eq_field(blk, "ts", _list_of(float), [])
    ),
}


def _run_equilibrium(doc: dict) -> int:
    blk = doc["equilibrium"]
    recipe = blk.get("recipe")
    if recipe not in _RECIPES:
        raise ValidationError(f"recipe must be one of {sorted(_RECIPES)}")
    cert = _RECIPES[recipe](blk)
    cert = equilibria.certify(cert)
    path = _out_path(doc, "certificate.json")
    _atomic_write(path, json.dumps(cert.to_json(), indent=1))
    print(f"wrote {path}")
    print(
        f"certificate: recipe={cert.recipe} degrees={cert.degrees} "
        f"exact_zero={cert.residual_exact_zero} charges={len(cert.inventory)}"
    )
    return EXIT_OK


def _run_identities(doc: dict) -> int:
    blk, where = doc.get("identities", {}), "identities"
    phi_name = blk.get("phi", "inverse")
    trials = _field(blk, "trials", _size, 100, where)
    nmax = _field(blk, "n", _at_least(2), 6, where)
    mmax = _field(blk, "m", _at_least(1), 6, where)
    seed = _field(doc, "seed", _size, 0, "config")
    rng = np.random.default_rng(seed)
    if phi_name == "inverse":
        phi = lambda x: 1.0 / x
        i1_offset = lambda n: 0.0
        i2_offset = lambda n, m: 0.0
    elif phi_name == "coth":
        phi = lambda x: 1.0 / math.tanh(x)
        # the pair product identity holds with constant -1, which shifts
        # the sums by per-triple counts
        i1_offset = lambda n: 2.0 * (n * (n - 1) * (n - 2) // 6)
        i2_offset = lambda n, m: float(n * m * (m - n))
    else:
        raise ValidationError("phi must be 'inverse' or 'coth'")
    worst_i1 = worst_i2 = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, nmax + 1))
        m = int(rng.integers(1, mmax + 1))
        xs = list(rng.normal(size=n) * 1.5)
        ys = list(rng.normal(size=m) * 1.5 + 4.0)
        i1, pair = phi_identity_i1(xs, phi)
        i2 = phi_identity_i2(xs, ys, phi)
        worst_i1 = max(worst_i1, abs(i1 - pair - i1_offset(n)))
        worst_i2 = max(worst_i2, abs(i2 - i2_offset(n, m)))
    doc_out = {
        "phi": phi_name,
        "trials": trials,
        "max_I1_deviation": worst_i1,
        "max_I2_deviation": worst_i2,
    }
    path = _out_path(doc, "identities.json")
    _atomic_write(path, json.dumps(doc_out, indent=1))
    print(f"wrote {path}")
    print(f"monitor identities: |I1 dev| {worst_i1:.3e}  |I2 dev| {worst_i2:.3e}")
    return EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "conserved": _run_conserved,
    "period": _run_period,
    "equilibrium": _run_equilibrium,
    "verify-identities": _run_identities,
}


def run(doc: dict) -> int:
    """Validate and execute one experiment config; returns the exit code."""
    try:
        doc = validate_config(doc)
        return _RUNNERS[doc["mode"]](doc)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except Collision as exc:
        print(f"collision abort: {exc}", file=_sys.stderr)
        return EXIT_COLLISION
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=_sys.stderr)
        return EXIT_NONCONVERGENCE
    except (CertificationFailure, ChargeflowError) as exc:
        if isinstance(exc, CertificationFailure):
            print(f"certification failure: {exc}", file=_sys.stderr)
            return EXIT_CERTIFICATION
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


def _pool_size(jobs: int, n_seeds: int) -> int:
    """Worker processes for a seed sweep: at most one per seed and per CPU.

    Under the fork start method the pool starts all of its workers at the
    first submit, so an unclamped ``--jobs`` is a process count."""
    return max(1, min(jobs, n_seeds, os.cpu_count() or 1))


def _run_worker(args):
    """Run one seed of a sweep; blocks that are not objects are left for
    ``run`` to reject."""
    doc, seed = args
    doc = json.loads(json.dumps(doc))
    doc["seed"] = seed
    init = doc.get("initial")
    if isinstance(init, dict) and isinstance(init.get("random"), dict):
        init["random"]["seed"] = seed
    out = doc.setdefault("output", {})
    if isinstance(out, dict):
        out["prefix"] = f"{out.get('prefix', '')}seed{seed}_"
    return seed, run(doc)


def _block(doc: dict, key: str) -> dict:
    """``doc[key]``, created empty when missing; flags write into it."""
    blk = doc.setdefault(key, {})
    if not isinstance(blk, dict):
        raise ValidationError(f"{key} block must be an object")
    return blk


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chargeflow",
        description="Root-dynamics experiments: simulate flows, certify "
        "Wronskian equilibria, verify conserved quantities.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--out", help="output directory override")
        sp.add_argument("--format", choices=["csv", "json"], action="append")
        sp.add_argument("--svg", action="store_true")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--jobs", type=int, default=1)
        if mode == "equilibrium":
            sp.add_argument("--recipe", choices=sorted(_RECIPES))
            sp.add_argument("--indices", help="comma-separated index set")
            sp.add_argument("--b", help="field slope (rational)")
            sp.add_argument("--ts", help="comma-separated chain parameters")
            sp.add_argument("--k", type=int)
        if mode == "verify-identities":
            sp.add_argument("--phi", choices=["inverse", "coth"])
            sp.add_argument("--trials", type=int)
        if mode == "period":
            sp.add_argument("--seeds", help="comma-separated seed sweep")
    args = parser.parse_args(argv)

    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"validation error: cannot read config: {exc}", file=_sys.stderr)
            return EXIT_VALIDATION
    try:
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        doc["mode"] = args.mode
        if args.out:
            _block(doc, "output")["dir"] = args.out
        if args.format:
            _block(doc, "output")["formats"] = args.format
        if args.svg:
            _block(doc, "output")["svg"] = True
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.mode == "equilibrium":
            blk = _block(doc, "equilibrium")
            if args.recipe:
                blk["recipe"] = args.recipe
            if args.indices:
                blk["indices"] = [int(v) for v in args.indices.split(",")]
            if args.b is not None:
                blk["b"] = args.b
            if args.ts:
                blk["ts"] = [float(v) for v in args.ts.split(",")]
            if args.k is not None:
                blk["k"] = args.k
        seeds = None
        if args.mode == "period" and args.seeds:
            seeds = [int(v) for v in args.seeds.split(",")]
        if args.mode == "verify-identities":
            blk = _block(doc, "identities")
            if args.phi:
                blk["phi"] = args.phi
            if args.trials is not None:
                blk["trials"] = args.trials
    except ValidationError as exc:
        print(f"validation error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # only the comma-list conversions can raise it
        print(f"validation error: malformed comma-separated flag: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION

    if seeds:
        jobs = _pool_size(args.jobs, len(seeds))
        results = []
        if jobs == 1:
            results = [_run_worker((doc, s)) for s in seeds]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_run_worker, [(doc, s) for s in seeds]))
        worst = max(code for _, code in results)
        for seed, code in results:
            print(f"seed {seed}: exit {code}")
        return worst

    return run(doc)


if __name__ == "__main__":
    raise SystemExit(main())
