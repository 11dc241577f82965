import concurrent.futures
import json
import math
import multiprocessing.process
import os
import pathlib
import subprocess

import numpy as np
import pytest

from chargeflow import _schema, cli, conserved
from chargeflow.dynamics import FlowSpec, Trajectory
from chargeflow.equilibria import EquilibriumCertificate, certify
from chargeflow.errors import NoReturnFound, ValidationError
from chargeflow.operators import SystemCoefficients
from chargeflow.polynomials import _distance, pair_matrix


def build_flow(system):
    """``cli._build_flow`` of a system block checked against the schema."""
    return cli._build_flow(_schema.walk(system, cli._SYSTEM, "system"))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        cli.validate_config({"mode": "simulate", "bogus": 1})
    with pytest.raises(ValidationError):
        cli.validate_config(
            {
                "mode": "simulate",
                "system": {"kind": "rational_omega", "n": 1, "m": 0, "extra": 2},
                "initial": {"random": {}},
            }
        )


def test_validate_requires_blocks():
    with pytest.raises(ValidationError):
        cli.validate_config({"mode": "simulate"})
    with pytest.raises(ValidationError):
        cli.validate_config({"mode": "equilibrium"})
    with pytest.raises(ValidationError):
        cli.validate_config({"mode": "orbit"})


def test_species_size_mismatch_is_validation_exit(tmp_path):
    doc = {
        "mode": "simulate",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 0},
        "initial": {"species": [{"charge": 1.0, "positions": [[1.0, 0.0]]},
                                {"charge": -1.0, "positions": []}]},
        "integration": {"periods": 1},
        "output": {"dir": str(tmp_path)},
    }
    assert cli.run(doc) == cli.EXIT_VALIDATION


def test_simulate_writes_artifacts(tmp_path):
    doc = {
        "mode": "simulate",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 1, "m": 0},
        "initial": {"species": [
            {"charge": 1.0, "positions": [[1.0, 0.0]]},
            {"charge": -1.0, "positions": []},
        ]},
        "integration": {"periods": 1, "samples_per_period": 32},
        "output": {"dir": str(tmp_path), "svg": True},
    }
    assert cli.run(doc) == cli.EXIT_OK
    csv_text = (tmp_path / "trajectory.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header[:3] == ["t", "s0_p0_re", "s0_p0_im"]
    assert "I1" in header
    assert (tmp_path / "conserved.json").exists()
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_svg_species_styles_and_point_markers(tmp_path):
    from chargeflow.cli import plot_svg
    from chargeflow.dynamics import FlowSpec, integrate
    from chargeflow.operators import ChargeConfiguration, Species, SystemCoefficients
    from chargeflow.polynomials import find_roots, hermite

    # moving two-species run: second species rendered gray
    flow = FlowSpec.rational_omega(1.0, 1.213579, 2, 1)
    init = ChargeConfiguration(
        (Species(1.0, (1.2 + 0j, -0.9 + 0.4j)), Species(-1.213579, (0.1 - 1.1j,)))
    )
    traj = integrate(flow, init, 3.0, rtol=1e-9, atol=1e-11, n_samples=33)
    svg = plot_svg(traj)
    assert svg.count("<polyline") == 3
    assert 'stroke="gray"' in svg

    # equilibrium run degenerates to point markers
    sysb = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    floweq = FlowSpec.bilinear(sysb, 4, 0)
    roots = list(find_roots(hermite(4)))
    initeq = ChargeConfiguration((Species(1.0, tuple(roots)), Species(-1.0, ())))
    trajeq = integrate(floweq, initeq, 0.5, rtol=1e-12, atol=1e-14, n_samples=9)
    svgeq = plot_svg(trajeq)
    assert svgeq.count("<circle") == 4


def test_simulate_replay_byte_identical(tmp_path):
    doc = {
        "mode": "simulate",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 3, "m": 1},
        "initial": {"random": {"seed": 5, "scale": 1.3, "min_separation": 0.3}},
        "integration": {"periods": 1, "samples_per_period": 16},
        "output": {"dir": str(tmp_path / "a"), "svg": True},
    }
    assert cli.run(json.loads(json.dumps(doc))) == cli.EXIT_OK
    doc["output"]["dir"] = str(tmp_path / "b")
    assert cli.run(doc) == cli.EXIT_OK
    for name in ("trajectory.csv", "trajectory.svg", "conserved.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_collision_exit_code(tmp_path):
    doc = {
        "mode": "simulate",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 0},
        "initial": {"species": [
            {"charge": 1.0, "positions": [[0.1, 0.0], [0.1000000001, 0.0]]},
            {"charge": -1.0, "positions": []},
        ]},
        "integration": {"periods": 1},
        "output": {"dir": str(tmp_path)},
    }
    assert cli.run(doc) == cli.EXIT_COLLISION


def test_planar_equilibrium_run_builds_the_pair_once(tmp_path, monkeypatch):
    from chargeflow import equilibria, polynomials

    calls = []
    chain = polynomials.leading_wronskians

    def counting(functions):
        calls.append(len(functions))
        return chain(functions)

    # every route to a Wronskian (polynomials.wronskian too) goes through
    # the patched names, so a second Wronskian chain anywhere is counted
    monkeypatch.setattr(equilibria, "leading_wronskians", counting)
    monkeypatch.setattr(polynomials, "leading_wronskians", counting)
    doc = {
        "mode": "equilibrium",
        "equilibrium": {"recipe": "hermite", "indices": [1, 2, 4], "b": "-2"},
        "output": {"dir": str(tmp_path)},
    }
    assert cli.run(doc) == cli.EXIT_OK
    assert calls == [3]  # one chain W[], W[f1], W[f1, f2], W[f1, f2, f3] gives q and p


def test_equilibrium_cli_flags(tmp_path):
    rc = cli.main(
        [
            "equilibrium",
            "--recipe",
            "hermite",
            "--indices",
            "2,4,6",
            "--b",
            "-2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["residual_exact_zero"] is True
    assert doc["degrees"] == [9, 5]
    from chargeflow.equilibria import EquilibriumCertificate, certify

    cert = EquilibriumCertificate.from_json(doc)
    assert certify(cert).residual_exact_zero


def test_period_mode(tmp_path):
    doc = {
        "mode": "period",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 0},
        "initial": {"random": {"seed": 1, "scale": 1.0, "min_separation": 0.4}},
        "integration": {"periods": 3, "samples_per_period": 64},
        "period": {"tol": 1e-5},
        "output": {"dir": str(tmp_path)},
    }
    assert cli.run(doc) == cli.EXIT_OK
    out = json.loads((tmp_path / "period.json").read_text())
    assert out["k"] == 1
    assert out["mismatch"] < 1e-6


def _period_doc(tmp_path, **blocks):
    return {
        "mode": "period",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 3, "m": 1},
        "initial": {"random": {"seed": 5}},
        "output": {"dir": str(tmp_path)},
        **blocks,
    }


def test_period_off_the_sample_grid_is_read_at_its_time(tmp_path):
    # 17 samples over 1.01 trap periods miss t = 2 pi by 0.06; reading the
    # nearest sample gave "no return within 1 periods; best mismatch 6.381e-02"
    doc = _period_doc(tmp_path, integration={"t_end": 1.01 * 2 * math.pi, "samples_per_period": 16})
    assert cli.run(doc) == cli.EXIT_OK
    out = json.loads((tmp_path / "period.json").read_text())
    assert out["k"] == 1 and out["mismatch"] < 1e-8


def test_period_before_the_first_sample_is_not_read_as_the_start(tmp_path, capsys):
    # with samples at 0 and 0.05 only, the state at j T = 0.02 used to be
    # read from the t = 0 sample: k = 1 with mismatch 0
    doc = _period_doc(tmp_path, integration={"t_end": 0.05, "samples_per_period": 16},
                      period={"base_period": 0.02})
    assert cli.run(doc) == cli.EXIT_VALIDATION
    assert "no return within 2 periods" in capsys.readouterr().err
    assert not (tmp_path / "period.json").exists()


def _period_reads(monkeypatch, times, base):
    """The output times at which ``detect_period`` reads a state, on a
    one-particle trajectory whose position is its time and never returns."""
    traj = Trajectory(np.array(times), np.array(times, dtype=complex)[:, None],
                      FlowSpec.rational_omega(1.0, 1.0, 1, 0))
    reads = []
    monkeypatch.setattr(conserved, "multiset_distance", lambda a, b: reads.append(b[0].real) or math.inf)
    with pytest.raises(NoReturnFound):
        conserved.detect_period(traj, base, tol=0.0)
    return reads


@pytest.mark.parametrize(
    "base, t_end, count",
    [
        (2 * math.pi, 3 * (2 * math.pi), 3),  # a multiple
        (2 * math.pi, 2.5 * (2 * math.pi), 2),  # not a multiple
        (0.7, 4 * 0.7 + 5e-10, 4),  # within 1e-9 above a multiple
        (0.7, 4 * 0.7 - 5e-10, 4),  # within 1e-9 below a multiple
        (0.1, 1.0, 10),  # 10 * 0.1 == 1.0, though 0.1 is not exact
        (1 / 3, 7.3, 21),
    ],
    ids=["multiple", "between", "just_above", "just_below", "decimal", "thirds"],
)
def test_period_plan_asks_for_every_multiple_detect_period_reads(tmp_path, monkeypatch, base, t_end, count):
    # _lane_plan computes the multiples as detect_period does, so each
    # j T that detect_period reads is an output time, bit for bit; a j T
    # past t_end by less than 1e-9 periods, which detect_period still
    # counts, is read at t_end, where the run stops
    doc = cli.validate_config(_period_doc(tmp_path, integration={"t_end": t_end}, period={"base_period": base}))
    times = cli._lane_plan(doc)[2]["times"]
    assert _period_reads(monkeypatch, times, base) == [min(j * base, t_end) for j in range(1, count + 1)]


def test_period_count_is_capped_as_the_sample_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 9)
    doc = _period_doc(tmp_path, integration={"periods": 1, "samples_per_period": 4, "samples": 5},
                      period={"base_period": 2 * math.pi / 8})
    assert cli.run(doc) == cli.EXIT_OK  # output at 0 and j T, j = 1 .. 8
    assert json.loads((tmp_path / "period.json").read_text())["k"] == 8
    doc["period"]["base_period"] = 2 * math.pi / 9
    assert cli.run(doc) == cli.EXIT_VALIDATION
    assert "base periods exceeds the cap of 9 samples" in capsys.readouterr().err


def test_period_without_base_period_exits_before_integrating(tmp_path, monkeypatch, capsys):
    # the angular flow has no omega, so its period config needs base_period
    from chargeflow import dynamics

    calls = []
    rhs_flat = dynamics.rhs_flat
    monkeypatch.setattr(dynamics, "rhs_flat", lambda *args: calls.append(1) or rhs_flat(*args))
    doc = {
        "system": {"kind": "angular", "n": 3, "m": 2},
        "initial": {"random": {"seed": 1, "scale": 1.0}},
        "integration": {"t_end": 5.0, "samples": 257},
    }
    assert cli.run({**doc, "mode": "period", "output": {"dir": str(tmp_path)}}) == cli.EXIT_VALIDATION
    cfg = write_config(tmp_path, doc)
    assert cli.main(["period", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,2"]) == cli.EXIT_VALIDATION
    assert calls == []
    err = capsys.readouterr().err
    assert err.count("period mode needs omega or base_period") == 3
    doc["period"] = {"base_period": 1.0}
    cli.run({**doc, "mode": "period", "output": {"dir": str(tmp_path)}})
    assert calls  # the counter sees the integrator once a base period is given


@pytest.mark.parametrize(
    "blocks",
    [
        # 17 samples over 1.01 periods miss t = 2 pi; conserved mode used to
        # read the nearest sample and write no period entry
        {"integration": {"t_end": 1.01 * 2 * math.pi, "samples_per_period": 16}},
        # conserved mode used to ignore base_period and report k = 1
        {"integration": {"periods": 2, "samples_per_period": 16}, "period": {"base_period": math.pi}},
    ],
    ids=["off_grid", "base_period"],
)
def test_conserved_reads_the_period_that_period_mode_reads(tmp_path, blocks):
    periods = {}
    for mode, artifact in (("period", "period.json"), ("conserved", "conserved.json")):
        out = tmp_path / mode
        assert cli.run({**_period_doc(out, **blocks), "mode": mode}) == cli.EXIT_OK
        doc = json.loads((out / artifact).read_text())
        periods[mode] = doc if mode == "period" else doc["period"]
    assert periods["conserved"] == periods["period"]
    assert periods["period"]["k"] == (2 if "period" in blocks else 1)


def test_conserved_traces_stay_on_the_sample_grid(tmp_path):
    # 7 periods at 3 samples per period: the 22-point grid misses 5 T by
    # one ulp, so the run also integrates to 5 T, and no trace row is
    # written for that extra output time
    doc = _period_doc(tmp_path, integration={"periods": 7, "samples_per_period": 3})
    assert cli.run({**doc, "mode": "conserved"}) == cli.EXIT_OK
    grid = np.linspace(0.0, 7 * 2 * math.pi, 22)
    assert grid[15] != 5 * 2 * math.pi
    out = json.loads((tmp_path / "conserved.json").read_text())
    assert [row[0] for row in out["integrals"]] == grid.tolist()


@pytest.mark.parametrize("integration", [{"t_end": -1.0}, {"periods": -1}], ids=["t_end", "periods"])
def test_sweep_with_negative_end_time_exits_validation(tmp_path, capsys, integration):
    # each seed's plan rejects the end time; the sweep used to end in an
    # uncaught ValidationError from integrate_lanes
    cfg = write_config(tmp_path, {**_period_doc(tmp_path), "integration": integration})
    argv = ["period", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,2"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["seed 1: exit 3", "seed 2: exit 3"]
    assert captured.err.count("t_end must be >= 0") == 2


def test_verify_identities_mode(tmp_path):
    for phi in ("inverse", "coth"):
        doc = {
            "mode": "verify-identities",
            "identities": {"phi": phi, "trials": 25, "n": 5, "m": 5},
            "seed": 7,
            "output": {"dir": str(tmp_path), "prefix": phi + "_"},
        }
        assert cli.run(doc) == cli.EXIT_OK
        out = json.loads((tmp_path / f"{phi}_identities.json").read_text())
        assert out["max_I1_deviation"] < 1e-10
        assert out["max_I2_deviation"] < 1e-10


def test_conserved_mode(tmp_path):
    doc = {
        "mode": "conserved",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 1},
        "initial": {"random": {"seed": 2, "scale": 1.2, "min_separation": 0.35}},
        "integration": {"periods": 3, "samples_per_period": 64},
        "output": {"dir": str(tmp_path)},
    }
    assert cli.run(doc) == cli.EXIT_OK
    out = json.loads((tmp_path / "conserved.json").read_text())
    assert out["integrals"], "per-sample trace table expected"
    assert max(out["drift"]) < 1e-6
    assert out["period"]["k"] == 1


def test_cli_config_file_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 1, "m": 0},
            "initial": {"species": [
                {"charge": 1.0, "positions": [[1.0, 0.0]]},
                {"charge": -1.0, "positions": []},
            ]},
            "integration": {"periods": 1, "samples_per_period": 16},
        },
    )
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "block,expected",
    [
        ({"kind": "rational_omega", "omega": 1.4, "Lambda": 0.8, "n": 3, "m": 2},
         FlowSpec.rational_omega(1.4, 0.8, 3, 2)),
        ({"kind": "angular", "n": 2, "m": 2}, FlowSpec.angular(2, 2)),
        ({"kind": "bilinear", "P": [1.0, [0.5, 0.0]], "U": [0.2, -1.0], "Lambda": 1.5, "n": 3, "m": 1},
         FlowSpec.bilinear(SystemCoefficients.bilinear([1.0, 0.5], [0.2, -1.0], Lambda=1.5), 3, 1)),
        ({"kind": "polylinear", "P": [1.0], "U": [0.0, 1.0], "charges": [1.0, 2.0, -1.0], "sizes": [1, 2, 2]},
         FlowSpec.polylinear(SystemCoefficients.polylinear([1.0], [0.0, 1.0], [1.0, 2.0, -1.0]), (1, 2, 2))),
        ({"kind": "linear", "P": [1], "U": [0, -2], "n": 4},
         FlowSpec.linear(SystemCoefficients.linear([1.0], [0.0, -2.0]), 4)),
    ],
    ids=["rational_omega", "angular", "bilinear", "polylinear", "linear"],
)
def test_build_flow_of_each_system_kind(block, expected):
    flow = build_flow(block)
    assert flow == expected  # kind, sizes and the system's P, U, charges, lambda, omega
    assert flow.charges == expected.charges


@pytest.mark.parametrize(
    "block",
    [
        {"kind": "bilinear", "P": [1.0], "U": [0, -2.0], "Lambda": 1.0, "lambda": 3.0, "n": 2, "m": 1},
        {"kind": "polylinear", "P": [1.0], "U": [0.0, 1.0], "lambda": [-1.5, 0.5],
         "charges": [1.0, 2.0, -1.0], "sizes": [1, 2, 2]},
    ],
    ids=["bilinear", "polylinear"],
)
def test_system_lambda_key_is_unknown(tmp_path, capsys, block):
    # no flow read it: the residual monitor builds its system without one
    doc = {"mode": "simulate", "system": block, "initial": {"random": {}},
           "output": {"dir": str(tmp_path)}}
    _assert_validation_exit(doc, capsys, "unknown keys in system: ['lambda']")
    assert not any(tmp_path.iterdir())


def test_jobs_seed_sweep(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 0},
            "initial": {"random": {"scale": 1.0, "min_separation": 0.4}},
            "integration": {"periods": 2, "samples_per_period": 64},
        },
    )
    rc = cli.main(
        ["period", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,2", "--jobs", "2"]
    )
    assert rc == cli.EXIT_OK
    assert (tmp_path / "seed1_period.json").exists()
    assert (tmp_path / "seed2_period.json").exists()


def _simulate_doc(tmp_path, system):
    return {
        "mode": "simulate",
        "system": system,
        "initial": {"random": {"seed": 1}},
        "integration": {"t_end": 0.1, "samples": 5},
        "output": {"dir": str(tmp_path)},
    }


_QUAD = {"P": [1.0, 0.0, 0.5], "U": [0.0, -2.0]}


@pytest.mark.parametrize(
    "system",
    [
        {"kind": "rational_omega", "n": 2},
        {"kind": "rational_omega", "m": 1},
        {"kind": "rational_omega", "n": 2, "m": 1, "omega": "abc"},
        {"kind": "rational_omega", "n": 2, "m": 1, "Lambda": [1, 2]},
        {"kind": "rational_omega", "n": "two", "m": 1},
        {"kind": "rational_omega", "n": -1, "m": 1},
        {"kind": "angular", "n": 2},
        {"kind": "linear", "n": 2, "U": [0.0, -2.0]},
        {"kind": "linear", "n": 2, "P": "abc", "U": [0.0, -2.0]},
        {"kind": "linear", "n": 2, "P": [[1.0]], "U": [0.0, -2.0]},
        {"kind": "linear", "n": 2, "P": [1.0]},
        {"kind": "bilinear", "n": 2, **_QUAD},
        {"kind": "bilinear", "n": 2, "m": 1, "Lambda": "abc", **_QUAD},
        {"kind": "polylinear", "sizes": [1, 1], **_QUAD},
        {"kind": "polylinear", "charges": [1.0, -2.0], **_QUAD},
        {"kind": "polylinear", "charges": [1.0, "x"], "sizes": [1, 1], **_QUAD},
        {"kind": "polylinear", "charges": [1.0, -2.0], "sizes": 3, **_QUAD},
        {"kind": "polylinear", "charges": [1.0, -2.0], "sizes": [1, 1, 1], **_QUAD},
        {"kind": "rational_omega", "n": 2, "m": 1, "omega": math.nan},
        {"kind": "rational_omega", "n": 2, "m": 1, "omega": math.inf},
        {"kind": "rational_omega", "n": 2, "m": 1, "Lambda": math.nan},
        {"kind": "rational_omega", "n": 2.5, "m": 1},
        {"kind": "rational_omega", "n": 0, "m": 0},
        {"kind": "angular", "n": 2, "m": 1, "P": [1.0]},
    ],
    ids=[
        "missing_m", "missing_n", "omega_text", "Lambda_list", "n_text", "n_negative",
        "angular_missing_m", "missing_P", "P_text", "P_short_pair", "missing_U",
        "bilinear_missing_m", "bilinear_Lambda_text", "missing_charges", "missing_sizes",
        "charge_text", "sizes_scalar", "sizes_charges_mismatch", "omega_nan", "omega_inf",
        "Lambda_nan", "n_fraction", "no_particles", "angular_P",
    ],
)
def test_malformed_system_block_exits_validation(tmp_path, system):
    with pytest.raises(ValidationError):
        build_flow(system)
    assert cli.run(_simulate_doc(tmp_path, system)) == cli.EXIT_VALIDATION


@pytest.fixture
def no_workers(monkeypatch):
    """Fail the test if anything starts a process or a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("no worker process may start")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "posix_spawn", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)


def test_jobs_flag_starts_no_process(tmp_path, no_workers):
    cfg = write_config(
        tmp_path,
        {
            "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 1, "m": 0},
            "initial": {"random": {"scale": 1.0}},
            "integration": {"periods": 1, "samples_per_period": 16},
        },
    )
    for jobs in (10_000, 1, 0, -3, 2):
        out = tmp_path / f"jobs{jobs}"
        argv = ["period", "--config", cfg, "--out", str(out), "--seeds", "1,2", "--jobs", str(jobs)]
        assert cli.main(argv) == cli.EXIT_OK
        assert (out / "seed1_period.json").exists() and (out / "seed2_period.json").exists()


def test_seed_sweep_runs_in_process(tmp_path, no_workers):
    cfg = write_config(
        tmp_path,
        {
            "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 1, "m": 0},
            "initial": {"random": {"scale": 1.0}},
            "integration": {"periods": 1, "samples_per_period": 16},
        },
    )
    rc = cli.main(
        ["period", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,2,3", "--jobs", "10000"]
    )
    assert rc == cli.EXIT_OK
    for seed in (1, 2, 3):
        assert (tmp_path / f"seed{seed}_period.json").exists()


def test_seed_sweep_over_non_object_random_exits_validation(tmp_path, no_workers, capsys):
    cfg = write_config(
        tmp_path,
        {
            "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 1, "m": 0},
            "initial": {"random": 5},
            "integration": {"periods": 1, "samples_per_period": 16},
        },
    )
    rc = cli.main(["period", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,2", "--jobs", "2"])
    assert rc == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "seed 1: exit 3" in captured.out
    assert "random must be an object" in captured.err


def test_seed_sweep_keeps_non_text_prefix_for_validation(tmp_path, no_workers, capsys):
    cfg = write_config(
        tmp_path,
        {
            "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 1, "m": 0},
            "initial": {"random": {"scale": 1.0}},
            "integration": {"periods": 1, "samples_per_period": 16},
            "output": {"prefix": 7},
        },
    )
    rc = cli.main(["period", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,2", "--jobs", "2"])
    assert rc == cli.EXIT_VALIDATION
    assert "output 'prefix' is malformed: 7" in capsys.readouterr().err


@pytest.mark.parametrize("top", [[1], 5, "x"], ids=["list", "number", "string"])
def test_config_not_an_object_exits_validation(tmp_path, capsys, top):
    cfg = write_config(tmp_path, top)
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_VALIDATION
    assert "config must be a JSON object" in capsys.readouterr().err
    assert cli.run(top) == cli.EXIT_VALIDATION
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{\"mode\": ", "{}}"], ids=["missing", "truncated", "trailing"])
def test_unreadable_config_exits_validation(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: cannot read config")


def test_failed_atomic_write_leaves_no_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        cli._atomic_write(str(tmp_path / "out.json"), "{}")
    assert not any(tmp_path.iterdir())


def test_flag_into_non_object_block_exits_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"output": 5})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert "output block must be an object" in capsys.readouterr().err


def _trap_doc(tmp_path, mode, initial):
    return {
        "mode": mode,
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 2, "m": 1},
        "initial": initial,
        "integration": {"periods": 1, "samples_per_period": 32},
        "output": {"dir": str(tmp_path)},
    }


_SPECIES_OK = [{"positions": [[1.0, 0.0], [-1.0, 0.5]]}, {"positions": [[0.0, -1.0]]}]


@pytest.mark.parametrize(
    "initial,message",
    [
        ({"species": [{"positions": "ab"}, _SPECIES_OK[1]]}, "'positions' is malformed"),
        ({"species": [{"positions": [[1]]}, _SPECIES_OK[1]]}, "'positions' is malformed"),
        ({"random": {"seed": "x"}}, "'seed' is malformed"),
        ({"certificate": {}}, "unknown keys in initial"),
        (
            {"species": [{**_SPECIES_OK[0], "charge": 7.0}, {**_SPECIES_OK[1], "charge": 3.0}]},
            "differs from the flow's",
        ),
        ({"species": "x"}, "'species' is malformed"),
        (
            {"species": [{"positions": [[math.nan, 0.0], [-1.0, 0.5]]}, _SPECIES_OK[1]]},
            "initial species 0 'positions' is malformed",
        ),
    ],
    ids=["positions_text", "positions_short_pair", "seed_text", "certificate",
         "charge_mismatch", "species_text", "positions_nan"],
)
def test_malformed_initial_block_exits_validation(tmp_path, capsys, initial, message):
    assert cli.run(_trap_doc(tmp_path, "simulate", initial)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "--seeds", "1,x", "--jobs", "2"],
        ["equilibrium", "--recipe", "hermite", "--indices", "1,y"],
        ["equilibrium", "--recipe", "adler_moser", "--k", "2", "--ts", "a"],
    ],
    ids=["seeds", "indices", "ts"],
)
def test_malformed_comma_list_flag_exits_validation(tmp_path, no_workers, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--recipe", "hermite", "--indices", "1,2", "--b", "1e400"],
        ["--recipe", "adler_moser", "--k", "2", "--ts", "1e400,1"],
        ["--recipe", "monomial", "--indices", "1,2", "--b", "1e400"],
    ],
    ids=["hermite_b_1e400", "adler_moser_ts_1e400", "monomial_b_1e400"],
)
def test_rational_parameter_past_the_float_range_exits_validation(tmp_path, capsys, argv):
    # the exact pair exists, but its float shadow (roots, gradient) does
    # not: at b = 1e400 the monic p is z**2 - 1e-400, whose constant term
    # rounds to 0
    assert cli.main(["equilibrium", *argv, "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: ")


def test_cylinder_pair_with_proportional_phases_exits_certification(tmp_path, capsys):
    # sin(phi + 0.1), sin(2 phi + 0.2), sin(3 phi + 0.3): the reduced p has
    # 6 simple roots and q 3, all within 0.005 of w = exp(-0.2i), and their
    # float positions are too ill-conditioned for the gradient bound
    # (ROADMAP item 3)
    argv = ["equilibrium", "--recipe", "cylinder", "--indices", "1,2,3", "--ts", "0.1,0.2,0.3"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_CERTIFICATION
    assert "certification failure: equilibrium gradient" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize(
    "indices,sites",
    [("1,2,3", [(1.0, 3)]), ("1,2,3,4", [(1.0, 4)]), ("2,4,6", [(-1.0, 3), (1.0, 3)])],
)
def test_cylinder_pair_at_zero_phases_certifies_its_multiple_sites(tmp_path, indices, sites):
    # a free site of net charge c balances with the self term c/2 on P';
    # before, c - sign(c)/2 left "equilibrium gradient 2.000e+00" at the
    # +3 of 1,2,3, which exited 5
    zeros = ",".join("0" * len(indices.split(",")))
    argv = ["equilibrium", "--recipe", "cylinder", "--indices", indices, "--ts", zeros]
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert [(e["position"][0], e["net_charge"]) for e in doc["inventory"]] == sites
    assert all(e["position"][1] == 0.0 for e in doc["inventory"])
    assert doc["notes"]["gradient_max"] == 0.0
    assert certify(EquilibriumCertificate.from_json(doc)).residual_exact_zero


def _assert_hermite_pair_certifies(out, e):
    # b = 10**e: p = b**2 - b**3 z^2 and q = -b z, so +1 at +-b**-1/2 and
    # -1 at 0 stay three charges however small the roots are
    argv = ["equilibrium", "--recipe", "hermite", "--indices", "1,2", "--b", f"1e{e}"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["residual_exact_zero"] and doc["notes"]["gradient_max"] == 0.0
    assert certify(EquilibriumCertificate.from_json(doc)).residual_exact_zero
    scale = 10.0 ** (e // 2)
    charges = sorted((s["net_charge"], s["position"][0] * scale, s["position"][1]) for s in doc["inventory"])
    assert [c for c, _, _ in charges] == [-1, 1, 1]
    assert np.allclose([(x, y) for _, x, y in charges], [(0, 0), (-1, 0), (1, 0)], rtol=1e-12, atol=0)


def test_badly_scaled_hermite_pair_certifies(tmp_path):
    # roots of size 1e-50 next to coefficients of 1e100: the companion
    # eigenvalues start at the roots, where circle starts did not converge
    _assert_hermite_pair_certifies(tmp_path, 100)


def test_hermite_pair_past_the_float_range_certifies(tmp_path):
    # at b = 1e200 p has no float form; before, that exited 3, and now the
    # sites are the roots of the reduced pair's monic factors
    _assert_hermite_pair_certifies(tmp_path, 200)


def test_adler_moser_whose_horner_overflows_exits_nonconvergence(tmp_path, capsys):
    # p has roots near 1e30, so p(z) overflows; under the tests'
    # error::RuntimeWarning filter an escaping warning would raise instead
    argv = ["equilibrium", "--recipe", "adler_moser", "--k", "3", "--ts", "1e100,1,1e-300"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_NONCONVERGENCE
    assert capsys.readouterr().err.startswith("non-convergence: ")


@pytest.mark.parametrize("mode", ["period", "conserved"])
def test_period_and_conserved_skip_residual_monitor(tmp_path, monkeypatch, mode):
    from chargeflow import dynamics

    def forbidden(*args):
        raise AssertionError("state_residual must not run")

    monkeypatch.setattr(dynamics, "state_residual", forbidden)
    doc = _trap_doc(tmp_path, mode, {"species": _SPECIES_OK})
    assert cli.run(doc) == cli.EXIT_OK


def _assert_validation_exit(doc, capsys, message):
    assert cli.run(doc) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and message in err


@pytest.mark.parametrize(
    "block,message",
    [
        ({"recipe": "hermite", "indices": "x"}, "equilibrium 'indices' is malformed"),
        ({"recipe": "hermite", "indices": [0, 1], "b": "q"}, "equilibrium 'b' is malformed"),
        ({"recipe": "adler_moser", "k": "x"}, "equilibrium 'k' is malformed"),
        ({"recipe": "adler_moser", "k": 1, "ts": ["a"]}, "equilibrium 'ts' is malformed"),
        ({"recipe": "cylinder", "indices": [1, 2], "ts": "z"}, "equilibrium 'ts' is malformed"),
        ({"recipe": "laguerre"}, "equilibrium block needs 'indices'"),
        ({"recipe": ["hermite"], "indices": [1]}, "equilibrium 'recipe' is malformed"),
        ({"recipe": "cylinder", "indices": [1, 2], "ts": [math.nan, 1.0]}, "equilibrium 'ts' is malformed"),
        ({"recipe": "hermite", "indices": [True, 2]}, "equilibrium 'indices' is malformed"),
        (
            {"recipe": "cylinder", "indices": [1, 2], "ts": [0.3, 1.1], "b": 1},
            "unknown keys in equilibrium: ['b']",
        ),
    ],
    ids=["indices_text", "b_text", "k_text", "ts_entry_text", "cylinder_ts_text", "indices_missing",
         "recipe_list", "cylinder_ts_nan", "indices_bool", "cylinder_b"],
)
def test_malformed_equilibrium_block_exits_validation(tmp_path, capsys, block, message):
    doc = {"mode": "equilibrium", "equilibrium": block, "output": {"dir": str(tmp_path)}}
    _assert_validation_exit(doc, capsys, message)


def test_malformed_b_flag_exits_validation(tmp_path, capsys):
    argv = ["equilibrium", "--recipe", "hermite", "--indices", "0,1", "--b", "q"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert "equilibrium 'b' is malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "integration,message",
    [
        ({"periods": "x"}, "integration 'periods' is malformed"),
        ({"periods": 1, "rtol": "y"}, "integration 'rtol' is malformed"),
        ({"periods": 1, "atol": [1]}, "integration 'atol' is malformed"),
        ({"t_end": "x"}, "integration 't_end' is malformed"),
        ({"periods": 1, "samples_per_period": "x"}, "integration 'samples_per_period' is malformed"),
        ({"t_end": math.nan}, "integration 't_end' is malformed"),
        ({"t_end": 1e308}, "integration over t_end 1e+308 has no finite sample count"),
        ({"periods": 1, "rtol": 0, "atol": 0}, "integration 'atol' is malformed"),
        ({"periods": 1, "rtol": -1}, "integration 'rtol' is malformed"),
        ({"periods": 1, "samples_per_period": -5}, "integration 'samples_per_period' is malformed"),
        ({"periods": 1, "samples": -5}, "integration 'samples' is malformed"),
        # a finite count, but past the samples cap (np.linspace refused it)
        ({"t_end": 1e308, "samples_per_period": 8}, "up to the cap of 1000000 samples per run"),
    ],
    ids=["periods", "rtol", "atol", "t_end", "samples_per_period", "t_end_nan", "t_end_huge",
         "tolerances_zero", "rtol_negative", "samples_per_period_negative", "samples_negative",
         "t_end_huge_sparse"],
)
def test_malformed_integration_block_exits_validation(tmp_path, capsys, integration, message):
    doc = _trap_doc(tmp_path, "simulate", {"species": _SPECIES_OK})
    doc["integration"] = integration
    _assert_validation_exit(doc, capsys, message)


def test_malformed_samples_exits_validation(tmp_path, capsys):
    doc = _simulate_doc(tmp_path, {"kind": "bilinear", **_QUAD, "n": 2, "m": 1})
    doc["integration"]["samples"] = "x"
    _assert_validation_exit(doc, capsys, "integration 'samples' is malformed")


def test_samples_above_cap_exits_validation(tmp_path, capsys):
    # 1e18 samples ran into a MemoryError inside np.linspace
    doc = _simulate_doc(tmp_path, {"kind": "linear", **_QUAD, "n": 2})
    doc["integration"]["samples"] = 1e18
    _assert_validation_exit(doc, capsys, "integration 'samples' is malformed")
    doc["integration"]["samples"] = cli.MAX_SAMPLES
    doc["integration"]["t_end"] = 0.0  # the cap itself is allowed
    assert cli.run(doc) == cli.EXIT_OK


def test_uncreatable_output_directory_exits_validation(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["verify-identities", "--trials", "1", "--out", str(blocker / "sub")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: cannot create output directory")


@pytest.mark.parametrize(
    "mode,period,message",
    [
        ("period", {"tol": "x"}, "period 'tol' is malformed"),
        ("period", {"base_period": "x"}, "period 'base_period' is malformed"),
        ("conserved", {"tol": "x"}, "period 'tol' is malformed"),
        ("period", {"base_period": 0}, "period 'base_period' is malformed"),
    ],
    ids=["period_tol", "base_period", "conserved_tol", "base_period_zero"],
)
def test_malformed_period_block_exits_validation(tmp_path, capsys, mode, period, message):
    doc = _trap_doc(tmp_path, mode, {"species": _SPECIES_OK})
    doc["period"] = period
    _assert_validation_exit(doc, capsys, message)


@pytest.mark.parametrize(
    "identities,seed,message",
    [
        ({"trials": "x"}, 0, "identities 'trials' is malformed"),
        ({"n": "x"}, 0, "identities 'n' is malformed"),
        ({"n": 1}, 0, "identities 'n' is malformed"),
        ({"m": 0}, 0, "identities 'm' is malformed"),
        ({}, "x", "config 'seed' is malformed"),
        ({}, -1, "config 'seed' is malformed"),
    ],
    ids=["trials_text", "n_text", "n_below_two", "m_zero", "seed_text", "seed_negative"],
)
def test_malformed_identities_block_exits_validation(tmp_path, capsys, identities, seed, message):
    doc = {
        "mode": "verify-identities",
        "identities": {"trials": 2, **identities},
        "seed": seed,
        "output": {"dir": str(tmp_path)},
    }
    _assert_validation_exit(doc, capsys, message)


def test_trials_flag_zero_is_recorded(tmp_path):
    argv = ["verify-identities", "--trials", "0", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    out = json.loads((tmp_path / "identities.json").read_text())
    assert out["trials"] == 0


def test_identities_scale_key_is_unknown(tmp_path, capsys):
    doc = {
        "mode": "verify-identities",
        "identities": {"trials": 2, "scale": "anything"},
        "output": {"dir": str(tmp_path)},
    }
    _assert_validation_exit(doc, capsys, "unknown keys in identities: ['scale']")


def test_period_max_multiple_key_is_unknown(tmp_path, capsys):
    doc = _trap_doc(tmp_path, "period", {"species": _SPECIES_OK})
    doc["period"] = {"max_multiple": "x"}
    _assert_validation_exit(doc, capsys, "unknown keys in period: ['max_multiple']")


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("mode",), [], "config 'mode' is malformed"),
        (("output", "formats"), 5, "output 'formats' is malformed"),
        (("output", "dir"), 5, "output 'dir' is malformed"),
        (("output", "prefix"), 7, "output 'prefix' is malformed"),
        (("output", "svg"), "no", "output 'svg' is malformed"),
    ],
    ids=["mode_list", "formats_number", "dir_number", "prefix_number", "svg_text"],
)
def test_malformed_output_block_exits_validation(tmp_path, capsys, path, value, message):
    doc = _trap_doc(tmp_path, "simulate", {"species": _SPECIES_OK})
    (doc[path[0]] if len(path) == 2 else doc)[path[-1]] = value
    _assert_validation_exit(doc, capsys, message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["equilibrium", "--recipe", "bogus"], "equilibrium 'recipe' is malformed"),
        (["equilibrium", "--recipe", "adler_moser", "--k", "x"], "equilibrium 'k' is malformed"),
        (["equilibrium", "--recipe", "adler_moser", "--k", "-1"], "k must be >= 0"),
        (["verify-identities", "--trials", "x"], "identities 'trials' is malformed"),
        (["simulate", "--jobs", "x"], "argument --jobs"),
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
        # a flag of a mode that does not read its key: before, these were
        # parsed and then ignored (the top-level seed seeds only
        # verify-identities, and only simulate writes formats and an svg)
        (["simulate", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["equilibrium", "--svg"], "unrecognized arguments: --svg"),
        (["conserved", "--format", "csv"], "unrecognized arguments: --format csv"),
        (["verify-identities", "--svg"], "unrecognized arguments: --svg"),
        # a prefix of a flag: before, argparse took --seed for --seeds and
        # ran a one-seed sweep, and --ind for --indices
        (["period", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["equilibrium", "--recipe", "hermite", "--ind", "1,2"], "unrecognized arguments: --ind 1,2"),
    ],
    ids=["recipe", "k", "k_negative", "trials", "jobs", "unknown_flag", "simulate_seed", "equilibrium_svg",
         "conserved_format", "identities_svg", "period_seed_prefix", "indices_prefix"],
)
def test_malformed_flag_exits_validation(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and message in err


def test_flags_are_read_by_their_modes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, _trap_doc(tmp_path, "simulate", {"species": _SPECIES_OK}))
    argv = ["simulate", "--config", cfg, "--format", "csv", "--svg", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv", "trajectory.svg"]
    argv = ["verify-identities", "--trials", "2", "--seed", "7", "--out", str(tmp_path / "id")]
    assert cli.main(argv) == cli.EXIT_OK


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["equilibrium", "--help"])
    assert exit_info.value.code == 0
    assert "--recipe" in capsys.readouterr().out


def test_rational_ts_flag(tmp_path):
    argv = ["equilibrium", "--recipe", "adler_moser", "--k", "2", "--ts", "1/3,1/2"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["params"]["ts"] == ["1/3", "1/2"]


def _schema_names(schema):
    """Every key of a schema table and every kind or recipe name."""
    if isinstance(schema, _schema.Variants):
        yield schema.key
        for name, variant in schema.schemas.items():
            yield name
            yield from _schema_names(variant)
        return
    for key, (convert, _) in schema.items():
        yield key
        nested = convert[0] if isinstance(convert, list) else convert
        if isinstance(nested, (dict, _schema.Variants)):
            yield from _schema_names(nested)


def test_readme_names_every_schema_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config schema")[1].split("\n### ")[0]
    missing = sorted({name for name in _schema_names(cli._SCHEMA) if f"`{name}`" not in section})
    assert not missing


def _one_at_a_time(flow, seed, scale, min_separation):
    """The start drawn one attempt at a time: the reference for the block
    draws of ``cli._random_initial``."""
    rng = np.random.default_rng(seed)
    total = sum(flow.sizes)
    for _ in range(1000):
        pts = rng.normal(size=total) * scale + 1j * rng.normal(size=total) * scale
        if np.all(pair_matrix(pts, _distance, diagonal=np.inf) > min_separation * scale):
            return pts
    return None


@pytest.mark.parametrize("sizes,min_separation", [
    ((6, 1), 0.8889),  # the sweep benchmark's draw: about 50 attempts
    ((20, 10), 0.2),
    ((30, 15), 0.05),  # 45 charges: blocks of 16 attempts
    ((200, 1), 1e-3),  # blocks of one attempt
    ((3, 1), 3.0),  # no separated draw in 1000 attempts
])
def test_block_draws_equal_one_attempt_at_a_time(sizes, min_separation):
    flow = build_flow({"kind": "rational_omega", "n": sizes[0], "m": sizes[1]})
    for seed in range(12):
        expected = _one_at_a_time(flow, seed, 1.8, min_separation)
        options = {"seed": seed, "scale": 1.8, "min_separation": min_separation}
        if expected is None:
            with pytest.raises(ValidationError, match="could not draw"):
                cli._random_initial(flow, options)
            continue
        got = np.array(cli._random_initial(flow, options).all_positions(), dtype=complex)
        assert got.tobytes() == expected.tobytes()
