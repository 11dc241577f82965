import json
import os

import pytest

from chargeflow import cli
from chargeflow.errors import ValidationError


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


def test_system_config_roundtrip():
    from chargeflow.cli import _build_flow, system_to_config
    from chargeflow.dynamics import FlowSpec
    from chargeflow.operators import SystemCoefficients

    flows = [
        FlowSpec.rational_omega(1.4, 0.8, 3, 2),
        FlowSpec.angular(2, 2),
        FlowSpec.bilinear(
            SystemCoefficients.bilinear([1.0, 0.5], [0.2, -1.0], Lambda=1.5), 3, 1
        ),
        FlowSpec.polylinear(
            SystemCoefficients.polylinear([1.0], [0.0, 1.0], [1.0, 2.0, -1.0]),
            (1, 2, 2),
        ),
        FlowSpec.linear(SystemCoefficients.linear([1.0], [0.0, -2.0]), 4),
    ]
    for flow in flows:
        doc = system_to_config(flow)
        back = _build_flow(doc)
        assert back.kind == flow.kind
        assert back.sizes == flow.sizes
        if flow.sys is not None:
            assert back.sys.P.coeffs == (
                flow.sys.P.to_float() if flow.sys.P.exact else flow.sys.P
            ).coeffs


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
    ],
    ids=[
        "missing_m", "missing_n", "omega_text", "Lambda_list", "n_text", "n_negative",
        "angular_missing_m", "missing_P", "P_text", "P_short_pair", "missing_U",
        "bilinear_missing_m", "bilinear_Lambda_text", "missing_charges", "missing_sizes",
        "charge_text", "sizes_scalar", "sizes_charges_mismatch",
    ],
)
def test_malformed_system_block_exits_validation(tmp_path, system):
    with pytest.raises(ValidationError):
        cli._build_flow(system)
    assert cli.run(_simulate_doc(tmp_path, system)) == cli.EXIT_VALIDATION


def test_pool_size_clamped():
    cpus = os.cpu_count() or 1
    assert cli._pool_size(10_000, 8) == min(8, cpus)
    assert cli._pool_size(10_000, 1) == 1
    assert cli._pool_size(0, 8) == 1
    assert cli._pool_size(-3, 8) == 1
    assert cli._pool_size(2, 8) == min(2, cpus)


@pytest.fixture
def pool_sizes(monkeypatch):
    """A stand-in pool that records its size and runs the seeds in-process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    return sizes


def test_seed_sweep_uses_clamped_pool(tmp_path, pool_sizes):
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
    assert pool_sizes == [2]


def test_seed_sweep_over_non_object_random_exits_validation(tmp_path, pool_sizes, capsys):
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
    assert pool_sizes == [2]
    captured = capsys.readouterr()
    assert "seed 1: exit 3" in captured.out
    assert "random must be an object" in captured.err


@pytest.mark.parametrize("top", [[1], 5, "x"], ids=["list", "number", "string"])
def test_config_not_an_object_exits_validation(tmp_path, capsys, top):
    cfg = write_config(tmp_path, top)
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_VALIDATION
    assert "config must be a JSON object" in capsys.readouterr().err


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
    ],
    ids=["positions_text", "positions_short_pair", "seed_text", "certificate",
         "charge_mismatch", "species_text"],
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
def test_malformed_comma_list_flag_exits_validation(tmp_path, monkeypatch, capsys, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("no worker pool may start")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_system_config_roundtrip_keeps_lambda():
    from chargeflow.dynamics import FlowSpec
    from chargeflow.operators import SystemCoefficients

    flows = [
        FlowSpec.bilinear(
            SystemCoefficients.bilinear([1.0], [0, -2.0], Lambda=1.0, lam=3.0), 2, 1
        ),
        FlowSpec.polylinear(
            SystemCoefficients.polylinear(
                [1.0], [0.0, 1.0], [1.0, 2.0, -1.0], lam=-1.5 + 0.5j
            ),
            (1, 2, 2),
        ),
    ]
    for flow in flows:
        back = cli._build_flow(cli.system_to_config(flow))
        assert back.sys.lam == flow.sys.lam


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
    ],
    ids=["indices_text", "b_text", "k_text", "ts_entry_text", "cylinder_ts_text", "indices_missing"],
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
    ],
    ids=["periods", "rtol", "atol", "t_end", "samples_per_period"],
)
def test_malformed_integration_block_exits_validation(tmp_path, capsys, integration, message):
    doc = _trap_doc(tmp_path, "simulate", {"species": _SPECIES_OK})
    doc["integration"] = integration
    _assert_validation_exit(doc, capsys, message)


def test_malformed_samples_exits_validation(tmp_path, capsys):
    doc = _simulate_doc(tmp_path, {"kind": "bilinear", **_QUAD, "n": 2, "m": 1})
    doc["integration"]["samples"] = "x"
    _assert_validation_exit(doc, capsys, "integration 'samples' is malformed")


@pytest.mark.parametrize(
    "mode,period,message",
    [
        ("period", {"tol": "x"}, "period 'tol' is malformed"),
        ("period", {"base_period": "x"}, "period 'base_period' is malformed"),
        ("conserved", {"tol": "x"}, "period 'tol' is malformed"),
    ],
    ids=["period_tol", "base_period", "conserved_tol"],
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
