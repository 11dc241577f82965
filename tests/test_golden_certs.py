"""Golden equilibrium certificates: bit-exact replay through ``cli.run``.

Each case's ``certificate.json`` under ``tests/data/certs/<name>/`` was
written by ``cli.run`` on a known-good tree.  Rebuilding it must give the
same bytes, and the stored file must re-certify on its own.  After a
deliberate change of the certificate format, regenerate the files with

    PYTHONPATH=src python tests/test_golden_certs.py
"""

import copy
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import chargeflow
from chargeflow import cli
from chargeflow.equilibria import EquilibriumCertificate, certify
from chargeflow.errors import CertificationFailure

DATA = pathlib.Path(__file__).parent / "data" / "certs"

CASES = {
    "hermite_124": {"recipe": "hermite", "indices": [1, 2, 4], "b": "-2"},
    "monomial_134": {"recipe": "monomial", "indices": [1, 3, 4], "b": "1/2"},
    "laguerre_12457": {"recipe": "laguerre", "indices": [1, 2, 4, 5, 7], "b": "2"},
    "adler_moser_4": {"recipe": "adler_moser", "k": 4, "ts": ["1/2", "2", "-1", "3"]},
    "cylinder_1": {"recipe": "cylinder", "indices": [1], "ts": [0.0]},
    "cylinder_12": {"recipe": "cylinder", "indices": [1, 2], "ts": [0.3, 1.1]},
    "cylinder_134": {"recipe": "cylinder", "indices": [1, 3, 4], "ts": [0.25, 1.5, 0.75]},
    "cylinder_1234": {
        "recipe": "cylinder",
        "indices": [1, 2, 3, 4],
        "ts": [0.4, 0.9, 2.2, 1.3],
    },
}
CYLINDERS = sorted(n for n in CASES if CASES[n]["recipe"] == "cylinder")


def _write(name, out_dir) -> pathlib.Path:
    doc = {"mode": "equilibrium", "equilibrium": dict(CASES[name]),
           "output": {"dir": str(out_dir)}}
    assert cli.run(doc) == cli.EXIT_OK
    return pathlib.Path(out_dir) / "certificate.json"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate_replays_bit_exact(tmp_path, name):
    golden = DATA / name / "certificate.json"
    assert _write(name, tmp_path).read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate_recertifies(name):
    doc = json.loads((DATA / name / "certificate.json").read_text())
    cert = certify(EquilibriumCertificate.from_json(doc))
    assert cert.residual_exact_zero


def _top_three(poly):
    """The polynomial document with its top coefficient replaced by 3 in
    its ring (the zero polynomial gains that coefficient)."""
    return {**poly, "coeffs": poly["coeffs"][:-1] + [["3", "1"] if poly["exact"] else [3.0, 0.0]]}


_SEVEN = {"re": ["7", "1"], "im": ["0", "1"]}

# field path -> new value from the old one (None where a dict lacks the key)
TAMPERS = {
    "P_leading": (("P",), _top_three),
    "U_top": (("U",), _top_three),
    "p_top": (("p",), _top_three),
    "q_top": (("q",), _top_three),
    "reduced": (("reduced", 0), _top_three),
    "degrees": (("degrees", 0), lambda n: n + 1),
    "lambda": (("lambda",), lambda lam: {"float": [7.0, 0.0]} if "float" in lam else _SEVEN),
    "inventory_position": (("inventory", 0, "position", 0), lambda x: x + 0.5),
    "inventory_charge": (("inventory", 0, "net_charge"), lambda charge: 5),
    "residual_exact_zero": (("residual_exact_zero",), lambda flag: False),
    "residual_norm": (("residual_norm",), lambda norm: 0.5),
    "notes_leading_p": (("notes", "leading_p"), lambda lead: _SEVEN),
    # planar certificates carry no (X, Y) payload, so any is foreign to them
    "bivariate": (("bivariate",), lambda xy: {**(xy or {}), "degree_p": (xy or {}).get("degree_p", 0) + 1}),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_every_golden_with_one_tampered_field_fails_certify(tamper):
    for name in sorted(CASES):
        golden = json.loads((DATA / name / "certificate.json").read_text())
        doc = copy.deepcopy(golden)
        path, change = TAMPERS[tamper]
        target = doc
        for key in path[:-1]:
            target = target[key]
        key = path[-1]
        target[key] = change(target[key] if isinstance(target, list) else target.get(key))
        assert doc != golden, name
        with pytest.raises(CertificationFailure):
            certify(EquilibriumCertificate.from_json(doc))



@pytest.mark.parametrize("name", CYLINDERS)
def test_cylinder_golden_with_one_ulp_moved_in_p_xy_fails_certify(name):
    doc = json.loads((DATA / name / "certificate.json").read_text())
    entry = doc["bivariate"]["p_xy"][-1]
    entry[0] = math.nextafter(entry[0], math.inf)
    with pytest.raises(CertificationFailure):
        certify(EquilibriumCertificate.from_json(doc))


def _ulps(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("name", CYLINDERS)
def test_cylinder_golden_with_roots_moved_4_ulps_recertifies(name):
    # a writer whose root finder rounds differently (an older one, another
    # numpy build) stores the same float reduced pair and inventory up to
    # the last bits of each coefficient and position
    doc = json.loads((DATA / name / "certificate.json").read_text())
    for poly in doc["reduced"]:
        poly["coeffs"] = [[_ulps(x, 4) for x in c] for c in poly["coeffs"]]
    for entry in doc["inventory"]:
        entry["position"] = [_ulps(x, 4) for x in entry["position"]]
    assert certify(EquilibriumCertificate.from_json(doc)).residual_exact_zero


@pytest.mark.parametrize("name", CYLINDERS)
def test_cylinder_golden_with_reduced_moved_1e6_relative_fails_certify(name):
    doc = json.loads((DATA / name / "certificate.json").read_text())
    entry = doc["reduced"][0]["coeffs"][0]
    entry[0] += 1e-6 * max(abs(x) for c in doc["reduced"][0]["coeffs"] for x in c)
    with pytest.raises(CertificationFailure, match="'reduced'"):
        certify(EquilibriumCertificate.from_json(doc))


# the writer in a fresh interpreter: builds every case under argv[1]
_WRITE_ALL = "import pathlib, sys; import test_golden_certs as g; [g._write(n, pathlib.Path(sys.argv[1]) / n) for n in g.CASES]"


@pytest.mark.parametrize(
    "blas_env",
    [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
     {"OPENBLAS_CORETYPE": "Nehalem"}, {"OPENBLAS_CORETYPE": "Sandybridge"},
     {"OPENBLAS_CORETYPE": "Haswell"}],
    ids=["threads_1", "threads_2", "Nehalem", "Sandybridge", "Haswell"],
)
def test_golden_bytes_do_not_depend_on_blas_threads_or_kernels(tmp_path, blas_env):
    # the companion eigenvalues come from LAPACK; neither its BLAS thread
    # count nor the CPU kernels a dynamic-arch OpenBLAS picks (SSE4.2, AVX,
    # AVX2 here, besides the machine's own) may move a bit of any
    # certificate.  Other numpy or LAPACK builds are not covered; certify
    # compares the root-derived fields within the clustering tolerance.
    paths = [str(pathlib.Path(chargeflow.__file__).parent.parent), str(pathlib.Path(__file__).parent)]
    env = {**os.environ, **blas_env,
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _WRITE_ALL, str(tmp_path)],
                   env=env, check=True, capture_output=True)
    for name in CASES:
        golden = DATA / name / "certificate.json"
        assert (tmp_path / name / "certificate.json").read_bytes() == golden.read_bytes(), name


if __name__ == "__main__":
    for case in sorted(CASES):
        print(_write(case, DATA / case))
