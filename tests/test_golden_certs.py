"""Golden equilibrium certificates: bit-exact replay through ``cli.run``.

Each case's ``certificate.json`` under ``tests/data/certs/<name>/`` was
written by ``cli.run`` on a known-good tree.  Rebuilding it must give the
same bytes, and the stored file must re-certify on its own.  After a
deliberate change of the certificate format, regenerate the files with

    PYTHONPATH=src python tests/test_golden_certs.py
"""

import json
import pathlib

import pytest

from chargeflow import cli
from chargeflow.equilibria import EquilibriumCertificate, certify

DATA = pathlib.Path(__file__).parent / "data" / "certs"

CASES = {
    "hermite_124": {"recipe": "hermite", "indices": [1, 2, 4], "b": "-2"},
    "monomial_134": {"recipe": "monomial", "indices": [1, 3, 4], "b": "1/2"},
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


if __name__ == "__main__":
    for case in sorted(CASES):
        print(_write(case, DATA / case))
