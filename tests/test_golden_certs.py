"""Golden equilibrium certificates: bit-exact replay through ``cli.run``.

Each case's ``certificate.json`` under ``tests/data/certs/<name>/`` was
written by ``cli.run`` on a known-good tree.  Rebuilding it must give the
same bytes, and the stored file must re-certify on its own.  After a
deliberate change of the certificate format, regenerate the files with

    PYTHONPATH=src python tests/test_golden_certs.py
"""

import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargeflow
from chargeflow import _schema, cli, equilibria
from chargeflow.equilibria import POSITION_TOL, EquilibriumCertificate, certify
from chargeflow.errors import CertificationFailure
from chargeflow.operators import polylinear_H
from chargeflow.polynomials import Polynomial

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


def _top_real(change):
    """A tamper of p's top coefficient: ``change`` of its real part's
    [numerator, denominator]."""

    def apply(coeff):
        return [apply(coeff[0]), coeff[1]] if isinstance(coeff[0], list) else change(coeff)

    return (("p", "coeffs", -1), apply)


def _number(numerator):
    """The numerator as a JSON number that ``int`` reads as its value."""
    return int(numerator) + math.copysign(0.9, int(numerator))


_SEVEN = {"re": ["7", "1"], "im": ["0", "1"]}
_DROP = object()  # a change that deletes the key

# field path -> new value from the old one (None where a dict lacks the key)
TAMPERS = {
    "P_leading": (("P",), _top_three),
    "U_top": (("U",), _top_three),
    "p_top": (("p",), _top_three),
    "q_top": (("q",), _top_three),
    "reduced": (("reduced", 0), _top_three),
    "degrees": (("degrees", 0), lambda n: n + 1),
    "lambda": (("lambda",), lambda lam: _SEVEN),
    "inventory_position": (("inventory", 0, "position", 0), lambda x: x + 0.5),
    "inventory_charge": (("inventory", 0, "net_charge"), lambda charge: 5),
    "residual_exact_zero": (("residual_exact_zero",), lambda flag: False),
    "residual_norm": (("residual_norm",), lambda norm: 0.5),
    "notes_leading_p": (("notes", "leading_p"), lambda lead: _SEVEN),
    # planar certificates carry no (X, Y) payload, so any is foreign to them
    "bivariate": (("bivariate",), lambda xy: {**(xy or {}), "degree_p": (xy or {}).get("degree_p", 0) + 1}),
    # documents to_json could not have written, which from_json rejects
    "p_exact_tag": (("p", "exact"), lambda tag: not tag),
    "missing_key": (("residual_norm",), lambda norm: _DROP),
    "malformed_value": (("inventory", 0, "position"), lambda position: ["x", "y"]),
    "unknown_key": (("comment",), lambda nothing: "checked by hand"),
    # values == equates with the written ones, and keys inside an entry
    "degrees_float": (("degrees", 0), float),
    "net_charge_flag": (("inventory", 0, "net_charge"), lambda charge: charge == 1),
    "net_charge_float": (("inventory", 0, "net_charge"), float),
    "residual_exact_zero_int": (("residual_exact_zero",), int),
    "residual_norm_int": (("residual_norm",), int),
    "p_exact_tag_int": (("p", "exact"), int),
    "p_unknown_key": (("p", "comment"), lambda nothing: "checked by hand"),
    "inventory_unknown_key": (("inventory", 0, "extra"), lambda nothing: 0),
    # a rational _ratio_json never writes, of the value int() reads from it
    "lambda_number": (("lambda", "re"), lambda re: [_number(re[0]), int(re[1])]),
    "p_top_number": _top_real(lambda ratio: [_number(ratio[0]), ratio[1]]),
    "p_top_space": _top_real(lambda ratio: [" " + ratio[0], ratio[1]]),
    "p_top_underscore": _top_real(lambda ratio: [ratio[0], "0_" + ratio[1]]),
    "p_top_unreduced": _top_real(lambda ratio: [str(2 * int(x)) for x in ratio]),
    # the float form of the exact p
    "p_float": (("p",), lambda poly: Polynomial.from_json(poly).to_float().to_json()),
    # an optional key written out as null, which to_json never writes
    "bivariate_null": (("bivariate",), lambda xy: None),
    "reduced_null": (("reduced",), lambda pair: None),
}
LOAD_TAMPERS = [
    "p_exact_tag", "missing_key", "malformed_value", "unknown_key", "degrees_float",
    "net_charge_flag", "net_charge_float", "residual_exact_zero_int", "residual_norm_int",
    "p_exact_tag_int", "p_unknown_key", "inventory_unknown_key",
    "lambda_number", "p_top_number", "p_top_space", "p_top_underscore", "p_top_unreduced", "p_float",
    "bivariate_null", "reduced_null",
]


def _tampered(name, tamper):
    doc = _golden(name)
    path, change = TAMPERS[tamper]
    target = doc
    for key in path[:-1]:
        target = target[key]
    key = path[-1]
    new = change(target[key] if isinstance(target, list) else target.get(key))
    if new is _DROP:
        del target[key]
    else:
        target[key] = new
    return doc


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_every_golden_with_one_tampered_field_fails_certify(tamper):
    for name in sorted(CASES):
        doc = _tampered(name, tamper)
        assert json.dumps(doc) != json.dumps(_golden(name)), name
        with pytest.raises(CertificationFailure):
            certify(EquilibriumCertificate.from_json(doc))


@pytest.mark.parametrize("tamper", LOAD_TAMPERS)
def test_every_golden_with_a_foreign_document_fails_to_load(tamper):
    # before, a flipped tag raised TypeError (hermite_124) or
    # ZeroDivisionError (cylinder_12), a missing key KeyError, and an
    # unknown key loaded and certified; so did a degree 4.0, a net charge
    # true (where it is 1), a residual flag 1 or an unknown key in p or in
    # an inventory entry, and the certificate wrote those values back; a
    # null bivariate or reduced read as missing, so hermite_124 with
    # "bivariate": null loaded and certified
    for name in sorted(CASES):
        with pytest.raises(CertificationFailure, match="malformed certificate document"):
            EquilibriumCertificate.from_json(_tampered(name, tamper))


def _golden(name):
    return json.loads((DATA / name / "certificate.json").read_text())


def _key_mismatches(schema, doc, path=()):
    """The paths where ``doc`` has a key the schema table does not name, or
    lacks one it requires, at every nesting level."""
    for key in sorted(set(schema) ^ set(doc)):
        if key not in schema or schema[key][1] is _schema.REQUIRED:
            yield path + (key,)
    for key, (convert, _) in schema.items():
        nested = convert[0] if isinstance(convert, list) else convert
        if isinstance(nested, dict) and key in doc:
            entries = enumerate(doc[key]) if isinstance(convert, list) else [(None, doc[key])]
            for i, entry in entries:
                yield from _key_mismatches(nested, entry, path + (key, i))


_FRESH = [
    lambda: equilibria.hermite_pair([1, 2], -2),
    lambda: equilibria.laguerre_pair([0, 1, 3, 4, 6], 1),
    lambda: equilibria.monomial_pair([1, 2], Fraction(1, 2)),
    lambda: equilibria.adler_moser(2, [Fraction(1, 3), 2]),
    lambda: equilibria.cylinder_pair([1, 2], [0.3, 1.1]),
]


def test_certificate_table_names_exactly_the_keys_to_json_writes():
    docs = [_golden(name) for name in sorted(CASES)] + [build().to_json() for build in _FRESH]
    assert {fresh["recipe"] for fresh in docs[len(CASES):]} == set(equilibria._RECIPES)
    for doc in docs:
        assert not list(_key_mismatches(equilibria._DOCUMENT, doc)), doc["recipe"]
    assert set().union(*docs) == set(equilibria._DOCUMENT)
    for name in sorted(CASES):
        assert EquilibriumCertificate.from_json(_golden(name)).to_json() == _golden(name), name


def _fields(doc, path=()):
    """(path, value) of every scalar field: a number, a string, a flag, or
    a rational [numerator, denominator] pair of strings.  The ``exact`` tag
    of an empty coefficient list is left out: the zero polynomial has no
    ring, and older certificates wrote a zero ``U`` as a float one."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "exact" or doc["coeffs"]:
                yield from _fields(value, path + (key,))
    elif isinstance(doc, list) and not (len(doc) == 2 and all(isinstance(x, str) for x in doc)):
        for i, value in enumerate(doc):
            yield from _fields(value, path + (i,))
    else:
        yield path, doc


def _tolerance(doc, path):
    """How far certify lets this field move: positions within
    ``POSITION_TOL`` of the largest inventory modulus."""
    if path[0] == "inventory":
        return POSITION_TOL * max(math.hypot(*e["position"]) for e in doc["inventory"])
    return 0.0


def _other_rational(value):
    return st.fractions(-20, 20, max_denominator=9).filter(lambda f: f != value)


def _dicts(doc, path=()):
    """The path of every mapping in ``doc``, the document's own included."""
    if isinstance(doc, dict):
        yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _dicts(value, path + (key,))


_NEW_KEY = object()  # a field that is not there: a key no writer writes


def _mutation(doc, path, value):
    """A strategy for a different value of the field at ``path``; an
    integer or flag may also keep its value as another JSON type, which
    Python's == equates with it."""
    if value is _NEW_KEY:
        return st.just("checked by hand")
    if isinstance(value, bool):
        return st.sampled_from([not value, int(value)])
    if isinstance(value, int):
        retyped = st.sampled_from([float(value), True, False])
        return st.one_of(st.integers(-3, 3).filter(bool).map(lambda d: value + d), retyped)
    if isinstance(value, float):
        if path[:2] == ("params", "ts"):  # a phase moved by less is the same float pair
            return st.floats(1e-3, 3.0).flatmap(lambda d: st.sampled_from([value - d, value + d]))
        tol = _tolerance(doc, path)
        moves = st.floats(2 * tol, max(1.0, 4 * tol)).flatmap(lambda d: st.sampled_from([value - d, value + d]))
        anywhere = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]),
        )
        return (moves if tol else st.one_of(moves, anywhere)).filter(lambda x: abs(x - value) > tol)
    if isinstance(value, list):  # a rational [numerator, denominator]
        old = Fraction(int(value[0]), int(value[1]))
        return _other_rational(old).map(lambda f: [str(f.numerator), str(f.denominator)])
    try:
        old = Fraction(value)
    except ValueError:
        names = ["hermite_wronskian", "laguerre_wronskian", "monomial_wronskian", "adler_moser",
                 "cylinder_wronskian", "hermite"]
        return st.one_of(st.sampled_from(names), st.text(max_size=12)).filter(lambda x: x != value)
    return _other_rational(old).map(str)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), data=st.data())
def test_golden_with_one_field_mutated_fails_certify(name, data):
    """Any single scalar field of a golden set to another value, an
    integer or flag retyped, or a new key in any mapping fails certify,
    except where certify tolerates a change by design, which the search
    does not draw:

    * inventory positions within ``POSITION_TOL`` of the largest inventory
      modulus (numeric roots may differ in the last bits between builds);
    * ``notes.gradient_max``, which certify recomputes and overwrites.

    A moved recipe parameter may leave the pair as it was: the last
    Adler-Moser parameter at even k adds a multiple of psi_1 = z to
    psi_{k+1}, which no Wronskian sees.  The document is then a correct
    certificate of its new params, which certify must accept: it must
    equal their rebuild.  A cylinder phase moves by at least 1e-3, as a
    smaller move may round to the same float pair."""
    doc = _golden(name)
    fields = [(path, value) for path, value in _fields(doc) if path != ("notes", "gradient_max")]
    fields += [(path + ("comment",), _NEW_KEY) for path in _dicts(doc)]
    path, value = data.draw(st.sampled_from(fields))
    new = data.draw(_mutation(doc, path, value))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    try:
        cert = certify(EquilibriumCertificate.from_json(doc))
    except CertificationFailure:
        return
    assert path[0] == "params", path
    rebuilt = equilibria.check_built(equilibria._RECIPES[cert.recipe](**cert.params))
    # as JSON text, so that a retyped value (1.0 or true for 1) is no match
    assert json.dumps(rebuilt.to_json(), sort_keys=True) == json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("retype", [float, bool], ids=["float", "flag"])
@pytest.mark.parametrize("name", sorted(n for n in CASES if "indices" in CASES[n]))
def test_golden_with_a_retyped_recipe_index_fails_certify(name, retype):
    # before, == equated the stored index 1.0 or true with the rebuild's 1:
    # the document certified, and the certificate wrote the retype back
    doc = _golden(name)
    doc["params"]["indices"][0] = retype(doc["params"]["indices"][0])
    with pytest.raises(CertificationFailure, match="stored 'params' does not match"):
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
    # numpy build) stores the same exact reduced pair and the inventory up
    # to the last bits of each position
    doc = json.loads((DATA / name / "certificate.json").read_text())
    for entry in doc["inventory"]:
        entry["position"] = [_ulps(x, 4) for x in entry["position"]]
    assert certify(EquilibriumCertificate.from_json(doc)).residual_exact_zero


@pytest.mark.parametrize("name", CYLINDERS)
def test_cylinder_golden_with_reduced_off_by_one_fails_certify(name):
    # before, a float reduced pair passed within the position tolerance of
    # the rebuild
    doc = json.loads((DATA / name / "certificate.json").read_text())
    entry = doc["reduced"][0]["coeffs"][0]
    real = entry[0] if isinstance(entry[0], list) else entry  # [numerator, denominator]
    real[0] = str(int(real[0]) + 1)
    with pytest.raises(CertificationFailure, match="'reduced'"):
        certify(EquilibriumCertificate.from_json(doc))


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_stores_exact_fields(name):
    # before, a cylinder certificate stored p, q, P, U, lambda and reduced
    # as floats
    doc = _golden(name)
    polys = [doc[key] for key in ("p", "q", "P", "U")] + doc["reduced"]
    assert all(poly["exact"] for poly in polys)
    assert set(doc["lambda"]) == {"re", "im"}


@pytest.mark.parametrize("name", CYLINDERS)
def test_cylinder_golden_is_an_equilibrium_of_its_stored_field(name):
    # before, the float pair left max |H| / max |p q| at 0 to 7.7e-15 on
    # these four (1 to 14.1 under the field stored before that)
    cert = EquilibriumCertificate.from_json(_golden(name))
    assert polylinear_H(cert.sys, [cert.p, cert.q], lam=cert.lam).is_zero


@pytest.mark.parametrize("name", CYLINDERS)
def test_cylinder_golden_with_a_site_moved_1e6_relative_fails_the_gradient_bound(name):
    doc = _golden(name)
    entry = doc["inventory"][0]
    x, y = entry["position"]
    entry["position"] = [x + 1e-6 * math.hypot(x, y), y]
    cert = EquilibriumCertificate.from_json(doc)
    if len(doc["inventory"]) > 1:  # a lone charge is at rest anywhere: -U(w) - P'(w)/2 = 0
        with pytest.raises(CertificationFailure, match="equilibrium gradient .* exceeds 1e-08 of its terms' size"):
            equilibria.check_built(cert)
    with pytest.raises(CertificationFailure, match="stored 'inventory'"):
        certify(cert)


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
    # compares the inventory positions within ``POSITION_TOL``.
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
