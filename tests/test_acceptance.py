"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Exact arithmetic throughout; no tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

from arfrf.families import closed_form_rf, med_instances
from arfrf.lattice import first_row_differences, kernel_lattice, lattice_coordinates, lattice_index
from arfrf.rfmatrix import determinant, find_frobenius_det_witness, rf_matrices
from arfrf.semigroup import from_generators
from arfrf.verifier import VerifyConfig, load_fixtures, verify_claim
from arfrf.cli import main

CONFIG = VerifyConfig()  # the default desk-scale grid: s <= 200, med m 6..10

# the four RF(18) matrices of <5,19,21,22,23> as tabulated
RF18_TABULATED = {
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (8, 0, 0, -1, 0), (4, 0, 1, 0, -1)),
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (8, 0, 0, -1, 0), (0, 1, 0, 1, -1)),
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (0, 1, 1, -1, 0), (4, 0, 1, 0, -1)),
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (0, 1, 1, -1, 0), (0, 1, 0, 1, -1)),
}

SIX_DIFFERENCES = {
    (1, 2): [-3, 1, -1, 1],
    (1, 3): [-11, 0, 1, 1],
    (1, 4): [-9, -1, 0, 2],
    (2, 3): [-8, -1, 2, 0],
    (2, 4): [-6, -2, 1, 1],
    (3, 4): [2, -1, -1, 1],
}

SIX_BINOMIALS = {
    "x1^3*x3 - x2*x4",
    "x1^11 - x3*x4",
    "x1^9*x2 - x4^2",
    "x1^8*x2 - x3^2",
    "x1^6*x2^2 - x3*x4",
    "x1^2*x4 - x2*x3",
}


def _report_line(criterion, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE criterion {criterion} ({label}): PASS in {elapsed:.1f}s")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def _med_grid_specs():
    for m in range(CONFIG.med_m_min, CONFIG.med_m_max + 1):
        yield from med_instances(m, [m * t for t in range(1, CONFIG.med_s_factor + 1)])


def test_criterion_1_section3_worked_example(capsys):
    started = time.perf_counter()
    assert main(["analyze", "5", "19", "21", "22", "23", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["conductor"] == 19
    assert payload["pseudo_frobenius"] == [14, 16, 17, 18]

    assert main(["rf", "5", "19", "21", "22", "23", "--pf", "18", "--dets",
                 "--format", "json"]) == 0
    [block] = json.loads(capsys.readouterr().out)["payload"]["rf"]
    assert block["count"] == 4
    matrices = {tuple(tuple(row) for row in m) for m in block["matrices"]}
    assert matrices == RF18_TABULATED
    assert 18 in block["determinants"]
    with capsys.disabled():
        _report_line(1, "multiplicity-5 worked example", started, 1.0)


def test_criterion_2_section5_worked_example(capsys):
    started = time.perf_counter()
    sg = from_generators([4, 10, 21, 23])
    witness = find_frobenius_det_witness(sg)
    assert witness is not None
    assert determinant(witness) == -19
    for (i, j), vector in SIX_DIFFERENCES.items():
        assert [a - b for a, b in zip(witness[i - 1], witness[j - 1])] == vector

    assert main(["relations", "4", "10", "21", "23", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["determinant"] == -19
    assert {rel["binomial"] for rel in payload["relations"]} == SIX_BINOMIALS
    assert payload["index"] == 1
    with capsys.disabled():
        _report_line(2, "embedding-dimension-4 worked example", started, 1.0)


def test_criterion_3_closed_form_sweep(capsys):
    started = time.perf_counter()
    report = verify_claim("Props3.1-3.12", CONFIG)
    assert report.counterexamples == []
    assert report.status == "mismatch-with-details"
    assert report.checked > 8000

    loci = {(m["variant"], m["pf_label"]): m for m in report.mismatches}
    fixtures = load_fixtures()
    expected_loci = {(f["variant"], f["pf_label"]) for f in fixtures}
    assert set(loci) == expected_loci

    # the two pre-registered suspected typos, each flagged with the
    # enumerated correction attached
    typos = {(f["variant"], f["pf_label"]) for f in fixtures if f["kind"] == "suspected-typo"}
    assert typos == {("m4_2k", "s-1"), ("m5_4b", "s-2")}
    for key in typos:
        example = loci[key]["example"]
        assert example["formula_only"] and example["enumeration_only"]

    # the remaining locus is the pre-registered single-instance omission:
    # nothing tabulated is wrong there, enumeration just finds more
    omission = loci[("m5_4a", "s-1")]
    assert omission["s_values"] == [9]
    assert omission["example"]["formula_only"] == []
    assert omission["example"]["enumeration_only"]
    with capsys.disabled():
        _report_line(3, "closed-form tables vs enumeration, s <= 200", started, 60.0)


def test_criterion_4_determinant_witnesses(capsys):
    started = time.perf_counter()
    report = verify_claim("Cor3.13", CONFIG)
    assert report.status == "pass"
    assert report.checked > 2500

    from arfrf.families import build_family

    for spec in _med_grid_specs():
        sg = build_family(spec)
        witness = find_frobenius_det_witness(sg)
        assert witness is not None
        assert abs(determinant(witness)) == sg.frobenius
        [matrix] = closed_form_rf(spec, spec.s - 1)
        assert determinant(matrix) == (-1) ** (spec.m - 1) * (spec.s - 1)
    assert verify_claim("Cor4.3", CONFIG).status == "pass"
    with capsys.disabled():
        _report_line(4, "determinant witnesses |det| = F", started, 60.0)


def test_criterion_5_sign_exact_witnesses(capsys):
    started = time.perf_counter()
    small = verify_claim("Thm5.4.1", CONFIG)
    med = verify_claim("Thm5.4.2", CONFIG)
    assert small.status == "pass" and small.checked > 2500
    assert med.status == "pass" and med.checked == 50
    with capsys.disabled():
        _report_line(5, "det = (-1)^(e+1) F witnesses", started, 120.0)


def test_criterion_6_genericity_verdicts(capsys):
    started = time.perf_counter()
    generic = verify_claim("Thm5.6", CONFIG)
    nongeneric = verify_claim("Thm5.7", CONFIG)
    assert generic.status == "pass" and generic.checked > 200
    assert nongeneric.status == "pass" and nongeneric.checked > 2500
    with capsys.disabled():
        _report_line(6, "genericity split at multiplicity 3/4", started, 120.0)


def test_criterion_7_column_zero_pairs(capsys):
    started = time.perf_counter()
    report = verify_claim("Lemma4.5", CONFIG)
    assert report.status == "pass"
    assert report.grid["closure_samples"] == 100
    assert report.checked > 10_000  # every RF matrix of F(S) over the universe
    with capsys.disabled():
        _report_line(7, "zero pairs in every RF matrix, m > 5", started, 120.0)


def test_criterion_8_oracle_equivalence(capsys):
    started = time.perf_counter()
    report = verify_claim("OracleAgreement", CONFIG)
    assert report.status == "pass"
    assert report.checked == 1000
    with capsys.disabled():
        _report_line(8, "oracles vs primary implementations", started, 60.0)


def test_criterion_9_lattice_equivalence(capsys):
    started = time.perf_counter()
    report = verify_claim("Thm5.2-equiv", CONFIG)
    assert report.status == "pass"
    assert report.checked > 3000

    # spot re-check of the pointwise equivalence on the worked example
    sg = from_generators([4, 10, 21, 23])
    V = kernel_lattice(sg)
    indexed = [
        (determinant(m), lattice_index(lattice_coordinates(first_row_differences(m), V)))
        for m in rf_matrices(sg, sg.frobenius)
    ]
    assert any(abs(d) == 19 for d, _ in indexed) == any(i == 1 for _, i in indexed)
    with capsys.disabled():
        _report_line(9, "index-1 and |det| = F equivalence", started, 120.0)
