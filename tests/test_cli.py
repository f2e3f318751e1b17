"""Command-line surface: exit codes, artifact round-trips, refusal paths.

Everything runs in-process through cli.main(argv) so the exit codes and
emitted files can be asserted directly against tmp_path.
"""

import argparse
import json
from collections import Counter

import numpy as np
import pytest

from susyosc import cli, painleve
from susyosc.cli import main, parse_z
from susyosc.coherent import Family
from susyosc.errors import QuadratureError, SeriesError, TruncationError, UsageError
from susyosc.serialize import canonical_json, load_json, load_system
from susyosc.susy import SusySystem, SystemSpec, build_system

_K1_FLAGS = ["--k", "1", "--eps-top", "-1.0", "--nu", "0.5"]
_K4_FLAGS = ["--k", "4", "--eps-top", "-2.8", "--nu", "-0.9"]


@pytest.fixture(scope="module")
def k1_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "sys_k1.json"
    assert main(["build"] + _K1_FLAGS + ["--out", str(path)]) == 0
    return str(path)


def test_parse_z_forms():
    z = parse_z("1.5@-4.93")
    assert abs(z) == pytest.approx(1.5)
    assert parse_z("-0.3,0.5") == complex(-0.3, 0.5)
    assert parse_z("2.5") == complex(2.5, 0.0)
    with pytest.raises(UsageError):
        parse_z("nope@@1")
    for text in ("nan", "inf", "nan,0", "1@nan", "inf@0"):
        with pytest.raises(UsageError, match="not finite"):
            parse_z(text)


def test_build_round_trip(k1_doc):
    text = open(k1_doc).read()
    system, doc = load_system(k1_doc)
    # the canonical printer reproduces the file byte for byte
    assert canonical_json(doc) == text
    assert doc["kind"] == "susy_system"
    assert system.spec.k == 1
    assert doc["derived"]["e_gap"] == pytest.approx(1.5)


def test_document_with_other_float_spelling_loads(k1_doc, tmp_path):
    # a document whose floats are written with 17 significant digits, as
    # earlier builds wrote them, parses to the same values and verifies
    def respell(value):
        if isinstance(value, dict):
            return "{%s}" % ", ".join('"%s": %s' % (k, respell(v)) for k, v in value.items())
        if isinstance(value, list):
            return "[%s]" % ", ".join(respell(v) for v in value)
        return "%.17g" % value if isinstance(value, float) else json.dumps(value)

    doc = load_json(k1_doc)
    old = tmp_path / "old_spelling.json"
    old.write_text(respell(doc) + "\n")
    assert old.read_text() != open(k1_doc).read()
    _, loaded = load_system(str(old))
    assert loaded == doc
    assert main(["verify", "--system", str(old)]) == 0


def test_canonical_json_plain_values_only():
    text = canonical_json({"b": np.float32(0.5), "a": [np.int64(3), np.bool_(True)],
                           "c": np.array([[1.5, 2.0]]), "d": np.longdouble(0.25)})
    assert json.loads(text) == {"a": [3, True], "b": 0.5, "c": [[1.5, 2.0]], "d": 0.25}
    assert text.endswith("}\n")
    assert canonical_json({"x": 0.1, "y": 2.0}) == '{\n  "x": 0.1,\n  "y": 2.0\n}\n'
    for bad in ({"x": float("nan")}, {"x": np.array([1.0, np.inf])}, {"x": 1j},
                {"x": object()}, {"x": {1, 2}}):
        with pytest.raises(UsageError):
            canonical_json(bad)


def test_corrupted_document_refused(k1_doc, tmp_path, capsys):
    doc = load_json(k1_doc)
    doc["checks"]["residual_max"] = 0.0
    bad = tmp_path / "tampered.json"
    bad.write_text(canonical_json(doc))
    assert main(["verify", "--system", str(bad)]) == 2
    assert "corrupted" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [True, float], ids=["true", "float"])
@pytest.mark.parametrize("field", ["k", "n_points", "n_max"])
def test_document_sizes_must_be_integers(k1_doc, tmp_path, capsys, field, spelling):
    # true == 1 and 2101.0 == 2101 in Python, so the comparison by value with
    # the rebuilt document cannot catch these spellings itself
    doc = load_json(k1_doc)
    holder = doc if field == "n_max" else doc["spec"]
    holder[field] = True if spelling is True else float(holder[field])
    bad = tmp_path / "sizes.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--system", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed system document" in err and "%s must be an integer" % field in err


@pytest.mark.parametrize("spelling", [True, False, "-1.0"], ids=["true", "false", "string"])
@pytest.mark.parametrize("field", ["eps_top", "nu", "x_min", "x_max"])
def test_document_floats_must_be_numbers(k1_doc, tmp_path, capsys, field, spelling):
    # false == 0.0 in Python, so "nu": false would otherwise load as nu = 0
    doc = load_json(k1_doc)
    doc["spec"][field] = spelling
    bad = tmp_path / "floats.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--system", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed system document" in err and "%s must be a number" % field in err


def test_document_float_past_float_range_refused(k1_doc, tmp_path, capsys):
    # a JSON integer too large for a float is malformed, not a traceback
    doc = load_json(k1_doc)
    doc["spec"]["nu"] = 10 ** 400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--system", str(bad)]) == 2
    assert "malformed system document" in capsys.readouterr().err


def test_document_integer_past_float_range_names_the_field(k1_doc, tmp_path):
    doc = load_json(k1_doc)
    doc["spec"]["nu"] = 10 ** 400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="^malformed system document .*: nu must be finite"):
        load_system(str(bad))


def test_not_a_system_document(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"kind": "something_else"}\n')
    assert main(["painleve", "--system", str(path)]) == 2
    path.write_text("{broken")
    assert main(["painleve", "--system", str(path)]) == 2


def test_json_that_is_not_an_object_refused(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for text in ("[1, 2]", "3", '"x"', "null"):
        path.write_text(text)
        for cmd in ("verify", "painleve"):
            assert main([cmd, "--system", str(path)]) == 2, (cmd, text)
            assert "does not hold a system document" in capsys.readouterr().err


def test_build_refuses_state_tables_past_numpy_limit(tmp_path, capsys):
    # 10**20 iso rows pass numpy's largest dimension on any host
    out = tmp_path / "sys.json"
    rc = main(["build"] + _K1_FLAGS + ["--nmax", str(10 ** 20), "--out", str(out)])
    assert rc == 2
    assert "n_max=%d on n_points=2101" % 10 ** 20 in capsys.readouterr().err
    assert not out.exists()


def test_cs_reference_label(tmp_path):
    out = tmp_path / "cs.json"
    rc = main(["cs"] + _K4_FLAGS
              + ["--family", "lin-new", "--z", "1.5@-4.93", "--out", str(out)])
    assert rc == 0
    doc = load_json(str(out))
    assert doc["kind"] == "coherent_state"
    assert doc["n_levels"] == 4
    assert doc["probability_sum"] == pytest.approx(1.0, abs=1e-12)
    assert abs(doc["mean_energy"] - (-3.64945)) < 1e-4


def test_cs_density_artifact(tmp_path):
    out = tmp_path / "cs.json"
    dens = tmp_path / "density.csv"
    rc = main(["cs"] + _K1_FLAGS
              + ["--family", "lin-iso", "--z", "0.8@0.4",
                 "--out", str(out), "--density", str(dens)])
    assert rc == 0
    doc = load_json(str(out))
    assert doc["density_norm"] == pytest.approx(1.0, abs=1e-6)
    table = np.genfromtxt(str(dens), delimiter=",", names=True)
    assert table["density"].min() >= 0.0
    assert table["x"].size == 2101


def test_cs_density_builds_the_states_levels(tmp_path, capsys):
    """The density builds the 15 levels the k = 6 state holds; iso level 30,
    which this spec cannot build inside the norm gate, is never asked for.
    cs has no --nmax."""
    out = tmp_path / "cs.json"
    dens = tmp_path / "density.csv"
    argv = ["cs", "--k", "6", "--eps-top", "-2.8", "--nu", "-0.9",
            "--family", "lin-iso", "--z", "0.9,0.4", "--out", str(out)]
    assert main(argv + ["--density", str(dens)]) == 0
    doc = load_json(str(out))
    assert doc["n_levels"] == 15
    assert doc["density_norm"] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--nmax", "40"])
    assert exc.value.code == 2
    assert "--nmax" in capsys.readouterr().err


def test_displacement_on_iso_ladder_refused(tmp_path, capsys):
    witness = tmp_path / "witness.csv"
    rc = main(["cs"] + _K4_FLAGS
              + ["--family", "docs-iso", "--z", "1.0",
                 "--witness-out", str(witness), "--out", str(tmp_path / "cs.json")])
    assert rc == 2
    assert "diverges" in capsys.readouterr().err
    table = np.genfromtxt(str(witness), delimiter=",", names=True)
    # the partial sums blow past any threshold within a few terms
    assert np.nanmax(table["partial_sum"]) > 1e30
    assert np.any(table["partial_sum"] > 1e6)


def test_displacement_witness_names_its_label(tmp_path, capsys):
    # z = 0 has no divergent series: the witness is that of z = 1, and says so
    tables = {}
    for text, label in (("0,0", "z=(1+0j) in place of z=0 written"),
                        ("1.0", "z=(1+0j) written")):
        witness = tmp_path / ("witness_%s.csv" % text)
        rc = main(["cs"] + _K4_FLAGS
                  + ["--family", "docs-iso", "--z", text,
                     "--witness-out", str(witness), "--out", str(tmp_path / "cs.json")])
        assert rc == 2
        assert label in capsys.readouterr().err
        tables[text] = witness.read_text()
    assert tables["0,0"] == tables["1.0"]


def test_annihilation_on_new_ladder_refused(tmp_path, capsys):
    witness = tmp_path / "powers.csv"
    rc = main(["cs"] + _K4_FLAGS
              + ["--family", "aocs-new", "--z", "0.5,0.5",
                 "--witness-out", str(witness), "--out", str(tmp_path / "cs.json")])
    assert rc == 2
    assert "nilpotent" in capsys.readouterr().err
    table = np.genfromtxt(str(witness), delimiter=",", names=True)
    assert table["frobenius_norm"].size == 4
    assert table["frobenius_norm"][-1] == 0.0
    assert table["frobenius_norm"][0] > 0.0


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "sys.json"
    assert main(["build"] + _K1_FLAGS + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s" % out)
    assert "Traceback" not in err


def test_unwritable_witness_exits_2(tmp_path, capsys):
    witness = tmp_path / "missing" / "witness.csv"
    rc = main(["cs"] + _K4_FLAGS
              + ["--family", "docs-iso", "--z", "1.0",
                 "--witness-out", str(witness), "--out", str(tmp_path / "cs.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s" % witness)
    assert "diverges" not in err


def test_unknown_family_rejected(tmp_path):
    rc = main(["cs"] + _K4_FLAGS
              + ["--family", "bogus", "--z", "1.0",
                 "--out", str(tmp_path / "cs.json")])
    assert rc == 2


def test_bad_label_rejected(tmp_path):
    rc = main(["cs"] + _K4_FLAGS
              + ["--family", "lin-iso", "--z", "what",
                 "--out", str(tmp_path / "cs.json")])
    assert rc == 2


# the report's (suite, check) pairs are its contract: readers look checks up
# by name, the benchmark's cli workload among them
_VERIFY_CHECKS_K1 = [
    ("coherent", "kernel_inner_aocs_iso"),
    ("coherent", "probability_sum_aocs_iso"),
    ("coherent", "mean_vs_sum_aocs_iso"),
    ("coherent", "evolution_aocs_iso"),
    ("coherent", "kernel_inner_docs_new"),
    ("coherent", "probability_sum_docs_new"),
    ("coherent", "mean_vs_sum_docs_new"),
    ("coherent", "evolution_docs_new"),
    ("coherent", "kernel_inner_lin_iso"),
    ("coherent", "probability_sum_lin_iso"),
    ("coherent", "mean_vs_sum_lin_iso"),
    ("coherent", "evolution_lin_iso"),
    ("coherent", "kernel_inner_lin_new"),
    ("coherent", "probability_sum_lin_new"),
    ("coherent", "mean_vs_sum_lin_new"),
    ("coherent", "evolution_lin_new"),
    ("coherent", "annihilation_aocs_iso"),
    ("coherent", "annihilation_lin_iso"),
    ("coherent", "divergence_crossing"),
    ("ladder", "stencil_vs_table"),
    ("ladder", "kernel_state_annihilated"),
    ("ladder", "product_rule"),
    ("ladder", "nilpotency"),
    ("ladder", "linearized_commutator"),
    ("measures", "moments_mu1"),
    ("measures", "positivity_mu1"),
    ("measures", "moments_mu2"),
    ("measures", "positivity_mu2"),
    ("measures", "moments_mu3"),
    ("measures", "positivity_mu3"),
    ("measures", "identity_aocs_iso"),
    ("measures", "identity_docs_new"),
    ("measures", "identity_lin_iso"),
    ("measures", "identity_lin_new"),
    ("painleve", "backlund_half_eps0"),
    ("states", "orthonormality"),
    ("states", "eigen_residual"),
]


def test_verify_all_suites(k1_doc, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--system", k1_doc, "--out", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 37
    assert all(ln.startswith("PASS") for ln in lines)
    assert [ln.split()[1] for ln in lines] == ["%s:%s" % pair for pair in _VERIFY_CHECKS_K1]
    doc = load_json(str(report))
    assert doc["all_passed"] is True
    assert doc["suites_run"] == ["coherent", "ladder", "measures", "painleve", "states"]
    assert [(c["suite"], c["check"]) for c in doc["checks"]] == _VERIFY_CHECKS_K1


def test_verify_scans_orthonormality_once(k1_doc, tmp_path, monkeypatch):
    # load_system's rebuild scans the states once; the states suite reports
    # the document's figures, which that rebuild has matched by value
    calls = []
    scan = SusySystem.orthonormality_deviation

    def counted(self):
        calls.append(self)
        return scan(self)

    monkeypatch.setattr(SusySystem, "orthonormality_deviation", counted)
    report = tmp_path / "report.json"
    assert main(["verify", "--system", k1_doc, "--out", str(report)]) == 0
    assert len(calls) == 1
    states = {c["check"]: c["value"] for c in load_json(str(report))["checks"]
              if c["suite"] == "states"}
    monkeypatch.undo()
    fresh = build_system(SystemSpec(k=1, eps_top=-1.0, nu=0.5))
    assert states["orthonormality"] == fresh.orthonormality_deviation()
    assert states["eigen_residual"] == max(fresh.residual(st) for st in fresh.all_states)


def test_verify_builds_each_coherent_state_once(k1_doc, tmp_path, monkeypatch):
    # the coherent suite's annihilation checks read the states its family
    # loop built; the check order is _VERIFY_CHECKS_K1's
    calls = []
    construct = cli.construct_cs

    def counted(family, z, params):
        calls.append((family, z))
        return construct(family, z, params)

    monkeypatch.setattr(cli, "construct_cs", counted)
    report = tmp_path / "report.json"
    assert main(["verify", "--system", k1_doc, "--out", str(report)]) == 0
    assert Counter(calls) == Counter((family, z) for family in Family.ALL
                                     for z in (0.9 + 0.4j, -0.3 + 1.1j))
    assert [(c["suite"], c["check"]) for c in load_json(str(report))["checks"]] \
        == _VERIFY_CHECKS_K1


def test_verify_refuses_a_document_without_iso_state_1(tmp_path, capsys):
    # the ladder suite's reference image is iso state 1
    doc = tmp_path / "sys.json"
    assert main(["build"] + _K1_FLAGS + ["--nmax", "0", "--out", str(doc)]) == 0
    capsys.readouterr()
    assert main(["verify", "--system", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: verify needs n_max >= 1, got 0")
    assert "PASS" not in captured.out and "Traceback" not in captured.err


def test_painleve_summary(k1_doc, tmp_path):
    out = tmp_path / "piv.json"
    csv = tmp_path / "piv.csv"
    rc = main(["painleve", "--system", k1_doc, "--assign", "half",
               "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    doc = load_json(str(out))
    assert doc["passed"] is True
    assert doc["residual_stats"]["max"] <= 1e-5
    assert doc["residual_stats"]["n_evaluated"] > 500
    table = np.genfromtxt(str(csv), delimiter=",", names=True)
    # masked points travel as nan in the CSV
    assert np.any(np.isnan(table["residual"]))
    assert np.nanmax(table["residual"]) <= 1e-5


def test_painleve_odd_state_on_symmetric_grid(tmp_path):
    # nu = 0, k = 1: the half-assignment state is odd, with its node on the
    # grid sample x = 0
    path = str(tmp_path / "sym.json")
    assert main(["build", "--k", "1", "--eps-top", "-1", "--nu", "0", "--nmax", "2",
                 "--out", path]) == 0
    assert main(["painleve", "--system", path, "--out", str(tmp_path / "piv.json")]) == 0


def test_painleve_support_guard(k1_doc, tmp_path, monkeypatch):
    # requiring nearly the whole window to be usable leaves the sample too
    # thin to judge
    monkeypatch.setattr(painleve, "DEFAULT_MIN_FRACTION", 0.999)
    rc = main(["painleve", "--system", k1_doc, "--out", str(tmp_path / "piv.json")])
    assert rc == 3


def test_painleve_bad_assignment(k1_doc, tmp_path, capsys):
    for assign, named in (("top1", "unknown assignment 'top1' (choose from ['half', 'eps0'])"),
                          ("e1=eps0", "'e1=eps0'")):
        rc = main(["painleve", "--system", k1_doc, "--assign", assign,
                   "--out", str(tmp_path / "piv.json")])
        assert rc == 2
        assert named in capsys.readouterr().err


def test_measure_table(tmp_path):
    out = tmp_path / "measures.csv"
    rc = main(["measure"] + _K1_FLAGS
              + ["--rmax", "3.0", "--out", str(out)])
    assert rc == 0
    table = np.genfromtxt(str(out), delimiter=",", names=True)
    assert table.dtype.names == ("r", "f1", "f2", "f3")
    assert table["r"].size == 120
    assert table["r"][-1] == 3.0
    for name in ("f1", "f2", "f3"):
        assert np.all(table[name] > 0.0)


def test_density_table(tmp_path):
    out = tmp_path / "density.csv"
    rc = main(["density"] + _K1_FLAGS
              + ["--measure", "mu2", "--rmax", "4.0", "--out", str(out)])
    assert rc == 0
    table = np.genfromtxt(str(out), delimiter=",", names=True)
    assert table["r"].size == 120
    assert np.all(table["density"] > 0.0)


def test_radial_grid_validation(tmp_path):
    rc = main(["measure"] + _K1_FLAGS
              + ["--rmax", "-1.0", "--out", str(tmp_path / "m.csv")])
    assert rc == 2


def test_non_finite_radius_refused(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["measure"] + _K1_FLAGS + ["--rmax", "nan", "--out", str(out)]) == 2
    assert "--rmax" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_label_refused(tmp_path, capsys):
    out = tmp_path / "cs.json"
    rc = main(["cs", "--k", "2", "--eps-top", "-1.3", "--nu", "0",
               "--family", "docs-new", "--z=1e200", "--out", str(out)])
    assert rc == 2
    assert "|z|^2" in capsys.readouterr().err
    assert not out.exists()


def test_aocs_iso_label_whose_norm_series_overflows_refused(tmp_path, capsys):
    out = tmp_path / "cs.json"
    rc = main(["cs", "--k", "2", "--eps-top", "-1.3", "--nu", "0.3",
               "--family", "aocs-iso", "--z=1e154,0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: label with |z|^2=1e+308 overflows the aocs_iso norm series\n"
    assert not out.exists()


def test_density_refuses_non_finite_values(tmp_path, capsys):
    # mu2: 0 * inf at the far radii; mu1: 0F2 overflows and is refused at once,
    # naming the largest radius
    k2_flags = ["--k", "2", "--eps-top", "-1.3", "--nu", "0.3"]
    for flags, measure, rmax, said in (
            (_K4_FLAGS, "mu2", "1e100", "mu2 density is not finite"),
            (_K4_FLAGS, "mu1", "1e100", "mu1 density is not finite at r=1e+100"),
            (k2_flags, "mu1", "4000", "mu1 density is not finite at r=4000")):
        out = tmp_path / ("density_%s.csv" % measure)
        rc = main(["density"] + flags + ["--measure", measure,
                                         "--rmax", rmax, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert said in err and "Traceback" not in err
        assert not out.exists()


def test_overflowing_gamma_refused_as_invalid_input(tmp_path, capsys):
    # gap 100 and 143: Gamma(gap+1) is finite, its square overflows
    for eps_top in ("-99.5", "-142.5"):
        out = tmp_path / "density.csv"
        rc = main(["density", "--k", "1", "--eps-top", eps_top, "--nu", "0",
                   "--measure", "mu3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Gamma(gap+1)^2" in err and "Traceback" not in err
        assert not out.exists()


def test_unbuildable_valid_spec_exits_4(tmp_path, capsys):
    # a valid spec whose iso state n=30 misses its closed-form norm on the
    # default grid is a numerical failure, not invalid input
    out = tmp_path / "sys.json"
    rc = main(["build", "--k", "6", "--eps-top", "-2.8", "--nu", "-0.9", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "n=30" in err and "disagrees with closed form" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["build", "--k", "2", "--eps-top=-inf", "--nu", "0"], "eps_top"),
    (["cs", "--k", "2", "--eps-top=-inf", "--nu", "0", "--family", "lin-new", "--z", "0.5"],
     "eps_top"),
    (["build", "--k", "2", "--eps-top", "-1", "--nu", "0", "--xmax=inf"], "x_max"),
])
def test_non_finite_spec_refused_by_name(argv, field, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be finite" % field)
    assert "Traceback" not in err and not out.exists()


def test_overflowing_grid_refused_by_the_spec(tmp_path, capsys):
    """x_max - x_min = 2e308 is inf: the spec refuses it naming x_max, before
    linspace would warn and the seed series meet an infinite argument
    (warnings are errors here)."""
    out = tmp_path / "out.json"
    argv = ["build", "--k", "2", "--eps-top", "-1.3", "--nu", "0.3", "--xmax", "1e308"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid overflows") and "x_max=1e+308" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("cmd, xmax", [
    (["build"], "-3"),
    (["cs", "--family", "lin-iso", "--z", "0.5"], "0"),
])
def test_empty_grid_names_xmax(cmd, xmax, tmp_path, capsys):
    """--xmax is the only grid bound the user sets, so the refusal gives its value."""
    out = tmp_path / "out.json"
    argv = cmd + ["--k", "2", "--eps-top", "-1.3", "--nu", "0.3", "--xmax", xmax]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty grid") and "x_max=%s" % xmax in err
    assert "Traceback" not in err and not out.exists()


# each subcommand's option strings: a new command-line knob has to be added
# here on purpose; measure and density read (gap, k) only, so take no grid,
# and cs --density builds the levels its state holds, so only build has --nmax
_SPEC = ["--eps-top", "--k", "--nu"]
_GRID = ["--n", "--xmax"]
EXPECTED_OPTIONS = {
    "build": sorted(_SPEC + _GRID + ["--nmax", "--out"]),
    "cs": sorted(_SPEC + _GRID + ["--density", "--family", "--out", "--witness-out", "--z"]),
    "density": sorted(_SPEC + ["--measure", "--out", "--rmax"]),
    "measure": sorted(_SPEC + ["--out", "--rmax"]),
    "painleve": ["--assign", "--csv", "--out", "--system"],
    "verify": ["--out", "--system"],
}


def test_subcommand_options():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(opt for act in p._actions for opt in act.option_strings
                        if opt not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == EXPECTED_OPTIONS


def test_density_refuses_grid_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density"] + _K1_FLAGS + ["--measure", "mu1", "--xmax", "5"])
    assert exc.value.code == 2
    assert "--xmax" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["verify", "--system", "sys.json", "--suite", "states"], "--suite"),
    (["painleve", "--system", "sys.json", "--perturb-a", "0.05"], "--perturb-a"),
    (["measure"] + _K1_FLAGS + ["--npoints", "8"], "--npoints"),
    (["density"] + _K1_FLAGS + ["--measure", "mu2", "--npoints", "8"], "--npoints"),
    (["build"] + _K1_FLAGS + ["--xmin", "-8"], "--xmin"),
    (["cs"] + _K1_FLAGS + ["--family", "lin-iso", "--z", "0.5", "--xmin", "-8"], "--xmin"),
], ids=["verify-suite", "painleve-perturb-a", "measure-npoints", "density-npoints",
        "build-xmin", "cs-xmin"])
def test_deleted_options_refused(argv, option, tmp_path, capsys):
    # verify runs all five suites, painleve checks the assignment's own a,
    # tables hold 120 radii and --xmax is the half-width of a symmetric grid
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_xmax_is_the_half_width(tmp_path):
    out = tmp_path / "sys.json"
    assert main(["build"] + _K1_FLAGS + ["--xmax", "12.5", "--out", str(out)]) == 0
    spec = load_json(str(out))["spec"]
    assert (spec["x_min"], spec["x_max"]) == (-12.5, 12.5)


@pytest.mark.parametrize("exc, fields", [
    (SeriesError("series stalled", terms_used=500, partial_sum=2.5),
     ["  terms_used: 500", "  partial_sum: 2.5"]),
    (QuadratureError("tail unsettled", nodes_used=8192), ["  nodes_used: 8192"]),
    (QuadratureError("tail did not settle", nodes_used=1048576, last_estimate=1.77,
                     last_change=0.0012), ["  nodes_used: 1048576", "  last_change: 0.0012"]),
    (TruncationError("tail bound unmet", required=61, cap=48),
     ["  required: 61", "  cap: 48"]),
])
def test_structured_error_fields_reach_stderr(monkeypatch, capsys, exc, fields):
    def failing(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_measure", failing)
    assert main(["measure"] + _K1_FLAGS) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: %s" % exc
    assert err[1:] == fields
