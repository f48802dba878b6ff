import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import semiringlab as sl
from semiringlab.cli import main

from conftest import QSR3_TEXT, ZUNION_Z2_SBL

# not a semiring: xor addition with the same table as multiplication
XOR_SRT = "elements: 0 1\nadd:\n0 1\n1 0\nmul:\n0 1\n1 0\n"
# the add table's second row is one entry short
RAGGED_SRT = "elements: a b\nadd:\na b\na\nmul:\na b\nb a\n"


@pytest.fixture
def qsr3_file(tmp_path):
    path = tmp_path / "qsr3.srt"
    path.write_text(QSR3_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def test_validate_qsr3(run, qsr3_file):
    code, out, _ = run("validate", qsr3_file)
    assert code == 0
    assert "verdict: true" in out


def test_validate_invalid_semiring(run, tmp_path):
    path = tmp_path / "xor.srt"
    path.write_text(XOR_SRT, encoding="utf-8")
    code, out, _ = run("validate", str(path))
    assert code == 1
    assert "verdict: false" in out
    assert "failure.left-distributivity: (1, 0, 0)" in out


def test_validate_parse_error_exit_2(run, tmp_path):
    path = tmp_path / "ragged.srt"
    path.write_text(RAGGED_SRT, encoding="utf-8")
    code, out, err = run("validate", str(path))
    assert code == 2
    assert "ragged.srt:4" in err


def test_a_reserved_element_name_is_a_parse_error(run, tmp_path):
    # '->' separates the two sides of an .sbl map entry
    srt = tmp_path / "arrow.srt"
    srt.write_text("elements: -> b\nadd:\n-> b\nb b\nmul:\n-> ->\n-> b\n", encoding="utf-8")
    sbl = tmp_path / "arrow.sbl"
    sbl.write_text(ZUNION_Z2_SBL.replace("elements: z\nadd:\nz\nmul:\nz\n", "elements: ->\nadd:\n->\nmul:\n->\n"),
                   encoding="utf-8")
    for argv, where in ((("validate", str(srt)), "arrow.srt:1:"), (("compose", str(sbl)), "arrow.sbl:10:")):
        code, out, err = run(*argv)
        assert (code, out) == (2, ""), argv
        assert where in err and "element name '->' is reserved" in err and "Traceback" not in err, err


def test_unreadable_or_unwritable_paths_exit_2(run, tmp_path):
    # a negative result exits 1; a path that cannot be read or written is an
    # input error like a parse failure
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for argv, reason in (
        (("validate", str(tmp_path / "nope.srt")), "No such file or directory"),
        (("validate", str(tmp_path)), "Is a directory"),
        (("enumerate", "--order", "2", "--out", str(taken)), "File exists"),
    ):
        code, out, err = run(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and reason in err and "Traceback" not in err, argv


def test_classify_report(run, qsr3_file):
    code, out, _ = run("classify", qsr3_file)
    assert code == 0
    assert "class.quasi-skew-ring: true" in out
    assert "class.generalized-clifford: false" in out
    assert "class.strongly-additively-quasi-completely-inverse: true" in out


def test_classify_verify_theorems(run, qsr3_file):
    code, out, _ = run("classify", qsr3_file, "--verify-theorems")
    assert code == 0
    for theorem in ("QSR3", "QCR5", "QCI5", "SAQCI3", "HJEQ", "IDEALS"):
        assert f"theorem.{theorem}.agreement: true" in out


def test_classify_output_byte_stable(run, qsr3_file):
    _, first, _ = run("classify", qsr3_file, "--verify-theorems")
    _, second, _ = run("classify", qsr3_file, "--verify-theorems")
    assert first == second


def test_congruences(run, qsr3_file):
    code, out, _ = run("congruences", qsr3_file)
    assert code == 0
    assert "count: 3" in out
    assert "congruence.1.blocks: {a} {b,0}" in out
    assert "congruence.1.idempotent-separating: true" in out


def test_decompose_report_and_components(run, qsr3_file, tmp_path):
    outdir = tmp_path / "parts"
    code, out, _ = run("decompose", qsr3_file, "--emit-components", str(outdir))
    assert code == 0
    assert "classes: 1" in out
    assert "class.0.kernel: 0" in out
    assert "class.0.nil: a b" in out
    for emitted in ("y.srt", "T0.srt", "manifest.txt"):
        assert (outdir / emitted).exists()
    t0 = sl.load_srt(outdir / "T0.srt")
    assert sl.validate(t0).verdict
    y = sl.load_srt(outdir / "y.srt")
    assert sl.validate(y).verdict and y.order == 1
    manifest = (outdir / "manifest.txt").read_text(encoding="utf-8")
    assert "component.0.idempotent: 0" in manifest


# not a semiring: (a+a)+b = a but a+(a+b) = b
NONASSOCIATIVE_SRT = "elements: a b\nadd:\nb a\na a\nmul:\na a\na a\n"


@pytest.mark.parametrize(
    "argv", [("classify",), ("classify", "--verify-theorems"), ("congruences",), ("decompose",), ("maps",)]
)
def test_analysis_commands_reject_a_table_that_fails_the_laws(run, tmp_path, argv):
    path = tmp_path / "nonassociative.srt"
    path.write_text(NONASSOCIATIVE_SRT, encoding="utf-8")
    code, out, err = run(*argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not a semiring: add-associativity fails at (a, a, b)\n"


def test_decompose_non_qcr_exit_2(run, tmp_path):
    path = tmp_path / "bad.srt"
    path.write_text("elements: 0 1\nadd:\n0 0\n0 1\nmul:\n0 0\n0 0\n", encoding="utf-8")
    code, _, err = run("decompose", str(path))
    assert code == 2
    assert "error" in err


def test_compose_round_trip(run, tmp_path):
    sbl = tmp_path / "gc.sbl"
    sbl.write_text(ZUNION_Z2_SBL, encoding="utf-8")
    out_srt = tmp_path / "gc.srt"
    code, out, _ = run("compose", str(sbl), "-o", str(out_srt))
    assert code == 0
    assert "spec-valid: true" in out
    composed = sl.load_srt(out_srt)
    assert sl.validate(composed).verdict
    assert sl.classify(composed).holds("generalized-clifford")


def test_compose_invalid_spec_exit_1(run, tmp_path):
    sbl = tmp_path / "bad.sbl"
    sbl.write_text(ZUNION_Z2_SBL.replace("z -> 0", "z -> 1"), encoding="utf-8")
    code, out, _ = run("compose", str(sbl))
    assert code == 1
    assert "spec-valid: false" in out
    assert "failure.monomorphism-add" in out


def test_compose_rejects_a_map_for_an_incomparable_pair(run, tmp_path):
    sbl = tmp_path / "reversed.sbl"
    sbl.write_text(ZUNION_Z2_SBL + "map q p:\n0 -> z\n1 -> z\n", encoding="utf-8")
    code, out, err = run("compose", str(sbl))
    assert (code, out) == (2, "")
    assert err == "error: map q -> p is given for a pair that is not comparable in the b-lattice\n"


def test_maps_command(run, tmp_path):
    sbl = tmp_path / "gc.sbl"
    sbl.write_text(ZUNION_Z2_SBL, encoding="utf-8")
    out_srt = tmp_path / "gc.srt"
    assert main(["compose", str(sbl), "-o", str(out_srt)]) == 0
    code, out, _ = run("maps", str(out_srt))
    assert code == 0
    assert "found: true" in out
    assert "conditions-all-hold: true" in out
    assert "map.z.0|1: z->0" in out


def test_maps_requires_saqci(run, tmp_path):
    path = tmp_path / "lz.srt"
    path.write_text("elements: 0 1\nadd:\n0 0\n1 1\nmul:\n0 0\n1 1\n", encoding="utf-8")
    code, _, err = run("maps", str(path))
    assert code == 2
    assert "error" in err


def test_enumerate_count_only(run):
    code, out, _ = run("enumerate", "--order", "2", "--count-only")
    assert code == 0
    assert out == "count: 20\n"


def test_enumerate_manifest_deterministic(run, tmp_path):
    code, first, _ = run("enumerate", "--order", "3")
    assert code == 0
    code, second, _ = run("enumerate", "--order", "3")
    assert first == second
    assert len(first.strip().splitlines()) == 316


def test_enumerate_corpus_out(run, tmp_path):
    outdir = tmp_path / "corpus2"
    code, out, _ = run("enumerate", "--order", "2", "--out", str(outdir))
    assert code == 0
    assert (outdir / "MANIFEST").read_text(encoding="utf-8") == out
    for line in out.strip().splitlines():
        digest = line.split()[0]
        assert sl.validate(sl.load_srt(outdir / f"{digest}.srt")).verdict


def test_enumerate_sample(run):
    code, out, err = run("enumerate", "--order", "5", "--sample", "5", "--seed", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert err == ""


def test_enumerate_sample_shortfall_on_stderr(run):
    code, out, err = run("enumerate", "--order", "2", "--sample", "50", "--count-only")
    assert code == 0
    assert out == "count: 20\n"
    assert err == "warning: sampled 20 of 50 requested semirings of order 2: all 10000 attempts used\n"


def test_enumerate_bound_exit_2(run):
    code, _, err = run("enumerate", "--order", "5")
    assert code == 2
    assert "sampling" in err
    # a sample count below 1 is an error, not a full enumeration or nothing
    for argv, count in (
        (("enumerate", "--order", "3", "--sample", "0", "--count-only"), 0),
        (("enumerate", "--order", "3", "--sample", "-2"), -2),
    ):
        code, out, err = run(*argv)
        assert (code, out, err) == (2, "", f"error: sample count must be at least 1, got {count}\n")


def test_enumerate_empty_order_exit_2(run):
    for argv in (
        ("enumerate", "--order", "0", "--count-only"),
        ("enumerate", "--order", "0", "--sample", "1"),
        ("counterexample", "--premise", "skew-ring", "--conclusion", "quasi-skew-ring", "--max-order", "0"),
    ):
        code, out, err = run(*argv)
        assert (code, out, err) == (2, "", "error: carrier must be nonempty\n")


def test_counterexample_found(run, tmp_path):
    witness_file = tmp_path / "w.srt"
    code, out, _ = run(
        "counterexample",
        "--premise", "quasi-skew-ring",
        "--conclusion", "skew-ring",
        "--max-order", "3",
        "--out", str(witness_file),
    )
    assert code == 1
    assert "found: true" in out
    w = sl.load_srt(witness_file)
    assert sl.validate(w).verdict
    report = sl.classify(w)
    assert report.holds("quasi-skew-ring") and not report.holds("skew-ring")
    # the stdout dump is itself a parseable .srt
    dump = out.split("elements:", 1)[1]
    assert sl.validate(sl.parse_srt("elements:" + dump)).verdict


def test_counterexample_none(run):
    code, out, _ = run(
        "counterexample",
        "--premise", "strongly-additively-quasi-completely-inverse",
        "--conclusion", "quasi-completely-inverse",
        "--max-order", "3",
    )
    assert code == 0
    assert "found: false" in out


def test_counterexample_unknown_class(run):
    code, _, err = run("counterexample", "--premise", "zork", "--conclusion", "skew-ring")
    assert code == 2
    assert "unknown class" in err


# What the script that pip generates for a console entry point does, with
# the module and attribute filled in: the checkout's declared entry point
# runs through the interpreter, with no script installed.
CONSOLE_SCRIPT = """\
import sys
from {module} import {attr}
sys.argv[0] = "semiringlab"
sys.exit({attr}())
"""


def declared_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["semiringlab"]


def test_console_entry_point(tmp_path, qsr3_file):
    entry = declared_entry_point()
    assert entry == "semiringlab.cli:run"
    module, attr = entry.split(":")
    script = CONSOLE_SCRIPT.format(module=module, attr=attr)
    # the subprocess imports semiringlab from where this process did
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).resolve().parent.parent))
    (tmp_path / "xor.srt").write_text(XOR_SRT, encoding="utf-8")
    (tmp_path / "ragged.srt").write_text(RAGGED_SRT, encoding="utf-8")
    # the README's exit codes: 0 claim holds, 1 negative result, 2 input error
    cases = [
        (qsr3_file, 0, "verdict: true", ""),
        (str(tmp_path / "xor.srt"), 1, "verdict: false", ""),
        (str(tmp_path / "ragged.srt"), 2, "", "ragged.srt:4"),
    ]
    for path, expected_code, expected_out, expected_err in cases:
        result = subprocess.run(
            [sys.executable, "-c", script, "validate", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == expected_code, (path, result.stderr)
        assert expected_out in result.stdout
        assert expected_err in result.stderr


def test_module_run_as_a_script(tmp_path, qsr3_file):
    # `python -m semiringlab.cli` and `python -m semiringlab` run the same
    # `run()` as the console script
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).resolve().parent.parent))
    cases = [
        (str(tmp_path / "nope.srt"), 2, "", "error:"),
        (qsr3_file, 0, "verdict: true", ""),
    ]
    for module in ("semiringlab.cli", "semiringlab"):
        for path, expected_code, expected_out, expected_err in cases:
            result = subprocess.run(
                [sys.executable, "-m", module, "validate", path],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == expected_code, (module, path, result.stderr)
            assert expected_out in result.stdout
            assert expected_err in result.stderr


IMPORT_BUDGET_SCRIPT = """\
import sys
bare = set(sys.modules)
import semiringlab.cli
print(" ".join(sorted({"dataclasses", "inspect", "hashlib"} & set(sys.modules) - bare)))
"""


def test_cli_import_skips_dataclasses_inspect_and_hashlib():
    # each is several ms of start-up that every command would pay
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


NO_NUMPY_SCRIPT = """\
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from semiringlab.cli import main
sys.exit(main(["enumerate", "--order", "3", "--count-only"]))
"""


def test_cli_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "count: 316\n"


@pytest.mark.skipif(
    shutil.which("semiringlab") is None, reason="semiringlab console script not installed"
)
def test_installed_console_script(qsr3_file):
    result = subprocess.run(
        ["semiringlab", "validate", qsr3_file],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "verdict: true" in result.stdout


NO_FAMILY_SRT = """\
elements: x0 x1 x2
add:
x0 x0 x0
x0 x0 x0
x0 x1 x2
mul:
x0 x0 x0
x0 x0 x0
x0 x0 x2
"""


def test_maps_none_outcome_exit_1(run, tmp_path):
    # x2+x1 = x1 refuses to retract through the forced kernel map, so no
    # presenting family exists for this member
    path = tmp_path / "nofamily.srt"
    path.write_text(NO_FAMILY_SRT, encoding="utf-8")
    code, out, _ = run("maps", str(path))
    assert code == 1
    assert out == "found: false\n"


def test_compose_without_output_dumps_srt(run, tmp_path):
    sbl = tmp_path / "gc.sbl"
    sbl.write_text(ZUNION_Z2_SBL, encoding="utf-8")
    code, out, _ = run("compose", str(sbl))
    assert code == 0
    dump = out.rsplit("elements:", 1)[1]
    composed = sl.parse_srt("elements:" + dump)
    assert sl.validate(composed).verdict and composed.order == 3


def test_enumerate_class_filter(run):
    code, out, _ = run("enumerate", "--order", "3", "--class", "quasi-skew-ring", "--count-only")
    assert code == 0 and out == "count: 24\n"
    code, out, _ = run("enumerate", "--order", "2", "--class", "b-lattice", "--count-only")
    assert code == 0 and out == "count: 4\n"
    code, _, err = run("enumerate", "--order", "2", "--class", "bogus")
    assert code == 2 and "unknown class" in err


# byte-exact reports, each with its exit code: classify --verify-theorems on
# QSR3 and on the semiring composed from ZUNION_Z2_SBL, a validate that fails
# and a compose that fails
CLASSIFY_QSR3_GOLDEN = """\
order: 3
elements: a b 0
class.additively-regular: false
class.additively-regular.evidence: a has no x with a+x+a=a
class.additively-inverse: false
class.additively-inverse.evidence: a has 0 additive inverses
class.additively-quasi-inverse: true
class.completely-regular: false
class.completely-regular.evidence: a is not completely regular
class.quasi-completely-regular: true
class.quasi-completely-inverse: true
class.strongly-additively-quasi-inverse: true
class.strongly-additively-quasi-completely-inverse: true
class.generalized-clifford: false
class.generalized-clifford.evidence: a is not completely regular
class.skew-ring: false
class.skew-ring.evidence: additive reduct is not a group
class.quasi-skew-ring: true
class.quasi-skew-ring.evidence: kernel {0}
class.b-lattice: false
class.b-lattice.evidence: reducts are not semilattice/band
class.completely-simple: false
class.completely-simple.evidence: a is not completely regular
class.completely-archimedean: true
theorem.QSR3.i: true
theorem.QSR3.ii: true
theorem.QSR3.iii: true
theorem.QSR3.agreement: true
theorem.QCR5.i: true
theorem.QCR5.ii: true
theorem.QCR5.iii: true
theorem.QCR5.iv: true
theorem.QCR5.v: true
theorem.QCR5.agreement: true
theorem.QCI5.i: true
theorem.QCI5.ii: true
theorem.QCI5.iii: true
theorem.QCI5.iv: true
theorem.QCI5.v: true
theorem.QCI5.agreement: true
theorem.SAQCI3.i: true
theorem.SAQCI3.ii: true
theorem.SAQCI3.iii: true
theorem.SAQCI3.agreement: true
theorem.HJEQ.i: true
theorem.HJEQ.ii: true
theorem.HJEQ.agreement: true
theorem.IDEALS.saqci: true
theorem.IDEALS.qci-with-ideals: true
theorem.IDEALS.agreement: true
"""

CLASSIFY_COMPOSED_GOLDEN = """\
order: 3
elements: z 0 1
class.additively-regular: true
class.additively-inverse: true
class.additively-quasi-inverse: true
class.completely-regular: true
class.quasi-completely-regular: true
class.quasi-completely-inverse: true
class.strongly-additively-quasi-inverse: true
class.strongly-additively-quasi-completely-inverse: true
class.generalized-clifford: true
class.skew-ring: false
class.skew-ring.evidence: additive reduct is not a group
class.quasi-skew-ring: false
class.quasi-skew-ring.evidence: 2 additive idempotents
class.b-lattice: false
class.b-lattice.evidence: reducts are not semilattice/band
class.completely-simple: false
class.completely-simple.evidence: J+ has several blocks
class.completely-archimedean: false
class.completely-archimedean.evidence: J*+ has several blocks
theorem.QSR3.i: false
theorem.QSR3.ii: false
theorem.QSR3.iii: false
theorem.QSR3.agreement: true
theorem.QCR5.i: true
theorem.QCR5.ii: true
theorem.QCR5.iii: true
theorem.QCR5.iv: true
theorem.QCR5.v: true
theorem.QCR5.agreement: true
theorem.QCI5.i: true
theorem.QCI5.ii: true
theorem.QCI5.iii: true
theorem.QCI5.iv: true
theorem.QCI5.v: true
theorem.QCI5.agreement: true
theorem.SAQCI3.i: true
theorem.SAQCI3.ii: true
theorem.SAQCI3.iii: true
theorem.SAQCI3.agreement: true
theorem.HJEQ.i: true
theorem.HJEQ.ii: true
theorem.HJEQ.agreement: true
theorem.IDEALS.saqci: true
theorem.IDEALS.qci-with-ideals: true
theorem.IDEALS.agreement: true
"""

VALIDATE_XOR_GOLDEN = """\
verdict: false
failure.left-distributivity: (1, 0, 0)
failure.right-distributivity: (1, 0, 0)
"""

COMPOSE_BAD_GOLDEN = """\
spec-valid: false
failure.monomorphism-add: (p, q, z, z)
failure.condition-3-containment: (p, q, q, z, 0)
"""


def test_reports_match_their_goldens(run, qsr3_file, tmp_path):
    sbl = tmp_path / "gc.sbl"
    sbl.write_text(ZUNION_Z2_SBL, encoding="utf-8")
    composed = tmp_path / "gc.srt"
    assert run("compose", str(sbl), "-o", str(composed))[0] == 0
    xor = tmp_path / "xor.srt"
    xor.write_text(XOR_SRT, encoding="utf-8")
    bad = tmp_path / "bad.sbl"
    bad.write_text(ZUNION_Z2_SBL.replace("z -> 0", "z -> 1"), encoding="utf-8")
    for argv, golden in (
        (("classify", qsr3_file, "--verify-theorems"), (0, CLASSIFY_QSR3_GOLDEN)),
        (("classify", str(composed), "--verify-theorems"), (0, CLASSIFY_COMPOSED_GOLDEN)),
        (("validate", str(xor)), (1, VALIDATE_XOR_GOLDEN)),
        (("compose", str(bad)), (1, COMPOSE_BAD_GOLDEN)),
    ):
        code, out, err = run(*argv)
        assert ((code, out), err) == (golden, ""), argv
