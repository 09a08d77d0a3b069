"""CLI contract: exit codes, deterministic reports, eval subcommand."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinorkit
from spinorkit.cli import INTERNAL_ERROR, main
from spinorkit.exactfield import Scalar, format_scalar
from spinorkit.spintensor import ScaledTensor
from spinorkit.suites import SUITE_NAMES

# the child interpreter imports the same spinorkit as this one, PYTHONPATH or not
SRC = str(Path(spinorkit.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_single_suite_passes(capsys):
    code, out, err = run_cli(
        ["check", "--suite", "pauli", "--seed", "3", "--trials", "10"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"failures": [], "seed": 3, "suite": "pauli", "trials": 10}
    assert "[pauli]" in err


def test_check_all_aggregates_sections(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "all", "--seed", "7", "--trials", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7 and payload["trials"] == 5
    names = [s["suite"] for s in payload["suites"]]
    # every suite once, in SUITE_NAMES order
    assert names == list(SUITE_NAMES) and len(set(names)) == len(names)
    assert all(s["failures"] == [] for s in payload["suites"])
    # each section is the single-suite report at the same seed and trials
    for section in payload["suites"]:
        code, single, _ = run_cli(["check", "--suite", section["suite"], "--seed", "7", "--trials", "5"], capsys)
        assert code == 0 and json.loads(single) == section


def test_check_is_byte_deterministic(capsys):
    args = ["check", "--suite", "fn-bracket", "--seed", "11", "--trials", "15"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


# sha256 of the `check --suite all --trials 20` stdout per seed, recorded before the
# unit-aware Scalar product; a change that adds or alters a suite re-pins them and says so
SUITE_ALL_DIGESTS = {
    1: "54fdf5d588e9436a356c2e2da56fd2a37b1b6ad59a840fe7079f8a9824629b82",
    7: "0e356d5b581a7f30fead3510b867d853cbd53978b578104254ff12210245c665",
    42: "cb222c074802eb092e79107d8ad9b0458d94d92cc8853a6b09e761539a163f8c",
}


@pytest.mark.parametrize("seed", sorted(SUITE_ALL_DIGESTS))
def test_check_all_stdout_digest(seed, capsys):
    code, out, _ = run_cli(["check", "--suite", "all", "--seed", str(seed), "--trials", "20"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_ALL_DIGESTS[seed]


def test_check_ignores_threads_variable(capsys, monkeypatch):
    args = ["check", "--suite", "clifford", "--seed", "5", "--trials", "24"]
    _, serial, _ = run_cli(args, capsys)
    monkeypatch.setenv("SPINORKIT_THREADS", "4")
    _, threaded, _ = run_cli(args, capsys)
    assert serial == threaded


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(
        ["check", "--suite", "nonsense", "--seed", "1", "--trials", "1"], capsys
    )
    assert code == 2
    assert "unknown suite" in err


def test_nonpositive_trials_is_usage_error(capsys):
    code, _, _ = run_cli(
        ["check", "--suite", "pauli", "--seed", "1", "--trials", "0"], capsys
    )
    assert code == 2


def test_json_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["check", "--suite", "adjunction", "--seed", "2", "--trials", "8",
         "--json", str(path)],
        capsys,
    )
    assert code == 0
    assert path.read_text() == out


def test_eval_reads_file_and_stdin(tmp_path, capsys):
    script = tmp_path / "prog.txt"
    script.write_text("g( e1*eb1, e2*eb2 )\n")
    code, out, _ = run_cli(["eval", str(script)], capsys)
    assert code == 0 and out == "1\n"

    proc = subprocess.run(
        [sys.executable, "-m", "spinorkit.cli", "eval", "-"],
        input="(1+i)*(1-i)\n",
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_eval_long_boson_word(tmp_path, capsys):
    # a^8 (a+)^8 on one boson mode: one 16-generator word, normal-ordered to
    # sum_j (8-j)! C(8,j)^2 (a+)^j a^j
    script = tmp_path / "a8c8.txt"
    script.write_text(
        "universe { sector b: boson [1] }\n"
        "let a = absorb(b:1')\n"
        "let c = emit(b:1)\n"
        "let a4 = a*a*a*a\n"
        "let c4 = c*c*c*c\n"
        "let a8 = a4*a4\n"
        "let c8 = c4*c4\n"
        "a8*c8\n"
    )
    words = ["vac"] + ["^".join(["b:1"] * j) for j in range(1, 9)]
    coeffs = [40320, 322560, 564480, 376320, 117600, 18816, 1568, 64, 1]
    line = " + ".join(f"emit[{w}]*absorb[{w}] * ({c})" for w, c in zip(words, coeffs))
    code, out, _ = run_cli(["eval", str(script)], capsys)
    assert code == 0 and out == line + "\n"


def test_eval_factor_budget_is_usage_error(tmp_path, capsys):
    # pivot 30000000000000000041 * 700000000000000000177, two primes = 1 mod 8:
    # factoring it exceeds the rho budget, which is not "no decomposition"
    script = tmp_path / "big.txt"
    script.write_text(f"nulldec(tensor [U,Ubar] {{ (1,1): {30000000000000000041 * 700000000000000000177} }})\n")
    code, out, err = run_cli(["eval", str(script)], capsys)
    assert code == 2 and out == ""
    assert "FactorBudgetError" in err and "budget" in err
    assert "Traceback" not in err


def test_eval_nulldec_of_a_high_unit_power(tmp_path, capsys):
    # (1+r2)^4104 is about 5,200 bits, inside the bit budget; its square root
    # (1+r2)^2052 is the leftover unit of the norm equation
    squarings = "".join(f"let a{2 * n} = a{n}*a{n}\n" for n in (2**j for j in range(1, 11)))
    script = tmp_path / "unit.dsl"
    script.write_text(
        "let a = 1+r2\nlet a2 = a*a\n" + squarings + "let b = a2048*a2048*a8\nnulldec(tensor [U,Ubar] { (1,1): b })\n"
    )
    code, out, err = run_cli(["eval", str(script)], capsys)
    assert (code, err) == (0, "")
    assert out == f"(1, tensor [U] {{ (1): {format_scalar(Scalar(1, 0, 1) ** 2052)} }})\n"


def test_eval_nulldec_does_not_import_sympy(tmp_path):
    script = tmp_path / "nulldec.txt"
    script.write_text("nulldec(tensor [U,Ubar] { (1,1): 4; (1,2): 2-2*i; (2,1): 2+2*i; (2,2): 2 })\n")
    child = (
        "import sys\n"
        "from spinorkit.cli import main\n"
        f"code = main(['eval', {str(script)!r}])\n"
        "print(code, 'sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.stdout == "(1, tensor [U] { (1): 2*i; (2): -1+i })\n0 False\n", proc.stderr


def test_cli_import_does_not_import_dataclasses():
    child = "import sys\nimport spinorkit.cli\nprint('dataclasses' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.stdout == "False\n", proc.stderr


def test_eval_parse_error_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("g( e1*eb1\n")
    code, _, err = run_cli(["eval", str(script)], capsys)
    assert code == 2
    assert "error:" in err and "1:" in err


def test_eval_missing_file(capsys):
    code, _, err = run_cli(["eval", "/no/such/file.dsl"], capsys)
    assert code == 2
    assert "error" in err


def test_property_failure_exit_code(monkeypatch, capsys):
    # force a failing suite to check the exit-code contract end to end
    import spinorkit.suites as suites

    def broken(seed, trials):
        return [{"trial": 0, "input": "x", "expected": "0", "got": "1"}]

    monkeypatch.setitem(suites.SUITES, "pauli", broken)
    code, out, _ = run_cli(
        ["check", "--suite", "pauli", "--seed", "1", "--trials", "1"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] and payload["failures"][0]["got"] == "1"


def test_internal_error_exit_code(monkeypatch, tmp_path, capsys):
    # an exception no user input can cause is a bug: exit 3, never 1 or 2, and no traceback
    import spinorkit.dsl as dsl
    import spinorkit.suites as suites

    def broken(*args):
        raise AssertionError("invariant broken")

    monkeypatch.setitem(dsl._FUNCTIONS, "gamma", (broken, ScaledTensor))
    monkeypatch.setitem(suites.SUITES, "pauli", broken)
    script = tmp_path / "prog.dsl"
    script.write_text("gamma(e1*eb1)\n")
    for argv in (["eval", str(script)], ["check", "--suite", "pauli", "--seed", "1", "--trials", "1"]):
        assert run_cli(argv, capsys) == (INTERNAL_ERROR, "", "internal error: AssertionError: invariant broken\n")


def test_null_decompose_invariant_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # a nonzero null Hermitian element has a nonzero trace; a kernel that says otherwise is a bug
    import spinorkit.spintensor as spintensor

    monkeypatch.setattr(spintensor, "mink_trace", lambda y: spintensor.Scalar.zero())
    script = tmp_path / "prog.dsl"
    script.write_text("nulldec(e1*eb1)\n")
    code, out, err = run_cli(["eval", str(script)], capsys)
    assert (code, out) == (INTERNAL_ERROR, "") and err.startswith("internal error: ArithmeticError"), err


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so an invariant of the kernel is an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(SRC, "spinorkit").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "report.json"
    code, out, err = run_cli(["check", "--suite", "pauli", "--seed", "1", "--trials", "1", "--json", str(path)], capsys)
    assert (code, out) == (2, "") and err.startswith("error: "), err


def test_eval_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, monkeypatch):
    script = tmp_path / "prog.dsl"
    script.write_bytes(b"g( e1*eb1, e2*eb2 )\n\xff\n")
    code, out, err = run_cli(["eval", str(script)], capsys)
    assert (code, out) == (2, "") and err.startswith("error: "), err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(script.read_bytes()), encoding="utf8"))
    code, out, err = run_cli(["eval", "-"], capsys)
    assert (code, out) == (2, "") and err.startswith("error: "), err


def test_usage_error_leaves_later_calls_unchanged(tmp_path, capsys):
    # the parser is built once per process; a failed parse must not leak into the next call
    script = tmp_path / "prog.txt"
    script.write_text("g( e1*eb1, e2*eb2 )\n(1+i)*(1-i)\n")
    check = ["check", "--suite", "clifford", "--seed", "4", "--trials", "3"]
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "clifford", "--trials", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    in_process = [run_cli(argv, capsys)[:2] for argv in (check, ["eval", str(script)])]
    fresh = [
        subprocess.run([sys.executable, "-m", "spinorkit.cli", *argv], capture_output=True, text=True, env=CHILD_ENV)
        for argv in (check, ["eval", str(script)])
    ]
    assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]
    assert in_process[0][0] == 0 and in_process[1] == (0, "1\n2\n")
