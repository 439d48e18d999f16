import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dirbvp import cli, corpus
from dirbvp import problem as problem_module
from dirbvp.cli import ConfigError, ProblemConfig, build_problem, load_config, main, run
from dirbvp.convergence import run_study
from dirbvp.expr import EvalError
from dirbvp.grid import GridFunction, random_element
from dirbvp.solver import SolverConfig, newton_solve

F1_CONFIG = """\
# canonical bounded-nonlinearity problem
name = f1
f = (t + sin(x))/(2*x^2 + 4)
v = 1
A = 0.1
B = 0.5
fx_lower = -0.25
N = 20
Ns = 4,8,16
"""

F1_SIN_CONFIG = """\
name = f1_sin
f = (t + sin(x))/(2*x^2 + 4)
x_star = sin(pi*t)
A = 0.1
B = 0.5
fx_lower = -0.25
N = 20
"""

QUAD_CONFIG = """\
name = quadratic
f = 0
v = 2
A = 0.1
B = 0.1
fx_lower = 0.0
N = 10
"""

# a solution that reaches |x| = 48.7, past 10
LARGE_X_CONFIG = """\
name = large_x
f = x/4
v = 400
A = 0.5
B = 1
fx_lower = 0.25
N = 10
"""


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _dirbvp(argv, env=os.environ, stderr=subprocess.PIPE):
    """Start ``dirbvp argv`` in a new process with the environment ``env``."""
    env = {**env, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.Popen([sys.executable, "-m", "dirbvp.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=stderr)


def write(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_config_flat(tmp_path):
    config = load_config(write(tmp_path, F1_CONFIG))
    assert config.name == "f1"
    assert config.A == 0.1 and config.B == 0.5 and config.fx_lower == -0.25
    assert config.n == 20 and config.ns == (4, 8, 16)
    assert config.solver == SolverConfig()
    assert build_problem(config).x_star is None
    config = load_config(write(tmp_path, F1_CONFIG + "tol = 1e-8\nmax_iter = 7\n"))
    assert config.solver == SolverConfig(tol=1e-8, max_iter=7)
    # a starting guess belongs to one solve at one N, not to the problem
    with pytest.raises(ConfigError, match="initial guess"):
        replace(config, solver=SolverConfig(initial_guess=GridFunction.zeros(20)))


def test_load_config_defaults_name_to_stem(tmp_path):
    text = "\n".join(line for line in F1_CONFIG.splitlines() if not line.startswith("name"))
    config = load_config(write(tmp_path, text, name="mystery.txt"))
    assert config.name == "mystery"


def test_load_config_missing_field(tmp_path):
    text = "\n".join(line for line in F1_CONFIG.splitlines() if not line.startswith("B"))
    with pytest.raises(ConfigError, match="B"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "text, field",
    [(F1_CONFIG.replace("f = (t + sin(x))/(2*x^2 + 4)", "f = x +"), "f"),
     (F1_CONFIG.replace("v = 1", "v = 1 +* t"), "v"),
     (F1_SIN_CONFIG.replace("x_star = sin(pi*t)", "x_star = sin(pi*t"), "x_star")],
    ids=["f", "v", "x_star"],
)
def test_expression_syntax_error_names_field(tmp_path, capsys, text, field):
    # load_config leaves expressions to the one builder, which names the field;
    # every command builds a given config first, norms too
    path = write(tmp_path, text)
    config = load_config(path)
    with pytest.raises(ConfigError, match=f"^field '{field}': "):
        build_problem(config)
    for command in ("check", "solve", "converge", "norms"):
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: field '{field}': ")


def test_check_parses_each_expression_once(monkeypatch, capsys):
    parsed = []
    # load_config parsed through cli's name for parse, the builder parses through problem's
    for module in (cli, problem_module):
        def counting_parse(source, original=module.parse):
            parsed.append(source)
            return original(source)

        monkeypatch.setattr(module, "parse", counting_parse)
    assert main(["check", "--config", str(CONFIGS / "f1_sin.txt")]) == 0
    assert sorted(parsed) == sorted([corpus.ENTRIES["f1_sin"].f, corpus.ENTRIES["f1_sin"].x_star])


def test_load_config_rejects_unknown_and_duplicate_fields(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(write(tmp_path, F1_CONFIG + "mystery = 3\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, F1_CONFIG + "A = 0.2\n"))


def test_flat_config_line_with_an_empty_key_is_malformed(tmp_path, capsys):
    assert main(["check", "--config", str(write(tmp_path, "= 3\n"))]) == 2
    assert capsys.readouterr().err == "error: line 1: expected 'key = value', got '= 3'\n"
    with pytest.raises(ConfigError, match="^line 10: expected 'key = value', got '= 3'$"):
        load_config(write(tmp_path, F1_CONFIG + "  = 3\n"))


def test_load_config_v_and_x_star_rules(tmp_path):
    with pytest.raises(ConfigError, match="v"):
        load_config(write(tmp_path, QUAD_CONFIG.replace("v = 2\n", "")))
    both = QUAD_CONFIG + "x_star = t^2 - t\n"
    with pytest.raises(ConfigError, match="not both"):
        load_config(write(tmp_path, both))
    # the library builder and replace() apply the same rule
    with pytest.raises(ConfigError, match="missing field: v"):
        build_problem(ProblemConfig(name="q", f="0", A=0.1, B=0.1, fx_lower=0.0))
    with pytest.raises(ConfigError, match="not both"):
        build_problem(ProblemConfig(name="q", f="0", v="2", x_star="t^2 - t", A=0.1, B=0.1,
                                    fx_lower=0.0))
    with pytest.raises(ConfigError, match="not both"):
        replace(corpus.ENTRIES["f1"], x_star="t^2 - t")


def test_load_config_validates_ns(tmp_path):
    with pytest.raises(ConfigError, match="Ns"):
        load_config(write(tmp_path, F1_CONFIG.replace("Ns = 4,8,16", "Ns = 4,1,16")))


@pytest.mark.parametrize("ns", ["8,,16", "8,16,", ",8", "8, ,16"])
def test_empty_ns_entry_is_an_error(tmp_path, capsys, ns):
    # an empty entry is not dropped: the list would run other grids than written
    path = write(tmp_path, F1_CONFIG.replace("Ns = 4,8,16", f"Ns = {ns}"))
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: field 'Ns': empty entry in the list {ns!r}\n"
    path = write(tmp_path, F1_CONFIG)
    assert main(["converge", "--config", str(path), "--ns", ns, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: option '--ns': empty entry in the list {ns!r}\n"
    # an empty value is an empty list
    for empty in ("", " "):
        assert main(["converge", "--config", str(path), "--ns", empty, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: option '--ns': list is empty\n"
    assert not out.exists()


def test_configs_declare_the_corpus():
    paths = sorted(CONFIGS.glob("*.txt"))
    assert sorted(path.stem for path in paths) == sorted(corpus.ENTRIES)
    for path in paths:
        config = replace(load_config(path), n=None, ns=None)
        assert config == corpus.ENTRIES[path.stem], path.name


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_corpus_and_config_build_the_same_problem(name):
    assert corpus.build(name) == build_problem(load_config(CONFIGS / f"{name}.txt"))


@pytest.mark.parametrize(
    "field, value",
    [("N", "20.9"), ("Ns", "8.7,16"), ("max_iter", "2.5"), ("tol", "True"), ("A", "False"),
     ("N", "True"), ("Ns", "True,16")],
)
def test_numbers_are_not_coerced(tmp_path, capsys, field, value):
    # int() does not truncate the text 20.9, and float() reads no boolean
    lines = [line for line in F1_CONFIG.splitlines() if not line.startswith(f"{field} =")]
    path = write(tmp_path, "\n".join([*lines, f"{field} = {value}"]) + "\n")
    with pytest.raises(ConfigError, match=f"^field '{field}': "):
        load_config(path)
    assert main(["solve", "--config", str(path), "--output", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{field}': ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_the_extension_of_a_config_is_not_read(tmp_path, capsys):
    # a config is flat text whatever its name ends in
    text = (CONFIGS / "f1.txt").read_text(encoding="utf-8")
    assert load_config(write(tmp_path, text, name="f1.json")) == load_config(CONFIGS / "f1.txt")
    # so a JSON object is one malformed line
    path = write(tmp_path, json.dumps({"f": "x/4", "v": "1", "A": 0.5, "B": 1, "fx_lower": 0}),
                 name="problem.json")
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: line 1: expected 'key = value', got '\{.*\}'\n", captured.err)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_is_a_config_error(tmp_path, capsys, value):
    path = write(tmp_path, F1_CONFIG + f"tol = {value}\n")
    # the CLI labels the owner's message with the field, like every other field
    with pytest.raises(ConfigError, match="^field 'tol': tol must be positive and finite$"):
        load_config(path)
    assert main(["solve", "--config", str(path), "--output", str(tmp_path / "x.csv")]) == 2
    assert "tol" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("constant", ["A", "B", "fx_lower"])
def test_non_finite_constant_exits_2(tmp_path, capsys, constant):
    lines = [
        f"{constant} = nan" if line.startswith(f"{constant} =") else line
        for line in F1_CONFIG.splitlines()
    ]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.txt")


def test_solve_closed_form_row(tmp_path, capsys):
    config = load_config(write(tmp_path, QUAD_CONFIG))
    out = tmp_path / "solution.csv"
    assert run("solve", config, output=str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t,x"
    k, t, x = lines[6].split(",")  # row k = 5
    assert k == "5"
    assert float(t) == 0.5
    assert abs(float(x) - (-0.25)) <= 1e-12
    assert "status: converged" in capsys.readouterr().out


@pytest.mark.parametrize("text", [F1_CONFIG, F1_SIN_CONFIG, QUAD_CONFIG, LARGE_X_CONFIG,
                                  (CONFIGS / "zero.txt").read_text()],
                         ids=["f1", "f1_sin", "quadratic", "large_x", "zero"])
def test_solve_csv_matches_per_row_format(tmp_path, capsys, text):
    # the CSV is written in blocks of 4096 rows; it must equal the per-value
    # format(..., ".17g") rendering byte for byte, in a file and on stdout.
    # Three full blocks take k past 9999, and the last block is the one row
    # k = N, whose x = 0 is spelled like every other value.
    n = 3 * 4096
    assert cli._CSV_BLOCK_ROWS == 4096
    config = load_config(write(tmp_path, re.sub(r"(?m)^N = \d+$", f"N = {n}", text)))
    spec = build_problem(config)
    solution = newton_solve(spec, n).solution
    expected = "".join(
        ["k,t,x\n"] + [f"{k},{format(float(t), '.17g')},{format(float(x), '.17g')}\n"
                        for k, (t, x) in enumerate(zip(solution.nodes, solution.values))]
    )
    if text is QUAD_CONFIG:
        # x = -t(1 - t): negative, and below 1e-4 in size next to the ends
        assert ",-8.13" in expected and "e-05\n" in expected
    if text is LARGE_X_CONFIG:
        # the dot falls after the second digit of x
        assert np.max(np.abs(solution.values)) > 48.7 and ",-48.7" in expected
    out = tmp_path / "solution.csv"
    assert run("solve", config, output=str(out)) == 0
    assert_same_text(out.read_text(), expected)
    summary = capsys.readouterr().out
    assert summary.startswith("status: converged\n")
    assert run("solve", config) == 0
    assert_same_text(capsys.readouterr().out, expected + summary)


def assert_same_text(got: str, expected: str) -> None:
    # pytest's own diff of two 12k-line strings would take minutes
    if got != expected:
        got_lines, expected_lines = got.splitlines(), expected.splitlines()
        row = next((i for i, pair in enumerate(zip(got_lines, expected_lines))
                    if pair[0] != pair[1]), min(len(got_lines), len(expected_lines)))
        pytest.fail(f"line {row}: {got_lines[row:row + 1]} != {expected_lines[row:row + 1]}")


def test_converge_csv_decreasing(tmp_path):
    config = load_config(write(tmp_path, F1_CONFIG))
    out = tmp_path / "table.csv"
    assert run("converge", config, output=str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,sup_error,empirical_order,derivative_bound"
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert lines[1].split(",")[2] == ""  # first row has no empirical order


def test_check_violation_exit_code(tmp_path, capsys):
    text = """\
name = steep
f = -2*x
v = 0
A = 2.5
B = 0.1
fx_lower = -1
"""
    config = load_config(write(tmp_path, text))
    out = tmp_path / "report.json"
    assert run("check", config, output=str(out)) == 1
    report = json.loads(out.read_text())
    assert report["fx_lower"]["verdict"] == "violated"
    assert report["fx_lower"]["witnesses"]
    assert report["growth"]["verdict"] == "no-violation-found"
    assert "violated" in capsys.readouterr().out


def test_check_names_the_pole_of_f_and_of_its_derivative(tmp_path, capsys):
    # f_x = 1 + 0/(t - 0.5)^2: diff keeps the division of a zero numerator
    text = """\
name = pole
f = x + 1/(t - 0.5)
v = 1
A = 0.5
B = 0.5
fx_lower = -10
"""
    path = write(tmp_path, text)
    assert main(["check", "--config", str(path)]) == 2
    assert "evaluation failed at sample point (t=0.5, x=" in capsys.readouterr().err
    spec = build_problem(load_config(path))
    with pytest.raises(EvalError, match=r"at sample point \(t=0\.5, x="):
        problem_module.check_fx_lower(spec, x_range=2.0)


@pytest.mark.parametrize(
    "v, message",
    [
        ("1/(t - 0.5)", "v cannot be evaluated at t=0.5: division by zero"),
        ("sqrt(t - 0.3)", "v cannot be evaluated at t=0.0: sqrt of a negative value"),
        ("exp(900*t)", "v cannot be evaluated at t=0.789: non-finite result: overflow"),
    ],
)
def test_check_names_v_and_the_first_t_where_it_fails(tmp_path, capsys, v, message):
    # check samples v on its own t grid to size the box, before it scans f
    path = write(tmp_path, f"f = x/4\nv = {v}\nA = 0.5\nB = 0.5\nfx_lower = -1\n")
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "v, message",
    [
        ("1/(t - 0.5)", "v cannot be evaluated at t=0.5: division by zero"),
        ("sqrt(t - 0.3)", "v cannot be evaluated at t=0.1: sqrt of a negative value"),
    ],
)
def test_solve_names_v_and_the_first_t_where_it_fails(tmp_path, capsys, v, message):
    # the solve grid's interior nodes k/10; stdout, the CSV and the exit code are unchanged
    path = write(tmp_path, f"f = x/4\nv = {v}\nA = 0.5\nB = 0.5\nfx_lower = -1\n")
    out = tmp_path / "x.csv"
    assert main(["solve", "--config", str(path), "--n", "10", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "status: eval_error\niterations: 0\nresidual_norm: nan\nsup_norm: 0.000000e+00\n"
    )
    assert captured.err == f"error: {message}\n"
    rows = [f"{k},{float(k / 10):.17g},0" for k in range(1, 10)]
    assert out.read_text() == "\n".join(["k,t,x", "0,0,0", *rows, "10,1,0"]) + "\n"


def count_v_evaluations(monkeypatch):
    """Record "v" for each evaluate call in problem and cli, where v is evaluated,
    and "solved" when a solve of the CLI returns."""
    calls = []
    for module in (cli, problem_module):
        def counting(*args, original=module.evaluate):
            calls.append("v")
            return original(*args)

        monkeypatch.setattr(module, "evaluate", counting)

    def solve(*args):
        report = newton_solve(*args)
        calls.append("solved")
        return report

    monkeypatch.setattr(cli, "newton_solve", solve)
    return calls


def test_solve_names_no_v_where_f_fails_or_the_solve_converges(tmp_path, capsys, monkeypatch):
    calls = count_v_evaluations(monkeypatch)
    out = str(tmp_path / "x.csv")
    # f reaches sqrt(-1) on the way to the solution; v is fine
    path = write(tmp_path, "f = sqrt(x + 1)\nv = 8\nA = 1\nB = 1\nfx_lower = 0\nN = 16\n")
    assert main(["solve", "--config", str(path), "--output", out]) == 2
    captured = capsys.readouterr()
    assert "status: eval_error" in captured.out and captured.err == ""
    # the solve's own v on its grid; asking whether v fails there takes none
    assert calls == ["v", "solved"]
    calls.clear()
    # a solve that converges evaluates nothing more
    assert main(["solve", "--config", str(CONFIGS / "f1.txt"), "--output", out]) == 0
    assert calls == ["v", "solved"] and capsys.readouterr().err == ""


def test_naming_a_late_failing_v_takes_few_evaluations(tmp_path, capsys, monkeypatch):
    # v fails only at the last interior node of N = 10^5; a scan node by node
    # would evaluate v 99 999 times
    calls = count_v_evaluations(monkeypatch)
    path = write(tmp_path, "f = x/4\nv = 1/(t - 0.99999)\nA = 0.5\nB = 1\nfx_lower = -0.5\n")
    argv = ["solve", "--config", str(path), "--n", "100000", "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: v cannot be evaluated at t=0.99999: division by zero\n"
    assert calls.count("v") <= 25


def test_a_failing_solve_evaluates_v_on_every_node_once(tmp_path, capsys, monkeypatch):
    # once in the solve's grid, whose halving evaluates v on at most half of
    # the nodes at a time; the spec keeps the named failure for the report
    n = 100_000
    sizes = []
    for module in (cli, problem_module):
        def counting(expr, t=0.0, x=0.0, original=module.evaluate):
            sizes.append(np.broadcast(t, x).size)
            return original(expr, t, x)

        monkeypatch.setattr(module, "evaluate", counting)
    path = write(tmp_path, "f = x/4\nv = 1/(t - 0.99999)\nA = 0.5\nB = 1\nfx_lower = -0.5\n")
    argv = ["solve", "--config", str(path), "--n", str(n), "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: v cannot be evaluated at t=0.99999: division by zero\n"
    assert sizes.count(n - 1) == 1
    assert all(size <= (n - 1) // 2 + 1 for size in sizes if size != n - 1)


def test_converge_names_v_and_the_first_t_where_it_fails(tmp_path, capsys):
    # v fails first on the 8 x 8 = 64 reference grid, at its node 32/64
    path = write(tmp_path, "f = x/4\nv = 1/(t - 0.5)\nA = 0.5\nB = 0.5\nfx_lower = -1\n")
    out = tmp_path / "t.csv"
    assert main(["converge", "--config", str(path), "--ns", "4,8", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: solver failed at N=64 with status eval_error\n"
        "error: v cannot be evaluated at t=0.5: division by zero\n"
    )
    assert out.read_text() == "N,sup_error,empirical_order,derivative_bound\n"


def test_a_failing_converge_reports_v_without_evaluating_it(tmp_path, capsys, monkeypatch):
    # the study's reference solve names where v fails; the report reads that
    calls = count_v_evaluations(monkeypatch)
    reported = []

    def report(*args):
        reported.append(len(calls))
        cli_report(*args)

    cli_report = cli._report_failing_v
    monkeypatch.setattr(cli, "_report_failing_v", report)
    path = write(tmp_path, "f = x/4\nv = 1/(t - 0.5)\nA = 0.5\nB = 0.5\nfx_lower = -1\nNs = 4,8\n")
    assert main(["converge", "--config", str(path), "--output", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.endswith("error: v cannot be evaluated at t=0.5: division by zero\n")
    assert reported == [len(calls)] and calls.count("v") > 0


def test_check_clean_exit_code(tmp_path, capsys):
    config = load_config(write(tmp_path, F1_CONFIG))
    assert run("check", config) == 0
    captured = capsys.readouterr().out
    assert "no-violation-found" in captured
    assert "discrete theorem applies: True" in captured


def test_solve_requires_n(tmp_path):
    config = load_config(write(tmp_path, QUAD_CONFIG.replace("N = 10\n", "")))
    with pytest.raises(ConfigError, match="N"):
        run("solve", config)


def test_converge_solver_failure_writes_partial(tmp_path, capsys):
    text = """\
name = singular
f = -128*x
v = 1
A = 128.1
B = 0.1
fx_lower = -128.1
Ns = 4,8
"""
    config = load_config(write(tmp_path, text))
    out = tmp_path / "partial.csv"
    assert run("converge", config, output=str(out)) == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header plus the N=4 row
    assert "N=8" in capsys.readouterr().err


def test_norms_command(tmp_path):
    out = tmp_path / "norms.csv"
    assert run("norms", None, output=str(out), seed=3) == 0
    lines = out.read_text().splitlines()
    assert len(lines) > 1
    assert all(line.endswith(",true") for line in lines[1:])


def test_negative_seed_names_the_option(capsys):
    assert main(["norms", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: option '--seed': ") and err.count("\n") == 1


def test_main_overrides_and_exit_codes(tmp_path, capsys):
    path = write(tmp_path, QUAD_CONFIG)
    out = tmp_path / "sol.csv"
    assert main(["solve", "--config", str(path), "--output", str(out), "--n", "4"]) == 0
    assert len(out.read_text().splitlines()) == 6  # header + 5 nodes
    capsys.readouterr()

    assert main(["solve", "--config", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err

    table = tmp_path / "t.csv"
    assert main(["converge", "--config", str(path), "--ns", "4,8", "--output", str(table)]) == 0
    assert len(table.read_text().splitlines()) == 3


@pytest.mark.parametrize("command", ["check", "solve", "converge", "norms"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, where):
    output = tmp_path / "missing" / "out.csv" if where == "missing directory" else tmp_path
    argv = [command, "--output", str(output), "--n", "8"]
    if command != "norms":
        argv += ["--config", str(CONFIGS / "f1.txt"), "--ns", "4,8"]
    # exit 1 means a violated condition, so an output that cannot be written is 2
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {output}: ")


_CLOSED_PIPE_RUNS = pytest.mark.parametrize(
    "argv, lines",
    [
        # the whole output fits in a pipe, so the reader leaves before the first line
        (["check", "--config", "configs/zero.txt"], 0),
        (["norms"], 0),
        (["solve", "--config", "configs/f1.txt", "--n", "100000"], 1),
    ],
)


def _read_and_close(child, lines):
    for _ in range(lines):
        assert child.stdout.readline()
    child.stdout.close()


@_CLOSED_PIPE_RUNS
def test_closed_stdout_pipe_exits_2(argv, lines):
    # as `dirbvp ... | head -n 1`; exit 1 would read as a violated condition
    with _dirbvp(argv) as child:
        _read_and_close(child, lines)
        err = child.stderr.read().decode()
    assert child.returncode == 2
    assert err.startswith("error: cannot write standard output: ")
    assert "Traceback" not in err


@_CLOSED_PIPE_RUNS
def test_closed_merged_output_pipe_exits_2(argv, lines):
    # as `dirbvp ... 2>&1 | head -n 1`: the error line meets the same closed pipe,
    # and that second failure must not escape as exit 1
    with _dirbvp(argv, stderr=subprocess.STDOUT) as child:
        _read_and_close(child, lines)
    assert child.returncode == 2


_MALFORMED = {
    # a left-deep sum: differentiating and compiling it recurse 3000 deep
    "long sum": "f = " + "+".join(["x"] * 3000) + "\nv = 1\nA = 0.5\nB = 1\nfx_lower = -2\nN = 8\n",
    # the parser recurses through every parenthesis
    "nested parentheses": "f = " + "(" * 300 + "x/4" + ")" * 300
    + "\nv = 1\nA = 0.5\nB = 1\nfx_lower = -2\nN = 8\n",
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("shape", sorted(_MALFORMED))
def test_deep_expression_exits_2(tmp_path, command, shape):
    path = write(tmp_path, _MALFORMED[shape])
    with _dirbvp([command, "--config", str(path)], {**os.environ, "PYTHONWARNINGS": "error"}) as child:
        out, err = child.communicate()
    assert child.returncode == 2
    assert out == b"" and err == b"error: expression nested too deeply\n"


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (["solve", "--config", "configs/f1.txt", "--n", "1000000000"], "N = 1000000000"),
        (["converge", "--config", "configs/f1.txt", "--ns", "1000000000"], "Ns = 1000000000"),
    ],
)
def test_out_of_memory_exits_2(argv, sizes):
    # Only the child's address space is capped, at about 3 GB: the 8 GB arrays of
    # N = 10^9 then fail at once, and are never tried without the cap.
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-m", "dirbvp.cli", *argv], cwd=ROOT, env=env,
                           capture_output=True, preexec_fn=cap, timeout=120)
    assert child.returncode == 2
    assert child.stderr == f"error: out of memory at {sizes}\n".encode()


def test_check_on_an_overflowing_sample_box_exits_2(tmp_path):
    # M = (1 + 1e308)/(1 - 0.5) is inf, so there is no sample box to scan
    path = write(tmp_path, "f = x/4\nv = 1\nA = 0.5\nB = 1e308\nfx_lower = -0.5\n")
    with _dirbvp(["check", "--config", str(path)], {**os.environ, "PYTHONWARNINGS": "error"}) as child:
        out, err = child.communicate()
    assert child.returncode == 2
    assert out == b""
    assert err == b"error: x_range must be finite and 2*x_range must not overflow, got inf\n"


def test_solve_whose_residual_overflows_exits_2(tmp_path):
    # each residual entry at the zero start is about 4e197, whose square overflows
    path = write(tmp_path, "f = x/4\nv = 1e200\nA = 0.5\nB = 1\nfx_lower = -0.5\nN = 16\n")
    argv = ["solve", "--config", str(path), "--output", str(tmp_path / "x.csv")]
    with _dirbvp(argv, {**os.environ, "PYTHONWARNINGS": "error"}) as child:
        out, err = child.communicate()
    assert child.returncode == 2
    assert out == b"status: eval_error\niterations: 0\nresidual_norm: nan\nsup_norm: 0.000000e+00\n"
    assert err == b""


def test_norms_does_not_depend_on_the_blas_thread_count():
    # BLAS ddot's last bit changes with OpenBLAS's thread count at this size
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        with _dirbvp(["norms", "--n", "100000"], {**env, **threads}) as child:
            outputs.append(child.communicate())
        assert child.returncode == 0
    assert outputs[0] == outputs[1]


def test_commands_do_not_import_scipy(tmp_path):
    # scipy.linalg's LAPACK module alone doubles a solve's peak memory
    script = f"""
import contextlib, io, sys
from dirbvp import cli
out = {str(tmp_path / "out")!r}
for argv in (["check", "--config", "configs/f1.txt"],
             ["solve", "--config", "configs/f1.txt", "--n", "64"],
             ["converge", "--config", "configs/f1.txt", "--ns", "4,8"],
             ["norms"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--output", out]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                           capture_output=True, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout == b"[]\n"


def test_converge_deterministic_bytes(tmp_path):
    config = load_config(write(tmp_path, F1_CONFIG))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run("converge", config, output=str(first), seed=9) == 0
    assert run("converge", config, output=str(second), seed=9) == 0
    assert first.read_bytes() == second.read_bytes()


def test_check_builds_the_problem_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_build(config):
        calls.append(config.name)
        return build_problem(config)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    assert main(["check", "--config", str(write(tmp_path, F1_CONFIG))]) == 0
    assert calls == ["f1"]


def test_main_reports_forcing_that_uses_x(tmp_path, capsys):
    path = write(tmp_path, QUAD_CONFIG.replace("v = 2", "v = x"))
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "depend on t only" in err


NON_DIFFERENTIABLE = {
    "f": "name = kink\nf = 0.3*abs(x) + 0.2\nv = 0\nA = 0.3\nB = 0.2\nfx_lower = -0.3\n",
    "x_star": "name = kink\nf = 0\nx_star = abs(t - 0.5) - 0.5\nA = 0.1\nB = 0.1\nfx_lower = 0\n",
}


@pytest.mark.parametrize("field", sorted(NON_DIFFERENTIABLE))
@pytest.mark.parametrize("command", ["check", "solve", "converge"])
def test_non_differentiable_expression_is_a_config_error(tmp_path, capsys, field, command):
    # exit 1 is reserved for a violated condition; abs cannot be differentiated
    path = write(tmp_path, NON_DIFFERENTIABLE[field] + "N = 8\nNs = 4,8\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config 'kink': abs is not differentiable\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["solve", "--n", "-3"], ["solve", "--n", "1"], ["check", "--n", "0"],
     ["converge", "--n", "1"], ["norms", "--n", "0"], ["norms", "--n", "-2"],
     ["converge", "--ns", "4,1"], ["converge", "--ns", "0"]],
)
def test_n_override_is_checked_like_the_config_field(tmp_path, capsys, argv):
    if argv[0] != "norms":
        argv = argv + ["--config", str(write(tmp_path, F1_CONFIG))]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: option '{argv[1]}': grid size must be at least 2\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "n, message",
    [(0, "at least 2"), (1, "at least 2"), (-3, "at least 2"), (2.5, "an integer, got 2.5"),
     (8.0, "an integer, got 8.0"), (True, "an integer, got True")],
)
@pytest.mark.parametrize("command", ["check", "solve", "converge", "norms"])
def test_run_checks_n_for_every_command(tmp_path, command, n, message):
    # the library entry point applies the rule that main applies to --n
    config = None if command == "norms" else load_config(write(tmp_path, F1_CONFIG))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"^option '--n': grid size must be {message}$"):
        run(command, config, output=str(out), n=n)
    assert not out.exists()
    # so does the function behind the command, with the rule's own message
    spec = corpus.build("f1")
    behind = {"check": lambda: GridFunction(n, [0.0, 0.5, 0.0]),
              "solve": lambda: newton_solve(spec, n),
              "converge": lambda: run_study(spec, [n]),
              "norms": lambda: random_element(n, np.random.default_rng(0))}
    with pytest.raises(ValueError, match=f"^grid size must be {message}$"):
        behind[command]()
    assert run("norms", None, output=str(out), n=2) == 0
    assert out.read_text().count("\n2,") == 5


def test_run_n_overrides_the_config_grid_size(tmp_path):
    config = load_config(write(tmp_path, F1_CONFIG))  # N = 20
    out = tmp_path / "solution.csv"
    assert run("solve", config, output=str(out), n=8) == 0
    assert out.read_text().splitlines()[-1].startswith("8,1,")


NOWHERE_CONFIG = """\
name = nowhere
f = sqrt(-1 - x^2)
v = 0
A = 0.5
B = 0.5
fx_lower = -1
N = 8
Ns = 4,8
"""


def test_nowhere_evaluable_f_fails_in_every_command(tmp_path, capsys):
    # building does not evaluate f, so each command meets the failure itself
    path = str(write(tmp_path, NOWHERE_CONFIG))

    assert main(["check", "--config", path]) == 2
    assert "sample point (t=0.0, x=" in capsys.readouterr().err

    out = tmp_path / "solution.csv"
    assert main(["solve", "--config", path, "--output", str(out)]) == 2
    assert "status: eval_error" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "k,t,x" and len(rows) == 10
    assert all(row.endswith(",0") for row in rows[1:])

    table = tmp_path / "table.csv"
    assert main(["converge", "--config", path, "--output", str(table)]) == 2
    assert "failed at N=64 with status eval_error" in capsys.readouterr().err
    assert table.read_text() == "N,sup_error,empirical_order,derivative_bound\n"
