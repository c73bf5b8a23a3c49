import ast
import json
from pathlib import Path

import pytest

from hankellift import cli, errors
from hankellift.errors import ConfigInvalid
from hankellift.suite import CriterionResult


def test_load_config_defaults():
    cfg = cli.load_config(["--command", "gcd", "--zeros", "0,0.5;0,-0.5"])
    assert cfg.command == "gcd"
    assert cfg.zeros == [0.5j, -0.5j]
    assert cfg.order == 64 and cfg.rank_tol == 1e-8 and cfg.residual_tol == 1e-8
    assert cfg.format == "json"


def test_load_config_requires_command():
    with pytest.raises(ConfigInvalid):
        cli.load_config(["--zeros", "0,0.5"])


def test_config_file_wins_with_warning(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"command": "gcd", "order": 32, "rank_tol": 1}))
    cfg = cli.load_config(["--config", str(path), "--command", "hilbert", "--zeros", "0.1,0"])
    captured = capsys.readouterr()
    assert cfg.command == "gcd" and cfg.order == 32
    assert cfg.rank_tol == 1.0 and isinstance(cfg.rank_tol, float)  # a JSON integer is a number
    assert cfg.zeros == [0.1 + 0j]
    assert "overrides --command" in captured.err


def test_no_seed_option(tmp_path, capsys):
    # no command reads a seed, so neither the flag nor the config key exists
    assert cli.main(["--command", "gcd", "--zeros", "0.5,0", "--seed", "1"]) == 2
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"command": "gcd", "zeros": "0.5,0", "seed": 1}))
    assert cli.main(["--config", str(path)]) == 2
    assert "unknown config key 'seed'" in capsys.readouterr().err


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"command": "gcd", "bogus": 1}))
    with pytest.raises(ConfigInvalid):
        cli.load_config(["--config", str(path)])


@pytest.mark.parametrize(
    "config,symbol",
    [
        ({"command": "gcd", "zeros": [[0.5]]}, None),
        ({"command": "gcd", "zeros": "0.5,0", "order": "abc"}, None),
        ({"command": "invariance", "zeros": "0,0;0,0"}, [["a", 1, 2]]),
        ({"command": "gcd", "zeros": [[0.5, 0, 9]]}, None),
        ({"command": "gcd", "zeros": "0.5,0", "constant": [1, 0, 0]}, None),
        # an order is a JSON integer and a tolerance a JSON number; neither is a bool
        ({"command": "gcd", "zeros": "0.5,0", "order": 64.5}, None),
        ({"command": "gcd", "zeros": "0.5,0", "order": True}, None),
        ({"command": "gcd", "zeros": "0.5,0", "order": "64"}, None),
        ({"command": "gcd", "zeros": "0.5,0", "rank_tol": True}, None),
        ({"command": "gcd", "zeros": "0.5,0", "residual_tol": float("nan")}, None),
        # a symbol index is a JSON integer and a symbol part a JSON number, never truncated
        ({"command": "invariance", "zeros": "0,0;0,0"}, [[1.7, 1.0, 0.0]]),
        ({"command": "invariance", "zeros": "0,0;0,0"}, [[True, 1.0, 0.0]]),
        ({"command": "invariance", "zeros": "0,0;0,0"}, [["3", 1.0, 0.0]]),
        ({"command": "invariance", "zeros": "0,0;0,0"}, [[1, True, 0.0]]),
        ({"command": "invariance", "zeros": "0,0;0,0", "symbol_coeffs": [[1.7, 1.0, 0.0]]}, None),
        # config-file zeros and constants follow the same rule
        ({"command": "gcd", "zeros": [[0.5, False]]}, None),
        ({"command": "gcd", "zeros": "0.5,0", "constant": [True, False]}, None),
        ({"command": "gcd", "zeros": "0.5,0", "constant": ["1", "0"]}, None),
        ({"command": "gcd", "zeros": [[0.5, 10**400]]}, None),
        ({"command": "gcd", "zeros": "0.5,0", "rank_tol": 10**400}, None),
        # a number read from JSON must be finite
        ({"command": "invariance", "zeros": "0,0;0,0"}, [[0, float("nan"), 0.0], [1, 1.0, 0.0]]),
        ({"command": "lift-check", "zeros": "0,0;0,0"}, [[0, float("nan"), 0.0], [1, 1.0, 0.0]]),
        ({"command": "invariance", "zeros": "0,0;0,0"}, [[1, 1.0, float("inf")]]),
        ({"command": "gcd", "zeros": [[float("nan"), 0]]}, None),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, config, symbol):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    argv = ["--config", str(path)]
    if symbol is not None:
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps(symbol))
        argv += ["--symbol-coeffs", str(sym)]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--zeros", "0.99,0"],
        ["--zeros", "0.5,0", "--constant", "2,0"],
        # a NaN fails the disk and unimodularity guards
        ["--zeros", "nan,0"],
        ["--zeros", "0.3,nan"],
        ["--zeros", "0.5,0", "--constant", "nan,0"],
    ],
)
def test_bad_blaschke_data_is_a_config_error(capsys, flags):
    # exit 3 is reserved for numerical refusals
    for command in ("gcd", "intertwine", "lift-check", "kernel", "toeplitz-fixed"):
        assert cli.main(["--command", command] + flags) == 2
        assert "config error:" in capsys.readouterr().err


def test_invalid_order_rejected():
    with pytest.raises(ConfigInvalid):
        cli.load_config(["--command", "gcd", "--order", "0"])


def test_order_above_the_cap_is_refused_before_any_work(capsys):
    assert cli.load_config(["--command", "hilbert", "--order", str(cli.MAX_ORDER)]).order == 4096
    # refused by load_config, before the 4098 x 4098 section is built
    assert cli.main(["--command", "hilbert", "--order", "4097"]) == 2
    assert "order must be between 1 and 4096" in capsys.readouterr().err


def test_main_exit_2_on_config_error(capsys):
    assert cli.main(["--command", "intertwine"]) == 2  # missing zeros
    assert "config error" in capsys.readouterr().err


def test_gcd_command_conjugate_pair(capsys):
    code = cli.main(["--command", "gcd", "--zeros", "0,0.5;0,-0.5"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["theta_degree"] == 2
    assert report["checks"][0]["passed"] is True


@pytest.mark.parametrize(
    "flags,dim",
    [
        pytest.param(["--zeros", "0,0.5"], 0, id="trivial"),
        # the basis stops at order deg(u) - 1, where the Beurling block is empty
        pytest.param(["--zeros", "0,0;0,0;0,0", "--order", "1"], 3, id="empty-beurling-block"),
    ],
)
def test_intertwine_command_solution_dim(capsys, flags, dim):
    code = cli.main(["--command", "intertwine"] + flags)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["solution_dim"] == dim
    assert report["payload"]["theta_degree"] == dim


# 12 separated zeros with one conjugate pair, so deg(theta) = 2; at order 64
# the rank cut counts a spurious third solution, which the check must not pass
HIGH_DEGREE_ZEROS = (
    "0.39251857591282635,-0.28572138617142706;0.39251857591282635,0.28572138617142706;"
    "-0.22452833522380705,0.2668881056025896;-0.3740507124744416,0.373417253548446;"
    "-0.4667527243864865,-0.20957949734627224;-0.030384029041094607,0.06530159622330445;"
    "0.20796440797267857,0.07864296255564984;-0.1307500596862291,-0.5743398273401928;"
    "0.26345533047272673,-0.2894296988638568;-0.11602146730854013,-0.11904749919869384;"
    "0.2308288466407994,-0.18848026635368564;0.014169902319752903,0.2984888778223662"
)


def test_intertwine_check_requires_dim_equal_to_theta_degree(capsys):
    code = cli.main(["--command", "intertwine", "--zeros", HIGH_DEGREE_ZEROS])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["theta_degree"] == 2
    dim = report["payload"]["solution_dim"]
    assert report["checks"][0]["passed"] is (dim == 2)


def test_hilbert_command(capsys):
    code = cli.main(["--command", "hilbert", "--order", "128"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["norm"] < 3.141592653589793
    assert abs(report["payload"]["log10_det"] + 9916.633) < 1e-3
    assert report["checks"][1]["passed"] and report["checks"][1]["value"] == 129.0


def test_json_reports_are_byte_identical():
    cfg = cli.load_config(["--command", "intertwine", "--zeros", "0,0.5;0,-0.5"])
    first = cli.emit_report(cli.run_experiment(cfg), "json")
    second = cli.emit_report(cli.run_experiment(cfg), "json")
    assert first == second
    parsed = json.loads(first)
    assert parsed["command"] == "intertwine"


def test_report_round_trip():
    cfg = cli.load_config(["--command", "kernel", "--zeros", "0.5,0"])
    report = cli.run_experiment(cfg)
    text = cli.emit_report(report, "json")
    parsed = json.loads(text)
    assert parsed == report.to_jsonable()


def test_csv_summary_format():
    cfg = cli.load_config(["--command", "kernel", "--zeros", "0.5,0"])
    out = cli.emit_report(cli.run_experiment(cfg), "csv-summary")
    lines = out.strip().splitlines()
    assert lines[0] == "check,passed,value,tolerance"
    assert len(lines) == 3  # inclusion + injectivity rows


def test_text_format_mentions_checks():
    cfg = cli.load_config(["--command", "invariance", "--zeros", "0,0;0,0", "--generator", "hilbert"])
    out = cli.emit_report(cli.run_experiment(cfg), "text")
    assert "invariant" in out and "wall time" in out


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["--command", "gcd", "--zeros", "0.5,0", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["payload"]["theta_degree"] == 1


def test_symbol_file_loading(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps([[1, 1.0, 0.0]]))
    code = cli.main(
        ["--command", "invariance", "--zeros", "0,0;0,0", "--symbol-coeffs", str(path)]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    # z^2 H^2 is invariant under the Hankel operator of z
    assert report["payload"]["cond1"] and report["payload"]["cond2"] and report["payload"]["cond3"]


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--zeros", "0,0.5;0,-0.5"], id="conjugate-pair"),
        pytest.param(["--zeros", "0,0;0,0;0,0", "--order", "1"], id="order-1"),
        pytest.param(["--zeros", "0,0;0,0;0,0", "--order", "2"], id="order-2"),
    ],
)
def test_lift_check_command_default_symbol(capsys, flags):
    code = cli.main(["--command", "lift-check"] + flags)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["off_diagonal_max"] < 1e-8
    assert report["payload"]["norm_gap"] < 1e-8
    assert report["checks"][0]["passed"] is True


@pytest.mark.parametrize(
    "command,zeros,window",
    [
        ("invariance", "0.3,0.5;0.3,-0.5;0.2,0", 32),  # window order // 2 at order 64
        ("reduce", "0.3,0.5;0.3,-0.5", 32),
        ("lift-check", "0,0.5;0,-0.5", 128),  # window 2 x the basis order, 64 here
    ],
)
def test_generator_gives_the_report_of_its_coefficient_file(tmp_path, command, zeros, window):
    # a rule reaches the checks only as the Laurent window it is materialized on
    path = tmp_path / "hilbert.json"
    path.write_text(json.dumps([[k, 1.0 / (k + 1), 0.0] for k in range(window + 1)]))
    base = ["--command", command, "--zeros", zeros]
    by_rule, by_file = (
        cli.run_experiment(cli.load_config(base + extra))
        for extra in (["--generator", "hilbert"], ["--symbol-coeffs", str(path)])
    )
    assert by_rule.error is None and by_rule.checks
    assert by_rule.payload == by_file.payload and by_rule.checks == by_file.checks
    assert by_rule.payload.get("order", 64) == 64  # lift-check's window assumes no doubling


def test_lift_check_command_trivial_gcd(capsys):
    code = cli.main(["--command", "lift-check", "--zeros", "0,0.5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["gcd_trivial"] is True


def test_reduce_command(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps([[1, 1.0, 0.0]]))
    code = cli.main(
        ["--command", "reduce", "--zeros", "0,0;0,0", "--symbol-coeffs", str(path)]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["verdicts"] == [True, True, True]
    names = [c["name"] for c in report["checks"]]
    assert "forward invariant" in names and "adjoint invariant" in names


def test_numerical_refusal_exit_code(capsys):
    # a coarse rank cut leaves no factor-100 gap: the run must refuse, not guess
    code = cli.main(
        ["--command", "toeplitz-fixed", "--zeros", "0.5,0", "--rank-tol", "0.075"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "AmbiguousRank"


def test_kernel_refuses_an_uncertified_symbol_tail(capsys):
    # at order 64 the kernel symbol of the zero 0.9 keeps a tail above 1e-10
    code = cli.main(["--command", "kernel", "--zeros", "0.9,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "TailBoundExceeded"
    assert "order 64" in report["error"]["message"]


def test_suite_exit_codes(monkeypatch, capsys):
    good = [CriterionResult(index=1, name="x", passed=True, details="", seconds=0.0)]
    bad = good + [CriterionResult(index=2, name="y", passed=False, details="", seconds=0.0)]
    monkeypatch.setattr(cli, "run_suite", lambda: good)
    assert cli.main(["--command", "suite"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_suite", lambda: bad)
    assert cli.main(["--command", "suite"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["all_passed"] is False


def test_unsupported_format_rejected(tmp_path, capsys):
    # flag path: argparse exits, main maps it to a config error
    assert cli.main(["--command", "gcd", "--zeros", "0.5,0", "--format", "xml"]) == 2
    capsys.readouterr()
    # file path: our own validation catches it
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"command": "gcd", "format": "xml"}))
    with pytest.raises(ConfigInvalid):
        cli.load_config(["--config", str(path)])
    # emitter path
    from hankellift.errors import UnsupportedFormat

    cfg = cli.load_config(["--command", "gcd", "--zeros", "0.5,0"])
    with pytest.raises(UnsupportedFormat):
        cli.emit_report(cli.run_experiment(cfg), "yaml")


def test_every_error_type_is_raised():
    # a type whose last raise a deletion removed fails here
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    types = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.HankelLiftError)
        and value is not errors.HankelLiftError
    }
    assert types and types <= raised, sorted(types - raised)
