import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankrobust import DomainError, ScenarioError, ShapeError, TwoStageVariable, ambiguity_aversion_check
from rankrobust.cli import _json_text, build_parser, main, parse_panel, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseScenario:
    def test_two_state_fixture(self):
        v = parse_scenario(str(FIXTURES / "two_state.json"))
        assert v.n_states == 2
        assert v.state_ids == ("calm", "storm")

    def test_probability_sum_violation_names_state(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": {"windy": {"probs": [0.5, 0.49], "payoffs": [0, 1]}}}))
        with pytest.raises(ScenarioError) as err:
            parse_scenario(str(bad))
        assert "windy" in str(err.value)

    def test_ragged_outcomes_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": {
            "a": {"probs": [1.0], "payoffs": [0]},
            "b": {"probs": [0.5, 0.5], "payoffs": [0, 1]},
        }}))
        with pytest.raises(ScenarioError) as err:
            parse_scenario(str(bad))
        assert "'b'" in str(err.value)

    def test_ellsberg_fixture_dimensions(self):
        v = parse_scenario(str(FIXTURES / "ellsberg_urn_a.json"))
        assert v.n_states == 546  # 26 urn-A compositions x 21 urn-C compositions
        assert v.n_outcomes == 25

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            parse_scenario("no/such/file.json")


def per_state_parse_scenario(path: str) -> TwoStageVariable:
    """The state-at-a-time parser that parse_scenario replaced, kept as the
    oracle of its diagnostics."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("states"), dict) or not doc["states"]:
        raise ScenarioError(f"{path}: scenario must be an object with a non-empty 'states' mapping")
    ids, probs, payoffs = [], [], []
    width = None
    for sid, entry in doc["states"].items():
        if not isinstance(entry, dict) or "probs" not in entry or "payoffs" not in entry:
            raise ScenarioError(f"{path}: state {sid!r} must carry 'probs' and 'payoffs' lists")
        try:
            p = np.asarray(entry["probs"], dtype=float)
            x = np.asarray(entry["payoffs"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: state {sid!r}: {exc}") from exc
        if p.ndim != 1 or p.shape != x.shape:
            raise ScenarioError(
                f"{path}: state {sid!r} has probs of shape {p.shape} but payoffs of shape {x.shape}"
            )
        if width is None:
            width = p.size
        elif p.size != width:
            raise ScenarioError(
                f"{path}: state {sid!r} has {p.size} outcomes, earlier states have {width}"
            )
        ids.append(sid)
        probs.append(p)
        payoffs.append(x)
    try:
        return TwoStageVariable(ids, probs, payoffs)
    except (DomainError, ShapeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


CALM = {"probs": [0.5, 0.5], "payoffs": [0.0, 1.0]}
MALFORMED = {
    "non_dict_entry": {"calm": CALM, "stormy": [0.5, 0.5]},
    "missing_payoffs": {"calm": CALM, "stormy": {"probs": [0.5, 0.5]}},
    "ragged_outcomes": {"calm": CALM, "stormy": {"probs": [0.5, 0.25, 0.25], "payoffs": [0, 1, 2]}},
    "probs_payoffs_lengths": {"calm": CALM, "stormy": {"probs": [0.5, 0.5], "payoffs": [0, 1, 2]}},
    "scalar_probs": {"calm": CALM, "stormy": {"probs": 1.0, "payoffs": 1.0}},
    "scalar_probs_everywhere": {"calm": {"probs": 1.0, "payoffs": 0.0}, "stormy": {"probs": 1.0, "payoffs": 1.0}},
    "nested_lists": {"calm": CALM, "stormy": {"probs": [[0.5, 0.5]], "payoffs": [[0, 1]]}},
    "nested_lists_everywhere": {"calm": {"probs": [[0.5, 0.5]], "payoffs": [[0, 1]]},
                                "stormy": {"probs": [[0.5, 0.5]], "payoffs": [[1, 2]]}},
    "non_numeric_strings": {"calm": CALM, "stormy": {"probs": ["half", "half"], "payoffs": [0, 1]}},
    "null_probability": {"calm": CALM, "stormy": {"probs": [None, 1.0], "payoffs": [0, 1]}},
    "null_probs": {"calm": CALM, "stormy": {"probs": None, "payoffs": [0, 1]}},
    "null_payoff": {"calm": CALM, "stormy": {"probs": [0.5, 0.5], "payoffs": [0, None]}},
    "negative_probability": {"calm": CALM, "stormy": {"probs": [1.2, -0.2], "payoffs": [0, 1]}},
    "nan_probability": {"calm": CALM, "stormy": {"probs": [1.0, float("nan")], "payoffs": [0, 1]}},
    "sum_one_plus_2e-12": {"calm": CALM, "stormy": {"probs": [0.5, 0.5 + 2e-12], "payoffs": [0, 1]}},
    "empty_states": {},
}


def raised(parse, path):
    try:
        parse(path)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return None


class TestParseDiagnostics:
    """parse_scenario converts all states at once, yet fails exactly as the
    per-state parser did: same exception, same message, exit code 2."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_same_error_as_the_per_state_parser(self, capsys, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps({"states": MALFORMED[case]}))
        want = raised(per_state_parse_scenario, str(path))
        assert want is not None and want[0] is ScenarioError
        assert raised(parse_scenario, str(path)) == want
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path), "--penalty", "maxmin:vertices")
        assert (code, out, err) == (2, "", f"error: {want[1]}\n")

    def test_oversized_integer_exits_two_naming_file_and_state(self, capsys, tmp_path):
        # JSON decodes 1 followed by 400 zeros to an int that no float holds.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"states": {"calm": CALM, "stormy": {"probs": [0.5, 0.5], "payoffs": [0, 10**400]}}}))
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path), "--penalty", "maxmin:vertices")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: state 'stormy': int too large to convert to float\n"

    @pytest.mark.parametrize("name", ["two_state.json", "single_state.json", "ellsberg_urn_a.json"])
    def test_fixtures_parse_to_the_same_arrays(self, name):
        got, want = parse_scenario(str(FIXTURES / name)), per_state_parse_scenario(str(FIXTURES / name))
        assert got.state_ids == want.state_ids
        assert got.outcome_probs.tobytes() == want.outcome_probs.tobytes()
        assert got.payoffs.tobytes() == want.payoffs.tobytes()


class TestParsePanel:
    def test_hedge_fixture(self):
        panel = parse_panel(str(FIXTURES / "panel_hedge.csv"))
        assert panel.assets == ("asset_1", "asset_2")
        assert panel.returns.shape == (1, 2, 2)

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "p.csv"
        bad.write_text("who,prob,outcome,a\nw,1.0,x,0.1\n")
        with pytest.raises(ScenarioError):
            parse_panel(str(bad))

    def test_per_state_probability_sums(self, tmp_path):
        bad = tmp_path / "p.csv"
        bad.write_text("state,prob,outcome,a\nw,0.6,x,0.1\nw,0.6,y,0.2\n")
        with pytest.raises(ScenarioError) as err:
            parse_panel(str(bad))
        assert "'w'" in str(err.value)


BAD_ROWS = {
    "sum": ([0.5, 0.49], "sum to"),
    "negative": ([1.2, -0.2], "negative"),
    "nan": ([1.0, float("nan")], "sum to nan"),
    "overflow": ([1e308, 1e308], "sum to inf, not 1"),
}


def write_bad_rows(tmp_path, fmt, probs):
    """A two-state file whose second state, 'stormy', carries the bad
    probabilities, and the command (with its own flags) that reads it."""
    if fmt == "json":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": {
            "calm": {"probs": [0.5, 0.5], "payoffs": [0, 1]},
            "stormy": {"probs": probs, "payoffs": [0, 1]},
        }}))
        return path, ["evaluate"]
    path = tmp_path / "bad.csv"
    path.write_text(
        "state,prob,outcome,a\ncalm,0.5,x,0.1\ncalm,0.5,y,0.2\n"
        f"stormy,{probs[0]!r},x,0.1\nstormy,{probs[1]!r},y,0.2\n"
    )
    return path, ["portfolio", "--mean-prior", "uniform"]


class TestBadProbabilities:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("fault", sorted(BAD_ROWS))
    def test_exit_two_naming_file_and_state(self, capsys, tmp_path, fmt, fault):
        probs, wording = BAD_ROWS[fault]
        path, command = write_bad_rows(tmp_path, fmt, probs)
        code, out, err = run_cli(
            capsys, *command, "--scenario", str(path), "--penalty", "maxmin:vertices",
        )
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert "'stormy'" in err
        assert wording in err
        assert "'calm'" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_sum_is_one_error_line(self, capsys, tmp_path, fmt):
        path, command = write_bad_rows(tmp_path, fmt, BAD_ROWS["overflow"][0])
        code, out, err = run_cli(
            capsys, *command, "--scenario", str(path), "--penalty", "maxmin:vertices",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {path}: outcome probabilities in state 'stormy' sum to inf, not 1\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_probability_is_printed_as_a_plain_number(self, capsys, tmp_path, fmt):
        path, command = write_bad_rows(tmp_path, fmt, BAD_ROWS["negative"][0])
        code, out, err = run_cli(
            capsys, *command, "--scenario", str(path), "--penalty", "maxmin:vertices",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {path}: outcome probability -0.2 in state 'stormy' (outcome 1) is negative\n"


class TestInputEncoding:
    """Scenario, panel and penalty-table files are read as UTF-8, whatever
    the locale; a file that is not UTF-8 exits 2 naming the file."""

    def test_utf8_state_names_are_read(self, capsys, tmp_path):
        path = tmp_path / "utf8.json"
        path.write_bytes('{"states": {"café": {"probs": [1.0], "payoffs": [2.0]}}}'.encode("utf-8"))
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path), "--penalty", "maxmin:vertices",
                                 "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["preference"]["state_ids"] == ["café"]

    def test_latin1_scenario_exits_two_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"states": {"caf\xe9": {"probs": [1.0], "payoffs": [2.0]}}}')
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path), "--penalty", "maxmin:vertices")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: cannot read scenario: 'utf-8' codec can't decode byte 0xe9 in position 16: "
                       "invalid continuation byte\n")

    def test_latin1_panel_exits_two_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"state,prob,outcome,caf\xe9\nw,1.0,x,0.1\n")
        code, out, err = run_cli(capsys, "portfolio", "--scenario", str(path), "--penalty", "maxmin:vertices",
                                 "--mean-prior", "uniform")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: cannot read panel: 'utf-8' codec can't decode byte 0xe9 in position 22: "
                       "invalid continuation byte\n")

    def test_latin1_penalty_table_exits_two_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1_table.csv"
        path.write_bytes(b"calm,storm,penalty\n0.5,0.5,0.0\n1.0,0.0,1.0 \xe9\n")
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"),
                                 "--penalty", f"table:{path}")
        assert (code, out) == (2, "")
        assert str(path) in err and "'utf-8' codec can't decode byte 0xe9" in err

    def test_no_command_relies_on_the_locale_encoding(self):
        commands = [
            ["evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty", "entropic:1@uniform"],
            ["portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--penalty", "maxmin:vertices",
             "--mean-prior", "uniform"],
            ["cmin", "--penalty", "table:" + str(FIXTURES / "penalty_table.csv"), "--prior", "calm=0.1,storm=0.9"],
        ]
        for argv in commands:
            proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                                   "-m", "rankrobust", *argv], capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, "")


class TestRefusedInputs:
    """Refused inputs exit 2 with one error line that names the culprit."""

    def test_payoff_outside_the_utility_domain_is_a_plain_number(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"),
                                 "--penalty", "maxmin:vertices", "--utility", "power:0.5")
        assert (code, out) == (2, "")
        assert err == "error: payoff 0.0 at (state 'calm', outcome 0) is outside the utility domain (0, inf)\n"

    def test_battery_payoff_outside_the_utility_domain_is_a_plain_number(self, capsys):
        code, out, err = run_cli(capsys, "battery", "--penalty", "entropic:1@w0=0.5,w1=0.5",
                                 "--utility", "power:0.5", "--cases", "3")
        assert (code, out) == (2, "")
        assert err == ("error: payoff -1.4220480329092977 at (state 'w0', outcome 2) "
                       "is outside the utility domain (0, inf)\n")

    def test_compare_names_the_file_whose_states_differ(self, capsys):
        first, second = str(FIXTURES / "two_state.json"), str(FIXTURES / "single_state.json")
        code, out, err = run_cli(capsys, "compare", "--scenario", first, "--scenario2", second,
                                 "--penalty", "maxmin:vertices")
        assert (code, out) == (2, "")
        assert err == f"error: {second}: states ('only',) do not match the states ('calm', 'storm') of {first}\n"

    def test_overflowing_prior_weights_sum_to_inf(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"),
                                 "--penalty", "entropic:1@calm=1e308,storm=1e308")
        assert (code, out) == (2, "")
        assert err == ("error: bad prior spec 'calm=1e308,storm=1e308': "
                       "prior weights must sum to 1 within 1e-12, got inf\n")

    @pytest.mark.parametrize("multi_first", [True, False])
    def test_dominance_names_the_multi_state_file(self, capsys, multi_first):
        multi, single = str(FIXTURES / "two_state.json"), str(FIXTURES / "single_state.json")
        paths = (multi, single) if multi_first else (single, multi)
        code, out, err = run_cli(capsys, "dominance", "--scenario", paths[0], "--scenario2", paths[1])
        assert (code, out) == (2, "")
        assert err == f"error: {multi}: dominance compares one-stage laws; the scenario has 2 states, not 1\n"


PREFERENCE_FLAGS = {"--scenario", "--utility", "--distortion", "--penalty"}
COMMAND_FLAGS = {
    "evaluate": PREFERENCE_FLAGS,
    "ce": PREFERENCE_FLAGS,
    "compare": PREFERENCE_FLAGS | {"--scenario2"},
    "dominance": {"--scenario", "--scenario2", "--utility", "--order"},
    "cmin": {"--penalty", "--prior", "--grid"},
    "battery": {"--penalty", "--utility", "--distortion", "--cases"},
    "portfolio": PREFERENCE_FLAGS | {"--mean-prior", "--budget"},
    "demo": set(),
}


class TestFlags:
    """Each command accepts only the flags it reads, plus --seed and --output."""

    def test_each_command_declares_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if a.choices and "demo" in a.choices)
        got = {
            name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in sub.choices.items()
        }
        assert got == {name: flags | {"--seed", "--output"} for name, flags in COMMAND_FLAGS.items()}
        assert sum(map(len, got.values())) == 46

    @pytest.mark.parametrize("argv", [
        ["cmin", "--penalty", "entropic:1@a=0.5,b=0.5", "--prior", "a=0.4,b=0.6", "--utility", "exp:1"],
        ["cmin", "--penalty", "entropic:1@a=0.5,b=0.5", "--prior", "a=0.4,b=0.6", "--budget", "3"],
        ["dominance", "--scenario", str(FIXTURES / "single_state.json"),
         "--scenario2", str(FIXTURES / "single_state_spread.json"), "--distortion", "power:2"],
        ["dominance", "--scenario", str(FIXTURES / "single_state.json"),
         "--scenario2", str(FIXTURES / "single_state_spread.json"), "--penalty", "bogus"],
        ["evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty", "maxmin:vertices",
         "--mean-prior", "uniform"],
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, missing", [
        (["evaluate", "--scenario", str(FIXTURES / "two_state.json")], "--penalty"),
        (["ce", "--scenario", str(FIXTURES / "two_state.json")], "--penalty"),
        (["compare", "--scenario", str(FIXTURES / "two_state.json"),
          "--scenario2", str(FIXTURES / "two_state.json")], "--penalty"),
        (["compare", "--scenario", str(FIXTURES / "two_state.json"), "--penalty", "maxmin:vertices"],
         "--scenario2"),
        (["dominance", "--scenario", str(FIXTURES / "single_state.json")], "--scenario2"),
        (["cmin", "--prior", "a=0.4,b=0.6"], "--penalty"),
        (["cmin", "--penalty", "entropic:1@a=0.5,b=0.5"], "--prior"),
        (["battery", "--cases", "3"], "--penalty"),
        (["portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--mean-prior", "uniform"],
         "--penalty"),
        (["portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--penalty", "maxmin:vertices"],
         "--mean-prior"),
    ])
    def test_missing_required_flag_is_a_usage_error(self, capsys, argv, missing):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err

    def test_unknown_demo_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["demo", "allais"])
        assert exit_.value.code == 2
        assert "argument topic: invalid choice: 'allais'" in capsys.readouterr().err

    def test_cmin_without_the_unread_flag_runs(self, capsys):
        code, out, _ = run_cli(capsys, "cmin", "--penalty", "entropic:1@a=0.5,b=0.5", "--prior", "a=0.4,b=0.6")
        assert code == 0 and "converged" in out


class TestCommands:
    def test_demo_prints_values_and_passes(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "ellsberg")
        assert code == 0
        assert "U(urn_a) = 0" in out
        assert "U(urn_c) = 20" in out
        assert "U(urn_a + urn_b) = 100" in out
        assert "U(urn_c + urn_b) = 20" in out
        assert "PASS" in out

    def test_evaluate_single_state_square_distortion(self, capsys):
        code, out, _ = run_cli(
            capsys, "evaluate",
            "--scenario", str(FIXTURES / "single_state.json"),
            "--distortion", "power:2",
            "--penalty", "maxmin:vertices",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["value_utils"] == pytest.approx(9.0, abs=1e-9)
        # the resolved triple is echoed so the run is self-describing
        assert report["preference"]["distortion"] == "power:2"

    def test_ce_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "ce",
            "--scenario", str(FIXTURES / "single_state.json"),
            "--penalty", "maxmin:vertices",
            "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["result"]["certainty_equivalent"] == pytest.approx(30.0)

    def test_compare_self_is_indifferent(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare",
            "--scenario", str(FIXTURES / "two_state.json"),
            "--scenario2", str(FIXTURES / "two_state.json"),
            "--penalty", "entropic:1@uniform",
            "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["result"]["relation"] == "~"

    def test_dominance_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "dominance",
            "--scenario", str(FIXTURES / "single_state.json"),
            "--scenario2", str(FIXTURES / "single_state_spread.json"),
            "--order", "ssd",
            "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["result"]["order"] == "ssd"

    def test_dominance_phissd_uses_utility(self, capsys):
        code, out, _ = run_cli(
            capsys, "dominance",
            "--scenario", str(FIXTURES / "single_state.json"),
            "--scenario2", str(FIXTURES / "single_state.json"),
            "--order", "phissd",
            "--utility", "pwl:0,0;50,10;100,12",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["relation"] == "equal"
        assert report["utility"].startswith("pwl:")

    def test_battery_violations_exit_three(self, capsys, monkeypatch):
        import rankrobust.cli as cli_mod

        def fake_reductions(pref, spec):
            return {
                "expectation_reduction": {"max_error": 1.0, "violations": [0]},
                "affine_equivariance": {"max_error": 0.0, "violations": []},
                "maxmin_reduction": {"max_error": 0.0, "violations": []},
                "single_state_rdu": {"max_error": 0.0, "violations": []},
                "passed": False,
                "seed": spec.seed,
            }

        def fake_reports(pref, spec):
            return fake_reductions(pref, spec), ambiguity_aversion_check(pref, spec)

        monkeypatch.setattr(cli_mod, "battery_reports", fake_reports)
        code, out, _ = run_cli(
            capsys, "battery",
            "--penalty", "entropic:1@w0=0.5,w1=0.5",
            "--cases", "5",
            "--output", "json",
        )
        assert code == 3
        assert json.loads(out)["result"]["total_violations"] == 1

    def test_cmin_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "cmin",
            "--penalty", "entropic:1@a=0.5,b=0.5",
            "--prior", "a=0.7,b=0.3",
            "--grid=-4,4,0.05",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["dual_lower_bound"] <= report["result"]["direct_penalty"] + 1e-12
        assert report["result"]["gap"] < 5e-3

    @pytest.mark.parametrize("grid", ["1,2", "1,2,3,4", "1,2,x"])
    def test_cmin_grid_needs_three_numbers(self, capsys, grid):
        with pytest.raises(SystemExit) as exit_:
            main(["cmin", "--penalty", "entropic:1@a=0.5,b=0.5", "--prior", "a=0.4,b=0.6", f"--grid={grid}"])
        assert exit_.value.code == 2
        assert f"argument --grid: expected LO,HI,STEP (three numbers), got '{grid}'" in capsys.readouterr().err

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_battery_needs_a_case(self, capsys, cases):
        code, out, err = run_cli(capsys, "battery", "--penalty", "entropic:1@w0=0.5,w1=0.5", "--cases", cases)
        assert (code, out) == (2, "")
        assert err == f"error: a battery needs at least 1 case, got n_cases={cases}\n"

    def test_benchmark_cmin_jobs_report_no_negative_gap(self, capsys, monkeypatch, tmp_path):
        # The 16 cmin jobs of the benchmark's verify_small workload at seed 1;
        # six of them once reported a lower bound a few ulps above the penalty.
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        jobs = [job for job in workloads.build("verify_small", 1, tmp_path, FIXTURES) if job.argv[0] == "cmin"]
        assert len(jobs) == 16
        for job in jobs:
            code, out, _ = run_cli(capsys, *job.argv)
            result = json.loads(out)["result"]
            assert code == 0 and result["status"] == "converged"
            assert 0.0 <= result["dual_lower_bound"] <= result["direct_penalty"], job.name
            assert result["gap"] >= 0.0

    def test_cmin_exact_reports_a_closed_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "cmin",
            "--penalty", "gini:0.7@a=0.2,b=0.3,c=0.5",
            "--prior", "a=0.3,b=0.3,c=0.4",
            "--output", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] == "converged"
        assert result["iterations"] >= 1
        lower, upper = result["dual_lower_bound"], result["upper_bound"]
        assert lower <= upper <= lower + 1e-9 * (1 + abs(lower))
        # The optimum lies inside the default box, so the bracket holds the penalty.
        assert abs(result["direct_penalty"] - lower) <= 1e-9

    def test_cmin_failed_lp_exits_two(self, capsys, monkeypatch):
        from rankrobust import ambiguity

        class FailedLP:
            status, message, x = 4, "Numerical difficulties encountered", None

        monkeypatch.setattr(ambiguity, "linprog", lambda *a, **k: FailedLP())
        code, out, err = run_cli(
            capsys, "cmin",
            "--penalty", "maxmin:[a=0.2,b=0.8;a=0.6,b=0.4]",
            "--prior", "a=0.4,b=0.6",
        )
        assert code == 2 and out == ""
        assert "status 4" in err

    def test_battery_command_green(self, capsys):
        code, out, _ = run_cli(
            capsys, "battery",
            "--penalty", "entropic:1@w0=0.5,w1=0.5",
            "--cases", "25",
            "--seed", "7",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["total_violations"] == 0

    def test_portfolio_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "portfolio",
            "--scenario", str(FIXTURES / "panel_hedge.csv"),
            "--penalty", "maxmin:w0=1",
            "--distortion", "es:0.5",
            "--mean-prior", "uniform",
            "--budget", "500",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["weights"] == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_validation_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": {"w": {"probs": [0.9, 0.2], "payoffs": [0, 1]}}}))
        code, _, err = run_cli(
            capsys, "evaluate", "--scenario", str(bad), "--penalty", "maxmin:vertices"
        )
        assert code == 2
        assert "error" in err

    def test_non_finite_payoff_exits_two_naming_file_and_state(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"states": {"calm": {"probs": [0.5, 0.5], "payoffs": [0, 1]},'
                       ' "stormy": {"probs": [0.5, 0.5], "payoffs": [0, NaN]}}}')
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(bad), "--penalty", "maxmin:vertices")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: payoff nan in state 'stormy' (outcome 1) is not finite\n"

    def test_non_finite_pwl_knot_exits_two_naming_the_spec(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"),
                                 "--penalty", "maxmin:vertices", "--distortion", "pwl:0,0;nan,0.5;1,1")
        assert (code, out) == (2, "")
        assert err == "error: bad distortion spec 'pwl:0,0;nan,0.5;1,1': pwl distortion knots must be finite\n"

    def test_nan_prior_in_a_penalty_exits_two_naming_the_spec(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"),
                                 "--penalty", "maxmin:[calm=nan,storm=1;calm=0.5,storm=0.5]", "--output", "json")
        assert (code, out) == (2, "")
        assert err == "error: bad prior spec 'calm=nan,storm=1': prior weights must be >= 0, got min nan\n"

    def test_nan_mean_prior_exits_two_naming_the_spec(self, capsys):
        code, out, err = run_cli(capsys, "portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"),
                                 "--penalty", "maxmin:vertices", "--mean-prior", "nan")
        assert (code, out) == (2, "")
        assert err == "error: bad prior spec 'nan': prior weights must be >= 0, got min nan\n"

    def test_non_numeric_payload_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": {"w": {"probs": [1.0], "payoffs": ["plenty"]}}}))
        code, _, err = run_cli(
            capsys, "evaluate", "--scenario", str(bad), "--penalty", "maxmin:vertices"
        )
        assert code == 2
        assert "error" in err

    def test_bad_spec_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "evaluate",
            "--scenario", str(FIXTURES / "single_state.json"),
            "--penalty", "nonsense:1",
        )
        assert code == 2
        assert "nonsense" in err


class TestDeterminism:
    def test_json_reports_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "evaluate",
            "--scenario", str(FIXTURES / "two_state.json"),
            "--penalty", "gini:0.5@uniform",
            "--output", "json",
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_repeated_in_process_runs_identical(self, capsys):
        argv = [
            "evaluate",
            "--scenario", str(FIXTURES / "two_state.json"),
            "--penalty", "entropic:1@uniform",
            "--distortion", "tk:0.61",
            "--seed", "42",
            "--output", "json",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_subprocess_runs_byte_identical(self):
        argv = [
            sys.executable, "-m", "rankrobust", "battery",
            "--penalty", "entropic:1@w0=0.5,w1=0.5",
            "--cases", "10",
            "--seed", "3",
            "--output", "json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()


JSON_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnewline\n\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f600"]),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308]),
    st.floats().map(np.float64),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.floats(), min_size=1) | st.lists(st.text(), min_size=1),
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=40,
)


class TestReportWriter:
    """The report writer is json.dumps(indent=2, sort_keys=True), byte for byte."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [{}, [], (), {"a": {}, "b": [[], ()]}, [[1.5, 2.5], ["x", "y"], [1.5, "x"]]])
    def test_empty_and_nested_containers(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _json_text({"a": [np.int64(1)]})

    def test_entropic_report_ignores_numpy_print_options(self, capsys):
        argv = ["evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty", "entropic:1@calm=0.3,storm=0.7",
                "--output", "json"]
        _, want, _ = run_cli(capsys, *argv)
        assert "Prior([0.3, 0.7])" in json.loads(want)["preference"]["penalty"]
        with np.printoptions(sign="+", floatmode="fixed", legacy="1.13"):
            assert run_cli(capsys, *argv) == (0, want, "")


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        from rankrobust import cli

        built = []
        original = cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty", "entropic:1@uniform")
            run_cli(capsys, "demo", "ellsberg")
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["cmin", "--help"], ["evaluate"], ["bogus"]])
    def test_help_and_usage_errors_repeat_exactly(self, capsys, argv):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            captured = capsys.readouterr()
            outputs.append((stop.value.code, captured.out, captured.err))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (0 if "--help" in argv else 2)


COLD_START = """
import contextlib, io, json, sys

from rankrobust import cli


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


commands, cmin = json.loads(sys.argv[1]), json.loads(sys.argv[2])
report = {"codes": [run(argv)[0] for argv in commands]}
report["scipy"] = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
code, out = run(cmin)
report["cmin"] = [code, json.loads(out)["result"]["status"]]
print(json.dumps(report))
"""


class TestColdStart:
    """A fresh interpreter runs every command but ``cmin`` without loading scipy;
    only the HiGHS LPs (cmin, maxmin hull membership) import it."""

    def test_only_cmin_loads_scipy(self):
        two_state = str(FIXTURES / "two_state.json")
        commands = []
        for penalty in ("entropic:1@uniform", "gini:0.5@calm=0.4,storm=0.6",
                        "maxmin:[calm=0.2,storm=0.8;calm=0.7,storm=0.3]",
                        "table:" + str(FIXTURES / "penalty_table.csv")):
            for command in ("evaluate", "ce"):
                commands.append([command, "--scenario", two_state, "--penalty", penalty, "--output", "json"])
            commands.append(["compare", "--scenario", two_state, "--scenario2", two_state, "--penalty", penalty,
                             "--output", "json"])
        commands.append(["compare", "--scenario", str(FIXTURES / "ellsberg_urn_a.json"),
                         "--scenario2", str(FIXTURES / "ellsberg_urn_c.json"),
                         "--utility", "exp:0.01", "--penalty", "maxmin:vertices", "--output", "json"])
        for penalty in ("entropic:1@w0=0.5,w1=0.5", "gini:0.8@w0=0.3,w1=0.7", "maxmin:[w0=0.2,w1=0.8;w0=0.6,w1=0.4]"):
            commands.append(["battery", "--penalty", penalty, "--cases", "5", "--output", "json"])
        commands.append(["portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--penalty", "maxmin:vertices",
                         "--mean-prior", "uniform", "--output", "json"])
        commands.append(["demo", "ellsberg"])
        # A prior inside the hull but on no vertex: both LPs run.
        cmin = ["cmin", "--penalty", "maxmin:[a=0.2,b=0.8;a=0.6,b=0.4]", "--prior", "a=0.4,b=0.6", "--output", "json"]
        proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(commands), json.dumps(cmin)],
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0] * len(commands)
        assert report["scipy"] == []
        assert report["cmin"] == [0, "converged"]
