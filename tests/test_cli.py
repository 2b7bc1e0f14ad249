import csv
import decimal
import importlib.util
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rankrobust import DomainError, ScenarioError, ShapeError, TwoStageVariable, ambiguity_aversion_check
from rankrobust.cli import _json_text, build_parser, main, parse_panel, parse_scenario
from portfolio_oracle import loop_parse_panel

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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
        except (TypeError, ValueError, OverflowError) as exc:
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
        for key in ("probs", "payoffs"):
            for outcome, value in enumerate(entry[key]):
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ScenarioError(
                        f"{path}: state {sid!r}: {key} entry {json.dumps(value)} (outcome {outcome}) is not a number"
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
    "numeric_string_probs": {"calm": CALM, "stormy": {"probs": ["0.5", "0.5"], "payoffs": [0, 1]}},
    "numeric_string_payoff": {"calm": CALM, "stormy": {"probs": [0.5, 0.5], "payoffs": [0, "1e2"]}},
    "boolean_payoffs": {"calm": CALM, "stormy": {"probs": [0.5, 0.5], "payoffs": [True, False]}},
    "boolean_probability": {"calm": CALM, "stormy": {"probs": [True, 0], "payoffs": [0, 1]}},
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


JSON_SPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n", " \t\n "])
SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
MIDPOINT_PRECISION = decimal.Context(prec=2000)


@st.composite
def float_tokens(draw, values, precisions=st.integers(0, 40)):
    """A JSON spelling of a drawn float: its repr or %.{k}e / %.{k}g, with
    E for e and e for e+ at random."""
    x = draw(values)
    form = draw(st.sampled_from(["repr", "e", "g"]))
    text = repr(x) if form == "repr" else f"%.{draw(precisions)}{form}" % x
    if draw(st.booleans()):
        text = text.replace("e", "E")
    if draw(st.booleans()):
        text = text.replace("e+", "e").replace("E+", "E")
    return text


@st.composite
def midpoint_tokens(draw):
    """The exact midpoint of two adjacent doubles, or that midpoint nudged by
    +-1e-700: the decimal strings where a correctly rounded reader differs
    from a sloppy one."""
    x = draw(st.floats(-1e20, 1e20) | SUBNORMALS)
    nudge = draw(st.sampled_from(["0", "1e-700", "-1e-700"]))
    ctx = MIDPOINT_PRECISION
    mid = ctx.divide(ctx.add(decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))), 2)
    return str(ctx.add(mid, decimal.Decimal(nudge)))


PAYOFF_TOKENS = st.one_of(
    float_tokens(st.floats(allow_nan=False, allow_infinity=False)),
    float_tokens(SUBNORMALS),
    midpoint_tokens(),
    st.sampled_from(["0", "-0", "-0.0", "0.0", "-0e0", "0E-5", "-0E+10", "1E5", "1e+5", "25e-1"]),
    st.integers(-2**63, 2**64).map(str),
    (st.integers(2**64, 10**300) | st.integers(-10**300, -2**63 - 1)).map(str),
)
STATE_IDS = st.sampled_from(["calm", "café", "☃", "a\"b"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def scenario_documents(draw):
    """A scenario document's text: states whose ids may repeat, escaped or
    not, with probabilities p, 1 - p (then zeros) and any payoff spellings,
    JSON whitespace between the tokens."""
    def ws():
        return draw(JSON_SPACE)

    def array(tokens):
        return "[" + ",".join(f"{ws()}{token}{ws()}" for token in tokens) + "]"

    width = draw(st.integers(1, 4))
    states = []
    for sid in draw(st.lists(STATE_IDS, min_size=1, max_size=5)):
        p = draw(st.floats(0, 1))
        probs = ([float_tokens(st.just(p), st.integers(17, 40)), float_tokens(st.just(1 - p), st.integers(17, 40))]
                 + [st.sampled_from(["0", "0.0", "-0", "0e5"])] * (width - 2) if width > 1
                 else [st.sampled_from(["1", "1.0", "1e0", "10E-1", "0.1e+1"])])
        probs = array(draw(token) for token in probs)
        payoffs = array(draw(PAYOFF_TOKENS) for _ in range(width))
        key = json.dumps(sid, ensure_ascii=draw(st.booleans()))
        states.append(f'{ws()}{key}{ws()}:{ws()}{{{ws()}"probs"{ws()}:{ws()}{probs}{ws()},'
                      f'{ws()}"payoffs"{ws()}:{ws()}{payoffs}{ws()}}}')
    return f'{ws()}{{{ws()}"states"{ws()}:{ws()}{{{",".join(states)}}}{ws()}}}{ws()}'


def parsed(path):
    """parse_scenario's result at path, as comparable bytes, or its error."""
    try:
        v = parse_scenario(str(path))
    except ScenarioError as exc:
        return str(exc)
    return v.state_ids, v.outcome_probs.tobytes(), v.payoffs.tobytes()


def refuse(data):
    raise orjson.JSONDecodeError("refused", "", 0)


class TestDecoding:
    """orjson reads each scenario as json does: same floats to the bit, same
    states in the same order; what orjson refuses, json reads as before."""

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario_documents())
    def test_orjson_reads_what_json_reads(self, tmp_path, text):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        got = parsed(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orjson, "loads", refuse)
            assert parsed(path) == got

    @pytest.mark.parametrize("stormy, want", [
        (b'"stormy": {"probs": [0.5, 0.5], "payoffs": [0, NaN]}',
         "payoff nan in state 'stormy' (outcome 1) is not finite"),
        (b'"stormy": {"probs": [0.5, 0.5], "payoffs": [0, Infinity]}',
         "payoff inf in state 'stormy' (outcome 1) is not finite"),
        (b'"stormy": {"probs": [0.5, 0.5], "payoffs": [0, -1e400]}',
         "payoff -inf in state 'stormy' (outcome 1) is not finite"),
        (b'"stormy": {"probs": [0.5, 0.5], "payoffs": [1e309, 0]}',
         "payoff inf in state 'stormy' (outcome 0) is not finite"),
        (b'"stormy": {"probs": [0.5, 0.5], "payoffs": [0, 1' + b"0" * 400 + b"]}",
         "state 'stormy': int too large to convert to float"),
        (b'"\\ud800": {"probs": [0.5, 0.5], "payoffs": [0, 1]}', None),
        (b'"caf\xe9": {"probs": [0.5, 0.5], "payoffs": [0, 1]}',
         "cannot read scenario: 'utf-8' codec can't decode byte 0xe9 in position 66: invalid continuation byte"),
    ], ids=["nan", "infinity", "minus_1e400", "1e309", "int_1e400", "lone_surrogate", "invalid_utf8"])
    def test_what_orjson_refuses_json_reads_as_before(self, tmp_path, stormy, want):
        path = tmp_path / "refused.json"
        path.write_bytes(b'{"states": {"calm": {"probs": [0.5, 0.5], "payoffs": [0, 1]}, ' + stormy + b"}}")
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(path.read_bytes())
        assert raised(parse_scenario, str(path)) == raised(per_state_parse_scenario, str(path))
        if want is None:
            v = parse_scenario(str(path))
            assert v.state_ids == ("calm", "\ud800") and v.payoffs.tolist() == [[0.0, 1.0], [0.0, 1.0]]
        else:
            assert raised(parse_scenario, str(path)) == (ScenarioError, f"{path}: {want}")

    def test_byte_order_mark_is_invalid_json(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"states": {"calm": {"probs": [1.0], "payoffs": [2.0]}}}')
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(path.read_bytes())
        assert raised(parse_scenario, str(path)) == raised(per_state_parse_scenario, str(path)) == (
            ScenarioError, f"{path}: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")


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

    @pytest.mark.parametrize("last_row, reason", [
        ('"two\nlines",0.5,y,x', "line 6: could not convert string to float: 'x'"),
        ('"two\nlines",0.5,y', "line 6: expected 4 fields, got 3"),
        ('\n"two\nlines",0.5,y,x', "line 7: could not convert string to float: 'x'"),
    ])
    def test_messages_name_the_physical_line(self, capsys, tmp_path, last_row, reason):
        """A quoted state id with a line break spans two lines of the file;
        messages count lines, not rows."""
        path = tmp_path / "p.csv"
        path.write_text('state,prob,outcome,a\nw,1.0,x,0.1\n"two\nlines",0.5,x,0.1\n' + last_row + "\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "portfolio", "--scenario", str(path), "--penalty", "maxmin:vertices",
                                 "--mean-prior", "uniform")
        assert (code, out, err) == (2, "", f"error: {path}: {reason}\n")


PANEL_STATE_IDS = ["calm", "two\nlines", "a,b", 'say "hi"', "café", " padded "]
PANEL_FAULTS = ["none", "bad number", "empty cell", "field count", "header only", "outcome counts",
                "negative probability", "probability sum", "two faults"]


def panel_text(rng, fault):
    """A panel's CSV text with the given fault: states with quoted ids whose
    rows are interleaved, blank lines, numbers in varied forms."""
    n, m, n_assets = (int(k) for k in rng.integers(1, (5, 9, 4)))
    if fault == "outcome counts":
        n, m = max(n, 2), max(m, 2)
    ids = [PANEL_STATE_IDS[k] for k in rng.permutation(len(PANEL_STATE_IDS))[:n]]
    forms = (repr, lambda x: f"{x:.3e}", lambda x: f" {x!r}", lambda x: str(round(x)))
    rows = []
    for sid in ids:
        probs = rng.random(m) + 0.05
        for o, prob in enumerate((probs / probs.sum()).tolist()):
            cells = [forms[int(rng.integers(4))](x) for x in rng.normal(0.0, 2.0, n_assets).tolist()]
            rows.append([sid, repr(prob), f"o{o}", *cells])
    rows = [rows[k] for k in rng.permutation(len(rows))]
    pick = int(rng.integers(len(rows)))
    if fault in ("bad number", "two faults"):
        rows[pick][int(rng.choice([1, *range(3, 3 + n_assets)]))] = "1.5x"
    if fault == "empty cell":
        rows[pick][int(rng.choice([1, *range(3, 3 + n_assets)]))] = ""
    if fault == "field count":
        rows[pick] = rows[pick][:-1] if rng.random() < 0.5 else rows[pick] + ["0.1"]
    if fault == "two faults":
        other = int(rng.integers(len(rows)))
        rows[other] = rows[other][:-1]
    if fault == "header only":
        rows = []
    if fault == "outcome counts":
        rows.remove(next(row for row in rows if row[0] == ids[-1]))
    if fault == "negative probability":
        rows[pick][1] = repr(-float(rows[pick][1]))
    if fault == "probability sum":
        rows[pick][1] = repr(1.5 * float(rows[pick][1]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n" if rng.random() < 0.3 else "\n")
    writer.writerow(["state", "prob", "outcome", *(f"asset_{k}" for k in range(n_assets))])
    for row in rows:
        if rng.random() < 0.2:
            out.write("\n")
        writer.writerow(row)
    return out.getvalue()


def panel_parse(parse, path):
    """A parse's result as comparable bytes and layout, or its exception."""
    try:
        panel = parse(str(path))
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return (panel.assets, panel.state_ids,
            *((a.dtype, a.shape, a.strides, a.tobytes()) for a in (panel.outcome_probs, panel.returns)))


class TestParsePanelParity:
    """parse_panel converts whole columns, yet reads every panel as the
    per-row parser did: the same panel byte for byte, or the same exception
    with the same message."""

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), fault=st.sampled_from(PANEL_FAULTS))
    def test_same_panel_or_same_error(self, tmp_path, seed, fault):
        path = tmp_path / "panel.csv"
        path.write_text(panel_text(np.random.default_rng(seed), fault), encoding="utf-8", newline="")
        want = panel_parse(loop_parse_panel, path)
        assert (fault == "none") == (len(want) == 4)
        assert panel_parse(parse_panel, path) == want

    @pytest.mark.parametrize("name", ["panel_hedge.csv", "panel_risky_riskfree.csv"])
    def test_fixture_panels(self, name):
        assert panel_parse(parse_panel, FIXTURES / name) == panel_parse(loop_parse_panel, FIXTURES / name)

    @pytest.mark.parametrize("text", [
        "state,prob,outcome,a\n",
        "state,prob,outcome,a\n\n\n",
        "state,prob,outcome,a\nw,0.5,x,0.1\nv,1.0,x,0.2\nw,0.5,y,0.3\n",
        "state,prob,outcome,a\nw,0.5,x,0.1\nv,1.0,x,0.2\n",
        "state,prob,outcome,a\nw,0.5,x,0.1\nw,0.5,y,nan\n",
        "state,prob,outcome\nw,1.0,x\n",
        "",
    ], ids=["header only", "header and blank lines", "interleaved", "differing counts", "nan return",
            "no asset column", "empty file"])
    def test_edge_panels(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        assert panel_parse(parse_panel, path) == panel_parse(loop_parse_panel, path)

    def test_undecodable_byte_past_the_first_read(self, tmp_path):
        path = tmp_path / "panel.csv"
        body = "".join(f"w,{1 / 4000!r},o{k},0.5\n" for k in range(4000))
        path.write_bytes(f"state,prob,outcome,a\n{body}".encode() + b"w,0.1,\xe9,0.5\n")
        want = panel_parse(loop_parse_panel, path)
        assert want[0] is ScenarioError and "can't decode byte 0xe9" in want[1]
        assert panel_parse(parse_panel, path) == want


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

    @pytest.mark.parametrize("rows, reason", [
        ("0.5,0.5,0\n0.2\n", "line 3: expected 3 fields, got 1"),
        ("0.5,0.5,0\n0.2,0.8,1,7\n", "line 3: expected 3 fields, got 4"),
        ("0.5,0.5,0\n\n0.2,x,1\n", "line 4: could not convert string to float: 'x'"),
        ("0.5,0.5,0\n0.6,0.6,1\n1.2,-0.2,1\n", "line 4: prior weights must be >= 0, got min -0.2"),
        ("0.5,0.5,0\n0.6,0.6,1\n", "line 3: prior weights must sum to 1 within 1e-12, got 1.2"),
        ("\n0.5,0.5,0\n\n0.6,0.6,1\n", "line 5: prior weights must sum to 1 within 1e-12, got 1.2"),
        ("0.5,0.5,0\n\n\n0.2\n", "line 5: expected 3 fields, got 1"),
    ])
    def test_penalty_table_rows_name_their_line(self, capsys, tmp_path, rows, reason):
        """Rows are read as one float matrix and checked at once: a row of the
        wrong length or a cell that is no number first, then negative weights
        in any row, then sums off 1.  Blank lines are skipped, and each
        message names the row's line in the file."""
        path = tmp_path / "table.csv"
        path.write_text("calm,storm,penalty\n" + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "cmin", "--penalty", f"table:{path}", "--prior", "calm=0.5,storm=0.5")
        assert (code, out, err) == (2, "", f"error: penalty table {path} {reason}\n")

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

    @pytest.mark.parametrize("payoffs, utility, message", [
        ([-1000, 0], "exp:1", "utility exp:1 of payoff -1000.0 at (state 'stormy', outcome 0) is not finite"),
        ([1e308, -1e308], "identity", "the distorted expected utility of state 'stormy' is not finite"),
    ], ids=["utility", "difference"])
    def test_non_finite_utility_names_the_state(self, capsys, tmp_path, payoffs, utility, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"states": {"calm": {"probs": [0.5, 0.5], "payoffs": [0, 1]},
                                                   "stormy": {"probs": [0.5, 0.5], "payoffs": payoffs}}}))
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(scenario), "--penalty", "maxmin:vertices",
                                 "--utility", utility)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_finite_portfolio_utility_names_the_state(self, capsys, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text("state,prob,outcome,a1,a2\nw0,0.5,up,1e308,-1e308\nw0,0.5,down,-1e308,1e308\n")
        code, out, err = run_cli(capsys, "portfolio", "--scenario", str(panel), "--penalty", "maxmin:vertices",
                                 "--mean-prior", "uniform")
        assert (code, out, err) == (2, "", "error: the distorted expected utility of state 'w0' is not finite\n")

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


    @pytest.mark.parametrize("negative_first", [True, False])
    def test_dominance_names_the_file_outside_the_utility_domain(self, capsys, tmp_path, negative_first):
        paths = []
        for name, payoffs in (("negative.json", [-1.0, 2.0]), ("positive.json", [1.0, 2.0])):
            path = tmp_path / name
            path.write_text(json.dumps({"states": {"only": {"probs": [0.5, 0.5], "payoffs": payoffs}}}),
                            encoding="utf-8")
            paths.append(str(path))
        negative = paths[0]
        paths = paths if negative_first else paths[::-1]
        argv = ["dominance", "--scenario", paths[0], "--scenario2", paths[1], "--utility", "power:0.5"]
        code, out, err = run_cli(capsys, *argv, "--order", "phissd")
        assert (code, out) == (2, "")
        assert err == f"error: {negative}: utility argument outside domain (0, inf): -1.0\n"
        # Only phissd reads the utility; the other orders refuse it.
        for order in ("fsd", "ssd"):
            assert run_cli(capsys, *argv, "--order", order) == (
                2, "", f"error: --utility is read by --order phissd only, not by --order {order}\n")


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

    def test_cmin_at_the_pivot_cap(self, capsys, monkeypatch):
        """With no simplex pivot allowed, a table's cmin still reports its
        (open) bracket, and a maxmin hull test that cannot finish exits 2."""
        from rankrobust import ambiguity

        monkeypatch.setattr(ambiguity, "SIMPLEX_PIVOTS_PER_COLUMN", 0)
        code, out, _ = run_cli(
            capsys, "cmin",
            "--penalty", f"table:{FIXTURES / 'penalty_table.csv'}",
            "--prior", "calm=0.2,storm=0.8",
            "--output", "json",
        )
        result = json.loads(out)["result"]
        assert code == 0 and result["status"] == "iteration_limit" and result["iterations"] == 0
        assert result["dual_lower_bound"] <= result["direct_penalty"] <= result["upper_bound"]
        code, out, err = run_cli(
            capsys, "cmin",
            "--penalty", "maxmin:[a=0.2,b=0.8;a=0.6,b=0.4]",
            "--prior", "a=0.4,b=0.6",
        )
        assert code == 2 and out == ""
        assert err == "error: maxmin hull-membership test: simplex stopped after 0 pivots\n"

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

    @pytest.mark.parametrize("argv, prior, name", [
        (("evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty",
          "entropic:1@calm=1,calm=0.5,storm=0.5"), "calm=1,calm=0.5,storm=0.5", "calm"),
        (("evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty",
          "maxmin:[calm=0.5,storm=0.5;storm=1,storm=0]"), "storm=1,storm=0", "storm"),
        (("cmin", "--penalty", "entropic:1@calm=0.5,storm=0.5", "--prior", "storm=0.5,calm=0.5,storm=0"),
         "storm=0.5,calm=0.5,storm=0", "storm"),
        (("portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--penalty", "maxmin:vertices",
          "--mean-prior", "w0=1,w0=1"), "w0=1,w0=1", "w0"),
    ])
    def test_prior_naming_a_state_twice_exits_two(self, capsys, argv, prior, name):
        """The last weight given for a state used to win silently."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: bad prior spec '{prior}': prior names state '{name}' twice\n"

    @pytest.mark.parametrize("argv, prior, reason", [
        (("evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty",
          "maxmin:[calm=0.5,rain=0.5;calm=1,storm=0]"), "calm=0.5,rain=0.5", "prior names unknown state 'rain'"),
        (("portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--penalty", "maxmin:vertices",
          "--mean-prior", "0.5,0.5"), "0.5,0.5", "prior lists 2 weights for 1 states"),
    ])
    def test_unknown_state_and_weight_count_exit_two_naming_the_prior(self, capsys, argv, prior, reason):
        """These two refusals used to name neither the prior nor the spec."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: bad prior spec '{prior}': {reason}\n"

    @pytest.mark.parametrize("kind", ["entropic", "gini"])
    @pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
    def test_non_finite_theta_exits_two_naming_the_spec(self, capsys, kind, theta):
        spec = f"{kind}:{theta}@uniform"
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(FIXTURES / "two_state.json"),
                                 "--penalty", spec, "--output", "json")
        assert (code, out) == (2, "")
        assert err == f"error: bad penalty spec '{spec}': {kind} penalty needs a finite theta > 0, got {theta}\n"

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


commands = json.loads(sys.argv[1])
report = {"codes": [], "cmin": [], "orjson": []}
for argv in commands:
    code, out = run(argv)
    report["codes"].append(code)
    report["orjson"].append("orjson" in sys.modules)
    if argv[0] == "cmin":
        report["cmin"].append(json.loads(out)["result"]["status"])
report["scipy"] = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
print(json.dumps(report))
"""


class TestColdStart:
    """A fresh interpreter runs every command, ``cmin`` with a maxmin set and
    with a table included, without loading scipy; only the commands that
    read a JSON scenario load orjson."""

    def test_no_command_loads_scipy(self):
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
        # A prior inside the hull but on no vertex: the bracket and the hull test both solve.
        commands.append(["cmin", "--penalty", "maxmin:[a=0.2,b=0.8;a=0.6,b=0.4]", "--prior", "a=0.4,b=0.6",
                         "--output", "json"])
        commands.append(["cmin", "--penalty", "table:" + str(FIXTURES / "penalty_table.csv"),
                         "--prior", "calm=0.2,storm=0.8", "--output", "json"])
        proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(commands)],
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0] * len(commands)
        assert report["cmin"] == ["converged", "converged"]
        assert report["scipy"] == []

    def test_only_scenario_commands_load_orjson(self):
        commands = [
            ["battery", "--penalty", "entropic:1@w0=0.5,w1=0.5", "--cases", "3", "--output", "json"],
            ["portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"), "--penalty", "maxmin:vertices",
             "--mean-prior", "uniform", "--output", "json"],
            ["cmin", "--penalty", "table:" + str(FIXTURES / "penalty_table.csv"), "--prior", "calm=0.2,storm=0.8",
             "--output", "json"],
            ["demo", "ellsberg"],
            ["evaluate", "--scenario", str(FIXTURES / "two_state.json"), "--penalty", "maxmin:vertices"],
        ]
        proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(commands)],
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0] * len(commands)
        assert report["orjson"] == [False, False, False, False, True]
