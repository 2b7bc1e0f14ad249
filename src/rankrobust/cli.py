"""Command-line front end: scenario ingestion, preference configuration, and
report emission.

Scenario files are JSON for two-stage variables (``{"states": {id: {"probs":
[...], "payoffs": [...]}}}``) and CSV for scenario panels (header
``state,prob,outcome,asset_1,...``).  Reports echo the fully resolved
preference triple and, with ``--output json``, are byte-identical across
runs with the same configuration and seed.

Exit codes: 0 success, 2 validation failure, 3 property-violation findings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .ambiguity import (
    c_min_exact,
    parse_penalty,
    parse_prior,
)
from .distortion import identity as identity_distortion, parse_distortion
from .distribution import TwoStageVariable, dominance
from .errors import ConfigError, DomainError, ScenarioError, ShapeError, SpecStringError
from .evaluator import (
    REDUCTION_SECTIONS,
    BatterySpec,
    Preference,
    battery_reports,
    ellsberg_demo,
    evaluate,
    relation,
)
from .portfolio import ScenarioPanel, optimize
from .utility import identity_utility, parse_utility

# ValueError covers the package's validation exceptions plus raw parse
# failures (bad numbers in user files); anything else is a real bug and
# should traceback.
_VALIDATION_ERRORS = (ValueError, LookupError, OSError)

# JSON numbers decode to these; strings, booleans and nulls, which numpy
# would convert, are refused.
_NUMBER_TYPES = {int, float}


def parse_scenario(path: str) -> TwoStageVariable:
    """Load a two-stage variable from its JSON schema with precise diagnostics.

    orjson decodes the file's bytes to the same floats as json, faster.  A
    document it refuses (NaN or Infinity literals, numbers past the float
    range, lone surrogates, invalid UTF-8, malformed JSON) is read again by
    json, which accepts what it always accepted and words every refusal."""
    import orjson  # imported here: only the commands that read a scenario load it

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("states"), dict) or not doc["states"]:
        raise ScenarioError(f"{path}: scenario must be an object with a non-empty 'states' mapping")
    states = doc["states"]
    # One flat conversion per field; if it fails, the per-state loop names the bad state.
    try:
        probs, payoffs = (_field_matrix(states, key) for key in ("probs", "payoffs"))
    except (TypeError, ValueError, LookupError, OverflowError):
        probs = payoffs = None
    if probs is None or probs.shape != payoffs.shape:
        _check_states(path, states)
    # Sums and signs are checked, naming the state, by TwoStageVariable.
    try:
        return TwoStageVariable(list(states), probs, payoffs)
    except (DomainError, ShapeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _field_matrix(states: dict, key: str) -> np.ndarray:
    """The (state, outcome) float matrix of one field's lists, converted in one
    pass; ValueError unless every state holds a list of the first one's
    length and every entry is an int or a float."""
    rows = [entry[key] for entry in states.values()]
    width = len(rows[0]) if isinstance(rows[0], list) else -1
    if not all(isinstance(row, list) and len(row) == width for row in rows):
        raise ValueError(f"{key} rows differ")
    flat = list(itertools.chain.from_iterable(rows))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        raise ValueError(f"{key} holds an entry that is not a number")
    return np.fromiter(flat, float, len(flat)).reshape(len(rows), width)


def _check_states(path: str, states: dict) -> None:
    """Raise the ScenarioError naming the first state whose entry is malformed."""
    width = None
    for sid, entry in states.items():
        where = f"{path}: state {sid!r}"
        if not isinstance(entry, dict) or "probs" not in entry or "payoffs" not in entry:
            raise ScenarioError(f"{where} must carry 'probs' and 'payoffs' lists")
        try:
            p, x = np.asarray(entry["probs"], dtype=float), np.asarray(entry["payoffs"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        if p.ndim != 1 or p.shape != x.shape:
            raise ScenarioError(f"{where} has probs of shape {p.shape} but payoffs of shape {x.shape}")
        if width is not None and p.size != width:
            raise ScenarioError(f"{where} has {p.size} outcomes, earlier states have {width}")
        width = p.size
        for key in ("probs", "payoffs"):
            for outcome, value in enumerate(entry[key]):
                if type(value) not in _NUMBER_TYPES:
                    raise ScenarioError(f"{where}: {key} entry {json.dumps(value)} (outcome {outcome}) is not a number")


def parse_panel(path: str) -> ScenarioPanel:
    """Load a scenario panel from CSV (state,prob,outcome,asset_1,...).

    States are taken in order of first appearance and each state's outcomes
    in file order, so a state's rows may be interleaved with other states'.
    Each numeric column is converted in one pass; if that fails, the
    per-row loop names the refused row's last physical line in the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read panel: {exc}") from exc
    reader = csv.reader(lines)
    header = next(reader, [])
    if len(header) < 4 or header[:3] != ["state", "prob", "outcome"]:
        raise ScenarioError(
            f"{path}: panel header must start with 'state,prob,outcome' followed by asset columns"
        )
    assets = header[3:]
    rows = list(filter(None, reader))
    if not rows:
        raise ScenarioError(f"{path}: panel has no data rows")
    # One conversion per numeric column; if a row is refused, the per-row
    # loop raises the message naming its line.
    try:
        if set(map(len, rows)) != {3 + len(assets)}:
            raise ValueError("rows differ in width")
        states, probs, _, *returns = zip(*rows)
        cells = np.array([list(map(float, column)) for column in (probs, *returns)])
    except ValueError:
        _check_panel_rows(path, lines, 3 + len(assets))
        raise
    first = {state: k for k, state in enumerate(dict.fromkeys(states))}
    codes = np.fromiter(map(first.__getitem__, states), int, len(states))
    counts = np.bincount(codes)
    if counts.min() != counts.max():
        raise ScenarioError(f"{path}: states have differing outcome counts {sorted(set(counts.tolist()))}")
    cells = cells[:, np.argsort(codes, kind="stable")].reshape(len(cells), len(first), -1)
    try:
        return ScenarioPanel(assets, first, cells[0], cells[1:].transpose(1, 2, 0))
    except (DomainError, ShapeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _check_panel_rows(path: str, lines: list[str], width: int) -> None:
    """Raise the ScenarioError naming the first row of a panel's lines with
    the wrong field count or a cell that is not a number."""
    reader = csv.reader(lines)
    next(reader, None)
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ScenarioError(f"{path}: line {reader.line_num}: expected {width} fields, got {len(row)}")
        try:
            for cell in (row[1], *row[3:]):
                float(cell)
        except ValueError as exc:
            raise ScenarioError(f"{path}: line {reader.line_num}: {exc}") from exc


def _resolve_preference(args, state_ids) -> Preference:
    phi = parse_utility(args.utility) if args.utility else identity_utility()
    psi = parse_distortion(args.distortion) if args.distortion else identity_distortion()
    amb = parse_penalty(args.penalty, state_ids)
    return Preference(phi, psi, amb, state_ids)


def _emit(report: dict, args) -> None:
    if args.output == "json":
        print(_json_text(report))
        return
    _print_text(report)


_json_str = json.encoder.encode_basestring_ascii
_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples and JSON scalars.

    json writes indented text with its pure-Python encoder, one generator
    step per value.  This writer encodes each list of floats or of strings
    in one pass, strings with json's own C encoder and floats as json does
    (``float.__repr__``, or NaN, Infinity, -Infinity).  Any other scalar goes
    to ``json.dumps``, which also refuses what JSON cannot hold.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_SPECIAL_FLOATS.get(text, text)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{_json_str(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items())]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {float}:
            texts = [_JSON_SPECIAL_FLOATS.get(text, text) for text in map(float.__repr__, obj)]
        elif kinds == {str}:
            texts = list(map(_json_str, obj))
        else:
            texts = [_json_text(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(texts) + pad + "]" if texts else "[]"
    return json.dumps(obj)


def _print_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}: [{len(value)} entries]")
        else:
            print(f"{pad}{key}: {value}")


def _cmd_evaluate(args) -> int:
    v = parse_scenario(args.scenario)
    pref = _resolve_preference(args, v.state_ids)
    ev = evaluate(v, pref)
    report = {
        "command": args.command,
        "scenario": args.scenario,
        "preference": pref.describe(),
        "seed": args.seed,
        "result": ev.to_dict(),
    }
    if args.command == "ce":
        report["result"] = {"certainty_equivalent": ev.certainty_equivalent}
    _emit(report, args)
    return 0


def _cmd_compare(args) -> int:
    v1 = parse_scenario(args.scenario)
    v2 = parse_scenario(args.scenario2)
    if v2.state_ids != v1.state_ids:
        raise ScenarioError(f"{args.scenario2}: states {v2.state_ids} do not match the states {v1.state_ids} "
                            f"of {args.scenario}")
    pref = _resolve_preference(args, v1.state_ids)
    value_1 = evaluate(v1, pref).value_utils
    value_2 = evaluate(v2, pref).value_utils
    rel = relation(value_1, value_2)
    wording = {">": "first strictly preferred", "<": "second strictly preferred", "~": "indifferent"}
    report = {
        "command": "compare",
        "scenario": args.scenario,
        "scenario2": args.scenario2,
        "preference": pref.describe(),
        "seed": args.seed,
        "result": {
            "relation": rel,
            "verdict": wording[rel],
            "value_1": value_1,
            "value_2": value_2,
        },
    }
    _emit(report, args)
    return 0


def _cmd_dominance(args) -> int:
    if args.utility and args.order != "phissd":
        raise ConfigError(f"--utility is read by --order phissd only, not by --order {args.order}")
    paths = (args.scenario, args.scenario2)
    variables = [parse_scenario(path) for path in paths]
    for path, v in zip(paths, variables):
        if v.n_states != 1:
            raise ScenarioError(f"{path}: dominance compares one-stage laws; the scenario has {v.n_states} states, "
                                f"not 1")
    laws = [v.marginal(v.state_ids[0]) for v in variables]
    phi = parse_utility(args.utility) if args.utility else None
    if phi is not None:
        for path, law in zip(paths, laws):
            try:
                phi(law.values)
            except DomainError as exc:
                raise ScenarioError(f"{path}: {exc}") from exc
    report_obj = dominance(*laws, args.order, phi=phi)
    report = {
        "command": "dominance",
        "scenario": args.scenario,
        "scenario2": args.scenario2,
        "order": args.order,
        "utility": phi.describe() if phi else None,
        "seed": args.seed,
        "result": report_obj.to_dict(),
    }
    _emit(report, args)
    return 0


def _cmd_cmin(args) -> int:
    try:
        state_ids = _infer_state_ids(args.penalty)
    except SpecStringError:
        text = args.prior.strip()
        if "=" in text:
            state_ids = [p.partition("=")[0].strip() for p in text.split(",")]
        elif text.lower() != "uniform":
            state_ids = [f"w{i}" for i in range(len(text.split(",")))]
        else:
            raise SpecStringError(
                "cannot infer the state count; name the prior weights (w1=p1,...)"
            ) from None
    amb = parse_penalty(args.penalty, state_ids)
    q = parse_prior(args.prior, state_ids)
    lo, hi, step = args.grid
    bound, upper, status, iterations = c_min_exact(amb, q, lo, hi)
    direct = amb.penalty(q)
    report = {
        "command": "cmin",
        "penalty": amb.describe(),
        "prior": q.weights.tolist(),
        "grid": {"low": lo, "high": hi, "step": step},
        "seed": args.seed,
        "result": {
            "dual_lower_bound": bound,
            "upper_bound": upper,
            "status": status,
            "iterations": iterations,
            "direct_penalty": direct if math.isfinite(direct) else "inf",
            "gap": (direct - bound) if math.isfinite(direct) else "inf",
        },
    }
    _emit(report, args)
    return 0


def _grid(text: str) -> tuple[float, float, float]:
    """The `--grid` value LO,HI,STEP as three floats."""
    try:
        lo, hi, step = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO,HI,STEP (three numbers), got {text!r}") from None
    return lo, hi, step


def _infer_state_ids(penalty_spec: str) -> list[str]:
    """Recover the ordered state names from `name=value` tokens in a penalty spec."""
    names: list[str] = []
    for match in re.finditer(r"([A-Za-z_]\w*)\s*=", penalty_spec):
        name = match.group(1)
        if name not in names:
            names.append(name)
    if not names:
        raise SpecStringError(
            "battery needs a penalty spec with named priors (w1=p1,...) to fix the state set"
        )
    return names


def _cmd_battery(args) -> int:
    state_ids = _infer_state_ids(args.penalty)
    pref = _resolve_preference(args, state_ids)
    reductions, aversion = battery_reports(pref, BatterySpec(n_cases=args.cases, seed=args.seed))
    violations = sum(len(reductions[k]["violations"]) for k in REDUCTION_SECTIONS) + len(aversion["violations"])
    report = {
        "command": "battery",
        "preference": pref.describe(),
        "seed": args.seed,
        "cases": args.cases,
        "result": {
            "reductions": reductions,
            "ambiguity_aversion": aversion,
            "total_violations": violations,
        },
    }
    _emit(report, args)
    return 3 if violations else 0


def _cmd_portfolio(args) -> int:
    panel = parse_panel(args.scenario)
    pref = _resolve_preference(args, panel.state_ids)
    p_mean = parse_prior(args.mean_prior, panel.state_ids)
    result = optimize(panel, p_mean, pref, budget=args.budget)
    report = {
        "command": "portfolio",
        "scenario": args.scenario,
        "preference": pref.describe(),
        "mean_prior": p_mean.weights.tolist(),
        "seed": args.seed,
        "budget": args.budget,
        "result": {
            "assets": list(panel.assets),
            "weights": result.weights.values.tolist(),
            "objective": result.objective,
            "mean_term": result.mean_term,
            "risk_term": result.risk_term,
            "evaluations": len(result.trace),
        },
    }
    _emit(report, args)
    return 0


def _cmd_demo(args) -> int:
    demo = ellsberg_demo()
    report = {"command": "demo", "topic": "ellsberg", "seed": args.seed, "result": demo}
    if args.output == "json":
        _emit(report, args)
    else:
        for name, value in demo["values"].items():
            print(f"{name} = {value:g}")
        print(demo["isolated_preference"])
        print(demo["combined_preference"])
        print("PASS" if demo["passed"] else "FAIL")
    return 0 if demo["passed"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankrobust",
        description="Evaluate risky and ambiguous prospects with rank-dependent "
        "distorted expectations and penalized worst-case priors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--scenario": dict(required=True, help="scenario file (JSON variable or CSV panel)"),
        "--scenario2": dict(required=True, help="second scenario for compare/dominance"),
        "--utility": dict(help="utility spec: affine:a,b | exp:a | power:r | pwl:x1,y1;..."),
        "--distortion": dict(help="distortion spec: identity | power:a | prelec:a,b | tk:g | es:l | var:l | dualpower:k | pwl:p1,y1;..."),
        "--penalty": dict(required=True, help="penalty spec: maxmin:[prior;...] | entropic:theta@prior | gini:theta@prior | table:file.csv"),
        "--order": dict(default="fsd", choices=["fsd", "ssd", "phissd"], help="dominance order"),
        "--prior": dict(required=True, help="prior at which to lower-bound the penalty"),
        "--grid": dict(type=_grid, default="-5,5,0.25", help="low,high,step: the box [low,high]^n (step unused)"),
        "--cases": dict(type=int, default=200),
        "--mean-prior": dict(required=True, dest="mean_prior", help="prior for the portfolio mean term"),
        "--budget": dict(type=int, default=2000, help="evaluation budget for portfolio search"),
        "--seed": dict(type=int, default=0, help="seed echoed in reports and used by batteries"),
        "--output": dict(default="text", choices=["text", "json"]),
    }
    preference = ("--scenario", "--utility", "--distortion", "--penalty")
    # Each command declares its handler and only the flags it reads, so
    # argparse refuses the rest.
    commands = {
        "evaluate": (_cmd_evaluate, preference),
        "ce": (_cmd_evaluate, preference),
        "compare": (_cmd_compare, preference + ("--scenario2",)),
        "dominance": (_cmd_dominance, ("--scenario", "--scenario2", "--utility", "--order")),
        "cmin": (_cmd_cmin, ("--penalty", "--prior", "--grid")),
        "battery": (_cmd_battery, ("--penalty", "--utility", "--distortion", "--cases")),
        "portfolio": (_cmd_portfolio, preference + ("--mean-prior", "--budget")),
        "demo": (_cmd_demo, ()),
    }
    for name, (handler, names) in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for flag in names + ("--seed", "--output"):
            p.add_argument(flag, **flags[flag])
    sub.choices["demo"].add_argument("topic", choices=["ellsberg"], help="demo name")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
