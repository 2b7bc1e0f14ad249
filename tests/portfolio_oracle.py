"""The per-candidate polish round, the per-row panel parse and the per-row
penalty-table load that ``rankrobust.portfolio._pair_moves``,
``rankrobust.cli.parse_panel`` and ``rankrobust.ambiguity._load_penalty_table``
replaced, kept verbatim as their byte-for-byte oracles: one numpy vector per
candidate, and one ``float`` call per cell with a row's line number at hand."""

import csv

import numpy as np

from rankrobust import DomainError, ScenarioError, ScenarioPanel, ShapeError
from rankrobust.ambiguity import Tabulated, _refused_prior_row
from rankrobust.errors import SpecStringError


def loop_donors(w: np.ndarray, step: float) -> np.ndarray:
    """The assets that hold at least ``step`` (to 1e-15), in order."""
    return np.flatnonzero(w >= step - 1e-15)


def loop_pair_moves(w: np.ndarray, step: float) -> list[np.ndarray]:
    """One polish round: shift ``step`` from asset j to asset i for every
    ordered pair whose donor j holds at least ``step``, renormalized."""
    n = w.size
    donors = loop_donors(w, step).tolist()
    candidates = []
    for i in range(n):
        for j in donors:
            if i == j:
                continue
            cand = w.copy()
            cand[i] += step
            cand[j] -= step
            if cand[j] < 0:
                cand[j] = 0.0
            cand /= cand.sum()
            candidates.append(cand)
    return candidates


def loop_parse_panel(path: str) -> ScenarioPanel:
    """Load a scenario panel from CSV (state,prob,outcome,asset_1,...);
    messages name the row's last physical line in the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read panel: {exc}") from exc
    if len(header) < 4 or header[:3] != ["state", "prob", "outcome"]:
        raise ScenarioError(
            f"{path}: panel header must start with 'state,prob,outcome' followed by asset columns"
        )
    assets = header[3:]
    state_order: list[str] = []
    per_state: dict[str, list[tuple[float, list[float]]]] = {}
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != 3 + len(assets):
            raise ScenarioError(f"{path}: line {lineno}: expected {3 + len(assets)} fields, got {len(row)}")
        state = row[0]
        try:
            prob = float(row[1])
            rets = [float(x) for x in row[3:]]
        except ValueError as exc:
            raise ScenarioError(f"{path}: line {lineno}: {exc}") from exc
        if state not in per_state:
            state_order.append(state)
            per_state[state] = []
        per_state[state].append((prob, rets))
    if not state_order:
        raise ScenarioError(f"{path}: panel has no data rows")
    counts = {len(v) for v in per_state.values()}
    if len(counts) != 1:
        raise ScenarioError(f"{path}: states have differing outcome counts {sorted(counts)}")
    probs = np.array([[p for p, _ in per_state[s]] for s in state_order])
    rets = np.array([[r for _, r in per_state[s]] for s in state_order])
    try:
        return ScenarioPanel(assets, state_order, probs, rets)
    except (DomainError, ShapeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def loop_load_penalty_table(path: str, state_ids) -> Tabulated:
    """The table at path: a header naming every state and ``penalty`` (a
    name given twice reads its last column), then one row per prior, blank
    lines skipped; messages name the row's line in the file."""
    names = [str(s) for s in state_ids] + ["penalty"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        where = {name: i for i, name in enumerate(header)}
        missing = [c for c in names if c not in where]
        if missing:
            raise SpecStringError(f"penalty table {path} lacks columns {missing}")
        columns, cells, lines = [where[c] for c in names], [], []
        for row in filter(None, reader):
            line = reader.line_num
            lines.append(line)
            if len(row) != len(header):
                raise SpecStringError(f"penalty table {path} line {line}: expected {len(header)} fields, got {len(row)}")
            try:
                cells.append([float(row[i]) for i in columns])
            except ValueError as exc:
                raise SpecStringError(f"penalty table {path} line {line}: {exc}") from exc
    table = np.array(cells).reshape(-1, len(names))
    refused = _refused_prior_row(table[:, :-1])
    if refused is not None:
        raise SpecStringError(f"penalty table {path} line {lines[refused[0]]}: {refused[1]}")
    return Tabulated(zip(table[:, :-1], table[:, -1]))
