"""Symbolic parameter book: every published table row and intersection
matrix as a polynomial in q = 2^s, cross-checked against computed results.

The transcription lives in data/tables.json as expression strings.  Each is
checked against the grammar of integer literals, q, + - *, ** by a
non-negative integer literal and / by a nonzero integer literal of a
dividend that holds q (so 1/2 is rejected), which bounds its degree.  It is
then compiled with every / an exact division and evaluated at the integer
q.  Entries have degree at most D, so the row-sum identities hold
identically iff they hold at q = 0..D.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .binfield import FieldTower
from .reporting import Report
from .schemecore import (SCHEMES, THEOREMS, build_dual_scheme, build_scheme,
                         expected_dual_groups)

TABLE_IDS = tuple(SCHEMES)
_ROMAN = dict(zip(("I", "II", "III", "IV", "V"), TABLE_IDS))


def _checked(node, expr: str) -> tuple[int, ast.expr]:
    """Degree bound in q of an expression node, and the node with every
    a / b turned into the exact division _divide(a, b); ValueError for
    anything outside the grammar."""
    if isinstance(node, ast.Name) and node.id == "q":
        return 1, node
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return 0, node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        degree, node.operand = _checked(node.operand, expr)
        return degree, node
    if isinstance(node, ast.BinOp):
        left, node.left = _checked(node.left, expr)
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            right, node.right = _checked(node.right, expr)
            return (left + right if isinstance(node.op, ast.Mult) else max(left, right)), node
        right = node.right
        literal = right.value if isinstance(right, ast.Constant) \
            and type(right.value) is int else None
        if isinstance(node.op, ast.Pow) and literal is not None:
            return left * literal, node
        if isinstance(node.op, ast.Div) and literal and \
                any(isinstance(n, ast.Name) and n.id == "q" for n in ast.walk(node.left)):
            name = ast.copy_location(ast.Name("_divide", ast.Load()), node)
            return left, ast.copy_location(ast.Call(name, [node.left, right], []), node)
    raise ValueError(f"expression {expr!r} is not a polynomial in q")


def _divide(a, b: int):
    """a / b as an int when b divides a, else as a Fraction."""
    if type(a) is int and a % b == 0:
        return a // b
    return Fraction(a, b)


@lru_cache(maxsize=None)
def _parse(expr: str) -> tuple:
    """Code object and degree bound of a grammar-checked expression."""
    tree = ast.parse(expr, mode="eval")
    degree, tree.body = _checked(tree.body, expr)
    return compile(tree, "<tables.json>", "eval"), degree


@lru_cache(maxsize=None)
def evaluate(expr: str, q_value: int) -> int | Fraction:
    """Exact value of an expression at the integer q."""
    return eval(_parse(expr)[0], {"__builtins__": {}, "_divide": _divide},  # noqa: S307
                {"q": q_value})


def eval_int(expr: str, q_value: int) -> int:
    v = evaluate(expr, q_value)
    if v.denominator != 1:
        raise ValueError(f"non-integer value {v} at q={q_value}")
    return int(v)


@lru_cache(maxsize=None)
def _load_data() -> dict:
    with resources.files("cycloscheme.data").joinpath("tables.json").open() as fh:
        return json.load(fh)


def _table(table_id: str) -> dict:
    tid = _ROMAN.get(table_id, table_id)
    tables = _load_data()["tables"]
    if tid not in tables:
        raise KeyError(f"unknown table {table_id!r}")
    return tables[tid]


def table_row(table_id: str, row_label, q_value: int) -> list[int]:
    """One table row evaluated at q = 2^s.  ``row_label`` is a row key
    ('degree', 'T1', ...), a printed label, or a row index."""
    table = _table(table_id)
    if isinstance(row_label, int):
        idx = row_label
    elif row_label in table["row_keys"]:
        idx = table["row_keys"].index(row_label)
    elif row_label in table["row_labels"]:
        idx = table["row_labels"].index(row_label)
    else:
        raise KeyError(f"unknown row {row_label!r}")
    return [eval_int(e, q_value) for e in table["rows"][idx]]


def appendix_matrix(scheme_id: str, which: str, q_value: int) -> list:
    """Intersection matrix B1..B3 / L1..L3 at q = 2^s.  The self-dual
    scheme has no separate L matrices: L_i requests return B_i."""
    data = _load_data()["intersection_matrices"]
    if scheme_id not in data:
        raise KeyError(f"unknown scheme {scheme_id!r}")
    if scheme_id == "thm2ii" and which.startswith("L"):
        which = "B" + which[1:]
    mats = data[scheme_id]
    if which not in mats:
        raise KeyError(f"no matrix {which!r} for {scheme_id}")
    return [[eval_int(e, q_value) for e in row] for row in mats[which]]


def _all_expressions():
    data = _load_data()
    for tid, table in data["tables"].items():
        for r, row in enumerate(table["rows"]):
            for c, expr in enumerate(row):
                yield f"table {tid} row {r} col {c}", expr
    for sid, mats in data["intersection_matrices"].items():
        for which, mat in mats.items():
            for r, row in enumerate(mat):
                for c, expr in enumerate(row):
                    yield f"{sid} {which} ({r},{c})", expr


def integrality_check() -> Report:
    """Every transcribed entry must evaluate to an integer at q = 2^s."""
    q_values = (2, 4, 8, 16)
    report = Report("integrality of transcribed entries")
    bad = [f"{where} at q={q}" for where, expr in _all_expressions()
           for q in q_values if evaluate(expr, q).denominator != 1]
    report.add(f"all entries integral at q in {q_values}", not bad,
               "; ".join(bad[:3]))
    return report


def row_sum_identity_check() -> Report:
    """Polynomial identities: nonprincipal table rows sum to 0, and every
    row of B_i (resp. L_i) sums to the degree n_i of the matching scheme.
    Every entry has degree at most D, the largest degree bound in the book,
    so a row sum equals its target identically iff it does at q = 0..D."""
    report = Report("row-sum polynomial identities")
    points = range(max(_parse(e)[1] for _, e in _all_expressions()) + 1)

    def sums_to(row, target: str) -> bool:
        return all(sum(evaluate(e, q) for e in row) == evaluate(target, q)
                   for q in points)

    bad = [f"table {tid} row {r}" for tid in TABLE_IDS
           for r, row in enumerate(_table(tid)["rows"][1:], 1) if not sums_to(row, "0")]
    report.add("nonprincipal table rows sum to 0 identically", not bad, "; ".join(bad))

    degree_of = {"B": {sid: _table(sid)["rows"][0] for sid in THEOREMS},
                 "L": {sid: _table(SCHEMES[sid][1])["rows"][0] for sid in THEOREMS}}
    bad = [f"{sid} {which} row {r}"
           for sid, mats in _load_data()["intersection_matrices"].items()
           for which, mat in mats.items()
           for r, row in enumerate(mat)
           if not sums_to(row, degree_of[which[0]][sid][int(which[1])])]
    report.add("every B_i/L_i row sums to the degree n_i identically", not bad,
               "; ".join(bad))
    return report


# ---------------------------------------------------------------------------
# reconciliation against computed schemes
# ---------------------------------------------------------------------------

def _relabel(mats: list, perm: list) -> list:
    """Intersection matrices under a relabelling of the classes."""
    return [[[mats[perm[i]][perm[k]][perm[j]] for j in range(len(perm))]
             for k in range(len(perm))] for i in range(len(perm))]


def reconcile(tower: FieldTower, scheme_id: str) -> Report:
    """Compare a computed scheme (and its dual) against the transcribed
    tables and intersection matrices, reporting the first mismatching
    coordinate and the row-label correspondence used."""
    q = 1 << tower.s
    record = build_scheme(tower, scheme_id)
    report = Report(f"published parameters vs computed, {scheme_id} (s={tower.s})")
    report.add("fusion verified as a 3-class scheme", record.is_scheme)
    if not record.is_scheme:
        return report

    table = _table(scheme_id)
    report.add("degree row matches the table",
               record.degrees == table_row(scheme_id, "degree", q),
               f"computed {record.degrees}")
    groups = expected_dual_groups(tower, scheme_id)
    row_map = []
    ok = True
    detail = ""
    for t, grp in enumerate(groups):
        try:
            l = record.dual_sets.index(grp)
        except ValueError:
            ok = False
            detail = f"no dual class matches the row-{t + 1} residue group"
            break
        row_map.append(l)
        expected = table_row(scheme_id, t + 1, q)
        if record.P[1 + l] != expected:
            ok = False
            detail = f"row {t + 1}: computed {record.P[1 + l]}, table {expected}"
            break
    report.add("nonprincipal P rows match the table "
               f"(table row -> computed row {[1 + l for l in row_map]})", ok, detail)

    bad = next((f"B{i}: computed {record.B[i]}" for i in (1, 2, 3)
                if record.B[i] != appendix_matrix(scheme_id, f"B{i}", q)), "")
    report.add("intersection matrices B1..B3 match", not bad, bad)

    # dual scheme: relabel its classes to the published D_k order before
    # comparing the dual table and the L matrices
    dual = build_dual_scheme(tower, record)
    report.add("dual fusion verified as a 3-class scheme", dual.is_scheme)
    if not dual.is_scheme:
        return report
    try:
        perm = [0] + [1 + dual.pattern_sets.index(g) for g in groups]
    except ValueError:
        report.add("dual classes match the published D_k index groups", False,
                   f"dual classes {sorted(map(sorted, dual.pattern_sets))}")
        return report
    report.add("dual classes match the published D_k index groups", True,
               f"D_k -> computed class {perm[1:]}")

    dual_table_id = dual.scheme_id
    exp_deg = table_row(dual_table_id, "degree", q)
    got_deg = [dual.degrees[perm[c]] for c in range(4)]
    report.add("dual degree row matches the table", got_deg == exp_deg,
               f"computed {got_deg}, table {exp_deg}")
    ok = True
    detail = ""
    for t, grp in enumerate(record.pattern_sets):
        # rows of the dual table are labelled a in T_k, the primal's
        # blocks; they are the dual-of-dual classes, so they name the
        # dual's P rows
        try:
            l = dual.dual_sets.index(grp)
        except ValueError:
            ok, detail = False, f"dual census group != T{t + 1}"
            break
        expected = table_row(dual_table_id, t + 1, q)
        got = [dual.P[1 + l][perm[c]] for c in range(4)]
        if got != expected:
            ok, detail = False, f"row a in T{t + 1}: computed {got}, table {expected}"
            break
    report.add("dual table rows match", ok, detail)

    relabelled = _relabel(dual.B, perm)
    bad = next((f"L{i}: computed {relabelled[i]}" for i in (1, 2, 3)
                if relabelled[i] != appendix_matrix(scheme_id, f"L{i}", q)), "")
    report.add("intersection matrices L1..L3 match", not bad, bad)
    if scheme_id == "thm2ii":
        report.add("self-dual: L_i coincide with B_i",
                   all(relabelled[i] == record.B[i] for i in range(4)))
    return report
