"""Symbolic parameter book: every published table row and intersection
matrix as a polynomial in q = 2^s, cross-checked against computed results.

The transcription lives in data/tables.json as expression strings.  One
walk over each parse tree checks it against the grammar of integer
literals, q, + - *, ** by a non-negative integer literal and / by a
nonzero integer literal of a non-constant dividend (so 1/2 is rejected),
and turns it into integer coefficients over one denominator.  Values at
q come by Horner's rule, and the row-sum identities are compared
coefficient by coefficient; no text from the data file is executed.
"""

from __future__ import annotations

import ast
import json
from functools import lru_cache
from importlib import resources
from itertools import zip_longest
from math import gcd, lcm

from .binfield import FieldTower
from .reporting import Report
from .schemecore import (SCHEMES, THEOREMS, build_dual_scheme, build_scheme,
                         expected_dual_groups)

TABLE_IDS = tuple(SCHEMES)


def _add(a: tuple, b: tuple, sign: int = 1) -> tuple[list[int], int]:
    """a + sign * b for (coefficients, denominator) pairs."""
    den = lcm(a[1], b[1])
    return [x * (den // a[1]) + sign * y * (den // b[1])
            for x, y in zip_longest(a[0], b[0], fillvalue=0)], den


def _mul(a: tuple, b: tuple) -> tuple[list[int], int]:
    coeffs = [0] * (len(a[0]) + len(b[0]) - 1)
    for i, u in enumerate(a[0]):
        for j, v in enumerate(b[0]):
            coeffs[i + j] += u * v
    return coeffs, a[1] * b[1]


_SIGNS = {ast.UAdd: 1, ast.USub: -1, ast.Add: 1, ast.Sub: -1}


def _terms(node, expr: str) -> tuple[list[int], int]:
    """Coefficients (constant term first) and positive denominator of an
    expression node; ValueError for anything outside the grammar."""
    kind, op = type(node), type(getattr(node, "op", None))
    if kind is ast.Name and node.id == "q":
        return [0, 1], 1
    if kind is ast.Constant and type(node.value) is int:
        return [node.value], 1
    if kind is ast.UnaryOp and op in _SIGNS:
        return _mul(([_SIGNS[op]], 1), _terms(node.operand, expr))
    if kind is ast.BinOp:
        left, right = _terms(node.left, expr), node.right
        if op in _SIGNS:
            return _add(left, _terms(right, expr), _SIGNS[op])
        if op is ast.Mult:
            return _mul(left, _terms(right, expr))
        literal = right.value if type(right) is ast.Constant \
            and type(right.value) is int else None
        if op is ast.Pow and literal is not None:
            power = [1], 1
            for _ in range(literal):
                power = _mul(power, left)
            return power
        if op is ast.Div and literal and any(left[0][1:]):  # not constant
            return left[0], left[1] * literal
    raise ValueError(f"expression {expr!r} is not a polynomial in q")


@lru_cache(maxsize=None)
def polynomial(expr: str) -> tuple[tuple[int, ...], int]:
    """(c_0, ..., c_n) and d > 0 in lowest terms with expr equal to
    (c_0 + c_1 q + ... + c_n q^n) / d and c_n != 0 (no coefficient for 0);
    ValueError for anything outside the grammar."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        raise ValueError(f"expression {expr!r} does not parse") from None
    coeffs, den = _terms(tree.body, expr)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    g = gcd(den, *coeffs)
    return tuple(c // g for c in coeffs), den // g


def _divmod(expr: str, q_value: int) -> tuple[int, int]:
    """Quotient and remainder of an expression's numerator at the integer
    q, by Horner's rule, over its denominator."""
    coeffs, den = polynomial(expr)
    value = 0
    for c in reversed(coeffs):
        value = value * q_value + c
    return divmod(value, den)


def evaluate(expr: str, q_value: int) -> int:
    """Exact value of an expression at the integer q; ValueError when it
    is not an integer."""
    value, rest = _divmod(expr, q_value)
    if rest:
        raise ValueError(f"{expr!r} is not an integer at q={q_value}")
    return value


@lru_cache(maxsize=None)
def _load_data() -> dict:
    with resources.files("cycloscheme.data").joinpath("tables.json").open() as fh:
        return json.load(fh)


def _table(table_id: str) -> dict:
    tables = _load_data()["tables"]
    if table_id not in tables:
        raise KeyError(f"unknown table {table_id!r}")
    return tables[table_id]


def table_row(table_id: str, row_label, q_value: int) -> list[int]:
    """One table row evaluated at q = 2^s.  ``row_label`` is a row key
    ('degree', 'T1', ...) or a row index."""
    table = _table(table_id)
    if isinstance(row_label, int):
        idx = row_label
    elif row_label in table["row_keys"]:
        idx = table["row_keys"].index(row_label)
    else:
        raise KeyError(f"unknown row {row_label!r}")
    return [evaluate(e, q_value) for e in table["rows"][idx]]


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
    return [[evaluate(e, q_value) for e in row] for row in mats[which]]


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
           for q in q_values if _divmod(expr, q)[1]]
    report.add(f"all entries integral at q in {q_values}", not bad,
               "; ".join(bad[:3]))
    return report


def row_sum_identity_check() -> Report:
    """Polynomial identities: nonprincipal table rows sum to 0, and every
    row of B_i (resp. L_i) sums to the degree n_i of the matching scheme.
    Each sum is compared with its target coefficient by coefficient."""
    report = Report("row-sum polynomial identities")

    def sums_to(row, target: str) -> bool:
        rest = polynomial(target)
        for e in row:
            rest = _add(rest, polynomial(e), -1)
        return not any(rest[0])

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
