import ast
import copy
import io
from fractions import Fraction

import pytest

from cycloscheme import cli, paperbook
from cycloscheme.binfield import build_tower
from cycloscheme.cycpart import get_partition
from cycloscheme.paperbook import (appendix_matrix, evaluate, integrality_check, polynomial,
                                   reconcile, row_sum_identity_check, table_row)
from cycloscheme.schemecore import build_dual_scheme


def test_qpoly_eval():
    expr = "q*(q**2+q-2)/4"
    assert evaluate(expr, 2) == 2
    assert evaluate(expr, 4) == 18


def test_qpoly_rejects_non_integral():
    with pytest.raises(ValueError, match="^'q/2' is not an integer at q=3$"):
        evaluate("q/2", 3)


@pytest.mark.parametrize("expr", [
    "1.5*q", "1/2", "q+1/2", "q**q", "q/q", "q**-1", "__import__('os')",
    "q.numerator", "(lambda: 1)()", "[q][0]", "q//2", "q%2", "True*q", "x",
    "q**2**3", "2q", "q(1)", "q/0", "(q", "", "(q-q+1)/2", "q**0/2"])
def test_expressions_outside_the_grammar_are_rejected(expr):
    with pytest.raises(ValueError):
        evaluate(expr, 2)


def test_degree_bound():
    assert [len(polynomial(e)[0]) - 1 for e in
            ("7", "q", "-q/2", "q*(q-1)**2/2", "(q**2-1)*(q**3+1)", "q**0")] == \
        [0, 1, 1, 3, 5, 0]


@pytest.mark.parametrize("expr,expected", [
    ("q*(q**2+q-2)/4", ((0, -2, 1, 1), 4)),
    ("-q/2", ((0, -1), 2)),
    ("(2*q+4)/6", ((2, 1), 3)),
    ("q*(q-1)**2/2", ((0, 1, -2, 1), 2)),
    ("(q**2-1)*(q**3+1)", ((-1, 0, 1, -1, 0, 1), 1)),
    ("q-q", ((), 1)),
    ("0", ((), 1)),
    ("+7", ((7,), 1))])
def test_polynomial_coefficients(expr, expected):
    assert polynomial(expr) == expected


def _fraction_value(node, q):
    """The test's own evaluation of a book expression, in Fractions."""
    if isinstance(node, ast.Name):
        return Fraction(q)
    if isinstance(node, ast.Constant):
        return Fraction(node.value)
    if isinstance(node, ast.UnaryOp):
        value = _fraction_value(node.operand, q)
        return -value if isinstance(node.op, ast.USub) else value
    left, right = _fraction_value(node.left, q), _fraction_value(node.right, q)
    return {ast.Add: left.__add__, ast.Sub: left.__sub__, ast.Mult: left.__mul__,
            ast.Div: left.__truediv__, ast.Pow: left.__pow__}[type(node.op)](right)


def test_every_book_polynomial_matches_a_fraction_evaluation():
    exprs = sorted({expr for _, expr in paperbook._all_expressions()})
    assert len(exprs) > 100
    for expr in exprs:
        coeffs, den = polynomial(expr)
        body = ast.parse(expr, mode="eval").body
        for q in range(-5, 21):
            assert Fraction(sum(c * q ** i for i, c in enumerate(coeffs)), den) == \
                _fraction_value(body, q), (expr, q)


def test_row_sums_are_checked_past_the_largest_degree(monkeypatch):
    # q(q-1)...(q-9) vanishes at q = 0..9, the points that suffice for the
    # unpatched book; its degree 10 raises the bound to one more point
    data = copy.deepcopy(paperbook._load_data())
    row = data["tables"]["thm1"]["rows"][2]
    row[1] += "+q*" + "*".join(f"(q-{k})" for k in range(1, 10))
    monkeypatch.setattr(paperbook, "_load_data", lambda: data)
    report = row_sum_identity_check()
    assert not report.passed
    assert [c.detail for c in report.failures()] == ["table thm1 row 2"]


def test_table_rows_s1():
    assert table_row("thm1", "zero_residue", 2) == [1, 3, -3, -1]
    assert table_row("thm1", "minus_T1", 2) == [1, -1, 1, -1]
    assert table_row("thm2i", "T1", 2) == [1, -5, 3, 1]
    assert table_row("thm2i", "degree", 2) == [1, 27, 27, 9]
    assert table_row("thm2ii", "T3", 2) == [1, -21, 3, 17]
    assert table_row("dual1", "degree", 2) == [1, 1, 3, 3]


def test_unknown_table_and_row():
    with pytest.raises(KeyError, match="unknown table 'thm9'"):
        table_row("thm9", "degree", 2)
    with pytest.raises(KeyError, match="unknown row 'nope'"):
        table_row("thm1", "nope", 2)
    with pytest.raises(KeyError, match="unknown scheme 'thm9'"):
        appendix_matrix("thm9", "B1", 2)


def test_a_rejected_expression_says_why():
    with pytest.raises(ValueError, match=r"^expression '\(q' does not parse$"):
        evaluate("(q", 2)
    with pytest.raises(ValueError, match=r"^expression 'q\*\*q' is not a polynomial in q$"):
        evaluate("q**q", 2)


def test_appendix_b1_thm1_q2():
    assert appendix_matrix("thm1", "B1", 2) == \
        [[0, 3, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 3, 0]]


def test_appendix_l1_thm1_q2():
    assert appendix_matrix("thm1", "L1", 2) == \
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def test_appendix_row_sum_q4():
    b1 = appendix_matrix("thm1", "B1", 4)
    for row in b1:
        assert sum(row) == 15  # n_1 = q^2 - 1


def test_thm2ii_l_request_returns_b():
    assert appendix_matrix("thm2ii", "L2", 2) == appendix_matrix("thm2ii", "B2", 2)


def test_integrality():
    assert integrality_check().passed


def test_row_sum_identities():
    assert row_sum_identity_check().passed


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("scheme_id", ["thm1", "thm2i", "thm2ii"])
def test_reconcile(s, scheme_id):
    report = reconcile(build_tower(s), scheme_id)
    assert report.passed, str(report)


def test_table_row_refuses_indices_outside_the_rows():
    # -1 would wrap to the last row and True would read as row 1
    for label in (-1, True, False, 4, 1.0):
        with pytest.raises(KeyError, match="unknown row"):
            table_row("thm1", label, 2)
    assert table_row("thm1", 3, 2) == table_row("thm1", "rest", 2)


def test_missing_l_matrix_of_the_self_dual_scheme_is_named_as_asked():
    with pytest.raises(KeyError, match="no matrix 'Lx' for thm2ii"):
        appendix_matrix("thm2ii", "Lx", 2)


def _book_with(monkeypatch, *path):
    """The parameter book with the expression at ``path`` raised by one."""
    data = copy.deepcopy(paperbook._load_data())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = f"({node[path[-1]]})+1"
    monkeypatch.setattr(paperbook, "_load_data", lambda: data)


@pytest.mark.parametrize("scheme_id, path, failures", [
    ("thm1", ("tables", "thm1", "rows", 0, 1), [
        ("degree row matches the table", "computed [1, 3, 3, 1], table [1, 4, 3, 1]")]),
    ("thm1", ("tables", "thm1", "rows", 2, 1), [
        ("nonprincipal P rows match the table (table row -> computed row [1, 3, 2])",
         "row 2: computed [1, -1, 1, -1], table [1, 0, 1, -1]")]),
    ("thm1", ("intersection_matrices", "thm1", "B2", 0, 0), [
        ("intersection matrices B1..B3 match",
         "B2: computed [[0, 0, 3, 0], [0, 0, 2, 1], [1, 2, 0, 0], [0, 3, 0, 0]], "
         "table [[1, 0, 3, 0], [0, 0, 2, 1], [1, 2, 0, 0], [0, 3, 0, 0]]")]),
    ("thm1", ("tables", "dual1", "rows", 0, 1), [
        ("dual degree row matches the table", "computed [1, 1, 3, 3], table [1, 2, 3, 3]")]),
    ("thm1", ("tables", "dual1", "rows", 1, 1), [
        ("dual table rows match", "row a in T1: computed [1, 1, -1, -1], table [1, 2, -1, -1]")]),
    ("thm1", ("intersection_matrices", "thm1", "L3", 0, 0), [
        ("intersection matrices L1..L3 match",
         "L3: computed [[0, 0, 0, 3], [0, 0, 3, 0], [0, 1, 2, 0], [1, 0, 0, 2]], "
         "table [[1, 0, 0, 3], [0, 0, 3, 0], [0, 1, 2, 0], [1, 0, 0, 2]]")]),
    # thm2ii reads table row 1 from computed row 2, and is its own dual
    ("thm2ii", ("tables", "thm2ii", "rows", 1, 2), [
        ("nonprincipal P rows match the table (table row -> computed row [2, 3, 1])",
         "row 1: computed [1, -5, 11, -7], table [1, -5, 12, -7]"),
        ("dual table rows match", "row a in T1: computed [1, -5, 11, -7], table [1, -5, 12, -7]")]),
    ("thm2i", ("tables", "dual2i", "rows", 2, 1), [
        ("dual table rows match", "row a in T2: computed [1, -3, 3, -1], table [1, -2, 3, -1]")]),
    ("thm2i", ("intersection_matrices", "thm2i", "L2", 1, 1), [
        ("intersection matrices L1..L3 match",
         "L2: computed [[0, 0, 27, 0], [0, 6, 12, 9], [1, 4, 10, 12], [0, 3, 12, 12]], "
         "table [[0, 0, 27, 0], [0, 7, 12, 9], [1, 4, 10, 12], [0, 3, 12, 12]]")]),
], ids=["degree", "row2", "B2", "dual-degree", "dual-row1", "L3",
        "thm2ii-row1", "dual2i-row2", "thm2i-L2"])
def test_reconcile_fails_exactly_the_perturbed_row(monkeypatch, scheme_id, path, failures):
    _book_with(monkeypatch, *path)
    report = reconcile(build_tower(1), scheme_id)
    assert [(c.name, c.detail) for c in report.failures()] == failures


def test_a_missing_published_group_fails_and_never_skips(monkeypatch):
    # (1, 2) is no residue group of the F-scheme at s = 1: the row-2 group
    # is -T1
    monkeypatch.setattr(paperbook, "expected_dual_groups",
                        lambda tower, scheme_id: [(0,), (1, 2), (3, 4, 5, 6)])
    report = reconcile(build_tower(1), "thm1")
    assert not report.skipped()
    assert [c.detail for c in report.failures()] == [
        "no dual class matches the row-2 residue group", "dual classes [[0], [1, 2, 4], [3, 5, 6]]"]
    assert report.failures()[1].name == "dual classes match the published D_k index groups"
    out = io.StringIO()
    assert cli.run(cli.RunConfig(s=1, targets=("thm1",)), out=out) == 1
    assert "all checks passed" not in out.getvalue()


def test_a_dual_census_without_t1_fails_the_dual_rows(monkeypatch):
    tower = build_tower(1)
    t1 = get_partition(tower).blocks[0]

    def without_t1(tower, record):
        dual = build_dual_scheme(tower, record)
        return dual._replace(dual_sets=tuple(() if g == t1 else g for g in dual.dual_sets))

    monkeypatch.setattr(paperbook, "build_dual_scheme", without_t1)
    report = reconcile(tower, "thm1")
    assert not report.skipped()
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("dual table rows match", "dual census group != T1")]


def test_reconcile_reads_the_self_dual_l_matrices_from_b(monkeypatch):
    _book_with(monkeypatch, "intersection_matrices", "thm2ii", "B1", 0, 0)
    failures = reconcile(build_tower(1), "thm2ii").failures()
    assert [c.name for c in failures] == ["intersection matrices B1..B3 match",
                                          "intersection matrices L1..L3 match"]
    assert failures[0].detail.startswith("B1: computed [[0, 219, 0, 0]")
    assert failures[1].detail == "L" + failures[0].detail[1:]
