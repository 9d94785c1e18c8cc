import ast
import copy
from fractions import Fraction

import pytest

from cycloscheme import paperbook
from cycloscheme.binfield import build_tower
from cycloscheme.paperbook import (appendix_matrix, evaluate, integrality_check, polynomial,
                                   reconcile, row_sum_identity_check, table_row)


def test_qpoly_eval():
    expr = "q*(q**2+q-2)/4"
    assert evaluate(expr, 2) == 2
    assert evaluate(expr, 4) == 18


def test_qpoly_rejects_non_integral():
    with pytest.raises(ValueError):
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
    with pytest.raises(KeyError):
        table_row("thm9", "degree", 2)
    with pytest.raises(KeyError):
        table_row("thm1", "nope", 2)


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
