import copy
from fractions import Fraction

import pytest

from cycloscheme import paperbook
from cycloscheme.binfield import build_tower
from cycloscheme.paperbook import (appendix_matrix, eval_int, evaluate, integrality_check,
                                   reconcile, row_sum_identity_check, table_row)


def test_qpoly_eval():
    expr = "q*(q**2+q-2)/4"
    assert evaluate(expr, 2) == Fraction(2)
    assert evaluate(expr, 4) == Fraction(18)
    assert eval_int(expr, 4) == 18


def test_qpoly_rejects_non_integral():
    with pytest.raises(ValueError):
        eval_int("q/2", 3)


@pytest.mark.parametrize("expr", [
    "1.5*q", "1/2", "q+1/2", "q**q", "q/q", "q**-1", "__import__('os')",
    "q.numerator", "(lambda: 1)()", "[q][0]", "q//2", "q%2", "True*q", "x"])
def test_expressions_outside_the_grammar_are_rejected(expr):
    with pytest.raises(ValueError):
        evaluate(expr, 2)


def test_degree_bound():
    assert [paperbook._parse(e)[1] for e in
            ("7", "q", "-q/2", "q*(q-1)**2/2", "(q**2-1)*(q**3+1)", "q**0")] == \
        [0, 1, 1, 3, 5, 0]


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
