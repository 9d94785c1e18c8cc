"""The element census: the product psi(g^k) * (1_b)^-1 in Z[Z_|K*|] against
the correlation and Walsh-Hadamard oracles, the Gauss-period character
rows and direct character sums."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloscheme import binfield, schemecore
from cycloscheme.binfield import BinaryField, InternalCheckError, build_field, build_tower
from cycloscheme.cli import RunConfig, run
from cycloscheme.cycpart import get_partition
from cycloscheme.schemecore import build_element_scheme, im10_construct, two_class_scheme

from character_oracle import psi
from numpy_oracle import walsh_hadamard_columns
from scheme_oracle import character_row, element_columns

_TOWERS = {}


def tower(s, mod_f=None):
    if (s, mod_f) not in _TOWERS:
        _TOWERS[s, mod_f] = build_tower(s, mod_f=mod_f)
    return _TOWERS[s, mod_f]


class _OneFieldTower:
    """Just enough of a tower to run the element pipeline on one field."""

    s = M = 0

    def __init__(self, K):
        self.K = K

    def field(self, label):
        return self.K


def _names(K, blocks):
    """The element sets {g^k : k in b} of exponent blocks."""
    return [{K.powers[k] for k in b} for b in blocks]


def _assert_census_matches_oracles(record, K):
    """The record's census against both oracles' columns; returns those."""
    columns = element_columns(K, _names(K, record.pattern_sets))
    assert columns == walsh_hadamard_columns(K, record.pattern_sets)
    assert record.row_census == schemecore._census(columns)
    return columns


def _run_quiet(config):
    buf = io.StringIO()
    return run(config, out=buf), buf.getvalue()


def _direct_row(K, sets, b):
    return tuple(sum(psi(K, K.mul(b, x)) for x in S) for S in sets)


@pytest.mark.parametrize("s,mod_f", [(1, None), (2, None), (3, None), (4, None),
                                     (2, 0x61), (3, 0x221)])
def test_trace2_and_im10_columns_match_the_oracles(s, mod_f):
    tw = tower(s, mod_f)
    K = tw.F
    two = two_class_scheme(tw)
    for record in (two, im10_construct(tw, two)):
        columns = _assert_census_matches_oracles(record, K)
        # direct character sums: every b for s <= 2, the first 8 powers beyond
        exponents = range(K.order) if s <= 2 else range(8)
        for a in exponents:
            assert _direct_row(K, _names(K, record.pattern_sets), K.powers[a]) == \
                tuple(col[a] for col in columns)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("label", ["F", "G"])
def test_cyclotomic_element_partitions_give_the_character_rows(s, label):
    # the element census of T1, T2, T3 as exponent blocks: g^k lies in
    # the class of k * step, and the row of b = g^a is the Gauss-period
    # row of the class of g^a
    tw = tower(s)
    K = tw.field(label)
    pattern = get_partition(tw)
    step = tw.class_step(label)
    blocks = [[k for k in range(K.order) if k * step % tw.M in members]
              for members in map(set, pattern.blocks)]
    record = build_element_scheme(tw, label, blocks, "cyclotomic")
    columns = _assert_census_matches_oracles(record, K)
    for a in range(K.order):
        assert (1,) + tuple(col[a] for col in columns) == \
            character_row(tw, label, pattern, a * step % tw.M)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_partitions_match_the_oracle(data):
    m = data.draw(st.integers(min_value=2, max_value=8), label="degree")
    K = build_field(m)
    parts = data.draw(st.integers(min_value=2, max_value=4), label="parts")
    labels = data.draw(st.lists(st.integers(0, parts - 1), min_size=K.order,
                                max_size=K.order), label="labels")
    blocks = [b for part in range(parts)
              if (b := [k for k, lab in enumerate(labels) if lab == part])]
    record = build_element_scheme(_OneFieldTower(K), "K", blocks, "random")
    _assert_census_matches_oracles(record, K)


def _swap_first_pair(trace: str) -> str:
    """The trace string with its first '0' and its first '1' swapped: psi
    still sums to -1, but two elements change sides of the hyperplane."""
    i, j = sorted((trace.index("0"), trace.index("1")))
    return trace[:i] + trace[j] + trace[i + 1:j] + trace[i] + trace[j + 1:]


@pytest.mark.parametrize("k", [0, 1, 5])
def test_a_flipped_trace_character_is_caught(monkeypatch, k):
    # a fresh F of s = 2, since the psi row is built once per field
    K = build_field(6)
    trace = K.trace_string
    monkeypatch.setitem(vars(K), "trace_string",
                        trace[:k] + "10"[int(trace[k])] + trace[k + 1:])
    with pytest.raises(InternalCheckError, match="does not sum to -1"):
        build_element_scheme(_OneFieldTower(K), "K", [range(K.order)], "flipped")


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_swapped_trace_pair_fails_im10_with_a_report_and_a_catalog(monkeypatch, tmp_path, s):
    # trace2 is refuted, so im10 is never built: the run prints the FAIL
    # row, writes the catalog and exits 1 instead of raising SchemeError
    trace = BinaryField.trace_string.func
    swapped = property(lambda K: _swap_first_pair(trace(K)))
    monkeypatch.setattr(BinaryField, "trace_string", swapped)
    path = tmp_path / "catalog.json"
    code, text = _run_quiet(RunConfig(s=s, targets=("im10",), json_path=str(path)))
    assert code == 1 and "all checks passed" not in text
    assert "[FAIL] trace-hyperplane Cayley graph gives a 2-class scheme" in text
    catalog = json.loads(path.read_text())
    assert catalog["schemes"] == []
    assert [c["passed"] for c in catalog["reports"][0]["checks"]] == [False]

