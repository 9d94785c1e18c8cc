"""The element census: Walsh-Hadamard columns against the correlation
oracle, the Gauss-period character rows and direct character sums."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloscheme import charsum, cycpart, schemecore, zmring
from cycloscheme.binfield import BinaryField, InternalCheckError, build_field, build_tower
from cycloscheme.cli import RunConfig, run
from cycloscheme.cycpart import get_partition
from cycloscheme.schemecore import (FusionPattern, build_element_scheme, im10_construct,
                                    two_class_scheme)

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


def _assert_census_matches_oracle(record, K):
    columns = schemecore._element_columns(K, record.pattern_sets)
    assert columns == element_columns(K, _names(K, record.pattern_sets)) == \
        walsh_hadamard_columns(K, record.pattern_sets)
    assert record.row_census == schemecore._census(columns)
    return columns


def _direct_row(K, sets, b):
    return tuple(sum(psi(K, K.mul(b, x)) for x in S) for S in sets)


@pytest.mark.parametrize("s,mod_f", [(1, None), (2, None), (3, None), (4, None),
                                     (2, 0x61), (3, 0x221)])
def test_trace2_and_im10_columns_match_the_oracles(s, mod_f):
    tw = tower(s, mod_f)
    K = tw.F
    two = two_class_scheme(tw)
    for record in (two, im10_construct(tw, two)):
        columns = _assert_census_matches_oracle(record, K)
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
    pattern = FusionPattern.from_partition(get_partition(tw))
    step = tw.class_step(label)
    blocks = [[k for k in range(K.order) if k * step % tw.M in members]
              for members in map(set, pattern.blocks)]
    record = build_element_scheme(tw, label, blocks, "cyclotomic")
    columns = _assert_census_matches_oracle(record, K)
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
    blocks = [[k for k, lab in enumerate(labels) if lab == part] for part in range(parts)]
    assert schemecore._element_columns(K, blocks) == element_columns(K, _names(K, blocks))
    if all(blocks):
        record = build_element_scheme(_OneFieldTower(K), "K", blocks, "random")
        _assert_census_matches_oracle(record, K)


def test_a_generator_other_than_x():
    # x^11 generates GF(2^12)*, since gcd(11, 4095) = 1
    base = build_field(12)
    K = BinaryField(12, base.modulus, base.pow(0b10, 11))
    assert K.powers[1] != 0b10 and len(set(K.powers)) == K.order
    trace = [(u & K.trace_mask).bit_count() & 1 for u in K.powers]
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 3, K.order)
    verdicts = []
    for blocks in ([[k for k, t in enumerate(trace) if t == part] for part in (0, 1)],
                   [np.flatnonzero(labels == part).tolist() for part in range(3)]):
        record = build_element_scheme(_OneFieldTower(K), "K", blocks, "stub")
        columns = _assert_census_matches_oracle(record, K)
        for a in (0, 1, 2, 4094):
            assert _direct_row(K, _names(K, blocks), K.powers[a]) == \
                tuple(col[a] for col in columns)
        verdicts.append(record.is_scheme)
    # the trace hyperplane is the two-class scheme; a random split is not
    assert verdicts == [True, False]


def test_trace_form_masks_off_by_one_power_are_caught(monkeypatch):
    # L_j read from Tr(x^(i+j+1)): the mask of 1 is no longer the trace mask;
    # a fresh F of s = 2, since the masks are built once per field
    K = build_field(6)
    multiples = K.x_multiples
    monkeypatch.setattr(K, "x_multiples",
                        lambda c, count: multiples(c, count + 1)[1:])
    with pytest.raises(InternalCheckError, match="mask of 1"):
        schemecore._element_columns(K, [range(K.order)])


def test_repeated_masks_are_caught(monkeypatch):
    # a power table with g^0 twice gives two equal masks
    K = build_field(6)
    monkeypatch.setitem(vars(K), "powers", K.powers[:1] + K.powers[:-1])
    with pytest.raises(InternalCheckError, match="nonzero and distinct"):
        schemecore._element_columns(K, [range(K.order)])


def test_im10_at_s4_correlates_nothing_longer_than_M(monkeypatch):
    # the element census is a transform; only index folds of length M
    # (and the partition's) may still correlate, as zmring products
    lengths = []
    product = zmring._cyclic_product

    def recording(a, b):
        lengths.append(max(len(a), len(b)))
        return product(a, b)

    for module in (zmring, cycpart, charsum, schemecore):
        monkeypatch.setattr(module, "_cyclic_product", recording)
    assert run(RunConfig(s=4, targets=("im10",)), out=io.StringIO()) == 0
    assert lengths and max(lengths) <= tower(4).M
