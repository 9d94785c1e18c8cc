"""Exact work counts of each reference invocation, pinned.

Wall time on a shared machine swings by more than most changes move it, so
a change of the work a run does is stated here as exact counts, read by
``monkeypatch`` wrappers around the kernels (nothing in the package counts):

- ``walks``: each field walk, one ``power_blocks`` call after the tower is
  built, as (field, residues, masks per residue, strided exponents, blocks).
  A residue is one ``odd_parities`` call per block, so its units are
  residues x masks x exponents.
- ``products``: the ``zmring._cyclic_product`` calls by operand length, as
  length -> (products, packed operand bits), the bits being the digit
  widths ``_pack`` chose times the operands' lengths.
- ``tower``: per degree, the candidate moduli the search tried; the
  ``BinaryField.mul`` calls of the tower build; and the root search of F's
  modulus in G and H, as (walks, blocks read).

A change that moves the work re-pins this table and says so.
"""

import io
import json
import shlex
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cycloscheme import binfield, charsum, cli, cycpart, schemecore, zmring
from cycloscheme.binfield import BinaryField

REFERENCES = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "references.json").read_text())["invocations"]


def _count_work(monkeypatch, argv):
    """Run ``cli.main(argv)`` under the counting wrappers; the counts."""
    walks, products, candidates = [], [], Counter()
    tower = {"mul": 0, "root": [0, 0], "building": False}
    walk = {}  # the row of the walk being read and the start of its block

    blocks = binfield.power_blocks

    def counted_blocks(K, base, count):
        if tower["building"]:
            tower["root"][0] += 1
            for block in blocks(K, base, count):
                tower["root"][1] += 1
                yield block
            return
        row = {"field": K.degree, "exponents": count, "blocks": 0, "residues": Counter()}
        walks.append(row)
        for start, width, table in blocks(K, base, count):
            row["blocks"] += 1
            walk.update(row=row, start=start)
            yield start, width, table

    parities = binfield.odd_parities

    def counted_parities(table, masks):
        if walk["start"] == 0:
            walk["row"]["residues"][len(masks)] += 1
        return parities(table, masks)

    product, pack = zmring._cyclic_product, zmring._pack

    def counted_product(a, b):
        products.append([max(len(a), len(b)), 0])
        return product(a, b)

    def counted_pack(seq, width):
        products[-1][1] += 8 * width * len(seq)
        return pack(seq, width)

    certificate, mul, build = binfield.irreducibility_certificate, BinaryField.mul, cli.build_tower

    def counted_certificate(f):
        candidates[f.bit_length() - 1] += 1
        return certificate(f)

    def counted_mul(self, a, b):
        tower["mul"] += tower["building"]
        return mul(self, a, b)

    def counted_build(*args):
        tower["building"] = True
        try:
            return build(*args)
        finally:
            tower["building"] = False

    for module in (binfield, charsum):
        monkeypatch.setattr(module, "power_blocks", counted_blocks)
        monkeypatch.setattr(module, "odd_parities", counted_parities)
    for module in (zmring, cycpart, charsum, schemecore):
        monkeypatch.setattr(module, "_cyclic_product", counted_product)
    monkeypatch.setattr(zmring, "_pack", counted_pack)
    monkeypatch.setattr(binfield, "irreducibility_certificate", counted_certificate)
    monkeypatch.setattr(BinaryField, "mul", counted_mul)
    monkeypatch.setattr(cli, "build_tower", counted_build)
    with redirect_stdout(io.StringIO()):
        assert cli.main(shlex.split(argv)) == 0

    s = int(shlex.split(argv)[1])
    label = {s: "E", 3 * s: "F", 6 * s: "G", 9 * s: "H"}
    by_length = {}
    for length, bits in sorted(products):
        count, total = by_length.get(length, (0, 0))
        by_length[length] = (count + 1, total + bits)
    return {
        "walks": sorted((label[w["field"]], residues, masks, w["exponents"], w["blocks"])
                        for w in walks
                        for masks, residues in (w["residues"] or {0: 0}).items()),
        "products": by_length,
        "tower": {"candidates": dict(sorted(candidates.items())), "mul": tower["mul"],
                  "root": tuple(tower["root"])},
    }


# invocation -> its counts: the references, then --s 4 --all --big (the only
# run that walks H at s = 4) and im10 alone at s = 4.  Walks: the walk of
# one residue is F's trace string, the one parity string along K*, read by
# the partition and the element census; the others are the Gauss-period
# walks.
# Units: H at s = 4 is 53 x 4 x 16,781,313 = 3,557,638,356.
_TOWER = {
    1: {"candidates": {3: 2, 6: 2, 9: 9}, "mul": 47, "root": (4, 4)},
    2: {"candidates": {2: 2, 6: 2, 12: 42, 18: 20}, "mul": 114, "root": (4, 4)},
    3: {"candidates": {3: 2, 9: 9, 18: 20, 27: 20}, "mul": 194, "root": (4, 4)},
    4: {"candidates": {4: 2, 12: 42, 24: 14, 36: 60}, "mul": 293, "root": (8, 8)},
    5: {"candidates": {5: 3, 15: 2, 30: 42, 45: 14}, "mul": 412, "root": (4, 4)},
}
WORK = {
    "--s 1 --all": {
        "walks": [("F", 1, 1, 7, 1), ("F", 5, 1, 1, 1),
                  ("G", 5, 1, 9, 1), ("H", 5, 1, 73, 1)],
        "products": {7: (40, 4480)}, "tower": _TOWER[1]},
    "--s 2 --all": {
        "walks": [("F", 1, 1, 63, 1), ("F", 11, 2, 1, 1),
                  ("G", 11, 2, 65, 1), ("H", 11, 2, 4161, 1)],
        "products": {21: (35, 17472), 63: (5, 10080)}, "tower": _TOWER[2]},
    "--s 3 --all --big": {
        "walks": [("F", 1, 1, 511, 1), ("F", 17, 3, 1, 1),
                  ("G", 17, 3, 513, 1), ("H", 17, 3, 262657, 5)],
        "products": {73: (35, 93440), 511: (5, 81760)}, "tower": _TOWER[3]},
    "--s 3 --targets fields,partition,lemma2,gauss,thm1,thm2i,duals,im10,appendix": {
        "walks": [("F", 1, 1, 511, 1), ("F", 17, 3, 1, 1),
                  ("G", 17, 3, 513, 1)],
        "products": {73: (28, 60736), 511: (5, 81760)}, "tower": _TOWER[3]},
    "--s 4 --targets fields,partition,lemma2,gauss,thm1,thm2i,duals,im10,appendix": {
        "walks": [("F", 1, 1, 4095, 1), ("F", 53, 4, 1, 1),
                  ("G", 53, 4, 4097, 1)],
        "products": {273: (28, 288288), 4095: (5, 655200)}, "tower": _TOWER[4]},
    "--s 5 --targets fields,partition,lemma2,thm1,appendix": {
        "walks": [("F", 1, 1, 32767, 1), ("F", 145, 5, 1, 1)],
        "products": {1057: (18, 541184)}, "tower": _TOWER[5]},
    "--s 4 --all --big": {
        "walks": [("F", 1, 1, 4095, 1), ("F", 53, 4, 1, 1),
                  ("G", 53, 4, 4097, 1), ("H", 53, 4, 16781313, 257)],
        "products": {273: (35, 410592), 4095: (5, 655200)}, "tower": _TOWER[4]},
    # im10 at s = 4: one product per block, two for trace2 and three for
    # im10, of length |F*| = 4,095; every other product has length M
    "--s 4 --targets im10": {
        "walks": [("F", 1, 1, 4095, 1), ("F", 53, 4, 1, 1)],
        "products": {273: (4, 34944), 4095: (5, 655200)}, "tower": _TOWER[4]},
}


def _id(invocation):
    args = shlex.split(invocation)
    return "-".join([args[1]] + [a.lstrip("-") for a in args[2:]
                                 if a in ("--all", "--big", "im10")])


def test_every_reference_invocation_has_a_row():
    assert set(REFERENCES) <= set(WORK)


@pytest.mark.parametrize("invocation", list(WORK), ids=_id)
def test_work_counts(monkeypatch, invocation):
    work = _count_work(monkeypatch, invocation)
    assert work == WORK[invocation]
    # no product is longer than |F*| = 2^(3s) - 1
    assert max(work["products"]) < 1 << 3 * int(shlex.split(invocation)[1])
