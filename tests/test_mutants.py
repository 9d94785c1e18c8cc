"""Each broken kernel is caught by the program's own checks.

A mutant is applied by ``monkeypatch`` after the tower is built, so the
root search of the construction never sees it, and ``cli.run`` gets that
tower in place of a new one.  The run must raise one of the package's
errors or end in failed checks; it must never end in "all checks passed".

Two mutants are equivalent and so have no case here: the masks of
beta^(i+1) in place of beta^i span the same space, as beta E = E; and the
class step k in place of k^-1 is the same classes at s = 1 and 2, where k
and k^-1 lie in one coset of <2> mod M, on which the periods are constant.

Four mutants stand where a guard went because an earlier check implies it:
the periods summing to -1 follows from the hyperplane count of the
trace-zero counts, P^2 = |X| I for a self-dual scheme from P Q = |X| I,
and the partition's block sizes from the psi-sum guard, |D|, T1 = Z and
the augmentation recheck of the product psi(omega^a D).  Each shows that
the earlier check still fires, or that a partition past it fails rows.
"""

import io

import pytest

from cycloscheme import binfield, charsum, cli, cycpart, schemecore, zmring
from cycloscheme.binfield import FieldError, InternalCheckError, build_tower
from cycloscheme.cli import TARGETS, RunConfig
from cycloscheme.zmring import GroupRingError


def power_table_one_power_off(monkeypatch, tower):
    """The table of base**(i + 1) for base**i."""
    table = binfield.power_table
    monkeypatch.setattr(binfield, "power_table",
                        lambda K, base, count: [w >> 1 for w in table(K, base, count + 1)])


def product_without_the_fold(monkeypatch, tower):
    """The plain product's terms past M - 1 dropped, not folded onto 0..M-2;
    the product's own augmentation recheck stays."""
    unpack = zmring._unpack
    monkeypatch.setattr(zmring, "_unpack", lambda value, n, width: [
        v if i <= n // 2 else 0 for i, v in enumerate(unpack(value, n, width))])


def block_indicator_rotated(monkeypatch, tower):
    """Every census column from the indicator of b + 1 in place of b."""
    indicator = schemecore._indicator
    monkeypatch.setattr(schemecore, "_indicator",
                        lambda S, M: (lambda v: v[-1:] + v[:-1])(indicator(S, M)))


def two_g_periods_swapped(monkeypatch, tower):
    """eta_1 of G swapped with the first later period of another value,
    which keeps their sum."""
    periods = charsum.gauss_periods

    def swapped(tower, label):
        eta = list(periods(tower, label))
        if label == "G":
            a = next(a for a in range(2, len(eta)) if eta[a] != eta[1])
            eta[1], eta[a] = eta[a], eta[1]
        return tuple(eta)

    monkeypatch.setattr(charsum, "gauss_periods", swapped)
    monkeypatch.setattr(schemecore, "gauss_periods", swapped)


def one_bit_flipped_past_the_first_block(monkeypatch, tower):
    """Blocks of 64 powers, and bit 0 of the first power of every block
    after the first flipped in what the walk's readers see."""
    blocks = binfield.power_blocks

    def flipped(K, base, count):
        for start, width, table in blocks(K, base, count):
            yield start, width, [table[0] ^ 1] + table[1:] if start else table

    monkeypatch.setattr(binfield, "_BLOCK", 64)
    monkeypatch.setattr(binfield, "power_blocks", flipped)
    monkeypatch.setattr(charsum, "power_blocks", flipped)


def newton_without_the_odd_term(monkeypatch, tower):
    """The trace mask by Newton's identities with the term k f_(n-k) of odd
    k dropped: p_k = sum_(0<j<k) f_(n-j) p_(k-j) alone."""
    def without_the_term(K):
        n, f = K.degree, K.modulus
        mask = n & 1
        for k in range(1, n):
            p = 0
            for j in range(1, k):
                p ^= f >> (n - j) & mask >> (k - j)
            mask |= (p & 1) << k
        return mask

    monkeypatch.setattr(binfield.BinaryField, "trace_mask", property(without_the_term))


def class_step_not_inverted(monkeypatch, tower):
    """The class of Norm(g^n) taken as n k, not n k^-1, in G and H."""
    for label in ("G", "H"):
        monkeypatch.setitem(tower._steps, label, pow(tower.class_step(label), -1, tower.M))


def one_trace_zero_count_off_by_one(monkeypatch, tower):
    """The trace-zero count of residue 0, the orbit {0} of doubling, one
    more than walked, in each block: the periods would not sum to -1."""
    even = charsum._even_against_every_mask
    monkeypatch.setattr(charsum, "_even_against_every_mask", lambda table, masks, width: [
        c + (j == 0) for j, c in enumerate(even(table, masks, width))])


def one_multiplicity_off(monkeypatch, tower):
    """The first dual class's multiplicity off by the product of the
    degrees, so every entry of Q stays an integer."""
    second = schemecore.second_eigenmatrix

    def off(P, multiplicities, size):
        wrong = list(multiplicities)
        wrong[1] += P[0][1] * P[0][2] * P[0][3]
        return second(P, wrong, size)

    monkeypatch.setattr(schemecore, "second_eigenmatrix", off)


def _first_t2_value(tower):
    """The first a with psi(omega^a D) = q - 1, an a of T2, read without
    filling the tower's caches of the product and the partition."""
    return cycpart._psi_route.__wrapped__(tower).index((1 << tower.s) - 1)


def psi_product_moves_a_t2_value(monkeypatch, tower):
    """The product's plain coefficient at the first a of T2 moved by -2q:
    psi(omega^a D) would read -q - 1, a T3 value, with T1 = Z kept."""
    a, move, unpack = _first_t2_value(tower), -2 << tower.s, zmring._unpack
    monkeypatch.setattr(zmring, "_unpack", lambda value, n, width: [
        v + move * (i == a) for i, v in enumerate(unpack(value, n, width))])


def one_a_moved_from_t2_to_t3(monkeypatch, tower):
    """The partition split from psi(omega^a D) with the first a of T2 read
    as -q - 1, past the product's recheck: the blocks have the wrong sizes,
    and the rows that read them must fail."""
    a, route = _first_t2_value(tower), cycpart._psi_route
    monkeypatch.setattr(cycpart, "_psi_route", lambda tower: tuple(
        -(1 << tower.s) - 1 if i == a else v for i, v in enumerate(route(tower))))


# mutant -> the s it runs at, each with the number of failed checks or the
# error that stops the run (with the pattern of its message, where pinned)
MUTANTS = {
    power_table_one_power_off: {1: InternalCheckError, 2: InternalCheckError,
                                3: InternalCheckError},
    product_without_the_fold: {1: GroupRingError, 2: GroupRingError, 3: GroupRingError},
    block_indicator_rotated: {1: 8, 2: 8, 3: 6},
    two_g_periods_swapped: {1: 5, 2: 5, 3: 5},
    one_bit_flipped_past_the_first_block: {1: InternalCheckError, 2: InternalCheckError,
                                           3: InternalCheckError},
    newton_without_the_odd_term: {
        1: (InternalCheckError, "the trace-zero counts do not fill a hyperplane"),
        2: (InternalCheckError, r"\|D\| = 63, expected 15"),
        3: (InternalCheckError, "quadratic-form description of D failed")},
    class_step_not_inverted: {3: 5},
    one_trace_zero_count_off_by_one: {
        s: (InternalCheckError, "the trace-zero counts do not fill a hyperplane")
        for s in (1, 2, 3)},
    one_multiplicity_off: {s: (InternalCheckError, r"P\*Q != \|X\|\*I") for s in (1, 2, 3)},
    psi_product_moves_a_t2_value: {
        s: (GroupRingError, "^augmentation mismatch after the product$") for s in (1, 2, 3)},
    # the sizes row, lemma 2's 3 rows, 4 of the 6 remark rows, the delta
    # square and the rows of every fusion of T1, T2, T3
    one_a_moved_from_t2_to_t3: {1: 17, 2: 17, 3: 15},
}


@pytest.mark.parametrize("mutant,s,outcome", [
    (mutant, s, outcome) for mutant, cases in MUTANTS.items() for s, outcome in cases.items()],
    ids=lambda v: getattr(v[0] if isinstance(v, tuple) else v, "__name__", str(v)))
def test_a_broken_kernel_never_passes(monkeypatch, mutant, s, outcome):
    tower = build_tower(s)
    mutant(monkeypatch, tower)
    monkeypatch.setattr(cli, "build_tower", lambda *moduli: tower)
    # thm2ii at s = 3 streams H = GF(2^27), which --big gates
    config = RunConfig(s=s, targets=tuple(t for t in TARGETS if s < 3 or t != "thm2ii"))
    out = io.StringIO()
    if isinstance(outcome, (type, tuple)):
        error, match = outcome if isinstance(outcome, tuple) else (outcome, None)
        with pytest.raises(error, match=match):
            cli.run(config, out)
        return
    assert cli.run(config, out) == 1
    assert out.getvalue().splitlines()[-1].startswith(f"{outcome} check(s) FAILED")


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_wrong_product_coefficient_fails_the_kernel_rows(monkeypatch, s):
    """Conjugation and the expansion hold for every integer vector, so they
    test the product kernel: one wrong coefficient in each of the Gauss-sum
    layer's products must turn both rows into FAIL, so neither is a literal
    pass."""
    product = charsum._cyclic_product

    def off_at_one(a, b):
        out = product(a, b)
        out[1] += 1
        return out

    tower = build_tower(s)
    monkeypatch.setattr(charsum, "_cyclic_product", off_at_one)
    monkeypatch.setattr(cli, "build_tower", lambda *moduli: tower)
    out = io.StringIO()
    assert cli.run(RunConfig(s=s, targets=("gauss",)), out) == 1
    failed = [line for line in out.getvalue().splitlines() if line.lstrip().startswith("[FAIL]")]
    assert any("conj(G(ell)) == G(M-ell)" in line for line in failed)
    assert any("expansion reproduces all periods" in line for line in failed)


def test_the_periods_of_E_are_refused():
    # |E*| = q - 1 is no multiple of M: the class step refuses the label
    with pytest.raises(FieldError, match="no cyclotomic classes for label 'E'"):
        charsum.gauss_periods(build_tower(1), "E")
