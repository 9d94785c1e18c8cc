import os
import random
import subprocess
import sys
from functools import reduce
from operator import or_, xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloscheme
from cycloscheme import binfield
from cycloscheme.binfield import (BinaryField, FieldError, InternalCheckError,
                                  NonPrimitiveModulusError, ReducibleModulusError,
                                  _prime_factors, build_field, build_tower,
                                  irreducibility_certificate, poly_gcd, power_table)

import numpy_oracle
from character_oracle import abs_trace, psi, rel_trace, trace_mask
from gf_oracle import (gf_mul, gf_pow, gf_trace, norm_exponents, poly_from_int, poly_mul,
                       poly_to_int)
from numpy_oracle import unslice

SRC = Path(cycloscheme.__file__).resolve().parents[1]


def test_default_moduli_are_lexicographically_first():
    # frozen expected values, found by independent scan with the naive oracle
    assert build_field(1).modulus == 0b11
    assert build_field(2).modulus == 0b111
    assert build_field(3).modulus == 0b1011  # x^3 + x + 1
    assert build_field(4).modulus == 0b10011
    assert build_field(6).modulus == 0b1000011  # x^6 + x + 1


def test_gf8_multiplication_table_entry():
    K = build_field(3)
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1
    assert K.mul(0b010, 0b100) == 0b011


def test_mul_matches_naive_oracle_gf64():
    K = build_field(6)
    for a in range(0, 64, 5):
        for b in range(0, 64, 7):
            assert K.mul(a, b) == gf_mul(a, b, K.modulus)


def test_pow_and_inverse():
    K = build_field(4)
    for a in range(1, 16):
        assert K.mul(a, K.pow(a, K.order - 1)) == 1
        assert K.pow(a, K.order) == 1
        assert K.pow(a, 3) == gf_pow(a, 3, K.modulus)


def _plain_pow(K, a, e):
    """a^e by right-to-left square-and-multiply with the bit-serial mul."""
    r = 1
    while e:
        if e & 1:
            r = K.mul(r, a)
        a = K.mul(a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("m", range(2, 65))
def test_square_and_pow_match_the_oracle(m):
    # squaring and pow are arithmetic modulo any f of degree m (the
    # certificate squares modulo candidates that may factor), so the moduli
    # are x^m and random ones, mostly reducible.  pow reduces exponents
    # modulo 2^m - 1, which is the group order only in a field, so the
    # exponents stay below it.
    rng = random.Random(m)
    order = (1 << m) - 1
    for f in (1 << m, (1 << m) | rng.getrandbits(m), (1 << m) | rng.getrandbits(m) | 1):
        K = BinaryField(m, f)
        for a in (0, 1, 0b10, order, rng.getrandbits(m), rng.getrandbits(m)):
            assert K.square(a) == gf_mul(a, a, f)
            assert K.pow(a, e := rng.randrange(min(1 << 10, order))) == gf_pow(a, e, f)
            assert K.pow(a, e := rng.randrange(order)) == _plain_pow(K, a, e)
            assert K.times_x(a) == gf_mul(a, 0b10, f)
        e = rng.randrange(min(1 << 16, order))
        assert K.pow(0b10, e) == gf_pow(0b10, e, f)


def _reference_search(m):
    """The lexicographically first primitive modulus of degree m: the gcd
    criterion and the order of x, squaring and multiplying with the
    bit-serial mul only."""
    order = (1 << m) - 1
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        ring = BinaryField(m, f)
        if any(poly_gcd(_plain_pow(ring, 0b10, 1 << (m // p)) ^ 0b10, f) != 1
               for p in _prime_factors(m)):
            continue
        frobenius = 0b10
        for _ in range(m):
            frobenius = ring.mul(frobenius, frobenius)
        if frobenius == 0b10 and all(_plain_pow(ring, 0b10, order // p) != 1
                                     for p in _prime_factors(order)):
            return f


@pytest.mark.parametrize("m", sorted({k * s for k in (3, 6, 9) for s in range(1, 8)}))
def test_search_matches_the_unaccelerated_search(m):
    assert build_field(m).modulus == _reference_search(m)


def _strong_probable_prime(n, b):
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    x = pow(b, odd, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, twos))


def test_the_least_strong_pseudoprime_to_the_first_12_primes_is_factored():
    # psi_12, the least composite that passes Miller-Rabin to every base
    # 2..37; base 41 refutes it
    p, q = 399165290221, 798330580441
    n = p * q
    assert n == 318665857834031151167461
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert all(_strong_probable_prime(n, b) for b in bases)
    assert not _strong_probable_prime(n, 41)
    assert not binfield._is_prime(n)
    assert _prime_factors(n) == (p, q)
    assert binfield._is_prime(p) and binfield._is_prime(q)


def test_the_generator_is_x():
    # every field build_field returns, one under a user modulus among them;
    # in GF(2) = GF(2)[x]/(x + 1) the residue of x is 1
    fields = [build_field(m) for m in range(1, 13)] + [build_field(6, 0x61)]
    for K in fields:
        assert K.generator == K.times_x(1)
        assert K.powers == K.x_multiples(1, K.order)
    assert fields[0].generator == 1 and fields[-1].modulus == 0x61
    with pytest.raises(TypeError):
        BinaryField(12, fields[11].modulus, 0b10)


def test_prime_factors_are_found_once_per_number():
    # an s = 4 run without thm2ii factors 4, 12, 24, 36 and their 2^m - 1
    # once each; every other call hits the cache, and nothing factors M.  A
    # fresh process, so that no cache filled by an earlier test hides a call
    code = ("import io\n"
            "from cycloscheme import binfield, cli\n"
            "binfield._prime_factors.cache_clear()\n"
            "targets = tuple(t for t in cli.TARGETS if t != 'thm2ii')\n"
            "assert cli.run(cli.RunConfig(s=4, targets=targets), out=io.StringIO()) == 0\n"
            "print(binfield._prime_factors.cache_info().misses)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 8


def test_a_wrong_squaring_table_is_refused_at_once(monkeypatch):
    # row 0 built from the images of bits 1..width: every certificate would
    # then fail and the search scan every candidate without end
    rows = binfield._lookup_rows

    def mutant(images, width):
        return [rows(images[1:width + 1], width)[0]] + rows(images, width)[1:]

    monkeypatch.setattr(binfield, "_lookup_rows", mutant)
    for m, modulus in ((6, None), (18, None), (6, 0x43)):
        with pytest.raises(InternalCheckError, match="table squaring"):
            build_field(m, modulus)


def test_generator_is_primitive():
    K = build_field(6)
    seen = set()
    u = 1
    for _ in range(K.order):
        seen.add(u)
        u = K.mul(u, K.generator)
    assert len(seen) == K.order


def test_abs_trace_matches_oracle():
    for m in (3, 4, 6):
        K = build_field(m)
        for u in range(K.size):
            assert abs_trace(K, u) == gf_trace(u, K.modulus, m)
            assert (u & K.trace_mask).bit_count() & 1 == abs_trace(K, u)


def test_trace_mask_consistent_with_psi():
    K = build_field(9)
    for u in (0, 1, 5, 100, 300, 511):
        assert psi(K, u) == 1 - 2 * abs_trace(K, u)


@pytest.mark.parametrize("s", range(1, 8))
def test_trace_mask_is_the_trace_of_each_power_of_x(s):
    tower = build_tower(s)
    for label in "EFGH":
        K = tower.field(label)
        assert K.trace_mask == trace_mask(K), label


@pytest.mark.parametrize("m,modulus", [(6, 0x61), (12, 0x107b), (18, 0x4004d), (9, 0x221)])
def test_trace_mask_of_a_user_modulus_is_the_trace_of_each_power_of_x(m, modulus):
    K = build_field(m, modulus)
    assert K.trace_mask == trace_mask(K)


def test_trace_mask_reads_the_modulus_not_the_squaring_table(monkeypatch):
    K = BinaryField(12, build_field(12).modulus)

    def refused(self, a):
        raise AssertionError("trace_mask squared an element")

    monkeypatch.setattr(BinaryField, "square", refused)
    assert K.trace_mask == trace_mask(K)


def test_rel_trace_lands_in_subfield_and_is_linear():
    # relative_trace_forms against the schoolbook trace (which asserts that
    # it lands in GF(8)): Tr_{K/E}(a u) = 0 iff u is even against every
    # mask of a
    K = build_field(9)
    elements = [1, 0b10, 0b101101, 511]
    for a, masks in zip(elements, binfield.relative_trace_forms(K, 3, elements)):
        assert len(masks) == 3
        traces = [rel_trace(K, 3, K.mul(a, u)) for u in range(512)]
        assert all(traces[u ^ v] == traces[u] ^ traces[v]
                   for u in range(0, 512, 17) for v in range(0, 512, 23))
        assert [t == 0 for t in traces] == \
            [not any((u & m).bit_count() & 1 for m in masks) for u in range(512)]
        # the kernel is a GF(8)-hyperplane
        assert traces.count(0) == 64


def test_reducible_modulus_rejected_with_certificate():
    with pytest.raises(ReducibleModulusError) as exc:
        build_field(4, modulus=0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    assert exc.value.divisor_degree >= 1


@pytest.mark.parametrize("factors,degree,text", [
    # (x^4+x^3+1)(x^5+x^3+1): coprime to x^(2^3) - x, caught by x^(2^9) != x
    ((0x19, 0x29), 9, "x^(2^9) != x modulo the modulus"),
    # (x+1)(x^8+x^7+x^4+x^3+1): x + 1 divides x^(2^3) - x
    ((0b11, 0x199), 3, "nontrivial gcd with x^(2^3) - x")])
def test_reducible_modulus_error_names_the_test_that_failed(factors, degree, text):
    modulus = poly_to_int(poly_mul(*map(poly_from_int, factors)))
    with pytest.raises(ReducibleModulusError) as exc:
        build_field(9, modulus=modulus)
    assert exc.value.divisor_degree == degree
    assert str(exc.value) == f"modulus {modulus:#x} is reducible: {text}"
    # the gcd is nontrivial exactly when the text claims it
    assert (poly_gcd((1 << (1 << degree)) ^ 0b10, modulus) != 1) == ("gcd" in text)


def test_irreducibility_certificate_on_known_factor():
    # x^2 + 1 = (x + 1)^2
    assert irreducibility_certificate(0b101) is not None
    assert irreducibility_certificate(0b1011) is None


def test_nonprimitive_modulus_rejected():
    # irreducible, but x has a proper order: x^6+x^3+1 order 9 of 63, and
    # x^12+x^3+1 and x^36+x^5+x^4+x^2+1 orders 45 and 2545165805; the
    # primitivity test stops at the first prime, the error names the order
    for m, modulus, order in ((6, 0b1001001, 9), (12, 0x1009, 45),
                              (36, 0x1000000035, 2_545_165_805)):
        assert irreducibility_certificate(modulus) is None
        with pytest.raises(NonPrimitiveModulusError) as exc:
            build_field(m, modulus=modulus)
        assert exc.value.proper_order == order


def test_tower_shape_s1():
    tower = build_tower(1)
    assert (tower.E.degree, tower.F.degree, tower.G.degree, tower.H.degree) == (1, 3, 6, 9)
    assert tower.M == 7


# (s, G modulus, H modulus); None keeps the default
CLASS_STEP_TOWERS = [(1, None, None), (2, None, None), (1, 0x61, 0x221),
                     (2, 0x107b, 0x4004d)]


def test_embedding_is_a_field_homomorphism():
    # x -> root extends to a ring map GF(2)[x] -> K whose kernel holds F's
    # modulus exactly when the modulus vanishes at the root, so the map
    # factors through F; the schoolbook oracle evaluates it term by term
    for s, mod_g, mod_h in CLASS_STEP_TOWERS:
        tower = build_tower(s, None, mod_g, mod_h)
        f = tower.F.modulus
        assert set(tower.roots) == {"G", "H"}
        for label, root in tower.roots.items():
            K = tower.field(label)
            value = reduce(xor, (gf_pow(root, i, K.modulus)
                                 for i in range(f.bit_length()) if f >> i & 1))
            assert value == 0


@pytest.mark.parametrize("s,mod_g,mod_h", CLASS_STEP_TOWERS)
def test_class_step_follows_the_norm(s, mod_g, mod_h):
    # Norm(g^n) = g^(n |K*|/|F*|) is the embedded omega^t; its class is t
    # mod M, which must be n * class_step for every n < |F*|
    tower = build_tower(s, None, mod_g, mod_h)
    F, M = tower.F, tower.M
    assert tower.class_step("F") == 1
    for label in "GH":
        K = tower.field(label)
        dlog = {gf_pow(tower.roots[label], t, K.modulus): t for t in range(F.order)}
        z = gf_pow(K.generator, K.order // F.order, K.modulus)
        norm = 1
        for n in range(F.order):
            assert n * tower.class_step(label) % M == dlog[norm] % M
            norm = gf_mul(norm, z, K.modulus)


@pytest.mark.parametrize("s", [1, 2])
def test_an_embedding_by_a_non_root_is_refused(monkeypatch, s):
    # z^-k is omega^-1, no conjugate of omega: -1 is no power of 2 modulo
    # |F*| = 2^(3s) - 1, so F's modulus does not vanish there
    find = binfield.FieldTower._find_subfield_root
    monkeypatch.setattr(binfield.FieldTower, "_find_subfield_root",
                        lambda self, K, z: -find(self, K, z) % self.F.order)
    with pytest.raises(InternalCheckError, match="not a root"):
        build_tower(s)


# moduli_hex() of the default towers: E, F, G, H
DEFAULT_MODULI = {1: ("3", "b", "43", "211"), 2: ("7", "43", "1053", "40027"),
                  3: ("b", "211", "40027", "8000027"),
                  4: ("13", "1053", "100001b", "1000000077"),
                  5: ("25", "8003", "40000053", "20000000001b"),
                  6: ("43", "40027", "1000000077", "4000000000007d"),
                  7: ("83", "200005", "4000000003f", "8000000000000003")}


def _assert_tower_matches_scans(tower, s, moduli):
    expected = dict(zip("EFGH", DEFAULT_MODULI[s]))
    expected.update((label, format(m, "x")) for label, m in moduli.items() if m)
    assert tower.moduli_hex() == expected
    F = tower.F
    for label in "GH":
        K = tower.field(label)
        # the schoolbook product would take over a second from s = 4 on
        mul = K.mul if s >= 4 else None
        t0 = norm_exponents(F.modulus, K.modulus, K.generator, K.order, F.order, mul)
        assert tower.class_step(label) == t0 % tower.M


@pytest.mark.parametrize("s,poly_f", [(1, None), (2, None), (3, None), (4, None),
                                      (5, None), (2, 0x61), (3, 0x221)])
def test_tower_matches_the_scanning_construction(s, poly_f):
    _assert_tower_matches_scans(build_tower(s, poly_f), s, {"F": poly_f})


@pytest.mark.parametrize("block", [1, 6])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_root_search_across_blocks_matches_the_scanning_construction(monkeypatch, s, block):
    # blocks of one exponent, and of 6, which divides none of |F*| = 7,
    # 63, 511, 4095: the roots (k = 3, 1; 31, 11; 83, 47; 397, 467 in G
    # and H) lie past the first block from s = 2 on, under 6 off a block's
    # start
    monkeypatch.setattr(binfield, "_BLOCK", block)
    _assert_tower_matches_scans(build_tower(s), s, {})


@pytest.mark.parametrize("s,steps", [(6, (3638, 322)), (7, (2391, 14354))])
def test_towers_past_s5_keep_their_moduli_and_class_steps(s, steps):
    # the scanning construction would walk 2^18 and 2^21 exponents here, so
    # the moduli and the class steps of G and H are pinned values
    tower = build_tower(s)
    assert tower.moduli_hex() == dict(zip("EFGH", DEFAULT_MODULI[s]))
    assert (tower.class_step("G"), tower.class_step("H")) == steps


def test_a_search_based_off_the_subfield_is_refused(monkeypatch):
    # x is primitive in G and H, so outside F's copy, and so is z*x: its
    # conjugates do not close up after 3s squarings
    minimal = binfield._minimal_polynomial
    monkeypatch.setattr(binfield, "_minimal_polynomial",
                        lambda K, z, degree: minimal(K, K.times_x(z), degree))
    for s in (1, 2, 3):
        with pytest.raises(InternalCheckError, match="no minimal polynomial of degree"):
            build_tower(s)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_a_flipped_coefficient_of_the_minimal_polynomial_is_refused(monkeypatch, s):
    # the root search then runs modulo some other polynomial of degree 3s;
    # the tower must fail, and never come back with another class step
    minimal = binfield._minimal_polynomial
    for bit in range(3 * s):
        monkeypatch.setattr(binfield, "_minimal_polynomial",
                            lambda K, z, degree: minimal(K, z, degree) ^ 1 << bit)
        with pytest.raises(InternalCheckError):
            build_tower(s)


def test_tower_matches_the_scanning_construction_under_other_g_h_moduli():
    moduli = {"G": 0x107b, "H": 0x4004d}
    _assert_tower_matches_scans(build_tower(2, None, *moduli.values()), 2, moduli)


def test_a_search_in_a_smaller_multiplicative_group_finds_no_root(monkeypatch):
    # x^6 + x^3 + 1 is irreducible, but x has order 9 under it: the 63
    # powers of y miss every root of F's primitive modulus, of order 63
    monkeypatch.setattr(binfield, "_minimal_polynomial", lambda K, z, degree: 0b1001001)
    with pytest.raises(InternalCheckError, match="no root of F's modulus in the subfield"):
        build_tower(2)


def test_invalid_s_rejected():
    with pytest.raises(FieldError, match="s must be >= 1"):
        build_tower(0)


def test_invalid_field_arguments_are_refused():
    with pytest.raises(FieldError, match="degree must be >= 1"):
        build_field(0)
    with pytest.raises(FieldError, match=r"degree-1 modulus must be x \+ 1"):
        build_field(1, 0b10)
    with pytest.raises(FieldError, match="^modulus 0x13 does not have degree 3$"):
        build_field(3, 0b10011)
    with pytest.raises(FieldError, match="modulus -0xb is negative"):
        build_tower(1, -0b1011)
    with pytest.raises(FieldError, match="modulus must have positive degree"):
        irreducibility_certificate(0b1)
    tower = build_tower(1)
    with pytest.raises(FieldError, match="negative power of 0"):
        tower.F.pow(0, -1)
    with pytest.raises(FieldError, match="unknown field label 'X'"):
        tower.field("X")


def test_tower_beyond_the_word_size_is_refused(monkeypatch):
    # H = GF(2^72) at s = 8 is outside the supported range (degree <= 64),
    # which stands until a cost model of each target replaces it
    def no_field(*args):
        raise AssertionError("no field may be built")

    monkeypatch.setattr(binfield, "build_field", no_field)
    with pytest.raises(FieldError, match="s <= 7"):
        build_tower(8)


@pytest.mark.parametrize("m", [3, 12, 36, 63])
def test_power_table_matches_the_schoolbook_loop(m):
    K = build_field(m)
    g = K.generator
    # 7 divides |K*| at degrees 12, 36 and 63, so g^7 generates a proper
    # subgroup; at degree 3 every element but 0 and 1 is a generator
    for base in (1, g, K.pow(g, 7), 0):
        expected = [1]
        while len(expected) < 1000:
            expected.append(gf_mul(expected[-1], base, K.modulus))
        for count in (1, 2, 5, 64, 1000):
            table = power_table(K, base, count)
            # deg K slices of count bits each, as Python ints
            assert len(table) == m
            assert all(type(word) is int and 0 <= word < 1 << count for word in table)
            assert unslice(table, count) == expected[:count] == \
                numpy_oracle.power_table(K, base, count).tolist()


@pytest.mark.parametrize("m", [3, 12, 36, 63])
def test_parities_read_each_functional_along_the_table(m):
    rng = random.Random(m)
    K = build_field(m)
    count = 300
    table = power_table(K, K.generator, count)
    elements = unslice(table, count)
    masks = [0, 1, K.trace_mask, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(4)]
    words = [sum(((u & mask).bit_count() & 1) << i for i, u in enumerate(elements))
             for mask in masks]
    # one mask gives its parity word, several the OR of their words
    for mask, word in zip(masks, words):
        assert binfield.odd_parities(table, [mask]) == word
    for j in range(len(masks) + 1):
        assert binfield.odd_parities(table, masks[:j]) == reduce(or_, words[:j], 0)


def _parity_word(K, masks):
    """Bit k set when g**k has odd parity against some mask: the OR of the
    masks' ``odd_parities`` words along all of K*, read block by block."""
    word = 0
    for start, width, table in binfield.power_blocks(K, K.generator, K.order):
        word |= (binfield.odd_parities(table, masks) & ((1 << width) - 1)) << start
    return word


@pytest.mark.parametrize("block", [1, 6, 100])
@pytest.mark.parametrize("m", [3, 6, 12])
def test_parity_string_across_blocks_matches_one_block(monkeypatch, m, block):
    # 6 and 100 leave a ragged last block against |K*| = 7, 63 and 4095: the
    # trace string and the parity words of one and of several masks read
    # across blocks what one block reads; a fresh field for each block size,
    # since the trace string is cached per field
    def strings(K):
        masks = [[K.trace_mask], binfield.relative_trace_forms(K, m // 3, [1])[0],
                 [1, (1 << m) - 1]]
        return [K.trace_string] + [_parity_word(K, row) for row in masks]

    whole = strings(build_field(m))
    monkeypatch.setattr(binfield, "_BLOCK", block)
    assert strings(build_field(m)) == whole
    trace, word = whole[:2]
    assert len(trace) == (1 << m) - 1
    assert trace == "".join(str(word >> k & 1) for k in range(len(trace)))


@pytest.mark.parametrize("width, m", [(4, 7), (4, 63), (8, 13), (8, 36), (8, 63)])
def test_lookup_rows_match_the_schoolbook_map(width, m):
    # degrees that are not multiples of the chunk end in a short row
    rng = random.Random(width * m)
    images = [rng.getrandbits(m) for _ in range(m)]
    rows = binfield._lookup_rows(images, width)
    assert [len(row) for row in rows] == \
        [1 << min(width, m - k) for k in range(0, m, width)]
    for u in [0, 1, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(40)]:
        expected = reduce(xor, (image for i, image in enumerate(images) if u >> i & 1), 0)
        chunks = (u >> (width * k) & ((1 << width) - 1) for k in range(len(rows)))
        assert reduce(xor, (row[c] for row, c in zip(rows, chunks)), 0) == expected


@pytest.mark.parametrize("m", [6, 13])
def test_trace_forms_match_the_schoolbook_trace(m):
    # 8-bit rows over a degree that 8 does not divide
    K = build_field(m)
    rng = random.Random(m)
    elements = [0, 1, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(8)]
    for a, mask in zip(elements, binfield.trace_forms(K, elements)):
        assert mask == sum(gf_trace(gf_mul(a, 1 << j, K.modulus), K.modulus, m) << j
                           for j in range(m))


def test_powers_is_a_list_of_python_ints():
    # its consumers index the list and hash its entries
    K = build_field(6)
    assert type(K.powers) is list and all(type(u) is int for u in K.powers)
    assert sorted(K.powers) == list(range(1, K.size))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=63))
def test_field_axioms_gf64(a, b, c):
    K = build_field(6)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, b ^ c) == K.mul(a, b) ^ K.mul(a, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=511))
def test_frobenius_fixes_trace_gf512(u):
    K = build_field(9)
    assert abs_trace(K, K.mul(u, u)) == abs_trace(K, u)
