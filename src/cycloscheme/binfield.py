"""Exact arithmetic in GF(2**m) and construction of the nested field tower.

Field elements are plain ints: bit i is the coefficient of x**i of the
polynomial-basis representative.  A modulus bit mask includes the leading
coefficient, so x**3 + x + 1 is 0b1011.  Everything here is exact integer
work; there is no floating point anywhere in the package.  Squaring reads
a per-field table of the linear map u -> u**2, and a power of x is a chain
of squarings and shifts, so the modulus search and its certificates never
run the bit-serial product.

Every walk over a cyclic group of field elements reads one power table:
``power_table`` returns base**i for i < count as uint64 words, built by
doubling with byte lookup tables of GF(2)-linear maps, so fields of degree
at most 64 (and towers with s <= 7).
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import xor

import numpy as np


class FieldError(ValueError):
    """Bad modulus, bad element, or an out-of-domain operation."""


class ReducibleModulusError(FieldError):
    """User-supplied modulus failed the irreducibility certificate.

    ``divisor_degree`` is the degree d for which gcd(x^(2^d) - x, f) != 1.
    """

    def __init__(self, modulus: int, divisor_degree: int):
        self.modulus = modulus
        self.divisor_degree = divisor_degree
        super().__init__(
            f"modulus {modulus:#x} is reducible: nontrivial gcd with "
            f"x^(2^{divisor_degree}) - x"
        )


class NonPrimitiveModulusError(FieldError):
    """x is not primitive under the user-supplied irreducible modulus."""

    def __init__(self, modulus: int, proper_order: int):
        self.modulus = modulus
        self.proper_order = proper_order
        super().__init__(
            f"x has order {proper_order} under modulus {modulus:#x}, "
            "not the full group order"
        )


class InternalCheckError(RuntimeError):
    """A consistency check that cannot fail for correct inputs did fail."""


# ---------------------------------------------------------------------------
# polynomial-over-GF(2) helpers on int bit masks
# ---------------------------------------------------------------------------

def poly_degree(f: int) -> int:
    return f.bit_length() - 1


def poly_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    da = a.bit_length() - 1
    while da >= df:
        a ^= f << (da - df)
        da = a.bit_length() - 1
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def irreducibility_certificate(f: int) -> int | None:
    """None if f is irreducible over GF(2), else the failing divisor degree.

    The gcd criterion: gcd(x^(2^d) - x, f) = 1 for every d = deg f / p, p
    a prime factor of deg f (tried in increasing p; the first failing d is
    the certificate), and x^(2^deg f) = x, else the certificate is deg f.
    The powers x^(2^d) come from one chain of table squarings.
    """
    m = poly_degree(f)
    if m < 1:
        raise FieldError("modulus must have positive degree")
    if m == 1:
        return None
    if not (f & 1):
        return 1  # x divides f
    divisors = [m // p for p in sorted(_prime_factors(m))]
    if not f.bit_count() & 1:
        return divisors[0]  # x + 1 divides f and every x^(2^d) - x
    ring = BinaryField(m, f, 0b10)  # squaring is arithmetic mod f, a field or not
    frobenius = [0b10]  # frobenius[d] = x^(2^d)
    while len(frobenius) <= divisors[0]:
        frobenius.append(ring.square(frobenius[-1]))
    for d in divisors:
        if poly_gcd(frobenius[d] ^ 0b10, f) != 1:
            return d
    t = frobenius[-1]
    for _ in range(m - divisors[0]):
        t = ring.square(t)
    return None if t == 0b10 else m


# Deterministic Miller-Rabin bases: they decide every n below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

def _is_prime(n: int) -> bool:
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    # n - 1 = odd * 2^twos; b^odd must be 1 or reach -1 by squaring
    return all(pow(b, (n - 1) >> twos, n) == 1 or
               n - 1 in [pow(b, (n - 1) >> i, n) for i in range(1, twos + 1)]
               for b in _MR_BASES)


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho on
    y -> y^2 + c, with Brent's cycle finding (the saved point x jumps to y
    whenever the step count reaches a power of two)."""
    for c in range(1, n):
        x = y = 2
        d = steps = 1
        while d == 1:
            if steps & (steps - 1) == 0:
                x = y
            y = (y * y + c) % n
            steps += 1
            d = math.gcd(x - y, n)
        if d != n:
            return d
    raise InternalCheckError(f"Pollard rho found no factor of {n}")


def _prime_factors(n: int) -> dict[int, int]:
    """Factorization by trial division below 2^10, then Miller-Rabin and
    Pollard rho on the cofactor (exact for n < 3.3e24)."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n and d < 1 << 10:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return factors


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class BinaryField:
    """GF(2**degree) with a fixed modulus; elements are int bit masks.

    The generator is the residue of x (primitive by construction for the
    moduli accepted by :func:`build_field`), or 1 for the degenerate GF(2).
    """

    def __init__(self, degree: int, modulus: int, generator: int):
        self.degree = degree
        self.modulus = modulus
        self.size = 1 << degree
        self.order = self.size - 1
        self.generator = generator
        self._top = 1 << degree

    def __repr__(self) -> str:
        return f"BinaryField(degree={self.degree}, modulus={self.modulus:#x})"

    def check(self, u: int) -> None:
        if not isinstance(u, int) or u < 0 or u >= self.size:
            raise FieldError(f"element {u!r} out of range for {self!r}")

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        f = self.modulus
        top = self._top
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= f
        return r

    def times_x(self, a: int) -> int:
        """a * x: a shift and at most one reduction."""
        a <<= 1
        return a ^ self.modulus if a & self._top else a

    def x_multiples(self, c: int, count: int) -> list[int]:
        """c * x**i for 0 <= i < count, by repeated shift-and-reduce."""
        out = [c]
        for _ in range(count - 1):
            out.append(self.times_x(out[-1]))
        return out

    @cached_property
    def _square_rows(self) -> list[list[int]]:
        """Lookup tables of the GF(2)-linear map u -> u**2 mod f: row k takes
        nibble k of u (bits 4k to 4k + 3) to the XOR of x**(2i) mod f over
        its set bits i, so one lookup per nibble both spreads the bits and
        reduces the high half.  Sixteen entries a row keep a table cheap to
        build for every candidate modulus that the search squares with."""
        rows = []
        images = self.x_multiples(1, 2 * self.degree - 1)[::2]
        for k in range(0, self.degree, 4):
            row = [0]
            for image in images[k:k + 4]:
                row += [v ^ image for v in row]
            rows.append(row)
        return rows

    def square(self, a: int) -> int:
        r = 0
        for row in self._square_rows:
            r ^= row[a & 15]
            a >>= 4
        return r

    def pow(self, a: int, e: int) -> int:
        """a**e by left-to-right square-and-multiply with table squaring;
        for a = x each multiplication is a shift (square-and-shift)."""
        if a == 0:
            if e < 0:
                raise FieldError("negative power of 0")
            return 1 if e == 0 else 0
        e %= self.order or 1
        r = 1
        for bit in bin(e)[2:]:
            r = self.square(r)
            if bit == "1":
                r = self.times_x(r) if a == 0b10 else self.mul(r, a)
        return r

    # -- traces -----------------------------------------------------------------

    @cached_property
    def trace_mask(self) -> int:
        """Bit i is the absolute trace of x**i, so Tr(u) is the parity of
        u & trace_mask."""
        return sum(self.rel_trace(1, 1 << i) << i for i in range(self.degree))

    def rel_trace(self, sub_degree: int, u: int) -> int:
        """Trace down to the subfield GF(2**sub_degree)."""
        if sub_degree <= 0 or self.degree % sub_degree:
            raise FieldError(
                f"sub_degree {sub_degree} does not divide degree {self.degree}"
            )
        r = 0
        t = u
        for _ in range(self.degree // sub_degree):
            r ^= t
            for _ in range(sub_degree):
                t = self.square(t)
        check = r
        for _ in range(sub_degree):
            check = self.square(check)
        if check != r:
            raise InternalCheckError("relative trace left the subfield")
        return r

    def subfield_zero_masks(self, sub_degree: int) -> list[int]:
        """Masks m_t with rel_trace(sub_degree, u) == 0 iff every
        (u & m_t) has even parity.  The trace is GF(2)-linear, so its
        coordinate t (in this field's basis) at u is the parity of
        u & m_t; zero masks are dropped."""
        vals = [self.rel_trace(sub_degree, 1 << i) for i in range(self.degree)]
        masks = (sum((v >> t & 1) << i for i, v in enumerate(vals)) for t in range(self.degree))
        return [mask for mask in masks if mask]

    @cached_property
    def powers(self) -> list[int]:
        """generator**k for 0 <= k < |K*| as Python ints, for the class and
        set computations that index and hash them; meant for fields small
        enough to enumerate."""
        return power_table(self, self.generator, self.order).tolist()


def _order_of_x(K: BinaryField) -> int:
    """Multiplicative order of x in K, whose modulus is irreducible."""
    order = K.order
    for p in _prime_factors(K.order):
        while order % p == 0 and K.pow(0b10, order // p) == 1:
            order //= p
    return order


# ---------------------------------------------------------------------------
# the power-table kernel
# ---------------------------------------------------------------------------

# Power tables hold field elements in uint64 words.
WALK_DEGREE_LIMIT = 64

_U64 = np.dtype("<u8")


def _byte_tables(images: list[int]) -> np.ndarray:
    """Lookup tables of the GF(2)-linear map sending bit i to images[i]:
    row b takes byte b of the input to its share of the image, filled by
    XOR-doubling so that row[v | 2^j] = row[v] ^ image of bit j."""
    tables = np.zeros(((len(images) + 7) // 8, 256), dtype=_U64)
    for i, image in enumerate(images):
        row, bit = tables[i // 8], i % 8
        row[1 << bit:2 << bit] = row[:1 << bit] ^ np.uint64(image)
    return tables


def _apply(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The linear map encoded by ``tables`` applied to every word."""
    octets = words.view(np.uint8).reshape(-1, 8)
    out = tables[0][octets[:, 0]]
    for b in range(1, len(tables)):
        out ^= tables[b][octets[:, b]]
    return out


def _mul_tables(K: BinaryField, c: int) -> np.ndarray:
    """Byte tables of u -> c*u in K: bit i of u maps to c * x**i."""
    return _byte_tables(K.x_multiples(c, K.degree))


def power_table(K: BinaryField, base: int, count: int) -> np.ndarray:
    """base**i for 0 <= i < count as uint64 words (degree <= 64): the table
    doubles by appending itself times base**len, one lookup per word."""
    table, step = np.ones(1, dtype=_U64), base  # step = base**len(table)
    while len(table) < count:
        table = np.concatenate([table, _apply(_mul_tables(K, step), table)])
        step = K.square(step)
    return table[:count]


def parities(words, masks) -> np.ndarray:
    """Row i is the parity of w & masks[i] for every word w: the GF(2)-linear
    functional with that mask, read along a power table."""
    words = np.asarray(words, dtype=_U64)
    return np.array([np.bitwise_count(words & np.uint64(mask)) & 1 for mask in masks])


def trace_forms(K: BinaryField, elements) -> np.ndarray:
    """m[a], the mask of the functional u -> Tr(a*u), for every a in
    ``elements`` as uint64 words: bit j of m[a] is Tr(a x^j), the parity of
    a & L_j, where bit i of the Hankel mask L_j is Tr(x^(i+j))."""
    n = K.degree
    trace = [(u & K.trace_mask).bit_count() & 1 for u in K.x_multiples(1, 2 * n - 1)]
    words = np.asarray(elements, dtype=_U64)
    masks = np.zeros(len(words), dtype=_U64)
    for j in range(n):  # one bit at a time keeps the working set at a few words each
        hankel = sum(bit << i for i, bit in enumerate(trace[j:j + n]))
        masks |= (np.bitwise_count(words & np.uint64(hankel)) & 1).astype(_U64) << np.uint64(j)
    return masks


def build_field(m: int, modulus: int | None = None) -> BinaryField:
    """GF(2**m) with the given modulus, or the lexicographically smallest
    primitive polynomial of degree m when none is supplied."""
    if m < 1:
        raise FieldError("degree must be >= 1")
    if m == 1:
        if modulus is not None and modulus != 0b11:
            raise FieldError("degree-1 modulus must be x + 1")
        return BinaryField(1, 0b11, 1)
    if modulus is not None:
        if poly_degree(modulus) != m:
            raise FieldError(f"modulus {modulus:#x} does not have degree {m}")
        d = irreducibility_certificate(modulus)
        if d is not None:
            raise ReducibleModulusError(modulus, d)
        K = BinaryField(m, modulus, 0b10)
        order = _order_of_x(K)
        if order != K.order:
            raise NonPrimitiveModulusError(modulus, order)
        return K
    for candidate in range((1 << m) | 1, 1 << (m + 1), 2):
        if irreducibility_certificate(candidate) is not None:
            continue
        K = BinaryField(m, candidate, 0b10)
        if _order_of_x(K) == K.order:
            return K
    raise InternalCheckError(f"no primitive polynomial of degree {m} found")


def modulus_to_hex(modulus: int) -> str:
    return format(modulus, "x")


def modulus_from_hex(text: str) -> int:
    return int(text, 16)


# ---------------------------------------------------------------------------
# the field tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Nested binary fields E, F, G, H of degrees s, 3s, 6s, 9s; F embeds
    into G and H, and the order-M classes of G and H are the classes of F
    pulled back by the norm."""

    def __init__(self, s: int, E: BinaryField, F: BinaryField,
                 G: BinaryField, H: BinaryField):
        self.s = s
        self.E = E
        self.F = F
        self.G = G
        self.H = H
        self.M = (1 << (2 * s)) + (1 << s) + 1
        self.omega = F.generator
        self._root_powers_G, step_G = self._embedding(G)
        self._root_powers_H, step_H = self._embedding(H)
        self._steps = {"F": 1, "G": step_G, "H": step_H}

    # -- construction helpers -------------------------------------------------

    def _find_subfield_root(self, table: np.ndarray) -> int:
        """The smallest k with z**k a root of F's modulus f, given the table
        of z**i over the order-|F*| subgroup of K generated by z: f(z**k) is
        the XOR of z**(i*k mod |F*|) over the terms x**i of f."""
        f, n = self.F.modulus, len(table)
        k = np.arange(n)
        value = np.zeros(n, dtype=table.dtype)
        for i in range(f.bit_length()):
            if f >> i & 1:
                value ^= table[i * k % n]
        roots = np.flatnonzero(value == 0)
        if not len(roots):
            raise InternalCheckError("no root of F's modulus in the subfield")
        return int(roots[0])

    def _embedding(self, K: BinaryField) -> tuple[list[int], int]:
        """Embed F into K by omega = x -> z**k, the first root of F's modulus
        among the powers of z = Norm(g) = g**(|K*|/|F*|); f(z**k) = 0 is
        rechecked by Horner's rule.  Then z is omega**(k^-1), so Norm(g**n)
        lies in class n * k^-1 mod M.  Returns the powers of the root and
        that class step."""
        F = self.F
        table = power_table(K, K.pow(K.generator, K.order // F.order), F.order)
        k = self._find_subfield_root(table)
        root_powers = table[k * np.arange(F.degree) % F.order].tolist()
        root = int(table[k])
        value = reduce(lambda acc, i: K.mul(acc, root) ^ (F.modulus >> i & 1),
                       reversed(range(F.modulus.bit_length())), 0)
        if value:
            raise InternalCheckError("the embedded omega is not a root of F's modulus")
        return root_powers, pow(k, -1, self.M)

    @staticmethod
    def _embed(root_powers: list[int], u: int) -> int:
        return reduce(xor, (w for i, w in enumerate(root_powers) if u >> i & 1), 0)

    # -- public surface --------------------------------------------------------

    def field(self, label: str) -> BinaryField:
        try:
            return {"E": self.E, "F": self.F, "G": self.G, "H": self.H}[label]
        except KeyError:
            raise FieldError(f"unknown field label {label!r}") from None

    def embed_F(self, K: BinaryField, u: int) -> int:
        """The image of u, an element of F, under the fixed embedding of F
        into K (F itself, G or H)."""
        if K is self.F:
            return u
        self.F.check(u)
        if K is self.G:
            return self._embed(self._root_powers_G, u)
        if K is self.H:
            return self._embed(self._root_powers_H, u)
        raise FieldError("embedding only defined into F, G, H")

    def class_step(self, label: str) -> int:
        """c with cyclotomic class of generator**k equal to k*c mod M."""
        if label not in self._steps:
            raise FieldError(f"no cyclotomic classes for label {label!r}")
        return self._steps[label]

    def moduli_hex(self) -> dict[str, str]:
        return {lbl: modulus_to_hex(self.field(lbl).modulus)
                for lbl in ("E", "F", "G", "H")}


def build_tower(s: int, mod_f: int | None = None, mod_g: int | None = None,
                mod_h: int | None = None) -> FieldTower:
    if s < 1:
        raise FieldError("s must be >= 1")
    if 9 * s > WALK_DEGREE_LIMIT:
        raise FieldError(f"H = GF(2^{9 * s}) does not fit the uint64 power "
                         f"tables (degree <= {WALK_DEGREE_LIMIT}, so s <= "
                         f"{WALK_DEGREE_LIMIT // 9})")
    E = build_field(s)
    F = build_field(3 * s, mod_f)
    G = build_field(6 * s, mod_g)
    H = build_field(9 * s, mod_h)
    return FieldTower(s, E, F, G, H)

