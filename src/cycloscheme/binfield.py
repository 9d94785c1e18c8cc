"""Exact arithmetic in GF(2**m) and construction of the nested field tower.

Field elements are plain ints: bit i is the coefficient of x**i of the
polynomial-basis representative.  A modulus bit mask includes the leading
coefficient, so x**3 + x + 1 is 0b1011.  Everything here is exact integer
work; there is no floating point anywhere in the package.

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

    The certificate is the smallest proper d (d | deg f or d = deg f for the
    final Frobenius-fixed-point test) at which the standard gcd criterion
    fails.
    """
    m = poly_degree(f)
    if m < 1:
        raise FieldError("modulus must have positive degree")
    if m == 1:
        return None
    if not (f & 1):
        return 1  # x divides f
    ring = BinaryField(m, f, 0b10)  # mul is arithmetic mod f, a field or not

    def x_to_the_2_to(d: int) -> int:
        return reduce(lambda t, _: ring.mul(t, t), range(d), 0b10)

    for p in sorted(_prime_factors(m)):
        d = m // p
        if poly_gcd(x_to_the_2_to(d) ^ 0b10, f) != 1:
            return d
    if x_to_the_2_to(m) != 0b10:
        return m
    return None


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

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise FieldError("negative power of 0")
            return 1 if e == 0 else 0
        e %= self.order or 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
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
                t = self.mul(t, t)
        check = r
        for _ in range(sub_degree):
            check = self.mul(check, check)
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
    """Byte tables of u -> c*u in K."""
    return _byte_tables([K.mul(c, 1 << i) for i in range(K.degree)])


def power_table(K: BinaryField, base: int, count: int) -> np.ndarray:
    """base**i for 0 <= i < count as uint64 words (degree <= 64): the table
    doubles by appending itself times base**len, one lookup per word."""
    table = np.ones(1, dtype=_U64)
    while len(table) < count:
        step = _mul_tables(K, K.pow(base, len(table)))
        table = np.concatenate([table, _apply(step, table)])
    return table[:count]


def parities(words, masks) -> np.ndarray:
    """Row i is the parity of w & masks[i] for every word w: the GF(2)-linear
    functional with that mask, read along a power table."""
    words = np.asarray(words, dtype=_U64)
    return np.array([np.bitwise_count(words & np.uint64(mask)) & 1 for mask in masks])


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

