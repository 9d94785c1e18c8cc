"""Exact arithmetic in GF(2**m) and construction of the nested field tower.

Field elements are plain ints: bit i is the coefficient of x**i of the
polynomial-basis representative.  A modulus bit mask includes the leading
coefficient, so x**3 + x + 1 is 0b1011.  Everything here is exact integer
work; there is no floating point anywhere in the package.  Squaring reads
a per-field table of the linear map u -> u**2, and a power of x is a chain
of squarings and shifts, so the modulus search and its certificates never
run the bit-serial product.

Every walk over a cyclic group of field elements is ``power_blocks``, a
loop over bit-sliced tables of base**i: deg K Python ints, bit i of int t
being bit t of base**i.  ``power_table`` builds one by doubling, each step
a GF(2)-linear map (multiplication by a constant) applied to the slices;
a linear functional along a table is the XOR of the slices its mask
selects (ORed over masks by ``odd_parities``).  Towers: s <= 7 (degree 63).
"""

import math
from functools import cache, cached_property, reduce
from operator import or_, xor


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
    if f < 0:  # every loop on a negative bit mask would run forever
        raise FieldError(f"modulus {f:#x} is negative")
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
    The powers x^(2^d) come from one chain of table squarings, and the
    primes of deg f from the ``_prime_factors`` cache that every candidate
    of one degree shares.
    """
    m = poly_degree(f)
    if m < 1:
        raise FieldError("modulus must have positive degree")
    if m == 1:
        return None
    if not (f & 1):
        return 1  # x divides f
    divisors = [m // p for p in _prime_factors(m)]
    if not f.bit_count() & 1:
        return divisors[0]  # x + 1 divides f and every x^(2^d) - x
    ring = BinaryField(m, f)  # squaring is arithmetic mod f, a field or not
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


# Deterministic Miller-Rabin bases, the first 13 primes: they decide every n
# below psi_13 = 3317044064679887385961981 (> 3.3e24), the least strong
# pseudoprime to all 13 (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

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


@cache
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes of n, ascending, found once per n: trial division
    below 2^10, then Miller-Rabin and Pollard rho on the cofactor (exact for
    n < 3.3e24)."""
    factors = set()
    d = 2
    while d * d <= n and d < 1 << 10:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            factors.add(m)
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return tuple(sorted(factors))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _lookup_rows(images: list[int], width: int) -> list[list[int]]:
    """Lookup tables of the GF(2)-linear map bit i -> images[i]: row k takes
    ``width``-bit chunk k of an input to the XOR of its bits' images."""
    rows = []
    for k in range(0, len(images), width):
        row = [0]
        for image in images[k:k + width]:
            row += [v ^ image for v in row]
        rows.append(row)
    return rows


class BinaryField:
    """GF(2**degree) with a fixed modulus; elements are int bit masks.

    The generator is the residue of x, primitive for every modulus that
    :func:`build_field` accepts; in GF(2), modulus x + 1, that residue is 1.
    """

    def __init__(self, degree: int, modulus: int):
        self.degree = degree
        self.modulus = modulus
        self.size = 1 << degree
        self.order = self.size - 1
        self.generator = self.times_x(1)

    def __repr__(self) -> str:
        return f"BinaryField(degree={self.degree}, modulus={self.modulus:#x})"

    # -- ring operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        f = self.modulus
        top = self.size
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
        return a ^ self.modulus if a & self.size else a

    def x_multiples(self, c: int, count: int) -> list[int]:
        """c * x**i for 0 <= i < count, by repeated shift-and-reduce."""
        out = [c]
        for _ in range(count - 1):
            out.append(self.times_x(out[-1]))
        return out

    @cached_property
    def _square_rows(self) -> list[list[int]]:
        """``_lookup_rows`` of u -> u**2 mod f, bit i to x**(2i): a lookup per
        nibble both spreads the bits and reduces the high half, and 16-entry
        rows are cheap to build for every modulus the search squares with."""
        return _lookup_rows(self.x_multiples(1, 2 * self.degree - 1)[::2], 4)

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
        """Bit i is the absolute trace of x**i, the sum of its conjugates
        (x**i)**(2**j), so Tr(u) is the parity of u & trace_mask."""
        mask = 0
        for i, u in enumerate(self.x_multiples(1, self.degree)):
            t = 0
            for _ in range(self.degree):
                t, u = t ^ u, self.square(u)
            if t > 1:
                raise InternalCheckError(f"Tr(x**{i}) = {t:#x} is not in GF(2)")
            mask |= t << i
        return mask

    @cached_property
    def powers(self) -> list[int]:
        """x**k for 0 <= k < |K*| as Python ints, for the class and set
        computations that index and hash them; meant for fields small
        enough to enumerate."""
        return self.x_multiples(1, self.order)


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

# The supported tower range: H = GF(2^(9s)) of degree at most 64, so
# s <= 7, until a cost model of each target replaces this size limit.
DEGREE_LIMIT = 64


def _apply(images: list[int], table: list[int]) -> list[int]:
    """The slices of a bit-sliced table under the GF(2)-linear map sending
    x**i to images[i]: each slice i is XORed into the output slice of
    every set bit of its image."""
    out = [0] * len(table)
    for image, word in zip(images, table):
        j = 0
        while image:
            if image & 1:
                out[j] ^= word
            image >>= 1
            j += 1
    return out


def power_table(K: BinaryField, base: int, count: int) -> list[int]:
    """base**i for 0 <= i < count, bit-sliced: deg K ints, bit i of int t
    being bit t of base**i.  The table doubles by appending itself times
    step = base**len, the linear map of the images step * x**t."""
    table, length, step = [1] + [0] * (K.degree - 1), 1, base
    while length < count:
        table = [word | image << length for word, image
                 in zip(table, _apply(K.x_multiples(step, K.degree), table))]
        length, step = 2 * length, K.square(step)
    keep = (1 << count) - 1
    return [word & keep for word in table]


# Exponents per block of a walk, so bits per slice: 0.3 MB of slices at degree 36
_BLOCK = 1 << 16


def power_blocks(K: BinaryField, base: int, count: int):
    """base**i for i < count in blocks (start, width, table) of at most
    L = ``_BLOCK`` exponents: table holds base**(start + i) bit-sliced, for
    i < width (later bits are spare).  The first is ``power_table``'s and
    each next one the last times base**L.  Read to the end, the walk moves
    on once more, and that times base**(-start - L) must be the first."""
    L = min(count, _BLOCK)
    first = table = power_table(K, base, L)
    advance = K.x_multiples(K.pow(base, L), K.degree)
    for start in range(0, count, L):
        yield start, min(L, count - start), table
        table = _apply(advance, table)
    if _apply(K.x_multiples(K.pow(base, -start - L), K.degree), table) != first:
        raise InternalCheckError("power walk did not return to its start")


def odd_parities(table: list[int], masks) -> int:
    """Bit i is set when u_i has odd parity against some mask, along a
    bit-sliced table of the u_i: the OR of the masks' parity words, each the
    XOR of the slices its mask selects (its functional along the table)."""
    odd = 0
    for mask in masks:
        word, t = 0, 0
        while mask:
            if mask & 1:
                word ^= table[t]
            mask >>= 1
            t += 1
        odd |= word
    return odd


def parity_string(K: BinaryField, masks: list[int]) -> str:
    """Character k is '1' when generator**k has odd parity against some
    mask, read block by block along the powers of K*, as a string whose
    strided slices and counts read the exponent classes."""
    return "".join(format(odd_parities(table, masks) & ((1 << width) - 1),
                          f"0{width}b")[::-1]
                   for _, width, table in power_blocks(K, K.generator, K.order))


def trace_forms(K: BinaryField, elements) -> list[int]:
    """m[a], the mask of the functional u -> Tr(a*u), for every a in
    ``elements``: bit j of m[a] is Tr(a x^j).  a -> m[a] is GF(2)-linear,
    x^i mapping to the Hankel row whose bit j is Tr(x^(i+j)); it is read
    from the ``_lookup_rows`` of that map, one per byte of a."""
    n = K.degree
    trace = [(u & K.trace_mask).bit_count() & 1 for u in K.x_multiples(1, 2 * n - 1)]
    rows = _lookup_rows([sum(bit << j for j, bit in enumerate(trace[i:i + n]))
                        for i in range(n)], 8)
    out = []
    for a in elements:
        m = 0
        for row in rows:
            m ^= row[a & 255]
            a >>= 8
        out.append(m)
    return out


def relative_trace_forms(K: BinaryField, sub_degree: int,
                         elements: list[int]) -> list[list[int]]:
    """For every a in ``elements``, the ``trace_forms`` masks of
    u -> Tr(beta^i a u), i < sub_degree, beta = g^(|K*|/(2^sub_degree - 1))
    a generator of E* = GF(2^sub_degree)*.  The beta^i span E over GF(2)
    and E's trace form is nondegenerate, so Tr_{K/E}(a u) = 0 iff u has
    even parity against every one of the masks of a."""
    beta = K.pow(K.generator, K.order // ((1 << sub_degree) - 1))
    betas = [K.pow(beta, i) for i in range(sub_degree)]
    forms = trace_forms(K, [K.mul(b, a) for b in betas for a in elements])
    return [forms[j::len(elements)] for j in range(len(elements))]


def build_field(m: int, modulus: int | None = None) -> BinaryField:
    """GF(2**m) with the given modulus, or the lexicographically smallest
    primitive polynomial of degree m when none is supplied."""
    if m < 1:
        raise FieldError("degree must be >= 1")
    if m == 1:
        if modulus is not None and modulus != 0b11:
            raise FieldError("degree-1 modulus must be x + 1")
        return BinaryField(1, 0b11)
    if modulus is not None and poly_degree(modulus) != m:
        raise FieldError(f"modulus {modulus:#x} does not have degree {m}")
    # a wrong squaring table would refuse every candidate: check it once
    ring = BinaryField(m, modulus or (1 << m) | 1)
    if any(ring.square(1 << i) != ring.mul(1 << i, 1 << i) for i in range(m)):
        raise InternalCheckError("table squaring disagrees with the product")
    # a user modulus is the one candidate, and its refusal says why
    for candidate in [modulus] if modulus is not None else range((1 << m) | 1, 1 << (m + 1), 2):
        d = irreducibility_certificate(candidate)
        K = BinaryField(m, candidate)
        # x is primitive unless x**(|K*|/p) = 1 for a prime p: stop at the first
        if d is None and all(K.pow(0b10, K.order // p) != 1 for p in _prime_factors(K.order)):
            return K
        if modulus is not None:
            raise (ReducibleModulusError(modulus, d) if d is not None
                   else NonPrimitiveModulusError(modulus, _order_of_x(K)))
    raise InternalCheckError(f"no primitive polynomial of degree {m} found")


def modulus_to_hex(modulus: int) -> str:
    return format(modulus, "x")


def modulus_from_hex(text: str) -> int:
    return int(text, 16)


def _minimal_polynomial(K: BinaryField, z: int, degree: int) -> int:
    """The minimal polynomial over GF(2) of z in K, of the given degree, as
    a bit mask: the product of y - z**(2**j) over its conjugates, j < degree
    (Lidl and Niederreiter, Finite Fields, Thm 2.14).  Raises unless the
    conjugates close up, z**(2**degree) = z, and every coefficient is 0 or 1."""
    g, c = [1], z  # coefficients over K, constant first
    for _ in range(degree):
        g, c = [a ^ K.mul(c, b) for a, b in zip([0] + g, g + [0])], K.square(c)
    if c != z or any(a > 1 for a in g):
        raise InternalCheckError(f"z has no minimal polynomial of degree {degree} over GF(2)")
    return sum(a << i for i, a in enumerate(g))


# ---------------------------------------------------------------------------
# the field tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Nested binary fields E, F, G, H of degrees s, 3s, 6s, 9s; F embeds
    into G and H by omega -> ``roots[label]``, and the order-M classes of G
    and H are the classes of F pulled back by the norm."""

    def __init__(self, s: int, E: BinaryField, F: BinaryField,
                 G: BinaryField, H: BinaryField):
        self.s = s
        self.E = E
        self.F = F
        self.G = G
        self.H = H
        self.M = (1 << (2 * s)) + (1 << s) + 1
        self.omega = F.generator
        (root_G, step_G), (root_H, step_H) = map(self._root_and_step, (G, H))
        self.roots = {"G": root_G, "H": root_H}
        self._steps = {"F": 1, "G": step_G, "H": step_H}

    # -- construction helpers -------------------------------------------------

    def _find_subfield_root(self, K: BinaryField, z: int) -> int:
        """The smallest k with z**k a root of F's modulus f, z of order
        |F*| in K: f(z**k) is the XOR of (z**i)**k over the terms x**i of
        f.  With i = o * 2**j, o odd, that is (z**o)**k under the j-th
        Frobenius map u -> u**(2**j), so only the ``power_blocks`` of the
        z**o are walked, each term one ``_apply`` of the images x**(t 2**j).
        The first block where the OR of the value's slices has a zero bit
        holds the root."""
        f = self.F.modulus
        terms = [(i >> j, j) for i in range(1, f.bit_length()) if f >> i & 1
                 for j in [(i & -i).bit_length() - 1]]
        odd = sorted({o for o, _ in terms})
        frobenius = [K.x_multiples(1, K.degree)]  # frobenius[j][t] = x**(t 2**j)
        while len(frobenius) <= max(j for _, j in terms):
            frobenius.append([K.square(u) for u in frobenius[-1]])
        for blocks in zip(*(power_blocks(K, K.pow(z, o), self.F.order) for o in odd)):
            tables = {o: table for o, (_, _, table) in zip(odd, blocks)}
            images = [_apply(frobenius[j], tables[o]) if j else tables[o] for o, j in terms]
            start, width, _ = blocks[0]
            words = [reduce(xor, slices) for slices in zip(*images)]
            words[0] ^= (1 << width) - 1  # the term 1: f is irreducible of degree > 1
            zeros = ~reduce(or_, words) & ((1 << width) - 1)
            if zeros:
                return start + (zeros & -zeros).bit_length() - 1
        raise InternalCheckError("no root of F's modulus in the subfield")

    def _root_and_step(self, K: BinaryField) -> tuple[int, int]:
        """Embed F into K by omega = x -> z**k, the first root of F's modulus
        among the powers of z = Norm(g) = g**(|K*|/|F*|).  y -> z maps
        GF(2)[y]/(minimal polynomial of z) onto F's copy in K, so k is found
        there, at degree 3s, as the first root among the powers of y;
        f(z**k) = 0 is rechecked in K by Horner's rule.  Then z is
        omega**(k^-1), so Norm(g**n) lies in class n * k^-1 mod M.  Returns
        the root, the image of omega, and that class step."""
        F = self.F
        z = K.pow(K.generator, K.order // F.order)
        image = BinaryField(F.degree, _minimal_polynomial(K, z, F.degree))
        k = self._find_subfield_root(image, 0b10)
        root = K.pow(z, k)
        value = reduce(lambda acc, i: K.mul(acc, root) ^ (F.modulus >> i & 1),
                       reversed(range(F.modulus.bit_length())), 0)
        if value:
            raise InternalCheckError("the embedded omega is not a root of F's modulus")
        return root, pow(k, -1, self.M)

    # -- public surface --------------------------------------------------------

    def field(self, label: str) -> BinaryField:
        try:
            return {"E": self.E, "F": self.F, "G": self.G, "H": self.H}[label]
        except KeyError:
            raise FieldError(f"unknown field label {label!r}") from None

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
    if 9 * s > DEGREE_LIMIT:
        raise FieldError(f"H = GF(2^{9 * s}) is outside the supported range "
                         f"(degree <= {DEGREE_LIMIT}, so s <= {DEGREE_LIMIT // 9}) "
                         "until a cost model of each target replaces this limit")
    E = build_field(s)
    F = build_field(3 * s, mod_f)
    G = build_field(6 * s, mod_g)
    H = build_field(9 * s, mod_h)
    return FieldTower(s, E, F, G, H)

