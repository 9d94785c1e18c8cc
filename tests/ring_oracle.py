"""Pure-Python reference for the group ring Z[Z_M] and its quotient
Z[zeta_M], kept to cross-check the package's int64 arrays.

Phi_M comes from dividing x^M - 1 by Phi_d for each proper divisor d.
A product is one Kronecker-substituted integer product: the product in
Z[Z_M] folds it modulo x^M - 1, and reduction modulo Phi_M takes two,
through the cofactor (x^M - 1) / Phi_M.  Coefficients are Python ints.
``GroupRingElement`` wraps reduction and product for the per-character
Gauss-sum oracle and for ``partition_identities``, the ten identities of
Lemma 2 and the difference-set remarks computed element by element.
"""

from dataclasses import dataclass
from functools import cache

from cycloscheme.zmring import GroupRingError


def _divide(num, den):
    """Long division by a monic polynomial (coefficients low degree first).
    Returns the quotient and leaves the remainder in ``num``: its first
    len(den) - 1 entries, with zeros above."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    dd = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den) if d]
    quotient = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quotient[i - dd] = c
            for j, d in terms:
                num[i - dd + j] -= c * d
    return quotient


@cache
def cyclotomic_polynomial(M):
    """Coefficients of Phi_M, low degree first: x^M - 1 divided exactly by
    Phi_d for every proper divisor d of M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            quotient = _divide(poly, cyclotomic_polynomial(d))
            if any(poly):
                raise ValueError("division not exact")
            poly = quotient
    return tuple(poly)


@cache
def _cofactor(M):
    """(x^M - 1) / Phi_M, low degree first."""
    return tuple(_divide([-1] + [0] * (M - 1) + [1], cyclotomic_polynomial(M)))


def reduce_reference(M, coeffs):
    """The remainder of the M coefficients ``coeffs`` (low degree first)
    modulo Phi_M, as a length-M tuple with zeros from index phi(M) upward.
    With P = (x^M - 1) / Phi_M and N = Q Phi_M + R, N P = Q x^M + (R P - Q),
    where R P and Q have degree below M; so Q is N P without its M lowest
    terms, and R = N - Q Phi_M takes two products, not a long division."""
    if len(coeffs) != M:
        raise ValueError(f"{len(coeffs)} coefficients, expected {M}")
    phi = cyclotomic_polynomial(M)
    Q = _product(coeffs, _cofactor(M))[M:]
    R = tuple(n - c for n, c in zip(coeffs, _product(Q, phi) if Q else [0] * M))
    if any(R[len(phi) - 1:]):
        raise ValueError("the remainder modulo Phi_M is not reduced")
    return R


def _product(a, b):
    """The plain product of two coefficient sequences, by Kronecker
    substitution: each sequence is packed into one integer, its value at
    x = 2^w, and one integer product is the product's value there, read
    back as len(a) + len(b) - 1 balanced base-2^w digits.  No coefficient
    of a, b or the product reaches (sum |a| + 1)(max |b| + 1), so w bits
    above that bound keep the digits apart."""
    bound = (sum(abs(c) for c in a) + 1) * (max(abs(c) for c in b) + 1)
    width = bound.bit_length() // 8 + 1  # bytes per digit, so half > bound
    half = 1 << (8 * width - 1)

    def biased(n):  # the packing of n zeros: every digit is half
        return int.from_bytes(half.to_bytes(width, "little") * n, "little")

    def pack(seq):
        digits = b"".join((int(c) + half).to_bytes(width, "little") for c in seq)
        return int.from_bytes(digits, "little") - biased(len(seq))

    n = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + biased(n)).to_bytes(n * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, len(raw), width)]


def convolve_reference(M, a, b):
    """The product of two length-M coefficient sequences in Z[x]/(x^M - 1):
    the plain product folded modulo x^M - 1."""
    full = _product(a, b)
    return tuple(x + y for x, y in zip(full, full[M:] + [0]))


@dataclass(frozen=True)
class GroupRingElement:
    """An element of Z[Z_M]; ``reduce`` gives its canonical representative
    in Z[zeta_M], so two elements are equal there exactly when their
    reductions are equal."""
    M: int
    coeffs: tuple

    def __post_init__(self):
        if self.M < 1:
            raise GroupRingError("modulus must be >= 1")
        if len(self.coeffs) != self.M:
            raise GroupRingError(
                f"coefficient array has length {len(self.coeffs)}, expected {self.M}")

    @classmethod
    def from_set(cls, M, S):
        coeffs = [0] * M
        for i in S:
            if not (0 <= i < M):
                raise GroupRingError(f"residue {i} out of range [0, {M})")
            coeffs[i] += 1
        return cls(M, tuple(coeffs))

    @classmethod
    def identity(cls, M):
        return cls(M, (1,) + (0,) * (M - 1))

    @classmethod
    def all_ones(cls, M):
        return cls(M, (1,) * M)

    def _same_ring(self, other):
        if other.M != self.M:
            raise GroupRingError("modulus mismatch")
        return other.coeffs

    def __add__(self, other):
        return GroupRingElement(self.M, tuple(
            a + b for a, b in zip(self.coeffs, self._same_ring(other))))

    def __sub__(self, other):
        return GroupRingElement(self.M, tuple(
            a - b for a, b in zip(self.coeffs, self._same_ring(other))))

    def scale(self, k):
        return GroupRingElement(self.M, tuple(k * a for a in self.coeffs))

    def __mul__(self, other):
        return GroupRingElement(self.M, convolve_reference(
            self.M, self.coeffs, self._same_ring(other)))

    def involute(self):
        """Coefficient at i moves to -i mod M."""
        return GroupRingElement(self.M, self.coeffs[:1] + self.coeffs[:0:-1])

    def augmentation(self):
        return sum(self.coeffs)

    def reduce(self):
        return GroupRingElement(self.M, reduce_reference(self.M, self.coeffs))


def from_set(M, S):
    return GroupRingElement.from_set(M, S)


def involute(a):
    return a.involute()


def partition_identities(part, s):
    """check name -> (lhs, rhs) for the ten identities that
    ``zmring.verify_lemma2``, ``verify_remark_eqs`` and
    ``delta_square_check`` decide, as the package computed them on
    group-ring elements before they became int64 arrays."""
    M = part.M
    T1, T2, T3 = (from_set(M, T) for T in part.blocks)
    Z = GroupRingElement.all_ones(M)
    one = GroupRingElement.identity(M)
    q, h = 1 << s, 1 << (s - 1)
    delta = T2 - T3
    T1inv = T1.involute()
    T1sq = T1 * T1
    return {
        "delta*T1inv": (delta * T1inv, T1.scale(q)),
        "delta*T2inv": (delta * T2.involute(), one.scale(q * h) + (Z - T1).scale(h)),
        "delta*T3inv": (delta * T3.involute(), one.scale(-q * h) + (Z - T1).scale(h)),
        "T1*T1inv": (T1 * T1inv, one.scale(q) + Z),
        "T1*T2inv": (T1 * T2.involute(), T1inv.scale(h) + Z.scale(h) - one.scale(h)),
        "T1*T3inv": (T1 * T3.involute(), T1inv.scale(-h) + Z.scale(h) - one.scale(h)),
        "T1^2*T1inv": (T1sq * T1inv, T1.scale(q) + Z.scale(q + 1)),
        "T1^2*T2inv": (T1sq * T2.involute(),
                       one.scale(h * q) + Z.scale(q + h * q) - T1.scale(h)),
        "T1^2*T3inv": (T1sq * T3.involute(), one.scale(-h * q) + Z.scale(h * q) - T1.scale(h)),
        "delta*deltainv": (delta * delta.involute(), one.scale(q * q)),
    }
