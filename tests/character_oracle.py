"""The absolute trace and the canonical additive character of a field
element, read one element at a time from a trace mask built from the
definition of the trace, for the references that sum characters element
by element."""

from functools import cache

from gf_oracle import gf_trace


@cache
def _trace_mask(modulus):
    m = modulus.bit_length() - 1
    return sum(gf_trace(1 << i, modulus, m) << i for i in range(m))


def trace_mask(K):
    """Bit i is Tr(x^i), the sum of its conjugates by ``gf_oracle``'s
    schoolbook product, built once per modulus; it never reads the
    package's own ``K.trace_mask``."""
    return _trace_mask(K.modulus)


def abs_trace(K, u):
    return (u & trace_mask(K)).bit_count() & 1


def psi(K, u):
    """Canonical additive character: +1 iff the absolute trace is 0."""
    return 1 - 2 * abs_trace(K, u)


def rel_trace(K, sub_degree, u):
    """Tr_{K/E}(u), E = GF(2^sub_degree): the sum of the conjugates
    u^(2^(sub_degree j)), j < deg K / sub_degree, squaring by the
    bit-serial product; the sum must be fixed by u -> u^(2^sub_degree),
    i.e. lie in E."""
    assert K.degree % sub_degree == 0, "not a subfield degree"

    def frobenius(v):
        for _ in range(sub_degree):
            v = K.mul(v, v)
        return v

    total = 0
    for _ in range(K.degree // sub_degree):
        total, u = total ^ u, frobenius(u)
    assert frobenius(total) == total, "the relative trace left the subfield"
    return total
