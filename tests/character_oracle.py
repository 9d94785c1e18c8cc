"""The absolute trace and the canonical additive character of a field
element, read from the field's trace mask one element at a time, for the
references that sum characters element by element."""


def abs_trace(K, u):
    return (u & K.trace_mask).bit_count() & 1


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
