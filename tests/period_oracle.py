"""References for the Gauss periods, kept to cross-check the package's
period kernel (trace-zero counts over E*-orbits, one residue per
Frobenius orbit).

``gauss_periods_reference`` is one pure-Python pass over K*: repeated
multiplication by x with the class index carried modulo M.
``gauss_periods_walk`` is the numpy walk the package used before the
kernel: the absolute trace of every element of K*, read 64 exponents at a
time from byte tables of the trace sequence Tr(x^k).
"""

import numpy as np

from character_oracle import abs_trace, trace_mask
from numpy_oracle import apply_tables, byte_tables, mul_tables, power_table


def gauss_periods_reference(K, M, step):
    """eta[a] = sum of psi over the a-th order-M cyclotomic class, where the
    class of x^k is k*step mod M."""
    modulus = K.modulus
    top = 1 << K.degree
    tmask = trace_mask(K)
    eta = [0] * M
    u = 1
    c = 0
    for _ in range(K.order):
        if (u & tmask).bit_count() & 1:
            eta[c] -= 1
        else:
            eta[c] += 1
        u <<= 1
        if u & top:
            u ^= modulus
        c += step
        if c >= M:
            c -= M
    assert u == 1, "walk did not return to 1"
    return eta


def _trace_word_tables(K):
    """u -> the 64-bit word whose bit j is Tr(u * x^j): the basis element
    x^i maps to the 64 bits of the trace sequence from Tr(x^i), which the
    shift-by-x recurrence x^(k+1) = x * x^k produces."""
    sequence, u = [], 1
    for _ in range(K.degree + 63):
        sequence.append(abs_trace(K, u))
        u <<= 1
        if u >> K.degree:
            u ^= K.modulus
    return byte_tables([sum(bit << j for j, bit in enumerate(sequence[i:i + 64]))
                         for i in range(K.degree)])


def gauss_periods_walk(K, M, step, chunk_words=1 << 14):
    """The periods from the number of trace-one elements g^k in each residue
    class k = r (mod M), g = x: a chunk holds M*c states g^(k0 + 64 i), one
    table lookup turns each into its next 64 trace bits and one more
    (multiplication by g^L, L = 64 M c) moves it to the next chunk."""
    assert K.generator == 0b10
    g = K.generator
    n_words = M * max(1, min(chunk_words, K.order // 64) // M)
    L = 64 * n_words
    to_words = _trace_word_tables(K)
    advance = mul_tables(K, K.pow(g, L))
    states = start = power_table(K, K.pow(g, 64), n_words)
    ones = np.zeros(M, dtype=np.int64)
    for walked in range(0, K.order, L):
        bits = np.unpackbits(apply_tables(to_words, states).view(np.uint8), bitorder="little")
        bits[K.order - walked:] = 0
        ones += bits.reshape(-1, M).sum(axis=0, dtype=np.int64)
        states = apply_tables(advance, states)
    assert np.array_equal(apply_tables(mul_tables(K, K.pow(g, -(walked + L))), states), start)
    assert int(ones.sum()) == 1 << (K.degree - 1)
    eta = [0] * M
    for r, count in enumerate(ones.tolist()):
        eta[r * step % M] = K.order // M - 2 * count
    return eta
