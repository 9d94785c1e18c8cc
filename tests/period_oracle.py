"""Pure-Python reference for the Gauss periods, kept to cross-check the
package's blocked numpy walk.

One streaming pass over K*: repeated multiplication by x with the class
index carried modulo M, exactly as the package computed the periods
before the walk was vectorised.
"""

from character_oracle import abs_trace


def gauss_periods_reference(K, M, step):
    """eta[a] = sum of psi over the a-th order-M cyclotomic class, where the
    class of x^k is k*step mod M."""
    modulus = K.modulus
    top = 1 << K.degree
    tmask = K.trace_mask
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


def trace_word_images_reference(K):
    """images[i] = the 64-bit word whose bit j is Tr(x^i * g^j), by 64 field
    products per basis element, as the walk built its lookup tables before
    they were read off one power table."""
    images = []
    for i in range(K.degree):
        u, word = 1 << i, 0
        for j in range(64):
            word |= abs_trace(K, u) << j
            u = K.mul(u, K.generator)
        images.append(word)
    return images
