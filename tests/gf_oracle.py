"""Tiny independent GF(2^m) reference implementation for cross-checking.

Deliberately naive: element = tuple of bits, multiplication by schoolbook
polynomial product followed by remainder.  Shares no code with the package.
"""


def poly_from_int(n):
    bits = []
    while n:
        bits.append(n & 1)
        n >>= 1
    return tuple(bits) if bits else (0,)


def poly_to_int(p):
    n = 0
    for i, b in enumerate(p):
        n |= (b & 1) << i
    return n


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= y
    return tuple(out)


def poly_rem(a, m):
    a = list(a)
    dm = max(i for i, b in enumerate(m) if b)
    while True:
        da = max((i for i, b in enumerate(a) if b), default=-1)
        if da < dm:
            break
        for i, b in enumerate(m):
            if b:
                a[da - dm + i] ^= 1
    return tuple(a[:dm]) if dm else (0,)


def gf_mul(a_int, b_int, modulus_int):
    prod = poly_mul(poly_from_int(a_int), poly_from_int(b_int))
    return poly_to_int(poly_rem(prod, poly_from_int(modulus_int)))


def gf_pow(a_int, e, modulus_int):
    r = 1
    b = a_int
    while e:
        if e & 1:
            r = gf_mul(r, b, modulus_int)
        b = gf_mul(b, b, modulus_int)
        e >>= 1
    return r


def gf_trace(a_int, modulus_int, m):
    t = a_int
    total = 0
    for _ in range(m):
        total ^= t
        t = gf_mul(t, t, modulus_int)
    assert total in (0, 1)
    return total


def norm_exponents(f_modulus, k_modulus, k_generator, k_order, f_order,
                   mul=None):
    """The discrete log of the norm by two scans of the order-|F*| subgroup
    <z> of K, z = g^(|K*|/|F*|): the first z^k that is a root r of F's
    modulus, then the t0 with r^t0 = z.  The embedding of F sends omega to
    r, so Norm(g) = z is the embedded omega^t0.  Returns t0.
    ``mul`` multiplies in K; it defaults to the schoolbook ``gf_mul``."""
    mul = mul or (lambda a, b: gf_mul(a, b, k_modulus))
    z = 1
    base, e = k_generator, k_order // f_order
    while e:
        if e & 1:
            z = mul(z, base)
        base = mul(base, base)
        e >>= 1
    root = 1
    for _ in range(f_order):
        acc = 0
        for i in reversed(range(f_modulus.bit_length())):
            acc = mul(acc, root) ^ ((f_modulus >> i) & 1)
        if acc == 0:
            break
        root = mul(root, z)
    else:
        raise AssertionError("no root of F's modulus in the subfield")
    t, t0 = 1, None
    for k in range(f_order):
        if t == z:
            t0 = k
            break
        t = mul(t, root)
    return t0
