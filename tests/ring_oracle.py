"""Pure-Python reference for the group-ring kernels, kept to cross-check
the package's numpy reduction and product.

Reduction is long division by Phi_M and the product is a schoolbook sum
over nonzero pairs folded modulo x^M - 1, exactly as the package computed
them before they became array code.  Coefficients are Python ints.
"""

from cycloscheme.zmring import cyclotomic_polynomial


def reduce_reference(M, coeffs):
    """The remainder of ``coeffs`` (low degree first) modulo Phi_M, as a
    length-M tuple with zeros from index phi(M) upward."""
    phi_poly = cyclotomic_polynomial(M)
    dd = len(phi_poly) - 1
    terms = [(j, d) for j, d in enumerate(phi_poly) if d]
    work = list(coeffs)
    for i in range(len(work) - 1, dd - 1, -1):
        c = work[i]
        if c:
            for j, d in terms:
                work[i - dd + j] -= c * d
    return tuple(work)


def convolve_reference(M, a, b):
    """The product of two length-M coefficient sequences in Z[x]/(x^M - 1)."""
    acc = [0] * (2 * M)
    b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in b_terms:
                acc[i + j] += ca * cb
    return tuple(x + y for x, y in zip(acc, acc[M:]))
