"""Per-character reference for the Gauss sums and their identities, kept
to cross-check the package's Z[Z_M] products.

A Gauss sum G(phi^ell) = sum_j eta_j zeta^(j ell) is the image in Z[zeta_M]
of the group-ring element sum_j eta_j [j ell] of Z[Z_M]; ``gauss_sum``
returns its canonical representative modulo Phi_M.  Each identity is
decided one nonprincipal ell at a time in Z[zeta_M], on reductions modulo
Phi_M of group-ring products, as the package once verified them.  The
periods and T1 come in as arguments, so a test can hand both routes the
same perturbed inputs.  Every identity function returns the first failing
ell (a for the expansion), or None.
"""

from cycloscheme.binfield import InternalCheckError
from ring_oracle import GroupRingElement, reduce_reference


def gauss_sum_power_vector(eta, ell):
    """Unreduced G(phi^ell) = sum_j eta_j [j ell] in Z[Z_M]: the coefficient
    at k is the sum of the periods eta_j over j with j*ell = k mod M."""
    M = len(eta)
    coeffs = [0] * M
    for j, e in enumerate(eta):
        coeffs[j * ell % M] += int(e)
    return coeffs


def gauss_sum(eta, ell):
    """G(phi^ell), reduced modulo Phi_M."""
    return GroupRingElement(len(eta), tuple(gauss_sum_power_vector(eta, ell))).reduce()


def recover_period_from_sums(M, sum_vectors, a):
    """eta_a from the M Gauss sums via the expansion
    eta_a = (1/M) * sum_l G(phi^(-l)) * zeta^(l*a), exactly in Z[zeta_M].

    ``sum_vectors[ell]`` is the unreduced power vector of G(phi^ell).
    Raises if the combination fails to collapse to a rational integer
    divisible by M.
    """
    total = [0] * M
    for ell in range(M):
        for j, c in enumerate(sum_vectors[-ell % M]):
            total[(j + ell * a) % M] += c
    reduced = reduce_reference(M, total)
    if any(reduced[1:]) or reduced[0] % M:
        raise InternalCheckError("period expansion is not an integer multiple of M")
    return reduced[0] // M


def _first_failing(M, holds):
    return next((ell for ell in range(1, M) if not holds(ell)), None)


def t1_identity(eta_f, T1, q):
    """G_F(ell) == q * sum over x in T1 of zeta^(ell x)."""
    M = len(eta_f)
    return _first_failing(M, lambda ell: gauss_sum(eta_f, ell) == GroupRingElement.from_set(
        M, [ell * x % M for x in T1]).scale(q).reduce())


def hasse_davenport(eta_f, eta_k, lift_degree):
    """G_K(ell) == -G_F(ell)^2 (degree 2) or G_F(ell)^3 (degree 3)."""
    sign = -1 if lift_degree == 2 else 1

    def holds(ell):
        base = power = gauss_sum(eta_f, ell)
        for _ in range(lift_degree - 1):
            power = (power * base).reduce()
        return gauss_sum(eta_k, ell) == power.scale(sign)

    return _first_failing(len(eta_f), holds)


def modulus(eta, size):
    """G(ell) * conj(G(ell)) == size."""
    M = len(eta)
    target = GroupRingElement.identity(M).scale(size)

    def holds(ell):
        g = gauss_sum(eta, ell)
        return (g * g.involute()).reduce() == target

    return _first_failing(M, holds)


def conjugation(eta):
    """conj(G(ell)) == G(M - ell)."""
    M = len(eta)
    return _first_failing(M, lambda ell: gauss_sum(eta, ell).involute().reduce()
                          == gauss_sum(eta, M - ell))


def expansion(eta):
    """The first a whose period the expansion from all M Gauss sums misses."""
    M = len(eta)
    vectors = [gauss_sum_power_vector(eta, ell) for ell in range(M)]
    return next((a for a in range(M)
                 if recover_period_from_sums(M, vectors, a) != eta[a]), None)
