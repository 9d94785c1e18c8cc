"""The absolute trace and the canonical additive character of a field
element, read from the field's trace mask one element at a time, for the
references that sum characters element by element."""


def abs_trace(K, u):
    return (u & K.trace_mask).bit_count() & 1


def psi(K, u):
    """Canonical additive character: +1 iff the absolute trace is 0."""
    return 1 - 2 * abs_trace(K, u)
