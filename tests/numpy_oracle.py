"""The numpy kernels the package ran before its kernels moved to Python
ints, kept as references to cross-check the new ones.

- ``power_table``: base**i as uint64 words, doubled with byte lookup
  tables of GF(2)-linear maps (``byte_tables``, ``apply_tables``,
  ``mul_tables``); ``unslice`` turns a bit-sliced table into its elements.
- ``convolve_folded``: the product in Z[Z_M], ``np.convolve`` folded
  modulo x^M - 1, exact while sum |a| * max |b| stays below 2^63.
- ``dft_matrix``: the number-theoretic DFT as int64 matrix-vector products
  in blocks of rows.
- ``walsh_hadamard_columns``: the element census as int64 Walsh-Hadamard
  butterflies over (K, +), read at the trace-form masks.
"""

import numpy as np

U64 = np.dtype("<u8")


def byte_tables(images):
    """Lookup tables of the GF(2)-linear map sending bit i to images[i]:
    row b takes byte b of the input to its share of the image, filled by
    XOR-doubling so that row[v | 2^j] = row[v] ^ image of bit j."""
    tables = np.zeros(((len(images) + 7) // 8, 256), dtype=U64)
    for i, image in enumerate(images):
        row, bit = tables[i // 8], i % 8
        row[1 << bit:2 << bit] = row[:1 << bit] ^ np.uint64(image)
    return tables


def apply_tables(tables, words):
    """The linear map encoded by ``tables`` applied to every word."""
    octets = np.asarray(words, dtype=U64).view(np.uint8).reshape(-1, 8)
    out = tables[0][octets[:, 0]]
    for b in range(1, len(tables)):
        out ^= tables[b][octets[:, b]]
    return out


def mul_tables(K, c):
    """Byte tables of u -> c*u in K: bit i of u maps to c * x**i."""
    return byte_tables(K.x_multiples(c, K.degree))


def power_table(K, base, count):
    """base**i for 0 <= i < count as uint64 words (degree <= 64): the table
    doubles by appending itself times base**len, one lookup per word."""
    table, step = np.ones(1, dtype=U64), base  # step = base**len(table)
    while len(table) < count:
        table = np.concatenate([table, apply_tables(mul_tables(K, step), table)])
        step = K.square(step)
    return table[:count]


def unslice(table, count):
    """The elements of a bit-sliced table: bit i of element t is bit t of
    table[i]."""
    return [sum((word >> t & 1) << i for i, word in enumerate(table)) for t in range(count)]


def convolve_folded(a, b):
    """a * b in Z[Z_M] as int64: np.convolve folded modulo x^M - 1."""
    M = len(a)
    bound = sum(abs(int(x)) for x in a) * max(abs(int(x)) for x in b)
    assert bound < 1 << 63, "the int64 product would wrap"
    full = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    cyclic = full[:M].copy()
    cyclic[:M - 1] += full[M:]
    return cyclic.tolist()


def dft_matrix(values, M, p, r, rows=64):
    """out[m] = sum_j values[j] r^(j m) mod p: one int64 matrix-vector
    product, the matrix gathered in blocks of rows from the powers of r.
    Both factors are residues below p, so no sum reaches M (p-1)^2."""
    assert M * (p - 1) ** 2 < 1 << 63
    powers = np.array([pow(r, k, p) for k in range(M)], dtype=np.int64)
    x = np.array([v % p for v in values], dtype=np.int64)
    out = np.empty(M, dtype=np.int64)
    for start in range(0, M, rows):
        m = np.arange(start, min(start + rows, M))[:, None]
        out[start:start + len(m)] = powers[m * np.arange(M) % M] @ x % p
    return out.tolist()


def trace_form_masks(K):
    """m[a], the mask of x -> Tr(g^a x), for every a: bit j is the parity of
    g^a & L_j, where bit i of the Hankel mask L_j is Tr(x^(i+j))."""
    n = K.degree
    trace = [(u & K.trace_mask).bit_count() & 1 for u in K.x_multiples(1, 2 * n - 1)]
    words = np.asarray(K.powers, dtype=U64)
    masks = np.zeros(len(words), dtype=U64)
    for j in range(n):
        hankel = sum(bit << i for i, bit in enumerate(trace[j:j + n]))
        masks |= (np.bitwise_count(words & np.uint64(hankel)) & 1).astype(U64) << np.uint64(j)
    return masks.astype(np.int64)


def walsh_hadamard_columns(K, blocks):
    """Column b, entry a: W_S[m[a]], W_S the Walsh-Hadamard transform of the
    indicator of S = {g^k : k in b}, in deg K butterfly stages of int64
    adds; |W_S| <= |S|, so it is exact."""
    W = np.zeros((len(blocks), K.size), dtype=np.int64)
    for row, b in zip(W, blocks):
        row[[K.powers[k] for k in b]] = 1
    for j in range(K.degree):
        pairs = W.reshape(len(blocks), -1, 2, 1 << j)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        W = np.stack([low + high, low - high], axis=2).reshape(len(blocks), -1)
    return W[:, trace_form_masks(K)].tolist()
