# Decoding through a channel with one symbol of memory.
#
# Each output depends on the current input and the previous one, so the
# likelihood of a codeword is a product over (previous, current) pairs.
# The codebook matrix indexes rows by those pairs instead of by single
# symbols and everything downstream stays the same.
#
# The transition table below models a channel that echoes the current bit
# reliably when it repeats the previous one and gets noisy on changes.

import numpy as np

from fastmld import (
    Code,
    IsiChannel,
    build_codebook_matrix_isi,
    esd_decode,
    ml_decode,
    sample_channel,
)

table = np.array(
    [
        # outputs:  0     1        (previous, current)
        [0.95, 0.05],  # 0, 0
        [0.60, 0.40],  # 0, 1
        [0.40, 0.60],  # 1, 0
        [0.05, 0.95],  # 1, 1
    ]
)
channel = IsiChannel.from_probabilities(2, 1, table)

words = np.array([[1, 1, 1, 1, 1], [1, 2, 1, 2, 1], [2, 2, 1, 1, 2], [2, 2, 2, 2, 2]])
code = Code(q=2, n=5, codewords=words)
codebook = build_codebook_matrix_isi(code, memory=1)
print("codebook rows:", codebook.rows, "(n x q^(L+1) =", f"{5} x {4})")

rng = np.random.default_rng(7)
errors = 0
checked = 0
for _ in range(500):
    index = int(rng.integers(code.size))
    received = sample_channel(channel, code.codewords[index], rng)
    result = ml_decode(codebook, code, channel, received)
    reference = esd_decode(code, channel, received)
    assert result.ties == reference.ties
    errors += result.best_index != index + 1
    checked += 1

print(f"sequence errors: {errors}/{checked} (brute-force oracle agreed on all)")
