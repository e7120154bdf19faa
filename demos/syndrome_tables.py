"""Table-driven syndrome decoding for the [7,4] Hamming code.

Instead of scoring all 16 codewords, the decoder computes the 3-bit
syndrome of the received word and looks up which of the 8 cosets it lands
in. The coset match is itself a fast vector-matrix product: the syndrome's
one-hot encoding times a small binary matrix whose columns encode every
possible syndrome, giving the Hamming distance to each coset signature.
The matrix is factorized by blocks of consecutive syndrome bits, each
tabulating only the patterns its bits can form.
The unique zero identifies the coset; subtracting its minimum-weight
leader corrects the error.
"""

import numpy as np

from fastmld import (
    LinearCode,
    build_syndrome_matrix,
    coset_leaders,
    op_count,
    parity_check_from_generator,
    syndrome_decode,
)

linear = LinearCode(
    q=2,
    n=7,
    k=4,
    generator=np.array(
        [
            [1, 0, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
    ),
)
parity = parity_check_from_generator(linear)
print("parity check matrix:")
print(parity)

leaders = coset_leaders(linear)
print("\ncoset leaders (row i corrects syndrome i):")
for i, leader in enumerate(leaders):
    print(f"  {i:03b} -> {''.join(map(str, leader))}  weight {leader.sum()}")

syndrome_matrix, leaders = build_syndrome_matrix(linear)
fact = syndrome_matrix.factorization
print(f"\nsyndrome matrix is {syndrome_matrix.rows}x{syndrome_matrix.cols},",
      f"factorized into {fact.patterns.shape[0]} block(s) of up to {fact.span} positions;",
      f"a product takes {op_count(fact).additions} additions")

rng = np.random.default_rng(0)
codeword = rng.integers(0, 2, size=7)
# force it onto the code: re-encode the first 4 bits
message = codeword[:4]
codeword = (message @ linear.generator) % 2
received = codeword.copy()
received[3] ^= 1

result = syndrome_decode(linear, leaders, syndrome_matrix, received)
print("\nsent     :", "".join(map(str, codeword)))
print("received :", "".join(map(str, received)))
print("corrected:", "".join(map(str, result.codeword)))
print("used leader", result.leader_index, "=", "".join(map(str, leaders[result.leader_index])))
