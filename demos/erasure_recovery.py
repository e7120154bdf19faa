# Recover erased positions with a [7,4] Hamming code.
#
# On a pure erasure channel nothing is ever flipped, only dropped. Any
# pattern of fewer than d erasures pins down the transmitted codeword
# uniquely; at d or more the survivors can fail to separate codewords and
# the decoder reports a tie instead of guessing.

from fastmld import (
    ErasureObservation,
    build_bipolar_codebook,
    enumerate_codewords,
    erasure_decode,
    random_linear_code,
)

code = enumerate_codewords(random_linear_code(2, 7, 4, seed=42))
bipolar = build_bipolar_codebook(code)

sent = "".join(str(s - 1) for s in code.codewords[10])
print("transmitted:", sent)

for erase in ((), (1,), (1, 2), (1, 2, 4), range(7)):
    text = "".join("e" if i in erase else sent[i] for i in range(7))
    observation = ErasureObservation.from_string(text)
    result = erasure_decode(bipolar, code, observation)
    bits = "".join(str(s - 1) for s in result.best_codeword)
    print(
        f"observed {text}  ->  score {result.best_score:+.0f}, "
        f"{len(result.ties)} candidate(s), first {bits}"
    )

# each position scores -b or +b against the codeword's bit 0 or 1, where b
# is +1/-1/0 for a received 1/0/erasure, so the score is exactly (number of
# unerased positions that agree) minus (number that disagree): a clean
# match on 7 - e survivors scores 7 - e
