"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one summary line per
check. Frozen values come from hand computation or from the exhaustive
oracle; the tolerances are contractual and must not be loosened to make a
failing build pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fastmld import (
    addition_bound,
    bench_multiply,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    build_syndrome_matrix,
    Code,
    ContinuousChannel,
    DiscreteChannel,
    enumerate_codewords,
    erasure_decode,
    ErasureObservation,
    esd_decode,
    factorize,
    isi_ml_decode,
    IsiChannel,
    list_decode,
    ml_decode,
    op_count,
    OpCount,
    random_linear_code,
    run_monte_carlo,
    sample_channel,
    SimConfig,
    syndrome_decode,
    vec_times_matrix,
)
from fastmld.mailman import BinaryMatrix

from helpers import all_words, hamming_code, toy_channel, toy_code


def _report(label, ok, detail):
    print(f"[acceptance] {label} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{label}: {detail}"


def _score_gap(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def test_worked_example():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    channel = toy_channel()
    received = np.array([1, 1, 1])

    a, b = math.log(0.9), math.log(0.1)
    expected = np.array([2 * a + b, 2 * a + b, 2 * a + b, 3 * b])

    result = ml_decode(codebook, code, channel, received)
    rel = float(np.max(np.abs(result.scores - expected) / np.abs(expected)))

    for _ in range(3):
        ml_decode(codebook, code, channel, received)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        ml_decode(codebook, code, channel, received)
        times.append(time.perf_counter() - t0)
    decode_ms = sorted(times)[2] * 1e3

    ok = rel <= 1e-12 and result.ties == (1, 2, 3) and decode_ms < 1.0
    _report(
        "worked-example", ok,
        f"max_rel={rel:.2e} ties={result.ties} decode_ms={decode_ms:.3f}",
    )


def test_oracle_equivalence_memoryless():
    t0 = time.perf_counter()

    # exhaustive, exact tie sets: every binary word of length 7
    code = enumerate_codewords(hamming_code())
    codebook = build_codebook_matrix(code)
    channel = DiscreteChannel.bsc(0.1)
    tie_breaks = 0
    worst = 0.0
    for word in all_words(2, 7):
        got = ml_decode(codebook, code, channel, word)
        ref = esd_decode(code, channel, word)
        tie_breaks += got.ties != ref.ties
        worst = max(worst, _score_gap(got.scores, ref.scores))

    # exhaustive over a random nonlinear ternary code on a random symmetric
    # channel; equal-distance codewords tie exactly there, and the two score
    # paths group a tie class identically only up to rounding, so both sides
    # collapse ties at the score tolerance
    rng = np.random.default_rng(20260816)
    picks = rng.choice(3**5, size=16, replace=False)
    words = np.zeros((16, 5), dtype=np.int64)
    for i, value in enumerate(picks):
        for j in range(5):
            words[i, 4 - j] = value % 3
            value //= 3
    ternary = Code(q=3, n=5, codewords=words + 1)
    ternary_book = build_codebook_matrix(ternary)
    qsc = DiscreteChannel.symmetric(3, float(rng.uniform(0.05, 0.30)))
    for word in all_words(3, 5):
        got = ml_decode(ternary_book, ternary, qsc, word, tie_tolerance=1e-9)
        ref = esd_decode(ternary, qsc, word, tie_tolerance=1e-9)
        tie_breaks += got.ties != ref.ties
        worst = max(worst, _score_gap(got.scores, ref.scores))

    # randomized soft-decision instances
    soft_trials = 0
    for sigma in (0.5, 1.0):
        channel = ContinuousChannel.awgn(sigma)
        for _ in range(5000):
            sent = code.codewords[rng.integers(code.size)]
            received = sample_channel(channel, sent, rng)
            got = ml_decode(codebook, code, channel, received)
            ref = esd_decode(code, channel, received)
            tie_breaks += got.ties != ref.ties
            worst = max(worst, _score_gap(got.scores, ref.scores))
            soft_trials += 1

    elapsed = time.perf_counter() - t0
    ok = tie_breaks == 0 and worst <= 1e-9 and elapsed < 60.0
    _report(
        "oracle-equivalence", ok,
        f"cases={128 + 243 + soft_trials} tie_mismatches={tie_breaks} "
        f"max_rel={worst:.2e} elapsed_s={elapsed:.1f}",
    )


def test_kernel_matches_naive_product():
    rng = np.random.default_rng(7)
    shapes = [(4, 4), (4, 8192), (512, 4), (512, 8192)]
    while len(shapes) < 500:
        rows = int(np.exp(rng.uniform(np.log(4), np.log(512))))
        cols = int(np.exp(rng.uniform(np.log(4), np.log(8192))))
        shapes.append((rows, cols))

    worst = 0.0
    bound_ok = True
    for rows, cols in shapes:
        dense = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        matrix = BinaryMatrix.from_dense(dense)
        vector = rng.standard_normal(rows)
        ops = OpCount()
        got = vec_times_matrix(vector, factorize(matrix), ops=ops)
        ref = vector @ dense
        worst = max(worst, _score_gap(got, ref))
        bound_ok &= ops.additions <= addition_bound(rows, cols)

    ok = worst <= 1e-12 and bound_ok
    _report(
        "kernel-equivalence", ok,
        f"cases={len(shapes)} max_rel={worst:.2e} bound_holds={bound_ok}",
    )


def test_list_matches_sorted_ranking():
    rng = np.random.default_rng(11)
    checked = 0
    exact = True
    prefixes = True
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k + 1, 13))
        code = enumerate_codewords(random_linear_code(2, n, k, seed=int(rng.integers(2**31))))
        codebook = build_codebook_matrix(code)
        channel = ContinuousChannel.awgn(float(rng.uniform(0.3, 1.2)))
        sent = code.codewords[rng.integers(code.size)]
        received = sample_channel(channel, sent, rng)

        ref = esd_decode(code, channel, received)
        order = np.lexsort((np.arange(code.size), -ref.scores)) + 1

        previous = ()
        for size in (1, 2, 4, code.size):
            listed = list_decode(codebook, code, channel, received, list_size=size)
            exact &= listed.indices == tuple(order[:size])
            prefixes &= listed.indices[: len(previous)] == previous
            previous = listed.indices
            checked += 1

    ok = exact and prefixes
    _report(
        "list-ranking", ok,
        f"lists={checked} ranking_exact={exact} prefix_property={prefixes}",
    )


def test_erasure_recovery_and_score_identity():
    linear = hamming_code()
    code = enumerate_codewords(linear)
    bipolar = build_bipolar_codebook(code)

    unique = True
    score_ok = True
    patterns = 0
    for word in code.codewords:
        bits = "".join(str(int(s) - 1) for s in word)
        for n_erased in range(3):
            for spots in itertools.combinations(range(7), n_erased):
                text = "".join("e" if i in spots else bits[i] for i in range(7))
                observation = ErasureObservation.from_string(text)
                result = erasure_decode(bipolar, code, observation)
                unique &= result.ties == (int(np.flatnonzero((code.codewords == word).all(axis=1))[0]) + 1,)
                score_ok &= result.best_score == 7 - n_erased
                patterns += 1

    # score identity: every score equals the unerased length minus twice the
    # mismatches, checked on codes holding every word of length n
    identity_ok = True
    for n in range(1, 7):
        full = Code(q=2, n=n, codewords=all_words(2, n))
        full_bipolar = build_bipolar_codebook(full)
        bits_matrix = full.codewords - 1
        for values in itertools.product((1, 0, -1), repeat=n):
            observation = ErasureObservation(values=np.array(values))
            scores = erasure_decode(full_bipolar, full, observation).scores
            known = np.array(values) >= 0
            mism = ((bits_matrix != np.array(values)) & known).sum(axis=1)
            expected = known.sum() - 2 * mism
            identity_ok &= np.array_equal(scores, expected.astype(float))

    ok = unique and score_ok and identity_ok
    _report(
        "erasure", ok,
        f"patterns={patterns} unique={unique} scores_exact={score_ok} "
        f"identity_exhaustive={identity_ok}",
    )


def test_syndrome_hamming_exhaustive():
    linear = hamming_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    code = enumerate_codewords(linear)
    codewords_bits = code.codewords - 1

    shape_ok = (syndrome_matrix.rows, syndrome_matrix.cols) == (6, 8)
    kernel_ok = syndrome_matrix.factorization is not None

    distance_ok = True
    zero_ok = True
    ops_ok = True
    for word in all_words(2, 7):
        bits = word - 1
        ops = OpCount()
        result = syndrome_decode(linear, leaders, syndrome_matrix, bits, ops=ops)
        brute = int(np.abs(codewords_bits - bits).sum(axis=1).min())
        distance_ok &= int(np.abs(result.codeword - bits).sum()) == brute
        zero_ok &= result.distances[result.leader_index] == 0
        ops_ok &= ops == op_count(syndrome_matrix.factorization)

    ok = shape_ok and kernel_ok and distance_ok and zero_ok and ops_ok
    _report(
        "syndrome", ok,
        f"words=128 matrix=6x8 factorized={kernel_ok} min_distance={distance_ok} "
        f"matched_zero={zero_ok} ops_exact={ops_ok}",
    )


def test_isi_tie_agreement():
    rng = np.random.default_rng(13)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        size = int(rng.integers(2, min(32, 2**n) + 1))
        picks = rng.choice(2**n, size=size, replace=False)
        words = ((picks[:, None] >> np.arange(n - 1, -1, -1)) & 1) + 1
        code = Code(q=2, n=n, codewords=words)
        memory = int(rng.integers(1, 3))
        outputs = int(rng.integers(2, 5))
        table = rng.dirichlet(np.ones(outputs), size=2 ** (memory + 1))
        channel = IsiChannel.from_probabilities(2, memory, table)
        codebook = build_codebook_matrix_isi(code, memory)

        sent = code.codewords[rng.integers(code.size)]
        received = sample_channel(channel, sent, rng)
        # two words sharing the same multiset of (tuple, output) pairs tie
        # exactly for any table, so both sides collapse rounding noise
        got = isi_ml_decode(codebook, code, channel, received, tie_tolerance=1e-9)
        ref = esd_decode(code, channel, received, tie_tolerance=1e-9)
        mismatches += got.ties != ref.ties

    ok = mismatches == 0
    _report("isi", ok, f"trials=1000 tie_mismatches={mismatches}")


def test_opcount_speedup_shape():
    bench = bench_multiply([64], [2**10, 2**12, 2**14, 2**16], repetitions=1, seed=3)

    ratios = [row.ratio for row in bench]
    monotone = all(b >= a for a, b in zip(ratios, ratios[1:]))
    floor_ok = all(
        row.ratio >= math.log2(row.cols) / 8 for row in bench
    )

    ok = monotone and floor_ok
    detail = " ".join(f"S=2^{int(math.log2(r.cols))}:{r.ratio:.2f}" for r in bench)
    _report("speedup", ok, f"{detail} monotone={monotone} floor={floor_ok}")


def test_monte_carlo_reproducibility():
    p = 0.01
    analytic = 1 - (1 - p) ** 7 - 7 * p * (1 - p) ** 6
    config = SimConfig(
        code_source=hamming_code(),
        channel=DiscreteChannel.bsc(p),
        trials=100_000,
        seed=20260816,
        oracle_check=True,
        analytic_fer=analytic,
    )
    report = run_monte_carlo(config)
    rerun = run_monte_carlo(config)

    fer_ok = abs(report.frame_error_rate - analytic) <= 0.30 * analytic
    stable = report.canonical_text() == rerun.canonical_text()
    clean = report.oracle_disagreements == 0

    ok = fer_ok and stable and clean
    _report(
        "monte-carlo", ok,
        f"fer={report.frame_error_rate:.3e} analytic={analytic:.3e} "
        f"disagreements={report.oracle_disagreements} rerun_identical={stable}",
    )
