import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import fastmld.simulate as simulate
from fastmld import (
    Code,
    ContinuousChannel,
    DiscreteChannel,
    ErasureChannel,
    InvalidParams,
    IsiChannel,
    RandomCodeSpec,
    SimConfig,
    bench_multiply,
    build_codebook_matrix,
    run_monte_carlo,
)
from fastmld.simulate import _Tally

from helpers import golay_code, hamming_code, rep3_code, toy_code


def test_noiseless_channel_never_errs():
    config = SimConfig(
        code_source=rep3_code(),
        channel=DiscreteChannel.bsc(0.0),
        trials=200,
        seed=0,
    )
    report = run_monte_carlo(config)
    assert report.word_errors == 0
    assert report.frame_error_rate == 0.0
    assert report.symbol_error_rate == 0.0


def test_report_is_reproducible():
    config = SimConfig(
        code_source=hamming_code(),
        channel=DiscreteChannel.bsc(0.05),
        trials=300,
        seed=17,
        oracle_check=True,
    )
    first = run_monte_carlo(config)
    second = run_monte_carlo(config)
    assert first.canonical_text() == second.canonical_text()
    assert first.to_json() == second.to_json()
    assert first.csv_row() == second.csv_row()
    assert first.oracle_disagreements == 0


def test_render_adds_informational_timing():
    config = SimConfig(
        code_source=rep3_code(), channel=DiscreteChannel.bsc(0.1), trials=50, seed=1
    )
    report = run_monte_carlo(config)
    rendered = report.render()
    assert rendered.startswith(report.canonical_text())
    assert "wall_time_per_decode_us" in rendered
    assert "wall_time" not in report.canonical_text()


def test_json_round_trips():
    config = SimConfig(
        code_source=rep3_code(), channel=DiscreteChannel.bsc(0.1), trials=50, seed=1
    )
    report = run_monte_carlo(config)
    payload = json.loads(report.to_json())
    assert payload["trials"] == 50
    assert payload["error_rule"] == "transmitted_not_in_ties"
    assert payload["word_errors"] == report.word_errors
    # The JSON holds the canonical fields, in their order, as raw values.
    assert list(payload) == [name for name, _ in report._fields()]
    assert payload["oracle_checked"] is False and payload["analytic_fer"] is None


def test_tie_inclusive_error_rule():
    # All-erased frames tie both repetition codewords, which counts as a
    # hit under the documented rule, so errors can be zero even at high
    # erasure rates while ties are frequent.
    config = SimConfig(
        code_source=rep3_code(),
        channel=ErasureChannel(erasure_probability=0.9),
        trials=400,
        seed=5,
        variant="erasure",
    )
    report = run_monte_carlo(config)
    assert report.tie_events > 0
    assert report.word_errors == 0


def test_random_code_source():
    config = SimConfig(
        code_source=RandomCodeSpec(q=2, n=8, k=4, seed=3),
        channel=DiscreteChannel.bsc(0.02),
        trials=100,
        seed=2,
        oracle_check=True,
    )
    report = run_monte_carlo(config)
    assert report.oracle_disagreements == 0
    assert report.trials == 100


def test_syndrome_variant_needs_linear_code():
    config = SimConfig(
        code_source=toy_code(),
        channel=DiscreteChannel.bsc(0.05),
        trials=10,
        seed=0,
        variant="syndrome",
    )
    with pytest.raises(InvalidParams):
        run_monte_carlo(config)


def test_syndrome_variant_needs_a_memoryless_channel():
    # A channel with memory is a DiscreteChannel too, and syndrome decoding refuses it.
    table = [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.1, 0.9]]
    for channel in (IsiChannel.from_probabilities(2, 1, table), DiscreteChannel(2, 2, np.log(table), memory=1)):
        config = SimConfig(code_source=hamming_code(), channel=channel, trials=50, seed=0, variant="syndrome")
        with pytest.raises(InvalidParams):
            run_monte_carlo(config)


@pytest.mark.parametrize("variant", ["ml", "list", "isi"])
def test_a_discrete_channel_with_memory_simulates_as_the_isi_channel(variant):
    probs = np.random.default_rng(41).dirichlet(np.ones(3), size=4)
    channels = (
        IsiChannel.from_probabilities(2, 1, probs, initial_symbol=2),
        DiscreteChannel(2, 3, np.log(probs), memory=1, initial_symbol=2),
    )
    reports = [
        run_monte_carlo(
            SimConfig(
                code_source=hamming_code(),
                channel=channel,
                trials=120,
                seed=9,
                variant=variant,
                list_size=3 if variant == "list" else 1,
                oracle_check=True,
            )
        )
        for channel in channels
    ]
    assert reports[0].oracle_disagreements == 0
    assert reports[0].canonical_text() == reports[1].canonical_text()


def test_variant_channel_pairing_is_checked():
    config = SimConfig(
        code_source=rep3_code(),
        channel=DiscreteChannel.bsc(0.05),
        trials=10,
        seed=0,
        variant="erasure",
    )
    with pytest.raises(InvalidParams):
        run_monte_carlo(config)
    config = SimConfig(
        code_source=rep3_code(),
        channel=ErasureChannel(erasure_probability=0.1),
        trials=10,
        seed=0,
        variant="isi",
    )
    with pytest.raises(InvalidParams):
        run_monte_carlo(config)


def test_bad_config_rejected():
    good = dict(code_source=rep3_code(), channel=DiscreteChannel.bsc(0.1), seed=0)
    with pytest.raises(InvalidParams):
        run_monte_carlo(SimConfig(trials=0, **good))
    with pytest.raises(InvalidParams):
        run_monte_carlo(SimConfig(trials=5, variant="viterbi", **good))
    with pytest.raises(InvalidParams):
        run_monte_carlo(SimConfig(trials=5, workers=0, **good))


def test_all_variants_pass_oracle_spot_check():
    rng_table = np.random.default_rng(40).dirichlet(np.ones(2), size=4)
    cases = [
        ("ml", rep3_code(), DiscreteChannel.bsc(0.1), {}),
        ("list", hamming_code(), DiscreteChannel.bsc(0.1), {"list_size": 3}),
        ("erasure", hamming_code(), ErasureChannel(erasure_probability=0.3), {}),
        ("syndrome", hamming_code(), DiscreteChannel.bsc(0.08), {}),
        ("isi", rep3_code(), IsiChannel.from_probabilities(2, 1, rng_table), {}),
        ("list", hamming_code(), IsiChannel.from_probabilities(2, 1, rng_table), {"list_size": 3}),
    ]
    for variant, source, channel, extra in cases:
        config = SimConfig(
            code_source=source,
            channel=channel,
            trials=150,
            seed=8,
            variant=variant,
            oracle_check=True,
            **extra,
        )
        report = run_monte_carlo(config)
        assert report.oracle_disagreements == 0, variant
        assert report.variant == variant


def test_workers_partition_preserves_counts():
    base = dict(
        code_source=hamming_code(),
        channel=DiscreteChannel.bsc(0.06),
        trials=301,
        seed=33,
    )
    solo = run_monte_carlo(SimConfig(**base))
    split = run_monte_carlo(SimConfig(workers=4, **base))
    # Different sample streams, identical accounting structure.
    assert split.trials == solo.trials == 301
    assert split.workers == 4
    assert 0 <= split.word_errors <= 301
    assert split.mean_decode_additions == solo.mean_decode_additions
    again = run_monte_carlo(SimConfig(workers=4, **base))
    assert again.canonical_text() == split.canonical_text()


def test_tally_merge_is_additive():
    a = _Tally(word_errors=1, symbol_errors=2, tie_events=3, disagreements=0, decode_seconds=0.5)
    b = _Tally(word_errors=4, symbol_errors=1, tie_events=0, disagreements=2, decode_seconds=0.25)
    a.ops.additions = 10
    b.ops.additions = 5
    a.merge(b)
    assert (a.word_errors, a.symbol_errors, a.tie_events, a.disagreements) == (5, 3, 3, 2)
    assert a.decode_seconds == 0.75
    assert a.ops.additions == 15


def test_mean_additions_match_kernel_prediction():
    from fastmld import build_codebook_matrix, enumerate_codewords, op_count

    linear = hamming_code()
    config = SimConfig(
        code_source=linear, channel=DiscreteChannel.bsc(0.05), trials=64, seed=9
    )
    report = run_monte_carlo(config)
    codebook = build_codebook_matrix(enumerate_codewords(linear))
    assert report.mean_decode_additions == float(op_count(codebook.factorization).additions)


def test_syndrome_mean_additions_match_kernel_prediction():
    from fastmld import build_syndrome_matrix, op_count

    # Golay's 2^11 coset syndromes: position blocks of 8 and 3 bits.
    linear = golay_code()
    config = SimConfig(
        code_source=linear, channel=DiscreteChannel.bsc(0.05), trials=64, seed=9, variant="syndrome"
    )
    report = run_monte_carlo(config)
    codebook, _ = build_syndrome_matrix(linear)
    assert report.mean_decode_additions == float(op_count(codebook.factorization).additions) == 2568.0


@pytest.mark.parametrize("linear,additions", [(golay_code(), 9460.0), (hamming_code(), 56.0)], ids=["golay", "hamming"])
def test_erasure_mean_additions_match_kernel_prediction(linear, additions):
    from fastmld import build_bipolar_codebook, enumerate_codewords, op_count

    # Golay: position blocks of 8, 8 and 7 bits; Hamming: of 4 and 3.  The
    # product is the whole decode: no affine step adds to its tally.
    config = SimConfig(code_source=linear, channel=ErasureChannel(0.2), trials=64, seed=9, variant="erasure")
    report = run_monte_carlo(config)
    codebook = build_bipolar_codebook(enumerate_codewords(linear))
    assert report.mean_decode_additions == float(op_count(codebook.factorization).additions) == additions


@pytest.mark.parametrize("channel", [DiscreteChannel.bsc(0.05), ContinuousChannel.awgn(0.8)], ids=["bsc", "awgn"])
@pytest.mark.parametrize("linear,additions", [(golay_code(), 9460.0), (hamming_code(), 56.0)], ids=["golay", "hamming"])
def test_list_mean_additions_match_kernel_prediction(linear, additions, channel):
    from fastmld import build_codebook_matrix_isi, enumerate_codewords, op_count

    # A memoryless list decode scores on the one-hot codebook's position
    # blocks, the blocks erasure decoding uses; the oracle ranks every trial.
    config = SimConfig(
        code_source=linear, channel=channel, trials=64, seed=9, variant="list", list_size=4, oracle_check=True
    )
    report = run_monte_carlo(config)
    codebook = build_codebook_matrix_isi(enumerate_codewords(linear), 0)
    assert report.mean_decode_additions == float(op_count(codebook.factorization).additions) == additions
    assert report.oracle_disagreements == 0


def test_only_memoryless_ml_scores_on_row_blocks():
    from fastmld import MailmanFactorization, TupleFactorization, enumerate_codewords

    linear = hamming_code()
    code = enumerate_codewords(linear)
    table = [[0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9]]
    memoryless = [
        DiscreteChannel.bsc(0.1),
        DiscreteChannel.from_probabilities([[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7]]),
        ContinuousChannel.awgn(0.8),
    ]
    with_memory = [
        IsiChannel.from_probabilities(2, 1, table),
        IsiChannel.from_probabilities(2, 0, table[::3]),
        DiscreteChannel(2, 2, np.log(table), memory=1),
    ]
    for channel in memoryless:
        assert isinstance(simulate._prepare("ml", code, linear, channel).factorization, MailmanFactorization)
        assert isinstance(simulate._prepare("list", code, linear, channel).factorization, TupleFactorization)
    for channel in with_memory:
        for variant in ("ml", "list", "isi"):
            structure = simulate._prepare(variant, code, linear, channel)
            assert isinstance(structure.factorization, TupleFactorization)
            assert structure.factorization.memory == channel.memory


def test_bench_rows_and_bound():
    rows = bench_multiply([16, 32], [64, 256], repetitions=1, seed=4)
    assert len(rows) == 4
    for row in rows:
        assert row.mailman_additions <= 4 * row.rows * row.cols / np.log2(row.cols) + 2 * row.cols + row.rows
        assert row.ratio == row.naive_ops / row.mailman_additions
        assert row.naive_seconds >= 0 and row.mailman_seconds >= 0


def test_bench_ratio_grows_with_columns():
    rows = bench_multiply([64], [2**8, 2**10, 2**12], repetitions=1, seed=5)
    ratios = [row.ratio for row in rows]
    assert ratios == sorted(ratios)


def test_bench_rejects_zero_repetitions():
    with pytest.raises(InvalidParams):
        bench_multiply([8], [16], repetitions=0)


@pytest.mark.parametrize("rows, cols", [([0], [16]), ([8, -1], [16]), ([], [16]), ([8], []), ([8], [1])])
def test_bench_rejects_sizes_it_cannot_measure(rows, cols):
    with pytest.raises(InvalidParams):
        bench_multiply(rows, cols, repetitions=1)


ISI_CHANNEL = IsiChannel.from_probabilities(2, 1, [[0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9]])

CHUNKED_VARIANTS = [
    ("ml", DiscreteChannel.bsc(0.1)),
    ("ml", ContinuousChannel.awgn(0.8)),
    ("list", ContinuousChannel.awgn(0.8)),
    ("erasure", ErasureChannel(erasure_probability=0.3)),
    ("syndrome", DiscreteChannel.bsc(0.1)),
    ("isi", ISI_CHANNEL),
    ("list", ISI_CHANNEL),
]


def _report_at_every_chunk_size(monkeypatch, source, trials: int, variant, channel) -> str:
    """The oracle-checked report, after checking that reruns and 1 or 7 trials per chunk repeat it."""
    config = SimConfig(
        code_source=source,
        channel=channel,
        trials=trials,
        seed=44,
        variant=variant,
        list_size=3,
        oracle_check=True,
        workers=2,
    )
    report = run_monte_carlo(config).canonical_text()
    assert run_monte_carlo(config).canonical_text() == report
    for trials_per_chunk in (1, 7):
        monkeypatch.setattr(simulate, "_chunk_trials", lambda *_: trials_per_chunk)
        assert run_monte_carlo(config).canonical_text() == report
    return report


@pytest.mark.parametrize("variant, channel", CHUNKED_VARIANTS)
def test_report_independent_of_chunk_size(monkeypatch, variant, channel):
    report = _report_at_every_chunk_size(monkeypatch, hamming_code(), 101, variant, channel)
    assert "oracle_disagreements 0\n" in report


@pytest.mark.parametrize("variant, channel", CHUNKED_VARIANTS)
def test_golay_report_independent_of_chunk_size(monkeypatch, variant, channel):
    # At S = 4096 each chunk's oracle call gathers in several blocks.
    report = _report_at_every_chunk_size(monkeypatch, golay_code(), 20, variant, channel)
    # The fast ISI product and the oracle sum each score in a different
    # order; exact tie sets make that order irrelevant.
    assert "oracle_disagreements 0\n" in report


@pytest.mark.parametrize("variant, channel", CHUNKED_VARIANTS)
def test_oracle_check_counts_every_wrong_decode(monkeypatch, variant, channel):
    decode = simulate._decode_chunk

    def wrong(*args):
        result = decode(*args)
        if variant == "list":  # the top three scores never all tie here, so a reversed list is wrong
            return dataclasses.replace(result, indices=result.indices[:, ::-1])
        if variant == "syndrome":  # at distance 3, a codeword with one bit flipped is none
            flipped = result.codeword.copy()
            flipped[:, 0] ^= 1
            return dataclasses.replace(result, codeword=flipped)
        return dataclasses.replace(result, ties=~result.ties)

    monkeypatch.setattr(simulate, "_decode_chunk", wrong)
    config = SimConfig(
        code_source=hamming_code(),
        channel=channel,
        trials=50,
        seed=5,
        variant=variant,
        list_size=3,
        oracle_check=True,
        workers=2,
    )
    assert run_monte_carlo(config).oracle_disagreements == 50


def test_chunk_size_follows_the_largest_per_trial_array():
    # A [2000, 1] repetition code scores only S = 2 codewords, but each
    # trial's likelihood row holds 4000 entries.
    code = Code(q=2, n=2000, codewords=np.array([[1] * 2000, [2] * 2000]))
    channel = DiscreteChannel.bsc(0.1)
    codebook = build_codebook_matrix(code)
    chunk = simulate._chunk_trials(codebook)
    assert chunk == simulate._CHUNK_BYTES // (8 * 4000)
    config = SimConfig(code_source=code, channel=channel, trials=300, seed=3)
    assert run_monte_carlo(config).word_errors == 0
    # Wide score rows: 8 trials at S = 2^14, fewer beyond, never none.
    for cols, expected in ((1 << 14, 8), (1 << 15, 4), (1 << 24, 1)):
        assert simulate._chunk_trials(SimpleNamespace(rows=6, cols=cols)) == expected
