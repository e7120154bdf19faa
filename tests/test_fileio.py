import numpy as np
import pytest

from fastmld import (
    ContinuousChannel,
    DiscreteChannel,
    ErasureChannel,
    ErasureObservation,
    InvalidParams,
    IsiChannel,
    ObservationOutOfAlphabet,
)
from fastmld.fileio import (
    parse_channel_spec,
    parse_received_word,
    read_channel_file,
    read_code_file,
    read_linear_code_file,
    read_observations,
    write_code_file,
    write_linear_code_file,
)

from helpers import hamming_code, toy_code


def test_code_file_round_trip(tmp_path):
    path = tmp_path / "toy.code"
    write_code_file(path, toy_code())
    loaded = read_code_file(path)
    assert loaded.q == 2 and loaded.n == 3 and loaded.size == 4
    np.testing.assert_array_equal(loaded.codewords, toy_code().codewords)


def test_code_file_comments_and_blanks(tmp_path):
    path = tmp_path / "c.code"
    path.write_text("# toy\n\n2 2 2\n1 1  # inline note\n\n2 2\n")
    loaded = read_code_file(path)
    np.testing.assert_array_equal(loaded.codewords, [[1, 1], [2, 2]])


def test_code_file_errors(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("2 3\n")
    with pytest.raises(InvalidParams):
        read_code_file(path)
    path.write_text("2 3 1\n1 1\n")
    with pytest.raises(InvalidParams):
        read_code_file(path)
    with pytest.raises(InvalidParams):
        read_code_file(tmp_path / "missing.code")


def test_linear_code_file_round_trip(tmp_path):
    path = tmp_path / "hamming.gen"
    write_linear_code_file(path, hamming_code())
    loaded = read_linear_code_file(path)
    assert (loaded.q, loaded.n, loaded.k) == (2, 7, 4)
    np.testing.assert_array_equal(loaded.generator, hamming_code().generator)


def test_channel_file_bsc(tmp_path):
    path = tmp_path / "chan"
    path.write_text("kind bsc\np 0.15\n")
    chan = read_channel_file(path)
    assert isinstance(chan, DiscreteChannel)
    np.testing.assert_allclose(np.exp(chan.log_transition), [[0.85, 0.15], [0.15, 0.85]])


def test_channel_file_dmc(tmp_path):
    path = tmp_path / "chan"
    path.write_text("kind dmc\nq 2\nrow 0.7 0.2 0.1\nrow 0.1 0.2 0.7\n")
    chan = read_channel_file(path)
    assert chan.output_alphabet_size == 3
    np.testing.assert_allclose(np.exp(chan.log_transition[0]), [0.7, 0.2, 0.1])


def test_channel_file_isi(tmp_path):
    path = tmp_path / "chan"
    path.write_text(
        "kind isi-dmc\nq 2\nmemory 1\ninitial_symbol 2\n"
        "row 0.9 0.1\nrow 0.2 0.8\nrow 0.7 0.3\nrow 0.1 0.9\n"
    )
    chan = read_channel_file(path)
    assert isinstance(chan, IsiChannel)
    assert chan.memory == 1
    assert chan.initial_symbol == 2


def test_channel_spec_shorthands():
    bsc = parse_channel_spec("bsc:0.1")
    assert isinstance(bsc, DiscreteChannel) and bsc.q == 2
    qsc = parse_channel_spec("qsc:5,0.2")
    assert qsc.q == 5
    awgn = parse_channel_spec("awgn:0.8")
    assert isinstance(awgn, ContinuousChannel)
    assert awgn.sigma == 0.8
    custom = parse_channel_spec("awgn:1.0,0,1,2")
    assert custom.q == 3
    erase = parse_channel_spec("erasure:0.25")
    assert isinstance(erase, ErasureChannel)
    assert erase.erasure_probability == 0.25


def test_channel_spec_falls_back_to_file(tmp_path):
    path = tmp_path / "my.chan"
    path.write_text("kind bsc\np 0.3\n")
    chan = parse_channel_spec(str(path))
    assert isinstance(chan, DiscreteChannel)
    with pytest.raises(InvalidParams):
        parse_channel_spec("nosuchthing:1.0")


def test_parse_received_binary_bits_map_to_symbols():
    chan = DiscreteChannel.bsc(0.1)
    np.testing.assert_array_equal(parse_received_word("010", chan), [1, 2, 1])
    np.testing.assert_array_equal(parse_received_word("0 1 0", chan), [1, 2, 1])
    # A channel with two outputs takes bits only.
    with pytest.raises(ObservationOutOfAlphabet):
        parse_received_word("1 2 1", chan)
    with pytest.raises(ObservationOutOfAlphabet):
        parse_received_word("121", chan)


def test_parse_received_larger_alphabets():
    chan = DiscreteChannel.symmetric(3, 0.1)
    np.testing.assert_array_equal(parse_received_word("132", chan), [1, 3, 2])
    np.testing.assert_array_equal(parse_received_word("1,3,2", chan), [1, 3, 2])
    wide = DiscreteChannel.from_probabilities(np.full((2, 12), 1 / 12))
    np.testing.assert_array_equal(parse_received_word("10 3 12", wide), [10, 3, 12])
    # Binary input, three outputs: output symbols as typed, never shifted.
    three = DiscreteChannel.from_probabilities([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]])
    np.testing.assert_array_equal(parse_received_word("1 1 1", three), [1, 1, 1])
    np.testing.assert_array_equal(parse_received_word("0 0 0", three), [0, 0, 0])


def test_parse_received_continuous_and_erasure():
    awgn = ContinuousChannel.awgn(1.0)
    np.testing.assert_allclose(parse_received_word("0.25,-1.5", awgn), [0.25, -1.5])
    np.testing.assert_allclose(parse_received_word("0.25 -1.5", awgn), [0.25, -1.5])
    erase = ErasureChannel(erasure_probability=0.1)
    obs = parse_received_word("1e0", erase)
    assert isinstance(obs, ErasureObservation)
    assert str(obs) == "1e0"


def test_parse_received_rejects_garbage():
    chan = DiscreteChannel.bsc(0.1)
    with pytest.raises(InvalidParams):
        parse_received_word("", chan)
    with pytest.raises(ObservationOutOfAlphabet):
        parse_received_word("01x", chan)
    awgn = ContinuousChannel.awgn(1.0)
    with pytest.raises(InvalidParams):
        parse_received_word("1.0,abc", awgn)


def test_read_observations(tmp_path):
    path = tmp_path / "obs"
    path.write_text("# three received words\n000\n101\n\n110\n")
    words = read_observations(path, DiscreteChannel.bsc(0.1))
    assert len(words) == 3
    np.testing.assert_array_equal(words[1], [2, 1, 2])
