import json

import numpy as np
import pytest

import fastmld.simulate as simulate
from fastmld import build_syndrome_matrix, enumerate_codewords
from fastmld.cli import main
from fastmld.fileio import write_code_file, write_linear_code_file

from helpers import golay_code, hamming_code, rep3_code, toy_code


@pytest.fixture
def toy_code_file(tmp_path):
    path = tmp_path / "toy.code"
    write_code_file(path, toy_code())
    return str(path)


@pytest.fixture
def rep3_file(tmp_path):
    path = tmp_path / "rep3.gen"
    write_linear_code_file(path, rep3_code())
    return str(path)


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "hamming.gen"
    write_linear_code_file(path, hamming_code())
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_decode_worked_case(toy_code_file, capsys):
    code = main(["decode", "--code", toy_code_file, "--channel", "bsc:0.1", "--rx", "000"])
    assert code == 0
    out = lines_of(capsys)
    assert out[0] == "word 000"
    assert out[1] == "best_index 1"
    assert out[3] == "ties 1 2 3"
    assert out[5] == "codeword 001"
    assert out[4].startswith("scores ")
    assert len(out[4].split()) == 5


def test_decode_oracle_agreement(toy_code_file, capsys):
    code = main(
        ["decode", "--code", toy_code_file, "--channel", "bsc:0.1", "--rx", "000", "--oracle"]
    )
    assert code == 0
    out = lines_of(capsys)
    assert "oracle_ties 1 2 3" in out
    assert "oracle_match 1" in out


def test_decode_usage_error_without_code():
    with pytest.raises(SystemExit) as err:
        main(["decode", "--channel", "bsc:0.1", "--rx", "000"])
    assert err.value.code == 2


def test_decode_domain_error_is_exit_one(toy_code_file, capsys):
    code = main(["decode", "--code", toy_code_file, "--channel", "bsc:0.1", "--rx", "0000"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(toy_code_file):
    with pytest.raises(SystemExit) as err:
        main(["decode", "--code", toy_code_file, "--channel", "bsc:0.1", "--rx", "000", "--bogus"])
    assert err.value.code == 2


def test_decode_rx_file(toy_code_file, tmp_path, capsys):
    rx = tmp_path / "words"
    rx.write_text("000\n111\n")
    assert main(["decode", "--code", toy_code_file, "--channel", "bsc:0.1", "--rx-file", str(rx)]) == 0
    out = lines_of(capsys)
    assert sum(line.startswith("word ") for line in out) == 2
    assert "word 111" in out


def test_list_decode(toy_code_file, capsys):
    code = main(
        [
            "list-decode", "--code", toy_code_file, "--channel", "bsc:0.1",
            "--rx", "000", "--list-size", "3", "--oracle",
        ]
    )
    assert code == 0
    out = lines_of(capsys)
    assert out[1].startswith("rank 1 index 1 ")
    assert out[2].startswith("rank 2 index 2 ")
    assert out[3].startswith("rank 3 index 3 ")
    assert "oracle_match 1" in out


def test_erasure_decode(rep3_file, capsys):
    assert main(["erasure-decode", "--gen", rep3_file, "--rx", "1e1", "--oracle"]) == 0
    out = lines_of(capsys)
    assert "codeword 111" in out
    assert "erasures 1" in out
    assert "oracle_match 1" in out


def test_syndrome_decode(rep3_file, capsys):
    assert main(["syndrome-decode", "--gen", rep3_file, "--rx", "110", "--oracle"]) == 0
    out = lines_of(capsys)
    assert "leader_index 1" in out
    assert "leader 001" in out
    assert "codeword 111" in out
    assert "oracle_match 1" in out


def counted_enumerations(monkeypatch) -> list:
    """Records every code the decode commands enumerate (through the simulation's code source)."""
    calls = []

    def counting(linear):
        calls.append(linear)
        return enumerate_codewords(linear)

    monkeypatch.setattr(simulate, "enumerate_codewords", counting)
    return calls


def test_syndrome_decode_oracle_enumerates_the_code_once(hamming_file, tmp_path, capsys, monkeypatch):
    calls = counted_enumerations(monkeypatch)
    rx = tmp_path / "words"
    rx.write_text("1110000\n0000000\n1011010\n0100101\n")
    assert main(["syndrome-decode", "--gen", hamming_file, "--rx-file", str(rx), "--oracle"]) == 0
    out = lines_of(capsys)
    assert sum(line.startswith("word ") for line in out) == 4
    assert out.count("oracle_match 1") == 4
    assert len(calls) == 1


def test_syndrome_decode_without_oracle_never_enumerates_the_code(
    hamming_file, tmp_path, capsys, monkeypatch
):
    calls = counted_enumerations(monkeypatch)
    rx = tmp_path / "words"
    rx.write_text("1110000\n0000000\n1011010\n")
    assert main(["syndrome-decode", "--gen", hamming_file, "--rx-file", str(rx)]) == 0
    assert lines_of(capsys).count("codeword 1110000") == 1
    assert calls == []


def test_syndrome_oracle_checks_the_received_word(hamming_file, capsys, monkeypatch):
    # Leaders moved by a nonzero codeword keep their syndromes, so 1000000
    # decodes to 1111111 at distance 6, not to its nearest codeword 0000000.
    def heavier(linear, parity_check=None):
        matrix, leaders = build_syndrome_matrix(linear, parity_check)
        return matrix, (leaders + linear.generator.sum(axis=0)) % 2

    monkeypatch.setattr(simulate, "build_syndrome_matrix", heavier)
    assert main(["syndrome-decode", "--gen", hamming_file, "--rx", "1000000", "--oracle"]) == 1
    out = lines_of(capsys)
    assert "codeword 1111111" in out
    assert out[-2:] == ["oracle_ties 1", "oracle_match 0"]


def test_isi_decode(toy_code_file, tmp_path, capsys):
    # decode takes an isi-dmc channel file and scores each (symbol, predecessor) pair.
    chan = tmp_path / "isi.chan"
    chan.write_text(
        "kind isi-dmc\nq 2\nmemory 1\n"
        "row 0.9 0.1\nrow 0.2 0.8\nrow 0.7 0.3\nrow 0.1 0.9\n"
    )
    code = main(
        ["decode", "--code", toy_code_file, "--channel", str(chan), "--rx", "010", "--oracle"]
    )
    assert code == 0
    assert lines_of(capsys) == [
        "word 010",
        "best_index 3",
        "best_score -0.6851790109107685",
        "ties 3",
        "scores -2.7646205525906042 -2.9187712324178627 -0.6851790109107685 -2.7646205525906042",
        "codeword 100",
        "oracle_ties 3",
        "oracle_match 1",
    ]


def test_inspect_format(toy_code_file, capsys):
    assert main(["inspect", "--code", toy_code_file]) == 0
    assert lines_of(capsys) == ["q=2 n=3 S=4, M: 6x4, blocks=3"]


def test_simulate_text_and_json(hamming_file, capsys):
    args = [
        "simulate", "--gen", hamming_file, "--channel", "bsc:0.02",
        "--trials", "200", "--seed", "6", "--oracle",
    ]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "oracle_disagreements 0" in text
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 200
    assert payload["oracle_disagreements"] == 0
    assert main(args + ["--csv"]) == 0
    header, row = lines_of(capsys)
    assert header.split(",")[0] == "variant"
    assert row.split(",")[0] == "ml"


def test_simulate_requires_exactly_one_code_source(hamming_file):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--channel", "bsc:0.1", "--trials", "10"])
    assert err.value.code == 2


def test_simulate_random_code(capsys):
    code = main(
        [
            "simulate", "--random-code", "2,8,4,1", "--channel", "awgn:0.9",
            "--trials", "100", "--seed", "2", "--variant", "list", "--list-size", "2",
            "--oracle",
        ]
    )
    assert code == 0
    assert "oracle_disagreements 0" in capsys.readouterr().out


def test_bench_output(capsys):
    assert main(["bench", "--rows", "16", "--cols", "64,128", "--reps", "1"]) == 0
    out = lines_of(capsys)
    assert out[0].startswith("rows cols naive_ops")
    assert len(out) == 3


@pytest.mark.parametrize(
    "sizes",
    [["--rows", "0", "--cols", "16"], ["--rows", "", "--cols", "16"], ["--rows", "8", "--cols", ""],
     ["--rows", "8", "--cols", "1"]],
    ids=["rows-0", "rows-empty", "cols-empty", "cols-1"],
)
def test_bench_refuses_sizes_it_cannot_measure(capsys, sizes):
    # A zero-row matrix took no additions, so its ratio divided by zero; an
    # empty list measured nothing and exited 0.
    assert main(["bench"] + sizes + ["--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_gen_code_round_trip(tmp_path, capsys):
    out_path = tmp_path / "random.gen"
    assert main(["gen-code", "--q", "2", "--n", "7", "--k", "4", "--seed", "5", "--out", str(out_path)]) == 0
    first = out_path.read_text()
    assert main(["gen-code", "--q", "2", "--n", "7", "--k", "4", "--seed", "5", "--out", str(out_path)]) == 0
    assert out_path.read_text() == first  # deterministic per seed
    capsys.readouterr()
    assert main(["inspect", "--gen", str(out_path)]) == 0
    assert "S=16" in capsys.readouterr().out


ISI_CHANNEL = "kind isi-dmc\nq 2\nmemory 1\nrow 0.9 0.1\nrow 0.2 0.8\nrow 0.7 0.3\nrow 0.1 0.9\n"


def _bits(rng, n: int, count: int) -> list[str]:
    return ["".join(map(str, rng.integers(0, 2, n))) for _ in range(count)]


def _file_cases():
    """(command, code file, extra arguments, words): every decode command and channel kind."""
    rng = np.random.default_rng(12)
    soft = [", ".join(repr(float(v)) for v in np.round(rng.normal(0, 1.2, 7), 3)) for _ in range(5)]
    erased = ["".join(rng.choice(list("01e"), 7, p=[0.4, 0.4, 0.2])) for _ in range(6)]
    golay_erased = [word.replace("1", "e", 2) for word in _bits(rng, 23, 40)]
    bsc, awgn, isi = ["--channel", "bsc:0.05"], ["--channel", "awgn:0.8"], ["--channel", "isi"]
    case = pytest.param
    return [
        case("decode", "toy", bsc, ["000", "111", "010", "101"], id="decode-toy-bsc"),
        case("decode", "hamming", awgn, soft, id="decode-hamming-awgn"),
        case("decode", "golay", bsc, _bits(rng, 23, 41), id="decode-golay-bsc"),
        case("list-decode", "hamming", bsc + ["--list-size", "4"], _bits(rng, 7, 6), id="list-hamming"),
        case("list-decode", "hamming", awgn + ["--list-size", "3"], soft, id="list-hamming-awgn"),
        case("erasure-decode", "hamming", ["--tie-tol", "1"], erased, id="erasure-hamming"),
        case("erasure-decode", "golay", [], golay_erased, id="erasure-golay"),
        case("syndrome-decode", "hamming", [], _bits(rng, 7, 6), id="syndrome-hamming"),
        case("syndrome-decode", "golay", [], _bits(rng, 23, 70), id="syndrome-golay"),
        case("decode", "toy", isi, ["010", "111", "000"], id="isi-toy"),
        case("decode", "hamming", isi, _bits(rng, 7, 5), id="isi-hamming"),
        case("decode", "hamming", isi, _bits(rng, 7, 5), id="decode-hamming-isi"),
        case("list-decode", "toy", isi + ["--list-size", "3"], ["010", "111"], id="list-toy-isi"),
        case("list-decode", "hamming", isi + ["--list-size", "4"], _bits(rng, 7, 5), id="list-hamming-isi"),
    ]


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
@pytest.mark.parametrize("command, code, extra, words", _file_cases())
def test_rx_file_prints_each_words_rx_record(
    tmp_path, capsys, monkeypatch, command, code, extra, words, oracle
):
    files = {"toy": tmp_path / "toy.code", "hamming": tmp_path / "h.gen", "golay": tmp_path / "g.gen"}
    write_code_file(files["toy"], toy_code())
    write_linear_code_file(files["hamming"], hamming_code())
    write_linear_code_file(files["golay"], golay_code())
    (tmp_path / "isi.chan").write_text(ISI_CHANNEL)
    flag = "--code" if code == "toy" else "--gen"
    extra = [str(tmp_path / "isi.chan") if arg == "isi" else arg for arg in extra]
    base = [command, flag, str(files[code])] + extra + oracle
    singles = []
    for word in words:
        status = main(base + ["--rx", word])
        singles.append((status, capsys.readouterr().out))
    decode = simulate._decode_chunk
    chunks = []
    monkeypatch.setattr(simulate, "_decode_chunk", lambda *args: chunks.append(1) or decode(*args))
    rx = tmp_path / "words"
    rx.write_text("\n".join(words) + "\n")
    status = main(base + ["--rx-file", str(rx)])
    assert capsys.readouterr().out == "\n".join(out for _, out in singles)
    assert status == max(s for s, _ in singles)
    # Golay chunks hold 32 words (64 for syndrome decoding), so these files decode in two.
    assert len(chunks) == (2 if code == "golay" else 1)


@pytest.mark.parametrize("code", ["toy", "hamming"])
def test_decode_and_list_decode_take_an_isi_channel_file(tmp_path, capsys, code):
    chan = tmp_path / "isi.chan"
    chan.write_text(ISI_CHANNEL)
    if code == "toy":
        source, word = ["--code", str(tmp_path / "toy.code")], "010"
        write_code_file(tmp_path / "toy.code", toy_code())
    else:
        source, word = ["--gen", str(tmp_path / "h.gen")], "0110100"
        write_linear_code_file(tmp_path / "h.gen", hamming_code())
    base = source + ["--channel", str(chan), "--rx", word, "--oracle"]
    assert main(["decode"] + base) == 0
    out = lines_of(capsys)
    assert out[0] == f"word {word}"
    assert out[-1] == "oracle_match 1"
    assert main(["list-decode"] + base + ["--list-size", "3"]) == 0
    out = lines_of(capsys)
    assert out[0] == f"word {word}"
    assert [line.split()[:2] for line in out[1:4]] == [["rank", "1"], ["rank", "2"], ["rank", "3"]]
    assert out[-1] == "oracle_match 1"


def test_received_words_are_read_by_the_channels_output_alphabet(toy_code_file, tmp_path, capsys):
    # Two outputs take bits only.
    assert main(["decode", "--code", toy_code_file, "--channel", "bsc:0.1", "--rx", "2 2 2"]) == 1
    assert "bits 0/1" in capsys.readouterr().err
    # Binary input, three outputs: the word holds 1-based output symbols.
    chan = tmp_path / "three.chan"
    chan.write_text("kind dmc\nrow 0.8 0.15 0.05\nrow 0.05 0.15 0.8\n")
    base = ["decode", "--code", toy_code_file, "--channel", str(chan), "--oracle"]
    assert main(base + ["--rx", "1 1 1"]) == 0
    out = lines_of(capsys)
    assert out[0] == "word 1 1 1"
    assert out[3] == "ties 1 2 3"  # as for bits 000: the weight-one codewords tie
    assert main(base + ["--rx", "3 3 3"]) == 0
    assert lines_of(capsys)[:2] == ["word 3 3 3", "best_index 4"]
    assert main(base + ["--rx", "0 0 0"]) == 1
    assert "must lie in 1..3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        pytest.param("decode", ["--channel", "bsc:0.1"], id="decode"),
        pytest.param("list-decode", ["--channel", "bsc:0.1", "--list-size", "2"], id="list-decode"),
        pytest.param("erasure-decode", [], id="erasure-decode"),
        pytest.param("syndrome-decode", [], id="syndrome-decode"),
        pytest.param("decode", ["--channel", "isi"], id="decode-isi"),
    ],
)
def test_a_wrong_length_word_in_a_file_is_a_domain_error(hamming_file, tmp_path, capsys, command, extra):
    chan = tmp_path / "isi.chan"
    chan.write_text(ISI_CHANNEL)
    extra = [str(chan) if arg == "isi" else arg for arg in extra]
    rx = tmp_path / "words"
    rx.write_text("0000000\n111\n1010101\n")
    assert main([command, "--gen", hamming_file, "--rx-file", str(rx)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


_ISI_ROWS = ISI_CHANNEL[ISI_CHANNEL.index("row") :]


@pytest.mark.parametrize(
    ("channel", "argv"),
    [
        pytest.param("kind bsc\np abc\n", None, id="file-p"),
        pytest.param("kind erasure\np 0.1 0.2\n", None, id="file-p-twice"),
        pytest.param("kind qsc\nq 2.5\np 0.1\n", None, id="file-q"),
        pytest.param("kind awgn\nsigma abc\n", None, id="file-sigma"),
        pytest.param("kind awgn\nsigma 0.8\nmap 1 x\n", None, id="file-map"),
        pytest.param("kind isi-dmc\nq 2\nmemory 1.5\n" + _ISI_ROWS, None, id="file-memory"),
        pytest.param("kind isi-dmc\nq 2\nmemory 1\ninitial_symbol 1.0\n" + _ISI_ROWS, None, id="file-initial"),
        pytest.param("qsc:2.5,0.1", None, id="spec-q"),
        pytest.param("bsc:x", None, id="spec-p"),
        pytest.param("awgn:0.8,1,x", None, id="spec-map"),
        pytest.param(None, ["bench", "--rows", "8,x", "--cols", "16"], id="bench-rows"),
        pytest.param(None, ["bench", "--rows", "8", "--cols", "16.5"], id="bench-cols"),
        pytest.param(
            None, ["simulate", "--random-code", "2,7,x,1", "--channel", "bsc:0.1", "--trials", "1"],
            id="random-code",
        ),
    ],
)
def test_malformed_numbers_are_domain_errors(toy_code_file, tmp_path, capsys, channel, argv):
    # Each numeric field is parsed as its type: a word, a fraction where a
    # whole number belongs, or a second value is refused, never truncated.
    if argv is None:
        if "\n" in channel:
            (tmp_path / "chan").write_text(channel)
            channel = str(tmp_path / "chan")
        argv = ["decode", "--code", toy_code_file, "--channel", channel, "--rx", "000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
