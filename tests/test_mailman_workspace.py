"""The batched product's per-thread workspace: reused, private, never returned.

A batched tile tabulates, gathers and sums in buffers each thread keeps
between calls (``mailman._workspace``).  These tests pin what that reuse
must not change: results equal fresh sequential ones bit for bit under
concurrent threads, a returned array never changes under a later call,
a call allocates little beyond its result, the buffers grow when
``_TILE_BYTES`` grows, the batched and single-vector gathers agree
on every pattern index a factorization takes, and repeated Monte Carlo
calls fault in no fresh pages for what they allocate outside the workspace.
"""

import dataclasses
import pathlib
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

import fastmld.mailman as mailman
from fastmld import (
    ErasureObservation,
    InvalidParams,
    build_bipolar_codebook,
    build_codebook_matrix,
    enumerate_codewords,
    erasure_decode,
    vec_times_matrix,
    vec_times_universal,
)

from helpers import golay_code, peak_beyond_start, product_per_block, random_code

#: Allocations a call may make beyond its result: the tie mask of
#: ``erasure_decode`` (B x S booleans, 128 KiB at B = 32, S = 4096) and
#: small per-row arrays.
SLACK = 256 * 1024


def _run_in_thread(fn, timeout=60.0):
    """``fn()`` in a new thread, which starts with an empty workspace; its result."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # reported in the calling thread
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["result"]


def _codebooks_and_batches(rng):
    """Four factorizations of different shapes, each with a 32-row batch."""
    cases = []
    for q, n, size in ((2, 14, 4096), (3, 8, 2000), (2, 11, 1024), (2, 9, 300)):
        codebook = build_codebook_matrix(random_code(rng, q, n, size))
        vectors = rng.standard_normal((32, codebook.rows))
        vectors[rng.random(vectors.shape) < 0.05] = -np.inf
        cases.append((codebook.factorization, vectors))
    return cases


def test_concurrent_threads_equal_sequential_products():
    rng = np.random.default_rng(71)
    cases = _codebooks_and_batches(rng)
    expected = [np.stack([vec_times_matrix(v, f) for v in vs]) for f, vs in cases]
    results = [[] for _ in cases]
    errors = []

    def worker(index):
        factorization, vectors = cases[index]
        try:
            for _ in range(25):
                results[index].append(vec_times_matrix(vectors, factorization))
        except BaseException as exc:
            errors.append(exc)

    # More threads than cores, switching often, so products interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for index, runs in enumerate(results):
        assert len(runs) == 25
        for run in runs:
            assert np.array_equal(run, expected[index])


def test_result_is_unchanged_by_a_later_batched_call():
    rng = np.random.default_rng(72)
    (factorization, vectors), (other, others) = _codebooks_and_batches(rng)[:2]
    first = vec_times_matrix(vectors, factorization)
    kept = first.copy()
    vec_times_matrix(-vectors, factorization)
    vec_times_matrix(others, other)
    assert first.flags.c_contiguous and first.flags.owndata
    assert np.array_equal(first, kept)


def test_golay_batch_allocates_little_beyond_its_result():
    code = enumerate_codewords(golay_code())
    codebook, bipolar = build_codebook_matrix(code), build_bipolar_codebook(code)
    rng = np.random.default_rng(73)
    vectors = rng.standard_normal((32, codebook.rows))
    observation = ErasureObservation(values=rng.integers(-1, 2, size=(32, code.n)))

    def product():
        return vec_times_matrix(vectors, codebook.factorization)

    def erasure():
        return erasure_decode(bipolar, code, observation)

    result = 32 * code.size * 8
    for call in (product, erasure):
        call()  # warm-up: this thread's workspace now exists
        assert peak_beyond_start(call) <= result + SLACK


@pytest.mark.parametrize("order", [("small", "full"), ("full", "small")])
def test_workspace_grows_when_the_tile_budget_changes(monkeypatch, order):
    # At S = 4096 a 40-row batch runs in tiles of 8 rows under a 256 KiB
    # budget and of 32 and 8 rows under the full 1 MiB.
    rng = np.random.default_rng(74)
    codebook = build_codebook_matrix(random_code(rng, 2, 14, 4096))
    vectors = rng.standard_normal((40, codebook.rows))
    expected = np.stack([vec_times_matrix(v, codebook.factorization) for v in vectors])
    budgets = {"small": 8 * 4096 * 8, "full": mailman._TILE_BYTES}

    def products():
        out = []
        for name in order:
            monkeypatch.setattr(mailman, "_TILE_BYTES", budgets[name])
            out.append(vec_times_matrix(vectors, codebook.factorization))
        return out

    for result in _run_in_thread(products):
        assert np.array_equal(result, expected)


def _index_cases(block, cases):
    return [pytest.param(block, *case, id=(block and f"{block}-") + "-".join(map(str, case))) for case in cases]


_INDICES = [(0, 0, False), (1, -1, False), (1, 0, True), (-1, -1, True), (0, -1, True), (-1, 0, True)]


@pytest.mark.parametrize(
    ("block", "scale", "shift", "refused"),
    _index_cases("", _INDICES)
    # The short last block (height 2 of 8) shares its sweep's 2^8-wide row,
    # but takes only indices in [0, 4): 255 lies inside the row.
    + _index_cases("short", _INDICES + [(64, -1, True), (-64, 0, True)]),
)
def test_batched_and_single_products_agree_on_any_pattern_index(block, scale, shift, refused):
    # A factorization takes exactly the indices in [0, 2^height), where
    # numpy's take would also wrap [-2^height, 0); the single, batched and
    # per-block products agree on each index it takes.
    rng = np.random.default_rng(75)
    factorization = build_codebook_matrix(random_code(rng, 2, 9, 300)).factorization
    at = -1 if block else 0
    edited = factorization.blocks[at]
    assert [b.height for b in factorization.blocks] == [8, 8, 2]
    correspondence = edited.correspondence.copy()
    correspondence[7] = scale * (1 << edited.height) + shift
    blocks = list(factorization.blocks)
    blocks[at] = dataclasses.replace(edited, correspondence=correspondence)
    if refused:
        with pytest.raises(InvalidParams, match=r"must lie in \[0, 2\^"):
            dataclasses.replace(factorization, blocks=tuple(blocks))
        return
    made = dataclasses.replace(factorization, blocks=tuple(blocks))
    vectors = rng.standard_normal((4, factorization.rows))
    singles = np.stack([vec_times_matrix(v, made) for v in vectors])
    assert np.array_equal(vec_times_matrix(vectors, made), singles)
    assert np.array_equal(singles, np.stack([product_per_block(v, made) for v in vectors]))


def test_universal_product_writes_into_out():
    weights = np.array([[1.0, -2.0], [4.0, 0.5], [8.0, -np.inf]])
    out = np.full((8, 2), np.nan)
    assert vec_times_universal(weights, out=out) is out
    assert np.array_equal(out, vec_times_universal(weights))
    with pytest.raises(InvalidParams):
        vec_times_universal(weights, out=np.empty((8, 3)))
    with pytest.raises(InvalidParams):
        vec_times_universal(weights, out=np.empty((8, 2), dtype=np.float32))


#: Runs in a fresh process: three rounds of four Golay Monte Carlo calls of
#: different shapes; prints each call's minor page faults.
_FAULT_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1] + "/src")
sys.path.insert(0, sys.argv[1] + "/tests")
from fastmld import DiscreteChannel, SimConfig, enumerate_codewords, run_monte_carlo
from helpers import golay_code
linear = golay_code()
code = enumerate_codewords(linear)
bsc = DiscreteChannel.bsc(0.05)
configs = [
    SimConfig(code_source=code, channel=bsc, trials=250, seed=1, variant="ml"),
    SimConfig(code_source=code, channel=bsc, trials=50, seed=2, variant="list", list_size=4),
    SimConfig(code_source=linear, channel=bsc, trials=150, seed=3, variant="syndrome"),
    SimConfig(code_source=code, channel=bsc, trials=10, seed=4, variant="ml", oracle_check=True),
]
for _ in range(3):
    for config in configs:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_monte_carlo(config)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_simulations_fault_in_no_fresh_pages():
    # Without the raised malloc thresholds (see ``mailman``), every call
    # after the first round faulted 300-800 pages: its product result, list
    # ranking copy and oracle temporaries, handed back to the kernel by the
    # call before.
    root = pathlib.Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_SCRIPT, str(root)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 12
    assert max(faults[4:]) < 32, faults
