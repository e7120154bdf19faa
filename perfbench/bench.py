"""One benchmark run: set-up, a timed window of whole rounds, checks, metrics.

A round is a fixed list of operations run by one caller, each started
only after the previous one returned (a closed loop): set-ups of the
code, single-word ML and list decodes on words this benchmark draws, and
one ``run_monte_carlo`` call per variant.  The window repeats whole rounds until ``seconds`` have
passed, so every run attempts the same operations in the same proportions.
Correctness checks run after the window and never inside a timing.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import fastmld
from fastmld import channels, codes, decoder, mailman, simulate

import checks
import workloads as wl
from spans import Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ml_trials_per_s": "1/s",
    "oracle_trials_per_s": "1/s",
    "list_trials_per_s": "1/s",
    "erasure_trials_per_s": "1/s",
    "syndrome_trials_per_s": "1/s",
    "isi_trials_per_s": "1/s",
    "decode_p50_us": "us",
    "decode_tail_us": "us",
    "list_decode_p50_us": "us",
}

#: ML decodes in one stretch of consecutive rounds, over which the tail and
#: the set-up time are taken: enough for a p99 with ten samples beyond it.
STRETCH = 1000
#: The fewest stretches a run holds, so that the tail has a lower quartile.
STRETCHES = 4

#: Vectors per call in the batched dense baseline.
BLAS_BATCH = 16

#: Per-layer metric -> (phase, span name, "total" or "self").  Times are
#: medians over spans, in microseconds unless the name ends in ``_s``.
SPAN_METRICS = {
    "codes.enumerate_s": ("setup", "codes.enumerate_codewords", "total"),
    "codes.build_self_s": ("setup", "codes.build_codebook_matrix", "self"),
    "mailman.factorize_s": ("setup", "mailman.factorize", "total"),
    "mailman.product_us": ("decode.ml", "mailman.vec_times_matrix", "total"),
    "decoder.argmax_us": ("decode.ml", "decoder.argmax_scan", "total"),
    "mailman.universal_us": ("mc.ml", "mailman.vec_times_universal", "total"),
    "channels.sample_us": ("mc.ml", "channels.sample_channel", "total"),
    "channels.llr_us": ("mc.ml", "channels.conditional_probability_vector", "total"),
    "decoder.ml_self_us": ("mc.ml", "decoder.ml_decode", "self"),
    "decoder.list_rank_self_us": ("decode.list", "decoder.list_decode", "self"),
    "decoder.erasure_self_us": ("mc.erasure", "decoder.erasure_decode", "self"),
    "decoder.syndrome_self_us": ("mc.syndrome", "decoder.syndrome_decode", "self"),
    "codes.parity_check_us": ("mc.syndrome", "codes.parity_check_from_generator", "total"),
    "decoder.isi_self_us": ("mc.isi", "decoder.isi_ml_decode", "self"),
    "oracle.esd_us": ("mc.oracle", "oracle.esd_decode", "total"),
}


def _median_time(fn, min_seconds: float = 0.2, min_reps: int = 5) -> float:
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class CodeUnderTest:
    """A binary linear code, as the program holds it and as we enumerate it."""

    def __init__(self, generator: np.ndarray) -> None:
        self.k, self.n = generator.shape
        self.linear = codes.LinearCode(q=2, n=self.n, k=self.k, generator=generator)
        self.words = checks.codeword_ints(generator)
        self.dmin = checks.minimum_distance(self.words)
        self.t = (self.dmin - 1) // 2
        ball = sum(math.comb(self.n, i) for i in range(self.t + 1))
        self.perfect = ball << self.k == 1 << self.n
        self.code = None
        self.codebook = None


def make_code(name: str) -> CodeUnderTest:
    if name == "hamming":
        return CodeUnderTest(np.array(wl.HAMMING_GENERATOR, dtype=np.int64))
    return CodeUnderTest(wl.golay_generator())


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, tracer: Tracer | None) -> None:
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.main = make_code(workload.code)
        self.bsc = channels.DiscreteChannel.bsc(wl.BSC_CROSSOVER)
        self.isi = channels.IsiChannel.from_probabilities(2, 1, np.array(wl.ISI_TABLE))
        self.mc_channels = {
            "ml": self.bsc,
            "oracle": self.bsc,
            "list": self.bsc,
            "erasure": channels.ErasureChannel(wl.BEC_ERASURE),
            "syndrome": self.bsc,
            "isi": self.isi,
        }
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.additions = 0

    def phase(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = label

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Enumerate, build and factorize the main code; seconds.

        The decodes that follow use what the latest set-up built.
        """
        self.phase("setup")
        self.main.code = self.main.codebook = None
        start = perf_counter()
        code = codes.enumerate_codewords(self.main.linear)
        codebook = codes.build_codebook_matrix(code)
        elapsed = perf_counter() - start
        self.main.code, self.main.codebook = code, codebook
        return elapsed

    # -- the timed window ---------------------------------------------

    def _decode_inputs(self, rng, count: int):
        """Received bits and the 1-based symbols the program takes."""
        _, bits = wl.draw_codewords(rng, self.main.words, self.main.n, count)
        received = wl.bsc_words(rng, bits)
        return received, received + 1

    def _mc_config(self, op: wl.McOp, seed: int) -> simulate.SimConfig:
        variant = "ml" if op.variant == "oracle" else op.variant
        return simulate.SimConfig(
            code_source=self.main.linear if variant == "syndrome" else self.main.code,
            channel=self.mc_channels[op.variant],
            trials=op.trials,
            seed=seed,
            variant=variant,
            list_size=self.w.list_size if variant == "list" else 1,
            oracle_check=op.variant == "oracle",
        )

    def round(self, index: int) -> dict:
        """The round's set-ups, then one slice of the single-word decodes before each Monte Carlo call.

        Spreading the decodes over the round lets each round's latency
        figures sample the whole round, not one stretch of it.
        """
        rng = np.random.default_rng([self.seed, index])
        record = {"setup": [self.setup() for _ in range(self.w.setups)], "ml": [], "list": [], "mc": []}
        code, codebook, channel = self.main.code, self.main.codebook, self.bsc
        received, inputs = self._decode_inputs(rng, self.w.ml_words + self.w.list_words)
        slices = len(self.w.mc)
        ml_slices = np.array_split(np.arange(self.w.ml_words), slices)
        list_slices = np.array_split(np.arange(self.w.ml_words, self.w.ml_words + self.w.list_words), slices)
        for position, op in enumerate(self.w.mc):
            self.phase("decode.ml")
            # Untimed: the call before evicted what a stream of decodes keeps warm.
            decoder.ml_decode(codebook, code, channel, inputs[ml_slices[position][0]])
            for i in ml_slices[position]:
                start = perf_counter()
                result = decoder.ml_decode(codebook, code, channel, inputs[i])
                elapsed = perf_counter() - start
                record["ml"].append((elapsed, received[i], result.best_index, result.ties))
            self.phase("decode.list")
            for i in list_slices[position]:
                start = perf_counter()
                listed = decoder.list_decode(codebook, code, channel, inputs[i], self.w.list_size)
                elapsed = perf_counter() - start
                record["list"].append((elapsed, received[i], listed.indices))
            seed = int(np.random.SeedSequence([self.seed, index, position]).generate_state(1)[0])
            config = self._mc_config(op, seed)
            self.phase("mc." + op.variant)
            start = perf_counter()
            report = simulate.run_monte_carlo(config)
            record["mc"].append((op, perf_counter() - start, report))
        self.phase("")
        return record

    def window(self, seconds: float, first: int = 0) -> tuple[list[dict], list[float]]:
        rounds, durations = [], []
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            rounds.append(self.round(first + len(rounds)))
            durations.append(perf_counter() - start)
            if perf_counter() >= deadline and len(rounds) * self.w.ml_words >= STRETCHES * STRETCH:
                return rounds, durations

    def warm_up(self) -> None:
        _, inputs = self._decode_inputs(np.random.default_rng([self.seed, 1 << 31]), 1)
        decoder.ml_decode(self.main.codebook, self.main.code, self.bsc, inputs[0])
        decoder.list_decode(self.main.codebook, self.main.code, self.bsc, inputs[0], self.w.list_size)

    # -- checks ---------------------------------------------------------

    def check_setups(self, rounds: list[dict]) -> None:
        """The latest set-up's codewords equal ours; the others ran the same code."""
        count = sum(len(r["setup"]) for r in rounds)
        self.attempted += count
        bad = checks.enumeration_mismatches(self.main.code.codewords, self.main.words, self.main.n)
        if bad:
            self.fail(count, f"enumeration differs from ours in {bad} codewords")

    def check_decodes(self, rounds: list[dict]) -> None:
        ml = [entry for r in rounds for entry in r["ml"]]
        listed = [entry for r in rounds for entry in r["list"]]
        self.attempted += len(ml) + len(listed)
        words = self.main.words
        bad_ml = sum(not checks.bsc_ml_ok(words, rx, best, ties) for _, rx, best, ties in ml)
        bad_list = sum(not checks.list_distances_ok(words, rx, idx) for _, rx, idx in listed)
        if bad_ml:
            self.fail(bad_ml, f"{bad_ml} of {len(ml)} ML decodes are not maximum likelihood")
        if bad_list:
            self.fail(bad_list, f"{bad_list} of {len(listed)} list decodes are not the top of the ranking")

    def check_reports(self, rounds: list[dict]) -> None:
        for op in {op.variant: op for op in self.w.mc}.values():
            reports = [rep for r in rounds for call, _, rep in r["mc"] if call.variant == op.variant]
            trials = sum(rep.trials for rep in reports)
            errors = sum(rep.word_errors for rep in reports)
            self.attempted += trials
            main = self.main
            if op.variant in ("ml", "syndrome") and main.perfect:
                expected = checks.perfect_code_fer(main.n, main.t, wl.BSC_CROSSOVER)
                self.notes.append(
                    f"{op.variant} FER {errors}/{trials} = {errors / trials:.5f}, perfect-code value {expected:.5f}"
                )
                if not checks.fer_within(errors, trials, expected):
                    self.fail(trials, f"{op.variant} FER {errors / trials:.5f} is not within 5 sigma of {expected:.5f}")
                ties = sum(rep.tie_events for rep in reports)
                if op.variant == "ml" and ties:
                    self.fail(ties, f"{ties} ML ties on a perfect code over a BSC")
            elif op.variant == "oracle":
                disagreements = sum(rep.oracle_disagreements for rep in reports)
                if disagreements:
                    self.fail(disagreements, f"{disagreements} oracle disagreements")
            elif op.variant == "erasure" and errors:
                self.fail(errors, f"{errors} erasure word errors")

    def check_samples(self) -> None:
        """Op count, erasure, ISI and AWGN decodes on words drawn after the window."""
        rng = np.random.default_rng([self.seed, (1 << 31) + 1])
        main = self.main
        _, inputs = self._decode_inputs(rng, 1)
        ops = mailman.OpCount()
        decoder.ml_decode(main.codebook, main.code, self.bsc, inputs[0], ops=ops)
        self.attempted += 1
        if not checks.op_count_ok(ops.additions, main.codebook.rows, main.codebook.cols):
            self.fail(1, f"product tallied {ops.additions} additions, expected "
                      f"{checks.additions_per_product(main.codebook.rows, main.codebook.cols)}")
        self.additions = ops.additions

        bipolar = codes.build_bipolar_codebook(main.code)
        _, bits = wl.draw_codewords(rng, main.words, main.n, wl.ERASURE_SAMPLE)
        values = wl.erasure_words(rng, bits)
        bad = 0
        for row in values:
            result = decoder.erasure_decode(bipolar, main.code, channels.ErasureObservation(values=row))
            bad += not checks.erasure_ok(main.words, row, result.ties, main.dmin)
        del bipolar
        self.attempted += len(values)
        if bad:
            self.fail(bad, f"{bad} of {len(values)} erasure decodes differ from the consistent set")

        isi_codebook = codes.build_codebook_matrix_isi(main.code, 1, 1)
        _, bits = wl.draw_codewords(rng, main.words, main.n, wl.ISI_SAMPLE)
        received = wl.isi_words(rng, bits)
        rows = checks.isi_rows(checks.word_bits(main.words, main.n))
        log_table = np.log(np.array(wl.ISI_TABLE))
        bad = split = 0
        for y in received:
            result = decoder.isi_ml_decode(isi_codebook, main.code, self.isi, y)
            exact = checks.exact_isi_ties(log_table, rows, y)
            bad += not checks.isi_ok(exact, result.best_index, result.ties)
            split += len(result.ties) < len(exact)
        self.attempted += len(received)
        self.notes.append(f"isi: fast tie set smaller than the exact one in {split} of {len(received)} words")
        if bad:
            self.fail(bad, f"{bad} of {len(received)} ISI decodes are outside the exact tie set")

        awgn = channels.ContinuousChannel.awgn(wl.AWGN_SIGMA)
        _, bits = wl.draw_codewords(rng, main.words, main.n, wl.AWGN_SAMPLE)
        received = wl.awgn_words(rng, bits)
        correlation = (1.0 - 2.0 * checks.word_bits(main.words, main.n)) @ received.T
        bad = 0
        for column, y in enumerate(received):
            tol = checks.correlation_tolerance(y)
            best = decoder.ml_decode(main.codebook, main.code, awgn, y).best_index
            listed = decoder.list_decode(main.codebook, main.code, awgn, y, wl.AWGN_LIST_SIZE).indices
            bad += not (
                checks.awgn_ml_ok(correlation[:, column], best, tol)
                and checks.awgn_list_ok(correlation[:, column], listed, tol)
            )
        self.attempted += 2 * len(received)
        if bad:
            self.fail(bad, f"{bad} of {len(received)} AWGN decodes are not the top of our correlation ranking")

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, peak_mib: float, rounds: list[dict]) -> dict:
        """Medians and rates are taken per round (per call for rates); the run reports the best.

        Other tenants of a shared host slow a run for stretches of seconds to
        a minute and never speed it up, so the best round is the figure that
        repeats from run to run; a median across rounds jumps with the
        share of slowed rounds.  A round holds too few set-ups and decodes
        for a set-up median or a tail, so those are taken per stretch of
        consecutive rounds holding ``STRETCH`` decodes.  The run reports the
        best stretch's set-up median, and the lower quartile of the stretch
        tails: the tails of the quieter stretches, which still hold every
        stall the program makes itself.
        """
        ml = [[entry[0] for entry in r["ml"]] for r in rounds]
        listed = [[entry[0] for entry in r["list"]] for r in rounds]
        per_stretch = math.ceil(STRETCH / len(ml[0]))
        stretches = [rounds[i : i + per_stretch] for i in range(0, len(rounds) - per_stretch + 1, per_stretch)]
        tails = [checks.tail_latency([entry[0] for r in s for entry in r["ml"]]) for s in stretches]
        tail = statistics.quantiles([value for value, _ in tails], n=4)[0]
        percentile = tails[0][1]
        setup_s = min(statistics.median(t for r in s for t in r["setup"]) for s in stretches)
        self.notes.append(
            f"{len(rounds)} rounds of {self.w.setups} set-ups, {len(ml[0])} ML decodes, {len(listed[0])}"
            f" list decodes and {len(self.w.mc)} Monte Carlo calls; set-up = lowest median and tail ="
            f" lower quartile p{percentile:g} of {len(stretches)} stretches of {per_stretch} rounds"
        )
        values = {"setup_s": setup_s, "peak_rss_mib": peak_mib}
        rates: dict[str, list[float]] = {}
        for r in rounds:
            for call, seconds, _ in r["mc"]:
                rates.setdefault(call.variant, []).append(call.trials / seconds)
        for variant, values_per_call in rates.items():
            values[f"{variant}_trials_per_s"] = max(values_per_call)
        values["decode_p50_us"] = 1e6 * min(statistics.median(t) for t in ml)
        values["decode_tail_us"] = 1e6 * tail
        values["list_decode_p50_us"] = 1e6 * min(statistics.median(t) for t in listed)
        return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    def per_layer(self, untraced: list[float], traced: list[float]) -> dict:
        spans = self.tracer.durations()
        out = {}
        for metric, (phase, name, kind) in SPAN_METRICS.items():
            total, own = spans[(phase, name)]
            if not total:
                raise RuntimeError(f"no {name} span in phase {phase}")
            value = statistics.median(own if kind == "self" else total)
            out[metric] = (value, "s") if metric.endswith("_s") else (1e6 * value, "us")
        ml_trials = next(op.trials for op in self.w.mc if op.variant == "ml")
        _, loop_self = spans[("mc.ml", "simulate.run_monte_carlo")]
        out["simulate.loop_self_us"] = (1e6 * statistics.median(loop_self) / ml_trials, "us")

        codebook = self.main.codebook
        blocks = codebook.factorization.blocks
        stored = codebook.matrix.bits.nbytes + sum(b.correspondence.nbytes for b in blocks)
        out["codes.codebook_mib"] = (stored / 2**20, "MiB")
        # Per block: read the correspondences, write the 2^h table, write the
        # gathered column sums, then read both operands of out += and write out.
        moved = 8 * codebook.rows + 8 * codebook.cols + sum(
            b.correspondence.nbytes + 8 * (1 << b.height) + 4 * 8 * codebook.cols for b in blocks
        )
        out["mailman.bytes_per_product"] = (float(moved), "bytes")
        out["mailman.additions_per_product"] = (float(self.additions), "count")
        out.update(self.baselines())
        overhead = min(traced) / min(untraced) - 1.0
        out["trace.overhead_pct"] = (100.0 * overhead, "%")
        return out

    def baselines(self) -> dict:
        """Dense BLAS and gather-sum products on the main codebook's shape, untraced."""
        main = self.main
        n, size = main.n, main.words.shape[0]
        bits = checks.word_bits(main.words, n)
        dense = np.zeros((2 * n, size))
        dense[2 * np.arange(n)[:, None] + bits.T, np.arange(size)[None, :]] = 1.0
        rng = np.random.default_rng([self.seed, (1 << 31) + 2])
        vector = rng.standard_normal(2 * n)
        batch = rng.standard_normal((BLAS_BATCH, 2 * n))
        table = vector.reshape(n, 2)
        positions = np.arange(n)
        fact = main.codebook.factorization

        product = mailman.vec_times_matrix(vector, fact)
        reference = vector @ dense
        self.attempted += 1
        if np.abs(product - reference).max() > 1e-9 * np.abs(vector).sum():
            self.fail(1, "block-factorized product differs from the dense product")
        mailman_s = _median_time(lambda: mailman.vec_times_matrix(vector, fact))
        timings = {
            "baseline.dense_blas_us": _median_time(lambda: vector @ dense),
            "baseline.dense_blas_batched_us": _median_time(lambda: batch @ dense) / BLAS_BATCH,
            "baseline.gather_sum_us": _median_time(lambda: table[positions, bits].sum(axis=1)),
        }
        best = min(timings, key=timings.get)
        verdict = "loses to" if timings[best] < mailman_s else "beats"
        self.notes.append(
            f"baseline: block-factorized product {1e6 * mailman_s:.1f} us {verdict} the fastest"
            f" baseline {best} {1e6 * timings[best]:.1f} us (shape {2 * n}x{size})"
        )
        out = {name: (1e6 * value, "us") for name, value in timings.items()}
        out["baseline.best_over_product"] = (timings[best] / mailman_s, "x")
        return out


def peak_rss_mib() -> float:
    """High-water mark of this process (Linux reports kibibytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    w = wl.WORKLOADS[workload]
    tracer = Tracer() if trace else None
    bench = Bench(w, seed, tracer)
    bench.setup()
    bench.warm_up()
    if tracer is None:
        # Read before the window: the results it keeps grow with its rounds.
        peak = peak_rss_mib()
        rounds, _ = bench.window(seconds)
    else:
        rounds, untraced = bench.window(seconds / 2)
        tracer.install(fastmld)
        traced_rounds, traced = bench.window(seconds / 2, first=len(rounds))
        tracer.uninstall()
        rounds += traced_rounds
    bench.check_setups(rounds)
    bench.check_decodes(rounds)
    bench.check_reports(rounds)
    bench.check_samples()
    out_dir.mkdir(parents=True, exist_ok=True)
    if tracer is None:
        metrics = bench.end_to_end(peak, rounds)
    else:
        metrics = bench.per_layer(untraced, traced)
        tracer.write(out_dir / f"spans-{workload}.csv")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  notes=bench.notes, failures=bench.failures)
    (out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    for line in bench.notes + [f"FAILED: {f}" for f in bench.failures]:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    return result
