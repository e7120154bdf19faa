"""The committed benchmark still runs against the package: a short traced run.

The benchmark drives the program through public names (``ml_decode`` with
``ops=``, ``isi_ml_decode``, ``build_bipolar_codebook`` ...), labels its
per-layer metrics by the names of traced calls, and checks the product's
addition tally.  A change that breaks any of these fails here, before the
benchmark itself is run.  The run writes under the git-ignored
``perfbench/out/``.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_hamming_run_reports_every_per_layer_metric_and_no_failure():
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "mc-hamming7-bsc",
            "--seed",
            "1",
            "--seconds",
            "0.1",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [metric["name"] for metric in declared]
    assert len(names) == 24
    assert set(names) <= set(result["metrics"])
