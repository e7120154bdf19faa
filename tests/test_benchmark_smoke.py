"""The committed benchmark still runs against the package, and its checks hold.

The benchmark drives the program through public names (``ml_decode`` with
``ops=``, ``isi_ml_decode``, ``build_bipolar_codebook`` ...), labels its
per-layer metrics by the names of traced calls, and checks the product's
addition tally.  A change that breaks any of these fails a short traced
run of each workload here, before the benchmark itself is run.  The runs
write under the git-ignored ``perfbench/out/``.  The benchmark's own
tests, which show that each check rejects a corrupted result, are
``perfbench/test_checks.py``, collected with these through ``testpaths``.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_no_failure(workload):
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
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

