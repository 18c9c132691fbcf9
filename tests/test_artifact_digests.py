"""The benchmark's recorded artifact digests, checked in process.

``perfbench/run.py`` compares every invocation's deterministic artifacts
with the sha256 digests in ``perfbench/digests.json``; these tests run the
quick workloads once each, with the same arguments, so a change that moves
a byte of an artifact fails here and not only in a benchmark run."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from gridhalo import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py``, loaded from its path with ``perfbench/`` on
    ``sys.path`` (it imports ``tracer`` from there; perfbench is no
    package)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["halo-sparse", "staged-resonance", "staged-deep", "zygmund-rot"])
def test_artifacts_match_the_recorded_digests(workload, bench, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*bench.WORKLOADS[workload], "--out", str(out)]) == 0
    capsys.readouterr()
    want = json.loads((BENCH / "digests.json").read_text())[workload]
    made = sorted(name for name in bench.ARTIFACTS if os.path.exists(out / name))
    assert made == sorted(want)
    assert {name: bench._sha256(str(out / name)) for name in made} == want
