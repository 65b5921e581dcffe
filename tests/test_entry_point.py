"""The command line in fresh interpreters: ``python -m ciukit.cli`` goes
through ``cli.run()``, which exits with ``main``'s code, and its reports do
not depend on the string-hash seed of the process that writes them.

The two runs of a pair share one platform, so their bytes are compared
with each other, never with pinned digests, and nothing here skips."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_ARGV = {
    "explain": [
        "explain", "--predictor", "nonlinear", "--instance", "[0.63,0.63,0.59,0.81]",
        "--method", "ciu,shapley,lime", "--format", "json,svg,csv",
    ],
    "global": ["global", "--predictor", "nonlinear", "--format", "json,csv"],
}


def ciukit(argv, hash_seed):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-m", "ciukit.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("command", sorted(REPORT_ARGV))
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, command):
    files = []
    for hash_seed in (0, 1):
        out = tmp_path / str(hash_seed)
        done = ciukit([*REPORT_ARGV[command], "--output-dir", str(out)], hash_seed)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert files[0] and files[0] == files[1]


def test_a_removed_flag_exits_2():
    done = ciukit(["global", "--predictor", "linear", "--phi0", "0.5"], 0)
    assert done.returncode == 2
    assert "unrecognized arguments: --phi0 0.5" in done.stderr
