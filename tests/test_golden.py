"""Golden bytes: the SHA-256 of every report file from a fixed set of CLI runs,
and of the stdout of a fixed set of ``--format text`` runs.

Other tests compare two runs of the same code; these digests pin the bytes
across commits, so a change that alters a report shows up here. A change
that alters a report on purpose re-pins the digest and names the changed
output in CHANGES.md. To print the digests of the current code, run

    PYTHONPATH=src python tests/test_golden.py

Floating-point results depend on the platform's libm, SIMD dispatch and
BLAS. The digests hold on the platform whose numeric fingerprint is pinned
below; on any other platform the test skips instead of reporting a change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from ciukit import cli
from conftest import write_classification_csv

NONLINEAR_X = "[0.63, 0.63, 0.59, 0.81]"
LINEAR_X = "[0.2, 0.7, 0.4, 0.9]"

# Run name -> CLI argv list; every command but train also gets --output-dir.
# "{dir}" stands for that directory and "{data}" for a generated mixed-space
# CSV (three numeric features and one categorical).
RUNS = {
    "explain-nonlinear": [
        ["explain", "--predictor", "nonlinear", "--instance", NONLINEAR_X,
         "--method", "ciu,shapley,lime", "--format", "json,svg,csv"],
    ],
    "global-nonlinear": [
        ["global", "--predictor", "nonlinear", "--iterations", "2",
         "--instances", "20", "--shapley-budget", "50", "--format", "json,csv"],
    ],
    "stability-linear": [
        ["stability", "--predictor", "linear", "--instance", LINEAR_X,
         "--runs", "5", "--format", "json,svg,csv"],
    ],
    "whatif-linear": [
        ["whatif", "--predictor", "linear", "--instance", LINEAR_X,
         "--feature", "x1,x3", "--format", "json,svg"],
    ],
    "explain-tree-mixed": [
        ["train", "--data", "{data}", "--target", "label", "--trees", "10",
         "--depth", "4", "--model-out", "{dir}/model.json"],
        ["explain", "--model", "{dir}/model.json", "--data", "{data}",
         "--target", "label", "--instance", "row:3", "--output-index", "1",
         "--method", "ciu,shapley,lime", "--format", "json,svg,csv"],
    ],
    "global-tree-mixed": [
        ["train", "--data", "{data}", "--target", "label", "--trees", "10",
         "--depth", "4", "--model-out", "{dir}/model.json"],
        ["global", "--model", "{dir}/model.json", "--data", "{data}",
         "--target", "label", "--iterations", "2", "--instances", "30",
         "--samples", "20", "--shapley-budget", "20", "--format", "json,csv"],
    ],
    "stability-tree-mixed": [
        ["train", "--data", "{data}", "--target", "label", "--trees", "10",
         "--depth", "4", "--model-out", "{dir}/model.json"],
        ["stability", "--model", "{dir}/model.json", "--data", "{data}",
         "--target", "label", "--instance", "row:3", "--runs", "3",
         "--samples", "20", "--shapley-budget", "20", "--lime-samples", "100",
         "--format", "json,svg,csv"],
    ],
}

# Run name -> argv of a ``--format text`` run whose stdout is pinned; each
# also gets --output-dir.
TEXT_RUNS = {
    "explain-text": [
        "explain", "--predictor", "nonlinear", "--instance", NONLINEAR_X,
        "--method", "ciu,shapley,lime", "--format", "text",
    ],
    "global-text": [
        "global", "--predictor", "nonlinear", "--iterations", "2",
        "--instances", "20", "--shapley-budget", "50", "--format", "text",
    ],
    "stability-text": [
        "stability", "--predictor", "linear", "--instance", LINEAR_X,
        "--runs", "5", "--format", "text",
    ],
    "whatif-text": [
        "whatif", "--predictor", "linear", "--instance", LINEAR_X,
        "--feature", "x1,x3", "--format", "text",
    ],
}

# Taken on x86-64 with AVX-512 (numpy 2.4 dispatch) and OpenBLAS.
PLATFORM_FINGERPRINT = '07744292804e036d905e03fa2e50b88460862c5fd6b70ff5b645b18ace09845a'
GOLDEN = {
    'explain-nonlinear': {
        'explain_ciu.svg':
            '0bbef9a0c74ad4044972bd9b4905dc9d5cbc6dd4be202962fe4fcce89d6eeea9',
        'explain_influence_ciu.svg':
            'facf8e40a15060c287cfcae50c9381b5292dbed19cd1c28adfc7ef5ea4ecde20',
        'explain_influence_lime.svg':
            'f3ee8333cd38edec7f90981c71361f0a971cd635143388c938efb94e25765690',
        'explain_influence_shapley.svg':
            'e29c680e5abf24d17fcaa6941e74cf7e33807d16db81988807b6517d9c3f5d77',
        'explain_report.csv':
            '7508e2ddd2771211fcb2330d3cfca91537cf4ac61bb6e7b7ad6a3ad0d2905272',
        'explain_report.json':
            '671c1507ed75789ec5f2d5578aa5e68e761356d6abbe9e9c48c90116cafa6ca6',
    },
    'explain-tree-mixed': {
        'explain_ciu.svg':
            '332dfd7215f36b968c59bf45af5a8987a2f581286741b195f4adba0f52c6d22b',
        'explain_influence_ciu.svg':
            'c86cd42be593f6f8bce95853501b250ca8c34a53b84faad3ecf0de9ace507d22',
        'explain_influence_lime.svg':
            '4ee0a3be7834f421db44e28b72c654370921e4b0554b486e613fc11bdde0360d',
        'explain_influence_shapley.svg':
            'f54d153349c27d85544aec826f4ea6644738be985bbe95be44c36e5b9a6d9735',
        'explain_report.csv':
            '2dc8e30aa2c33fc52e33f17285446008e7363ddbb42fc9f3766b48b0cf751b99',
        'explain_report.json':
            'd08b8644927568e40f3fb6b11d7147c643593d366a0276430f22ed4838571b8c',
        'model.json':
            '3d4ea189b90dbbc9c730b7bab7676b3695ee235adddf0f6be95aaca0d051684c',
    },
    'global-nonlinear': {
        'global_report.csv':
            '3c7e8b8c308d4c724a710a784e8e30084c7fe8150df440e445a993f484df6afb',
        'global_report.json':
            'd8c1970f98145edf2d4bdb9ace0d34e3843c940904073569d6e9971c6798ba8e',
    },
    'global-tree-mixed': {
        'global_report.csv':
            '10fea55fed4992bf9aae1f2802c0fe2e0295f8ef18126a885a28d6dba8e83839',
        'global_report.json':
            '1e316f8a003b6281d570386281ca822e6336c27db52fd8fcc5529ceb02e47559',
        'model.json':
            '3d4ea189b90dbbc9c730b7bab7676b3695ee235adddf0f6be95aaca0d051684c',
    },
    'stability-linear': {
        'stability_contextual_influence.csv':
            '6e0f6cd9efda4349db07dc14ec1481deeb8f4ca6304e6d86f25e6f14c01e1bfd',
        'stability_contextual_influence.json':
            'ee73947226c9d9a8541b0a6206642be8ee7ff92ebad88eca8a9f28b956f0d421',
        'stability_contextual_influence.svg':
            '15004fa5575ad38c771d36a1454afa735991e1731252ffc9a32777ce0e5fef8f',
        'stability_lime_surrogate.csv':
            '07a7f757d973049bc3cd0b596f44f464851c291bf7ca59516d83d75f3395b51d',
        'stability_lime_surrogate.json':
            '2f633dd3f66cbe5636f36b1d5852c8e6fb39bfdf6501183677ccd227d037ff18',
        'stability_lime_surrogate.svg':
            '2b1f630931728b12e38e7e2b01dcdc92acd19e816a7c0dd665f99b20f810b7f9',
        'stability_shapley_mc.csv':
            'ebb5a88c89d284103d58e8a7b2f44aade53206cd6c22d040da7ef4a5039ec530',
        'stability_shapley_mc.json':
            '34d7e70ce30eeb17f3db94439a76481c2b09e212112a4c1acd106156199ed074',
        'stability_shapley_mc.svg':
            '2a6735f1cbf6470457c81da4b9184ddf66df0807a374a6a026e70fbfebc98d26',
    },
    'stability-tree-mixed': {
        'model.json':
            '3d4ea189b90dbbc9c730b7bab7676b3695ee235adddf0f6be95aaca0d051684c',
        'stability_contextual_influence.csv':
            '4a9104d8f1e4f02665a0de2f703eb78af924b6c1fee59df2a6b1e2d881262469',
        'stability_contextual_influence.json':
            'b6ece1edb912a85ec9a97dd6eb1a84a882bd24b2e2c6a1b3319f4efe8ce4e0f0',
        'stability_contextual_influence.svg':
            'd7aa6d6d98aaf1e777d0a5fce099457e92f22bec6366a038c34ff7bcaf644c4d',
        'stability_lime_surrogate.csv':
            '974197c2adf9e7381597386589bb067fdaa36689f0457df3717b67d701386a81',
        'stability_lime_surrogate.json':
            '75130cc49db07fc67dd51934630da6a43c0981281d59569f097a3842a745a9c0',
        'stability_lime_surrogate.svg':
            'd860439e5dc5ad6ba840cc447a3e20ccfae8f3ba54e176d5668c80bc7bd35806',
        'stability_shapley_mc.csv':
            '5cfe3a0a7ed5515a133ba4a0858cf2062abab2d88a9ffc4dece227bf75d21904',
        'stability_shapley_mc.json':
            '9362517bb25c5e38f142baf7b63626816c42c3913d5d7544962499ee0a90c8f5',
        'stability_shapley_mc.svg':
            'f515b2a250fb616fe8346134f0c097639ecf11ef04a3793cc4930c5b0371cee0',
    },
    'whatif-linear': {
        'whatif_report.json':
            '685e70b398cf33692b3b01203d53738c6422a2e1c18b36d0faec5a9b5591c70a',
        'whatif_x1.svg':
            '3a16a59a2402d25699362935bd4b2682345b71f44aa1ced32fd85424e392a0c0',
        'whatif_x3.svg':
            '231ebe340826e6436f9fac460740dd4e1ce2bb2e4284f1ea11afa8d1d9c6f416',
    },
}


GOLDEN_STDOUT = {
    'explain-text':
        '5076815f3e2982fb6b92a5d95b9e29290233d43f096b5371a73ce5377fd1eecb',
    'global-text':
        'a9b7ad74fc3ead3be905cc0c8746a4d63e446576ceba7908884715f277ebdf10',
    'stability-text':
        '299ba07c31f3561dd26d9284cca4d5033977e4ef4089a5da127f879a8432b08f',
    'whatif-text':
        'cd0f75971571992cbee8e3d415fc9718278e8f068546d8017da8a7c80157e61c',
}


def numeric_fingerprint() -> str:
    """Digest of the float primitives the pinned runs rely on."""
    xs = np.linspace(0.0, 1.0, 1001)
    table = (xs * np.sin(10.0 * xs))[:1000].reshape(250, 4)
    parts = [
        np.sin(10.0 * xs),
        xs**4,
        np.exp(-xs / 0.75),
        table @ np.array([0.4, 0.3, 0.2, 0.1]),
        table.std(axis=0, ddof=1),
        np.linalg.solve(table[:4].T @ table[:4] + np.eye(4), table[4]),
    ]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def report_digests(name: str, workdir: Path) -> dict[str, str]:
    """Run one named case inside ``workdir`` and hash every file it writes.

    The runs use relative paths because the JSON reports record the input
    paths they were given.
    """
    home = os.getcwd()
    os.chdir(workdir)
    try:
        os.mkdir("out")
        write_classification_csv("data.csv", n=200, seed=7)
        for argv in RUNS[name]:
            argv = [a.format(dir="out", data="data.csv") for a in argv]
            if argv[0] != "train":
                argv = argv + ["--output-dir", "out"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, f"{name}: {argv[0]} exited {code}"
    finally:
        os.chdir(home)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((workdir / "out").iterdir())
    }


def stdout_digest(name: str, workdir: Path) -> str:
    """Run one named text case with ``workdir`` as its output directory and
    hash what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(TEXT_RUNS[name] + ["--output-dir", str(workdir)])
    assert code == 0, f"{name} exited {code}"
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path):
    if numeric_fingerprint() != PLATFORM_FINGERPRINT:
        pytest.skip("float primitives differ from the platform the digests were taken on")
    digests = report_digests(name, tmp_path)
    changed = sorted(k for k in digests.keys() | GOLDEN[name].keys()
                     if digests.get(k) != GOLDEN[name].get(k))
    assert not changed, f"{name}: report bytes changed in {changed}"


@pytest.mark.parametrize("name", sorted(TEXT_RUNS))
def test_text_stdout_matches_golden(name, tmp_path):
    if numeric_fingerprint() != PLATFORM_FINGERPRINT:
        pytest.skip("float primitives differ from the platform the digests were taken on")
    assert stdout_digest(name, tmp_path) == GOLDEN_STDOUT[name], f"{name}: stdout changed"


if __name__ == "__main__":
    import tempfile

    print(f"PLATFORM_FINGERPRINT = {numeric_fingerprint()!r}")
    print("GOLDEN = {")
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            digests = report_digests(run_name, Path(tmp))
        print(f"    {run_name!r}: {{")
        for file_name, digest in digests.items():
            print(f"        {file_name!r}:\n            {digest!r},")
        print("    },")
    print("}")
    print("GOLDEN_STDOUT = {")
    for run_name in sorted(TEXT_RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {run_name!r}:\n        {stdout_digest(run_name, Path(tmp))!r},")
    print("}")
