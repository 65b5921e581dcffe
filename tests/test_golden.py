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
from conftest import write_classification_csv, write_multiclass_csv, write_regression_csv

NONLINEAR_X = "[0.63, 0.63, 0.59, 0.81]"
LINEAR_X = "[0.2, 0.7, 0.4, 0.9]"

# Run name -> CLI argv list; every command but train also gets --output-dir.
# "{dir}" stands for that directory, "{data}" for a generated mixed-space
# CSV (three numeric features and one categorical), "{reg}" for a generated
# regression CSV (two numeric features, one with ties, and one categorical) and
# "{multi}" for a generated three-class CSV of the same make.
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
    "train-tree-multiclass": [
        ["train", "--data", "{multi}", "--target", "label", "--trees", "10",
         "--depth", "6", "--min-leaf", "3", "--model-out", "{dir}/model.json"],
    ],
    "train-tree-regression": [
        ["train", "--data", "{reg}", "--target", "y", "--trees", "10",
         "--depth", "6", "--min-leaf", "2", "--model-out", "{dir}/model.json"],
    ],
    "explain-tree-regression": [
        ["train", "--data", "{reg}", "--target", "y", "--trees", "10",
         "--depth", "6", "--min-leaf", "2", "--model-out", "{dir}/model.json"],
        ["explain", "--model", "{dir}/model.json", "--data", "{reg}",
         "--target", "y", "--instance", "row:3",
         "--method", "ciu,shapley,lime", "--format", "json,svg,csv"],
    ],
    # no --data: the output range is estimated from the model
    "global-tree-regression": [
        ["train", "--data", "{reg}", "--target", "y", "--trees", "10",
         "--depth", "6", "--min-leaf", "2", "--model-out", "{dir}/model.json"],
        ["global", "--model", "{dir}/model.json", "--iterations", "2",
         "--instances", "30", "--samples", "20", "--shapley-budget", "20",
         "--format", "json,csv"],
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
            '5dcfe87ca69a7929fc82a24835ad99284fd3fd90506d4741be1f2ad29443ac88',
        'explain_report.csv':
            '4a646a3ff6b4b11c783295536777b0cd08a75cf171c8446bf5c39997fe7e7a85',
        'explain_report.json':
            '49795b2956911598cf556af96d861cdbc1f0f55d269c0d4fe55c0294e93914f9',
    },
    'explain-tree-mixed': {
        'explain_ciu.svg':
            '332dfd7215f36b968c59bf45af5a8987a2f581286741b195f4adba0f52c6d22b',
        'explain_influence_ciu.svg':
            'c86cd42be593f6f8bce95853501b250ca8c34a53b84faad3ecf0de9ace507d22',
        'explain_influence_lime.svg':
            '4ee0a3be7834f421db44e28b72c654370921e4b0554b486e613fc11bdde0360d',
        'explain_influence_shapley.svg':
            'f6b14be0995a23a113228916ac8d00536d54ff3cc7a5b44468e9c09e1421c6e1',
        'explain_report.csv':
            '4b44d0f41f4d453465d63d1ddb1a186f396ee17a5eaa3dd47b221c0bd7fc514c',
        'explain_report.json':
            '353b8ff7be8a30560e6478b3d63c93d1cc4e6f91b3c4a379ad16252cf455a592',
        'model.json':
            '1ecbca249693ec37be74cff00f9eab2a72156b163437dbb2abcfcd85a40a6e18',
    },
    'explain-tree-regression': {
        'explain_ciu.svg':
            '624558710e7e4ca25d9d73369cad041b8a8a750f173538fc03773e2880ffa4ef',
        'explain_influence_ciu.svg':
            '84631e14d208e170d2a838cbd6d126fd7225e10727b5ea15a9bc171e6e9a265e',
        'explain_influence_lime.svg':
            'f68f01143c314b8deee1e2332588a109efb7f8dbbca1654f6454a9ba031caedb',
        'explain_influence_shapley.svg':
            'a03f12f2da0b7f16cf12d38c907f13f6daf409b2f96b35a72af37d1194d932f9',
        'explain_report.csv':
            '773877813a96db0287ed6e1692b8bf28f4dc6864ec906ad24a7be00bbe1f4cd9',
        'explain_report.json':
            '91a1de56d32b9ed603900209a00f192af02eb03cbafa7ea47f1dbd7f4488bdc9',
        'model.json':
            'efeaae937073755cd88ce085de45d0fb4662c683134e211b5ab2e48a968159ea',
    },
    'global-nonlinear': {
        'global_report.csv':
            '628f2d4b60d52599aa532803357f08ec62c233b567b30ca2682bbcd1e06e108c',
        'global_report.json':
            'ff548738aa7d9a40b62d7d1d7aead432ed47b4facd87982a7819873b38d5d9d6',
    },
    'global-tree-mixed': {
        'global_report.csv':
            '16e5373759aa9c44e92adcba5679153d47a147c35b14cf4367093f030d03796a',
        'global_report.json':
            '90f0986f468ea438760734043277889cb1f401b846bd98b44cd8b90669074f6a',
        'model.json':
            '1ecbca249693ec37be74cff00f9eab2a72156b163437dbb2abcfcd85a40a6e18',
    },
    'global-tree-regression': {
        'global_report.csv':
            'b13798f622593e7ce6a86da03ef509a6a323f3ee78ea4850da88d0fe6a33d034',
        'global_report.json':
            '1c4bc84c616fb094ec1213d4a2de91061e77df0aa4144d867005e2dc6932e61b',
        'model.json':
            'efeaae937073755cd88ce085de45d0fb4662c683134e211b5ab2e48a968159ea',
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
            '2f4d378b3521ae586a92910bdaf0e435223da56163fdc8a2ecf6d5eca90f09f2',
        'stability_shapley_mc.json':
            '0daa4bf6795f6707839fa50fa721a069165ae935cc9df4b0a041574dc48a8ead',
        'stability_shapley_mc.svg':
            '5677d4bd46d07f3f3312beca30fcc3089372f2f686e1cf23fe98712f323e9d8f',
    },
    'stability-tree-mixed': {
        'model.json':
            '1ecbca249693ec37be74cff00f9eab2a72156b163437dbb2abcfcd85a40a6e18',
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
            '41347f7fe26a0384ae9b7fa94c691f405c334a2fc37076a339678d92fc2e3140',
        'stability_shapley_mc.json':
            'daad94d5e34e379ba603cb61f013f777b70a27d649d2eb83da7302533fb3b67f',
        'stability_shapley_mc.svg':
            '4b4a0931783d2d2d29a212a92cacbc8a6b29e23b0345750bcddf4a4b503ed176',
    },
    'train-tree-multiclass': {
        'model.json':
            'a99d9dd8c6f33a2ec2363e35950bafbf8349c951ecf3bea40dfd99b10015e64e',
    },
    'train-tree-regression': {
        'model.json':
            'efeaae937073755cd88ce085de45d0fb4662c683134e211b5ab2e48a968159ea',
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
        '9d80c5031ac4cdf8ef5f824a7e31cb5323cb505208ed80009bf9fc1ad71286d9',
    'global-text':
        '06a9f872053988e7363c11426e5b4117e9424da2daecad6661e30e03eb8548c1',
    'stability-text':
        'aabda9b7d8da29191442da3b19a27f625c4bd7a6e94a645047dbfbc732c5542c',
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
        write_regression_csv("reg.csv", n=300, seed=11)
        write_multiclass_csv("multi.csv", n=300, seed=5)
        for argv in RUNS[name]:
            argv = [a.format(dir="out", data="data.csv", reg="reg.csv", multi="multi.csv") for a in argv]
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
