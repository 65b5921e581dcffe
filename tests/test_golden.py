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

import ciukit
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
    "whatif-tree-mixed": [
        ["train", "--data", "{data}", "--target", "label", "--trees", "10",
         "--depth", "4", "--model-out", "{dir}/model.json"],
        ["whatif", "--model", "{dir}/model.json", "--data", "{data}",
         "--target", "label", "--instance", "row:3", "--output-index", "1",
         "--feature", "a,c", "--format", "json,svg"],
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
            '7418a0f1b49246b087e259a42f9218ee9a8469ee0489eb1703892b477c46b386',
        'explain_influence_ciu.svg':
            '24536ae32ce52685085e0f89316a55daaf7a1b102f52c6d23ec2993a5347023c',
        'explain_influence_lime.svg':
            '46ac6483c325953572eb269a5882db532c35c7459fdc9130a1141133b61d06bf',
        'explain_influence_shapley.svg':
            'beedbbbbdb799134ccd0669cb4172bf577bd30c414c87ffd9a166e8843932328',
        'explain_report.csv':
            'cbdb5e30e69c94c8e4e1c92dce8c748c693b302b583725947407a5a276e86fb3',
        'explain_report.json':
            'eb585519ecb48d65cc9457d4aec28420bda07c256189af30174d99643f1f23de',
        'model.json':
            '1a942200e0382058efd8d9140bd73a509354ce16788facb24a92a21a36d298f5',
    },
    'explain-tree-regression': {
        'explain_ciu.svg':
            '2017af7c6d4a308f697763a9803764556d8a330bdddd52dc533e34d18843543c',
        'explain_influence_ciu.svg':
            'a602bb0c76cc3794722d414db48eec35fade7b44ff4f9352eb7a3c3a757e0b71',
        'explain_influence_lime.svg':
            '0ef19d549e6ad23a493b4a848501ca3f0af4741776f85a366b2604af049e15a2',
        'explain_influence_shapley.svg':
            'a94e2d803c317b271a641c1778ea284f035be7c1e7cb2c0228a6be09f896c6f2',
        'explain_report.csv':
            'efd58f580d5b748dd3245a42556032aafdfea0574e6ca3869d41ec1b7f271f62',
        'explain_report.json':
            '94d37d2caa4b10ab729bc82033622dc6d4926a1227892d92c3872e5386b0ac93',
        'model.json':
            'f50e841a7c8d56b38c25efe35c46809cf14eba0866a66e80e85abe6e3859144a',
    },
    'global-nonlinear': {
        'global_report.csv':
            '628f2d4b60d52599aa532803357f08ec62c233b567b30ca2682bbcd1e06e108c',
        'global_report.json':
            'ff548738aa7d9a40b62d7d1d7aead432ed47b4facd87982a7819873b38d5d9d6',
    },
    'global-tree-mixed': {
        'global_report.csv':
            'ac5e6b1625933012acb0464e9a423115ce71ca4ca4b8ed38726c22b9f5ecd8ee',
        'global_report.json':
            'ea347addb00e928d69f147b907962ed622789e6f265d6785e77c156c02e01931',
        'model.json':
            '1a942200e0382058efd8d9140bd73a509354ce16788facb24a92a21a36d298f5',
    },
    'global-tree-regression': {
        'global_report.csv':
            '321549c06c22c7c28b548dcfe1439e145d7450043b92f1b4aa57ea79209d3ce5',
        'global_report.json':
            '3ea40688f3fb1f8bc2256f409005d5c79aace341d15bea5d25378f9575ee5724',
        'model.json':
            'f50e841a7c8d56b38c25efe35c46809cf14eba0866a66e80e85abe6e3859144a',
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
            '1a942200e0382058efd8d9140bd73a509354ce16788facb24a92a21a36d298f5',
        'stability_contextual_influence.csv':
            '33a5335a06003f0c85cbfda781e851b540ff3cf66ae4d80b27a832e4b25bd962',
        'stability_contextual_influence.json':
            'b149e5acc11d0a735d06f2429269b6b4d9088f34064fcb2c554dd1b6f43d053a',
        'stability_contextual_influence.svg':
            '0435ecc61582f3f8546b14cad65a3f933bbbf7fe672bb644000233eed925de3a',
        'stability_lime_surrogate.csv':
            '15a61f052b56a104089e1f53ccd8ffcc8f715fd86265369ec857b88cc2fe9d09',
        'stability_lime_surrogate.json':
            'd95cfeddbaeea07692508548b0fe131f3e67037ef170501d3b3856b3f143ddc2',
        'stability_lime_surrogate.svg':
            '1feaa1094de525358047b36f520bb5f1f94d40efacb766060c800f49c914562b',
        'stability_shapley_mc.csv':
            '49799f52697fb40117bd110cdb8bfaa00c0692e1e0ad035a8ce36a2e26aed74d',
        'stability_shapley_mc.json':
            'acc9b1960e38b4e8b260aaba8d9feeccfcc746e2c7c5274e3bc79a5b4404ba0f',
        'stability_shapley_mc.svg':
            '86179c00cea344b344fb040950f927c21a8a0cfcb1fba884c5a63cbae614c8c9',
    },
    'train-tree-multiclass': {
        'model.json':
            'f750723fda9006d1397d2aebbdc687263f7dd818cee373f801e4e87834ad9bab',
    },
    'train-tree-regression': {
        'model.json':
            'f50e841a7c8d56b38c25efe35c46809cf14eba0866a66e80e85abe6e3859144a',
    },
    'whatif-linear': {
        'whatif_report.json':
            '685e70b398cf33692b3b01203d53738c6422a2e1c18b36d0faec5a9b5591c70a',
        'whatif_x1.svg':
            '3a16a59a2402d25699362935bd4b2682345b71f44aa1ced32fd85424e392a0c0',
        'whatif_x3.svg':
            '231ebe340826e6436f9fac460740dd4e1ce2bb2e4284f1ea11afa8d1d9c6f416',
    },
    'whatif-tree-mixed': {
        'model.json':
            '1a942200e0382058efd8d9140bd73a509354ce16788facb24a92a21a36d298f5',
        'whatif_a.svg':
            '9c8286d46538b71f050375c7dce77e24aad4038c049092580c1603250f5948e1',
        'whatif_c.svg':
            'ad57dc956762c9e591c13e6c99cca92c861458c91f3c1afe80f759045d76e813',
        'whatif_report.json':
            '9f200dbfa12f7e5cb1a888efcedcf8d71a7f0b1a07a7fd57bc08a61200e8e236',
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


# Block sizes far below the defaults: the predictor batch (``_CHUNK``, at
# every module that imports it by name), the tree-routing block and the
# split-scoring block. A row's output must not depend on its batch, so every
# report must keep its bytes when the work is cut into these blocks.
SMALL_BLOCKS = {"_CHUNK": 97, "_ROUTE_BLOCK": 100, "_SCORE_BLOCK": 1}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_hold_under_small_blocks(name, tmp_path, monkeypatch):
    if numeric_fingerprint() != PLATFORM_FINGERPRINT:
        pytest.skip("float primitives differ from the platform the digests were taken on")
    modules = [m for m in vars(ciukit).values() if isinstance(m, type(ciukit))]
    patched = set()
    for module in modules:
        for attr, value in SMALL_BLOCKS.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, value)
                patched.add(attr)
    assert patched == SMALL_BLOCKS.keys()
    assert report_digests(name, tmp_path) == GOLDEN[name]


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
