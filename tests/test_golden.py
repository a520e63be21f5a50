"""Golden bytes: the sha256 of every CSV, stdout and stderr of ``run`` and ``monitor``.

The digests pin the outputs of a small system at lengths around the
kernels' and the monitor's 16-step chunks and a streamed run's 512-step
chunks, and at lengths that are no multiple of either.  Any change to the
arithmetic, its order, or the text of a value changes a digest.

The bytes depend on the BLAS kernels numpy runs, so the digests hold for
the build and CPU core they were recorded with (``RECORDED_ON``); on any
other the test is skipped, and the CLI's own cross-checks (one mode
against both, the CLI against the library) still run.
"""
import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from misoid.cli import main

SAMPLES = [0, 1, 15, 16, 17, 63, 64, 65, 200, 513, 1000]

#: numpy's version and its OpenBLAS core when the digests were recorded
RECORDED_ON = ("2.4.6", "SkylakeX")

COMMANDS = {
    "run-central": ["run", "--mode", "central", "--out-prefix", "{dir}/x"],
    "run-distributed": ["run", "--mode", "distributed", "--out-prefix", "{dir}/x"],
    "run-both": ["run", "--mode", "both", "--out-prefix", "{dir}/x"],
    "run-central-monitor": ["run", "--mode", "central", "--monitor", "--out-prefix", "{dir}/x"],
    "run-distributed-monitor": ["run", "--mode", "distributed", "--monitor",
                                "--out-prefix", "{dir}/x"],
    "run-both-monitor": ["run", "--mode", "both", "--monitor", "--out-prefix", "{dir}/x"],
    "monitor-central": ["monitor", "--mode", "central", "--out", "{dir}/x-central.csv"],
    "monitor-distributed": ["monitor", "--mode", "distributed",
                            "--out", "{dir}/x-distributed.csv"],
}

GOLDEN = {
    0: {
        "run-central": "b03bd5f7ca609f30",
        "run-distributed": "cc5a887ef928d6d6",
        "run-both": "8b0d9a70586d96e1",
        "run-central-monitor": "23d42b3ba9332504",
        "run-distributed-monitor": "a1a17914fced6f76",
        "run-both-monitor": "848786b24a43b64b",
        "monitor-central": "a36fdf943ea5d094",
        "monitor-distributed": "a36fdf943ea5d094",
    },
    1: {
        "run-central": "aace31044524faab",
        "run-distributed": "45cd45affe825b41",
        "run-both": "fc39217cba418162",
        "run-central-monitor": "8c78beb9213eabd5",
        "run-distributed-monitor": "498938aff95d716b",
        "run-both-monitor": "8e3dade1f92d1452",
        "monitor-central": "0fed7bc4711badfb",
        "monitor-distributed": "595c088046854646",
    },
    15: {
        "run-central": "760a2d5e0db03403",
        "run-distributed": "269493128694ffb5",
        "run-both": "896b1e18facc8ad7",
        "run-central-monitor": "261c415ecc202188",
        "run-distributed-monitor": "db08c1038dc3fb5e",
        "run-both-monitor": "2d4136bbfd846b6e",
        "monitor-central": "6cdde6d3a555c530",
        "monitor-distributed": "415097cbcc45c56d",
    },
    16: {
        "run-central": "425f047aceb8f3e1",
        "run-distributed": "249277cdaaff3baf",
        "run-both": "ed4d091d80f2975d",
        "run-central-monitor": "3eecd139d0b9a256",
        "run-distributed-monitor": "359c492e2c9616d3",
        "run-both-monitor": "c166349b4d51eff2",
        "monitor-central": "94ae50166b93b074",
        "monitor-distributed": "f770e9de8fb06c19",
    },
    17: {
        "run-central": "8d7af265dce94e4f",
        "run-distributed": "58eea397035e70f4",
        "run-both": "5cebad4d1aa30140",
        "run-central-monitor": "b6f4a5ea3eb9349d",
        "run-distributed-monitor": "f73332d6d7d7ae2f",
        "run-both-monitor": "7effe6337098d7fc",
        "monitor-central": "f6422e15db1501bf",
        "monitor-distributed": "dcbd43b36251cb15",
    },
    63: {
        "run-central": "c60fb793edd393ee",
        "run-distributed": "59a5a75ffaccf422",
        "run-both": "3880b054dd577115",
        "run-central-monitor": "b15d2d982cd3859b",
        "run-distributed-monitor": "d2d54f590f089489",
        "run-both-monitor": "6e4cd719522575ec",
        "monitor-central": "19f1db09dd74f054",
        "monitor-distributed": "4aa784f3cf5c865d",
    },
    64: {
        "run-central": "c4343a0612185139",
        "run-distributed": "f98463c3fe89fb6e",
        "run-both": "11e315904767a1b7",
        "run-central-monitor": "15a39318522c75e5",
        "run-distributed-monitor": "62cb73b6dfa42250",
        "run-both-monitor": "3344fc06ce72225d",
        "monitor-central": "ebe7fdb374554bd5",
        "monitor-distributed": "7cea98b44e518f41",
    },
    65: {
        "run-central": "5886e62df9985b04",
        "run-distributed": "4095e1628e655259",
        "run-both": "fd9fcc376d18a0de",
        "run-central-monitor": "775fea4a7f73e2a9",
        "run-distributed-monitor": "7f81bf0276b8251f",
        "run-both-monitor": "f204da628b009ec3",
        "monitor-central": "61347e8f93e6f46f",
        "monitor-distributed": "f8738c804f5785bc",
    },
    200: {
        "run-central": "a6131645a254e27e",
        "run-distributed": "ee579a89664ba58b",
        "run-both": "6d5433e6f3e45b95",
        "run-central-monitor": "707aa8aa257e0a70",
        "run-distributed-monitor": "e664ca42ce0ca316",
        "run-both-monitor": "4569f784a359ca30",
        "monitor-central": "1959d249a7f8fde0",
        "monitor-distributed": "5dee1394d090068a",
    },
    513: {
        "run-central": "8b7b9140e68c05b3",
        "run-distributed": "ef7879959e04d031",
        "run-both": "284d1729c2e7a5dc",
        "run-central-monitor": "003109882179ff9c",
        "run-distributed-monitor": "6e7d92a4bcff5c7a",
        "run-both-monitor": "1577fa812b116aba",
        "monitor-central": "59b1359278dabaf8",
        "monitor-distributed": "a99af88ea253b9bb",
    },
    1000: {
        "run-central": "d13d42d9e25e07c5",
        "run-distributed": "4ce54aefd4e33d35",
        "run-both": "ac6c8d2caa89ae7d",
        "run-central-monitor": "911d8f901109f167",
        "run-distributed-monitor": "759cdd8140aaadc0",
        "run-both-monitor": "af8d56037ee62586",
        "monitor-central": "88530cbbfc775174",
        "monitor-distributed": "bf24453b75022e65",
    },
}


def _blas_core():
    """The name of the OpenBLAS core numpy's bundled library runs, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def digests(directory, capfd, samples):
    """{command: sha256 of its exit code, stdout, stderr and CSVs} on a small system."""
    system = directory / "sys.json"
    assert main(["gen-system", "--seed", "3", "--modules", "4", "--min-order", "1",
                 "--max-order", "4", "--out", str(system)]) == 0
    out = {}
    for name, command in COMMANDS.items():
        for old in directory.glob("x-*.csv"):
            old.unlink()
        capfd.readouterr()
        argv = [arg.format(dir=directory) for arg in command]
        code = main(argv + ["--system", str(system), "--samples", str(samples), "--seed", "2"])
        captured = capfd.readouterr()
        digest = hashlib.sha256(f"{code}\n{captured.out}\n{captured.err}\n".replace(
            str(directory), "DIR").encode())
        for path in sorted(directory.glob("x-*")):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
        out[name] = digest.hexdigest()[:16]
    return out


@pytest.mark.skipif((np.__version__, _blas_core()) != RECORDED_ON,
                    reason=f"the digests were recorded on numpy and OpenBLAS core {RECORDED_ON}")
@pytest.mark.parametrize("samples", SAMPLES)
def test_outputs_keep_their_bytes(tmp_path, capfd, samples):
    assert digests(tmp_path, capfd, samples) == GOLDEN[samples]
