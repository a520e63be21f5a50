"""Golden bytes: the sha256 of every CSV, stdout and stderr of ``run`` and ``monitor``.

The digests pin the outputs of a small system at lengths around the
kernels' and the monitor's 16-step chunks, the 64-row blocks of the
outputs' products and a streamed run's 512-step chunks, and at lengths
that are no multiple of any.  Any change to the
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
        "run-central": "394b8589a398e16b",
        "run-distributed": "089a4b85ad5993b0",
        "run-both": "9b2566bdc28d3dc7",
        "run-central-monitor": "4add36bd2f7d7038",
        "run-distributed-monitor": "2c1487a959df9ced",
        "run-both-monitor": "a81dc3c8ed0f2803",
        "monitor-central": "02135af186b23f09",
        "monitor-distributed": "ec46f4a7e2ca6cd1",
    },
    16: {
        "run-central": "a9110b2078aa2b72",
        "run-distributed": "3f49e9ea669dea25",
        "run-both": "0a8f7a6761470d60",
        "run-central-monitor": "2460b739be92356f",
        "run-distributed-monitor": "4887ffd88f606a1b",
        "run-both-monitor": "17c17a80cedda8e0",
        "monitor-central": "88a41b7e946ecdca",
        "monitor-distributed": "0c3062277005c696",
    },
    17: {
        "run-central": "48902302dbe3bdbf",
        "run-distributed": "462e75148f720b34",
        "run-both": "fe5c09b418c6c341",
        "run-central-monitor": "334d722b5d595c23",
        "run-distributed-monitor": "fa95793f04650b6f",
        "run-both-monitor": "bd705b2febe7e05b",
        "monitor-central": "28800f59093eaa71",
        "monitor-distributed": "54ff35a4c528677d",
    },
    63: {
        "run-central": "815766a0d1f26d97",
        "run-distributed": "b2c86ac08fe98a2b",
        "run-both": "19a2ae75ed62ee16",
        "run-central-monitor": "c80f975756adb3d2",
        "run-distributed-monitor": "33b08e77a02ec1be",
        "run-both-monitor": "faeda94b1493b099",
        "monitor-central": "d59a332ce5e55d9b",
        "monitor-distributed": "3327bbf627e9662c",
    },
    64: {
        "run-central": "10fda4e845c78b4c",
        "run-distributed": "c0b33f3dec58e1d3",
        "run-both": "7a01078770e74afe",
        "run-central-monitor": "ea7db758eaf1b266",
        "run-distributed-monitor": "e6df53371ca98819",
        "run-both-monitor": "40318e255872781e",
        "monitor-central": "fbf67b909a839f7e",
        "monitor-distributed": "0221b559129fba51",
    },
    65: {
        "run-central": "6a9420c839fe4d71",
        "run-distributed": "38cbe0b277c98cbd",
        "run-both": "881f090cdb3513f3",
        "run-central-monitor": "cbcf4cd9c445b973",
        "run-distributed-monitor": "8bd6d89b10afca06",
        "run-both-monitor": "a9c26412321c7c1b",
        "monitor-central": "1d3fae818b54b491",
        "monitor-distributed": "1554233087f765dd",
    },
    200: {
        "run-central": "3d12cb800835717b",
        "run-distributed": "ad9a2e06a2391cf6",
        "run-both": "091f96d2729bff33",
        "run-central-monitor": "21b123582721c3a6",
        "run-distributed-monitor": "c558bd994e3cfb17",
        "run-both-monitor": "6f7d47a88ba5606a",
        "monitor-central": "f0680cd9a57f2675",
        "monitor-distributed": "d869aa321753047e",
    },
    513: {
        "run-central": "af794a3eb656e7c8",
        "run-distributed": "dd9dc08e947c8bfc",
        "run-both": "0a26c523fa6b3c45",
        "run-central-monitor": "03edfc6b79ad2d06",
        "run-distributed-monitor": "16f07c2b2a876bf2",
        "run-both-monitor": "51eee832f182b5b6",
        "monitor-central": "ddc4f5284442562f",
        "monitor-distributed": "311dddcfe9c94e85",
    },
    1000: {
        "run-central": "acbdd66240acc8d5",
        "run-distributed": "c29b8919c3a70ef3",
        "run-both": "c51f553f91e5393e",
        "run-central-monitor": "786beb11ac7969ae",
        "run-distributed-monitor": "6cde31caf25d2235",
        "run-both-monitor": "decddaf6e193516f",
        "monitor-central": "b73a734c0d66ce4c",
        "monitor-distributed": "8cb6cfe93cbefbda",
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
