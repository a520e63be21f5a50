import contextlib
import errno
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import misoid.csvcolumns
import misoid.experiment
import misoid.kernels
import misoid.lyapunov
from misoid.cli import main
from misoid.csvcolumns import first_crossing, read_columns
from misoid.errors import NumericError
from misoid.experiment import (
    ExperimentConfig,
    generate_signals,
    read_trajectory_csv,
    run_central,
    run_distributed,
    run_experiment,
    write_trajectory_csv,
)
from misoid.fir import load_system
from misoid.lyapunov import MONITOR_COLUMNS


def _python(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env_vars):
    """A fresh interpreter run with args, importing misoid from this source tree.

    Its stdout and stderr are captured as text unless files are given.
    env_vars are set in its environment, or left out of it where they are None.
    """
    src = os.path.dirname(os.path.dirname(misoid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **env_vars)
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=stderr, text=True,
                          env=env, check=False)


def _gen_system(tmp_path, name="sys.json", modules=2, max_order=2, seed=0):
    path = tmp_path / name
    code = main([
        "gen-system", "--seed", str(seed), "--modules", str(modules),
        "--min-order", "1", "--max-order", str(max_order), "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenSystem:
    def test_writes_valid_system(self, tmp_path, capsys):
        path = _gen_system(tmp_path, modules=3, max_order=4)
        out = capsys.readouterr().out
        assert "result: n=" in out
        system = load_system(path)
        assert system.m == 3

    def test_scalar_system(self, tmp_path):
        path = _gen_system(tmp_path, modules=1, max_order=1)
        system = load_system(path)
        assert system.n == 1

    def test_same_seed_byte_identical(self, tmp_path):
        a = _gen_system(tmp_path, name="a.json", seed=5)
        b = _gen_system(tmp_path, name="b.json", seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_flags_exit_1(self, tmp_path):
        assert main(["gen-system", "--modules", "0",
                     "--out", str(tmp_path / "x.json")]) == 1
        assert main(["gen-system", "--no-such-flag", "1",
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_unwritable_path_exit_3(self, tmp_path):
        assert main(["gen-system", "--out", str(tmp_path / "nodir" / "x.json")]) == 3

    def test_orders_above_64(self, tmp_path):
        path = tmp_path / "high.json"
        assert main(["gen-system", "--seed", "1", "--modules", "5", "--min-order", "70",
                     "--max-order", "80", "--out", str(path)]) == 0
        assert all(70 <= order <= 80 for order in load_system(path).orders)


class TestRun:
    def test_both_modes_write_csvs(self, tmp_path):
        system = _gen_system(tmp_path)
        prefix = str(tmp_path / "out")
        code = main(["run", "--system", str(system), "--mode", "both",
                     "--samples", "50", "--sigma", "0.1", "--gamma", "100",
                     "--init-c", "100", "--seed", "1", "--out-prefix", prefix])
        assert code == 0
        assert (tmp_path / "out-central.csv").exists()
        assert (tmp_path / "out-distributed.csv").exists()

    def test_zero_samples_header_only(self, tmp_path):
        system = _gen_system(tmp_path)
        prefix = str(tmp_path / "empty")
        code = main(["run", "--system", str(system), "--mode", "both",
                     "--samples", "0", "--out-prefix", prefix])
        assert code == 0
        for mode in ("central", "distributed"):
            lines = (tmp_path / f"empty-{mode}.csv").read_text().splitlines()
            assert len(lines) == 1

    def test_monitored_zero_samples_header_names_monitor_columns(self, tmp_path, capsys):
        # a header-only file still has a W column, so compare finds no crossing in it
        system = _gen_system(tmp_path)
        prefix = str(tmp_path / "empty")
        assert main(["run", "--system", str(system), "--mode", "both", "--samples", "0",
                     "--monitor", "--out-prefix", prefix]) == 0
        paths = [f"{prefix}-central.csv", f"{prefix}-distributed.csv"]
        for mode in ("central", "distributed"):
            lines = (tmp_path / f"empty-{mode}.csv").read_text().splitlines()
            heads = ["alpha"] + [head for head, _ in MONITOR_COLUMNS]
            assert len(lines) == 1 and lines[0].endswith(",".join(heads))
        capsys.readouterr()
        assert main(["compare", "--a", paths[0], "--b", paths[1], "--metric", "W"]) == 0
        assert capsys.readouterr().out.count("first_crossing=none") == 2
        out = tmp_path / "m.csv"
        assert main(["monitor", "--system", str(system), "--mode", "central",
                     "--samples", "0", "--out", str(out)]) == 1
        assert not out.exists()

    def test_noise_free_central_recovery(self, tmp_path):
        system = _gen_system(tmp_path)
        prefix = str(tmp_path / "nf")
        code = main(["run", "--system", str(system), "--mode", "central",
                     "--samples", "400", "--sigma", "0", "--seed", "2",
                     "--out-prefix", prefix])
        assert code == 0
        cols = read_trajectory_csv(tmp_path / "nf-central.csv")
        assert cols["err_norm_sq"][-1] < 1e-10

    def test_missing_system_exit_3(self, tmp_path):
        assert main(["run", "--system", str(tmp_path / "missing.json"),
                     "--out-prefix", str(tmp_path / "x")]) == 3

    def test_cli_matches_library_bit_exact(self, tmp_path):
        system_path = _gen_system(tmp_path, seed=3)
        prefix = str(tmp_path / "gold")
        main(["run", "--system", str(system_path), "--mode", "distributed",
              "--samples", "40", "--sigma", "0.1", "--gamma", "100",
              "--init-c", "100", "--seed", "4", "--out-prefix", prefix])
        system = load_system(system_path)
        cfg = ExperimentConfig(
            seed=4, m=system.m,
            order_range=(min(system.orders), max(system.orders)),
            noise_std=0.1, gamma=100.0, init_c=100.0, samples=40,
            mode="distributed",
        )
        inputs, noise = generate_signals(system, cfg)
        traj = run_distributed(system, inputs, noise, cfg)
        lib_path = tmp_path / "lib.csv"
        write_trajectory_csv(traj, lib_path)
        assert lib_path.read_bytes() == (tmp_path / "gold-distributed.csv").read_bytes()

    @pytest.mark.parametrize("samples", [513, 1025])
    def test_streamed_run_matches_the_whole_draw(self, tmp_path, samples):
        # run streams 512 steps at a time, so each ends in a chunk of one row
        system_path = _gen_system(tmp_path, modules=100, max_order=2)
        prefix = tmp_path / "x"
        assert main(["run", "--system", str(system_path), "--mode", "both", "--monitor",
                     "--samples", str(samples), "--sigma", "0.1", "--gamma", "100",
                     "--init-c", "100", "--seed", "1", "--out-prefix", str(prefix)]) == 0
        _no_child_left()
        config = ExperimentConfig(seed=1, noise_std=0.1, gamma=100.0, init_c=100.0,
                                  samples=samples)
        result = run_experiment(config, load_system(system_path), monitor=True)
        for mode in config.modes:
            write_trajectory_csv(getattr(result, mode), tmp_path / "lib.csv")
            assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / f"x-{mode}.csv").read_bytes()

    def test_monitor_flag_appends_columns(self, tmp_path):
        system = _gen_system(tmp_path)
        prefix = str(tmp_path / "mon")
        code = main(["run", "--system", str(system), "--mode", "distributed",
                     "--samples", "20", "--sigma", "0", "--monitor",
                     "--out-prefix", prefix])
        assert code == 0
        header = (tmp_path / "mon-distributed.csv").read_text().splitlines()[0]
        assert "overline_dW" in header


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_temporary_left(directory):
    assert not list(directory.glob("*.tmp"))


def _run_argv(system, mode, prefix, samples=17, monitor=False):
    return ["run", "--system", str(system), "--mode", mode, "--samples", str(samples),
            "--sigma", "0", "--seed", "1", "--out-prefix", str(prefix)] + (
        ["--monitor"] if monitor else [])


def _monitor_argv(system, mode, out, samples=17):
    return ["monitor", "--system", str(system), "--mode", mode, "--samples", str(samples),
            "--seed", "1", "--out", str(out)]


class TestRunWriters:
    """run --mode both runs the central estimator and writes its CSV in a
    forked child while it runs the distributed one and writes that itself;
    each CSV goes to a temporary that is renamed onto its target only when
    both succeeded.  monitor commits its one CSV the same way."""

    @pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
    @pytest.mark.parametrize("samples", [0, 1, 17, 400])
    def test_both_matches_single_modes(self, tmp_path, capsys, samples, monitor):
        system = _gen_system(tmp_path)
        capsys.readouterr()
        assert main(_run_argv(system, "both", tmp_path / "both", samples, monitor)) == 0
        _no_child_left()
        both_out = capsys.readouterr().out
        single_out = ""
        for mode in ("central", "distributed"):
            assert main(_run_argv(system, mode, tmp_path / "one", samples, monitor)) == 0
            single_out += capsys.readouterr().out
            one = (tmp_path / f"one-{mode}.csv").read_bytes()
            assert (tmp_path / f"both-{mode}.csv").read_bytes() == one
        assert both_out == single_out.replace(str(tmp_path / "one"), str(tmp_path / "both"))
        _no_temporary_left(tmp_path)

    @pytest.mark.parametrize("failing", ["nodir", "central", "distributed"])
    def test_failure_names_first_failing_file_once(self, tmp_path, capfd, failing):
        # the child reports on stderr, so capture at the file descriptor level
        system = _gen_system(tmp_path)
        prefix = tmp_path / "nodir" / "x" if failing == "nodir" else tmp_path / "x"
        if failing != "nodir":
            (tmp_path / f"x-{failing}.csv").mkdir()
        capfd.readouterr()
        assert main(_run_argv(system, "both", prefix)) == 3
        _no_child_left()
        out, err = capfd.readouterr()
        first = "central" if failing == "nodir" else failing
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: I/O failure: ")
        assert lines[0].endswith(f"x-{first}.csv'")
        assert "Traceback" not in err
        _no_temporary_left(tmp_path)
        if failing == "distributed":
            assert out.startswith(f"info: wrote {prefix}-central.csv\n")
            assert main(_run_argv(system, "central", tmp_path / "one")) == 0
            one = (tmp_path / "one-central.csv").read_bytes()
            assert (tmp_path / "x-central.csv").read_bytes() == one
        else:
            assert out == ""

    @pytest.mark.parametrize("failing", [("central",), ("distributed",),
                                         ("central", "distributed")],
                             ids=["central", "distributed", "both"])
    def test_failing_estimator_writes_no_csv(self, tmp_path, capsys, monkeypatch, failing):
        # the estimators exchange their outcomes before either writes, and
        # only the first failure in mode order is printed
        for mode in failing:
            def fail(*args, mode=mode):
                raise NumericError(f"the {mode} kernel failed")
            monkeypatch.setattr(misoid.kernels, mode, fail)
        system = _gen_system(tmp_path)
        capsys.readouterr()
        assert main(_run_argv(system, "both", tmp_path / "x")) == 2
        _no_child_left()
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: the {failing[0]} kernel failed\n"
        assert not list(tmp_path.glob("x-*"))

    @pytest.mark.parametrize("exc,code,text", [
        (MemoryError("no room"), 2, "error: out of memory: no room"),
        (OSError("disk full"), 3, "error: I/O failure: disk full"),
        (None, 3, "error: I/O failure: the writer of {prefix}-central.csv was ended by signal 9"),
        (5, 3, "error: I/O failure: the writer of {prefix}-central.csv ended with exit code 5"),
        (RuntimeError("bug"), 1, "RuntimeError: bug"),
    ], ids=["memory", "io", "signal", "exit", "unexpected"])
    def test_child_failure_maps_to_exit_code(self, tmp_path, capfd, monkeypatch, exc, code,
                                              text):
        parent = os.getpid()
        write = misoid.experiment.write_trajectory_csv

        def failing_write(traj, path):
            if traj.mode == "central" and os.getpid() != parent:
                if exc is None:
                    os.kill(os.getpid(), signal.SIGKILL)
                if isinstance(exc, int):
                    os._exit(exc)  # ends without sending any text
                raise exc
            write(traj, path)

        # cli looks the writer up in experiment each time it runs
        monkeypatch.setattr(misoid.experiment, "write_trajectory_csv", failing_write)
        system = _gen_system(tmp_path)
        capfd.readouterr()
        prefix = tmp_path / "x"
        assert main(_run_argv(system, "both", prefix)) == code
        _no_child_left()
        out, err = capfd.readouterr()
        lines = err.splitlines()
        assert out == "" and lines[-1] == text.format(prefix=prefix)
        _no_temporary_left(tmp_path)
        # an unexpected error ends the child as it ends a process: traceback, exit 1
        assert lines[0] == "Traceback (most recent call last):" if code == 1 else len(lines) == 1

    @pytest.mark.parametrize("no_fork", ["missing", "failing", "sigchld-ignored"])
    def test_without_fork_the_files_are_written_here(self, tmp_path, capsys, monkeypatch,
                                                     request, no_fork):
        system = _gen_system(tmp_path)
        assert main(_run_argv(system, "both", tmp_path / "forked")) == 0
        if no_fork == "missing":
            monkeypatch.delattr(os, "fork")
        elif no_fork == "failing":
            def fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", fork)
        else:
            # a child would be reaped unseen, and its exit code lost
            previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, previous))
        capsys.readouterr()
        assert main(_run_argv(system, "both", tmp_path / "here")) == 0
        assert capsys.readouterr().out.count("info: wrote") == 2
        for mode in ("central", "distributed"):
            forked = (tmp_path / f"forked-{mode}.csv").read_bytes()
            assert (tmp_path / f"here-{mode}.csv").read_bytes() == forked
        (tmp_path / "nodir-central.csv").mkdir()
        assert main(_run_argv(system, "both", tmp_path / "nodir")) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        _no_temporary_left(tmp_path)

    @pytest.mark.parametrize("mode,failing,end", [
        ("central", "central", "enospc"), ("distributed", "distributed", "enospc"),
        ("both", "central", "enospc"), ("both", "distributed", "enospc"),
        ("both", "central", "sigkill"),
        ("monitor", "central", "enospc"), ("monitor", "distributed", "enospc"),
    ], ids=["central", "distributed", "both-central", "both-distributed", "both-killed",
            "monitor-central", "monitor-distributed"])
    def test_partly_written_csv_leaves_no_file(self, tmp_path, capfd, monkeypatch, mode,
                                               failing, end):
        # the writer writes part of its file, then runs out of room or is
        # killed: no file is left at either target, nor a temporary, and a
        # file that was at monitor's target keeps its bytes
        write = misoid.experiment.write_trajectory_csv

        def partial_write(traj, path):
            if mode != "monitor" and traj.mode != failing:
                return write(traj, path)
            with open(path, "w") as fh:
                fh.write("k,err_norm_sq\n0,")
            if end == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        system = _gen_system(tmp_path)
        prefix = tmp_path / "x"
        target = tmp_path / f"x-{failing}.csv"
        if mode == "monitor":
            monkeypatch.setattr(misoid.lyapunov, "write_monitor_csv", partial_write)
            target.write_bytes(b"kept\n")
            argv = _monitor_argv(system, failing, target)
        else:
            monkeypatch.setattr(misoid.experiment, "write_trajectory_csv", partial_write)
            argv = _run_argv(system, mode, prefix)
        capfd.readouterr()
        assert main(argv) == 3
        _no_child_left()
        out, err = capfd.readouterr()
        assert out == "" and err == ("error: I/O failure: " + (
            f"the writer of {target} was ended by signal 9" if end == "sigkill"
            else f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'") + "\n")
        assert list(tmp_path.glob("x-*")) == ([target] if mode == "monitor" else [])
        if mode == "monitor":
            assert target.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("failing,error", [("central", NumericError),
                                               ("distributed", NumericError),
                                               ("central", RuntimeError)],
                             ids=["central", "distributed", "central-unexpected"])
    def test_a_failing_estimator_stops_the_other(self, tmp_path, capsys, monkeypatch, failing,
                                                  error):
        # the other estimator, forked or not, stops at its next chunk: its
        # writer formats about a chunk of the draw's rows, not its whole
        # run; an unexpected error in the child stops it too.  Each flushed
        # block's row count goes to a file, which a forked writer appends to
        # as well
        other = "distributed" if failing == "central" else "central"
        system = _gen_system(tmp_path)
        counts, flush = tmp_path / "rows", misoid.csvcolumns.RowWriter.flush

        def counted(writer):
            with open(counts, "a") as fh:
                fh.write(f"{writer.filled}\n")
            flush(writer)

        def fail(*args):
            raise error(f"the {failing} kernel failed")

        monkeypatch.setattr(misoid.csvcolumns.RowWriter, "flush", counted)
        monkeypatch.setattr(misoid.kernels, failing, fail)
        capsys.readouterr()
        code = main(_run_argv(system, "both", tmp_path / "x", samples=10000))
        formatted = sum(map(int, counts.read_text().split())) if counts.exists() else 0
        assert formatted < 10000 / 3, f"the {other} writer formatted {formatted} rows"
        _no_child_left()
        out, err = capsys.readouterr()
        if error is NumericError:
            assert code == 2
            assert (out, err) == ("", f"error: the {failing} kernel failed\n")
        else:
            # the child ends as a process would: its traceback and exit 1
            lines = err.splitlines()
            assert code == 1 and out == ""
            assert lines[0] == "Traceback (most recent call last):"
            assert lines[-1] == f"RuntimeError: the {failing} kernel failed"
        _no_temporary_left(tmp_path)
        assert not list(tmp_path.glob("x-*"))

    def test_the_failure_flag_ends_with_its_command(self, tmp_path, capsys, monkeypatch):
        # a run whose distributed kernel fails stops the forked central one;
        # the next run in the same process runs both to the end, over
        # several chunks, and writes both files
        system = _gen_system(tmp_path)

        def fail(*args):
            raise NumericError("the distributed kernel failed")

        with monkeypatch.context() as patch:
            patch.setattr(misoid.kernels, "distributed", fail)
            assert main(_run_argv(system, "both", tmp_path / "x", samples=2000)) == 2
        capsys.readouterr()
        assert main(_run_argv(system, "both", tmp_path / "y", samples=2000)) == 0
        _no_child_left()
        out = capsys.readouterr().out
        for mode in ("central", "distributed"):
            assert f"info: wrote {tmp_path / f'y-{mode}.csv'}\n" in out
            assert len((tmp_path / f"y-{mode}.csv").read_bytes().splitlines()) == 2001
        assert not list(tmp_path.glob("x-*"))
        _no_temporary_left(tmp_path)

    def test_interrupt_reaps_the_child_and_removes_temporaries(self, tmp_path, monkeypatch):
        # this process's own kernel is interrupted while the child runs central
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(misoid.kernels, "distributed", interrupted)
        system = _gen_system(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            main(_run_argv(system, "both", tmp_path / "x", samples=400))
        _no_child_left()
        assert not list(tmp_path.glob("x-*"))

    @pytest.mark.parametrize("command", ["run", "monitor"])
    def test_targets_are_replaced_by_rename(self, tmp_path, command):
        # a link at a target is replaced, not written through, and the new
        # file's mode follows the umask, not the old file's
        system = _gen_system(tmp_path)
        elsewhere = tmp_path / "elsewhere.csv"
        elsewhere.write_text("kept\n")
        (tmp_path / "x-central.csv").symlink_to(elsewhere)
        (tmp_path / "x-distributed.csv").write_text("old\n")
        (tmp_path / "x-distributed.csv").chmod(0o600)
        argvs = [_run_argv(system, "both", tmp_path / "x")] if command == "run" else [
            _monitor_argv(system, mode, tmp_path / f"x-{mode}.csv")
            for mode in ("central", "distributed")]
        for argv in argvs:
            assert main(argv) == 0
        umask = os.umask(0)
        os.umask(umask)
        for mode in ("central", "distributed"):
            target = tmp_path / f"x-{mode}.csv"
            assert not target.is_symlink() and target.read_text().startswith("k,")
            assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        assert elsewhere.read_text() == "kept\n"

    def test_no_warning(self, tmp_path):
        # Python 3.12 warns when a process with threads forks
        system = _gen_system(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_run_argv(system, "both", tmp_path / "x", samples=400)) == 0

    def test_child_flushes_nothing_of_the_caller(self, tmp_path):
        # stdout to a pipe is block-buffered: a child that flushed it on
        # exit would repeat the caller's pending output
        system = _gen_system(tmp_path)
        code = ("import sys; from misoid.cli import main; print('pending'); "
                f"sys.exit(main({_run_argv(system, 'both', tmp_path / 'x')!r}))")
        proc = _python("-c", code)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.count("pending") == 1
        assert proc.stdout.count("info: wrote") == 2


def test_run_memory_does_not_grow_with_samples(tmp_path):
    # each estimator is drawn, estimated and written a chunk at a time
    system = _gen_system(tmp_path)
    peaks = []
    for samples in (2000, 20000):
        tracemalloc.start()
        try:
            assert main(_run_argv(system, "distributed", tmp_path / "x", samples)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 300_000


@pytest.mark.parametrize("m, order_range, samples", [(100, (1, 2), 3500), (1000, (1, 3), 600)],
                         ids=["n156", "n2040"])
def test_outputs_do_not_depend_on_the_blas_thread_count(m, order_range, samples):
    # a threaded matrix product splits the rows between the threads, and a row's
    # last bits depend on where its split falls (at n = 156, from row 1750 of
    # 3500); the outputs call no BLAS, at any n
    code = ("import hashlib; from misoid.experiment import ExperimentConfig, draw, random_system; "
            f"system = random_system(ExperimentConfig(seed=0, m={m}, order_range={order_range})); "
            f"ys = draw(system, ExperimentConfig(seed=1, samples={samples}))[1]; "
            "print(hashlib.sha256(ys.tobytes()).hexdigest())")
    runs = [_python("-c", code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


class TestEntry:
    """The misoid process runs cli.entry: main with the cyclic GC off, and
    every object frozen at exit; main itself leaves the collector alone."""

    @pytest.mark.parametrize("command", ["run", "monitor", "compare"])
    def test_main_leaves_the_collector_as_it_was(self, tmp_path, capsys, command):
        system = _gen_system(tmp_path)
        argv = _run_argv(system, "both", tmp_path / "x", monitor=True)
        if command == "monitor":
            argv = ["monitor", "--system", str(system), "--mode", "distributed",
                    "--samples", "17", "--out", str(tmp_path / "m.csv")]
        elif command == "compare":
            assert main(argv) == 0
            argv = ["compare", "--a", str(tmp_path / "x-central.csv"),
                    "--b", str(tmp_path / "x-distributed.csv")]
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_entry_collects_nothing_and_freezes(self, tmp_path):
        system = _gen_system(tmp_path)
        argv = _run_argv(system, "both", tmp_path / "x", samples=400, monitor=True)
        code = ("import gc, sys; from misoid.cli import entry; sys.argv[1:] = %r; "
                "runs = [s['collections'] for s in gc.get_stats()]; code = entry(); "
                "print(runs == [s['collections'] for s in gc.get_stats()], gc.isenabled(), "
                "gc.get_freeze_count() > 0, file=sys.stderr); sys.exit(code)" % argv)
        proc = _python("-c", code)
        assert proc.returncode == 0 and proc.stdout.count("info: wrote") == 2
        assert proc.stderr == "True False True\n"

    @pytest.mark.parametrize("case", ["monitor", "exit-2", "exit-3"])
    def test_process_prints_and_writes_what_main_does(self, tmp_path, capfd, case):
        # stdout to a file is block-buffered unless PYTHONUNBUFFERED is set, so
        # what main printed reaches it only when the frozen process flushes at exit
        if case == "exit-2":
            system = _gen_system(tmp_path, modules=20, max_order=3, seed=5)
            argv = _run_argv(system, "both", tmp_path / "x", samples=300) + [
                "--gamma", "1e-3", "--init-c", "1e8", "--seed", "5"]
        else:
            system = _gen_system(tmp_path)
            prefix = tmp_path / ("x" if case == "monitor" else "nodir/x")
            argv = _run_argv(system, "both", prefix, samples=200, monitor=True)
        paths = [tmp_path / f"x-{mode}.csv" for mode in ("central", "distributed")]
        capfd.readouterr()
        code = main(argv)
        expected = capfd.readouterr()
        written = [path.read_bytes() for path in paths if path.exists()]
        for path in paths:
            path.unlink(missing_ok=True)
        with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
            proc = _python("-m", "misoid.cli", *argv, stdout=out, stderr=err,
                           PYTHONUNBUFFERED=None)
        assert code == {"monitor": 0, "exit-2": 2, "exit-3": 3}[case]
        assert proc.returncode == code
        assert (tmp_path / "out").read_text() == expected.out
        assert (tmp_path / "err").read_text() == expected.err
        assert [path.read_bytes() for path in paths if path.exists()] == written
        assert len(written) == (2 if case == "monitor" else 0)
        assert len(expected.err.splitlines()) == (0 if case == "monitor" else 1)


def test_system_file_with_long_module_runs(tmp_path):
    # a 65-tap module lies outside random_system's order range, not the file format's
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"modules": [[0.01] * 65, [0.5]], "noise_std": 0.0}))
    assert main(["run", "--system", str(path), "--samples", "20",
                 "--out-prefix", str(tmp_path / "long")]) == 0
    assert main(["monitor", "--system", str(path), "--mode", "distributed",
                 "--samples", "20", "--out", str(tmp_path / "long-monitor.csv")]) == 0


class TestMonitorCommand:
    def test_writes_report(self, tmp_path, capsys):
        system = _gen_system(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["monitor", "--system", str(system), "--mode", "distributed",
                     "--samples", "50", "--sigma", "0", "--out", str(out)])
        assert code == 0
        assert "result: violations=" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("k,W,deltaW")

    def test_noise_free_by_default(self, tmp_path, capsys):
        system = _gen_system(tmp_path, modules=4, max_order=3)
        out = str(tmp_path / "m.csv")
        argv = ["monitor", "--system", str(system), "--mode", "central",
                "--samples", "300", "--out", out]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "result: violations=0 " in stdout
        assert "noise-driven" not in stdout
        assert main(argv + ["--sigma", "0.1"]) == 0
        assert "info: sigma=0.1 > 0: violations" in capsys.readouterr().out

    def test_zero_samples_is_a_usage_error(self, tmp_path, capsys):
        system = _gen_system(tmp_path)
        (tmp_path / "m.csv").write_text("kept\n")
        capsys.readouterr()
        assert main(_monitor_argv(system, "distributed", tmp_path / "m.csv", samples=0)) == 1
        assert capsys.readouterr() == ("", "error: no samples to monitor\n")
        assert (tmp_path / "m.csv").read_text() == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.csv", "sys.json"]

    @pytest.mark.parametrize("mode", ["central", "distributed"])
    def test_zero_samples_are_refused_before_any_file_io(self, tmp_path, capsys, mode):
        # the refusal comes before the write, so a target in a missing
        # directory is never reached: a usage error, not an I/O failure
        system = _gen_system(tmp_path)
        capsys.readouterr()
        assert main(_monitor_argv(system, mode, tmp_path / "nodir" / "m.csv", samples=0)) == 1
        assert capsys.readouterr() == ("", "error: no samples to monitor\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["sys.json"]

    def test_both_mode_rejected(self, tmp_path):
        system = _gen_system(tmp_path)
        assert main(["monitor", "--system", str(system), "--mode", "both",
                     "--samples", "10", "--out", str(tmp_path / "r.csv")]) == 1

    def test_mode_is_required(self, tmp_path, capsys):
        system = _gen_system(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["monitor", "--system", str(system), "--samples", "10",
                     "--out", str(out)]) == 1
        assert "required: --mode" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("mode", ["central", "distributed"])
def test_run_monitor_and_monitor_csv_share_their_columns(tmp_path, mode):
    # run --monitor and monitor write the monitor columns through one row writer
    system_path = _gen_system(tmp_path, modules=4, max_order=4, seed=3)
    common = ["--system", str(system_path), "--mode", mode, "--samples", "400",
              "--sigma", "0", "--seed", "2"]
    assert main(["run", *common, "--monitor", "--out-prefix", str(tmp_path / "run")]) == 0
    assert main(["monitor", *common, "--out", str(tmp_path / "mon.csv")]) == 0
    run_lines = (tmp_path / f"run-{mode}.csv").read_text().splitlines()
    mon_lines = (tmp_path / "mon.csv").read_text().splitlines()
    n_mon = len(mon_lines[0].split(",")) - 1  # every monitor column but k
    assert len(run_lines) == len(mon_lines) == 401
    for run_line, mon_line in zip(run_lines, mon_lines):
        assert run_line.split(",")[-n_mon:] == mon_line.split(",")[1:]

    system = load_system(system_path)
    cfg = ExperimentConfig(seed=2, noise_std=0.0, samples=400, mode=mode)
    runner = run_central if mode == "central" else run_distributed
    report = runner(system, *generate_signals(system, cfg), cfg, monitor=True).monitor
    cols = read_trajectory_csv(tmp_path / "mon.csv")
    assert np.array_equal(cols["k"], np.arange(400))
    for head, col in report.columns().items():
        assert np.array_equal(cols[head], col), head
    if mode == "distributed":
        assert np.isinf(cols["gamma_bound"]).any()  # the converged tail is degenerate


class TestCompare:
    def _make_run(self, tmp_path):
        system = _gen_system(tmp_path)
        prefix = str(tmp_path / "cmp")
        main(["run", "--system", str(system), "--mode", "both", "--samples",
              "300", "--sigma", "0.1", "--seed", "6", "--out-prefix", prefix])
        return tmp_path / "cmp-central.csv", tmp_path / "cmp-distributed.csv"

    def test_identical_files_zero_difference(self, tmp_path, capsys):
        a, _ = self._make_run(tmp_path)
        code = main(["compare", "--a", str(a), "--b", str(a),
                     "--threshold-frac", "0.1"])
        assert code == 0
        assert "result: difference=0" in capsys.readouterr().out

    def test_threshold_one_crosses_at_zero(self, tmp_path, capsys):
        a, b = self._make_run(tmp_path)
        code = main(["compare", "--a", str(a), "--b", str(b),
                     "--threshold-frac", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("first_crossing=0") == 2

    def test_central_vs_distributed_reported(self, tmp_path, capsys):
        a, b = self._make_run(tmp_path)
        code = main(["compare", "--a", str(a), "--b", str(b),
                     "--threshold-frac", "0.1"])
        assert code == 0
        assert "result: difference=" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_threshold_frac_exit_1(self, tmp_path, capsys, value):
        a, b = self._make_run(tmp_path)
        code = main(["compare", "--a", str(a), "--b", str(b), "--threshold-frac", value])
        assert code == 1
        assert "--threshold-frac" in capsys.readouterr().err

    def test_threshold_frac_above_one_accepted(self, tmp_path, capsys):
        a, b = self._make_run(tmp_path)
        assert main(["compare", "--a", str(a), "--b", str(b), "--threshold-frac", "2"]) == 0
        assert capsys.readouterr().out.count("first_crossing=0") == 2

    def test_metric_without_positive_start_exit_1(self, tmp_path, capsys):
        # deltaW starts negative, so a fraction of its start is no target
        system = _gen_system(tmp_path)
        mon = str(tmp_path / "mon.csv")
        assert main(["monitor", "--system", str(system), "--mode", "distributed",
                     "--samples", "50", "--out", mon]) == 0
        capsys.readouterr()
        assert main(["compare", "--a", mon, "--b", mon, "--metric", "deltaW"]) == 1
        captured = capsys.readouterr()
        assert "first_crossing" not in captured.out
        assert "deltaW" in captured.err

    def test_missing_column_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,foo\n0,1.0\n")
        a, _ = self._make_run(tmp_path)
        assert main(["compare", "--a", str(bad), "--b", str(a)]) == 1

    @pytest.mark.parametrize("content,code", [
        (b"k,err_norm_sq\n1,1.0\n\n2,0.5\n", 0),
        (b"k,err_norm_sq\r\n1,1.0\r\n2,0.5\r\n", 0),
        (b"k,err_norm_sq\n1,1.0\n2,0.5", 0),
        (b"k,err_norm_sq\n", 0),
        (b"k,err_norm_sq\n1,1.0\n  \n2,0.5\n", 1),
        (b"k,err_norm_sq\n1,1.0\n#x\n2,0.5\n", 1),
        (b"k,err_norm_sq,eps\n1,1.0,0\n2,0.5,\xff\n", 1),
        (b"k,err_norm_sq\n1,1.0\n2,x\n", 1),
        (b"k,foo\n1,1.0\n", 1),
    ], ids=["blank-line", "crlf", "no-trailing-newline", "header-only", "whitespace-line",
            "hash-line", "undecodable-byte-unread-column", "non-numeric-metric",
            "missing-metric"])
    def test_exit_codes_on_edge_files(self, tmp_path, capsys, content, code):
        path = tmp_path / "edge.csv"
        path.write_bytes(content)
        assert main(["compare", "--a", str(path), "--b", str(path),
                     "--threshold-frac", "0.5"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.splitlines() == [captured.err.strip()]
            assert captured.err.startswith(f"error: {path}")
        elif content == b"k,err_norm_sq\n":
            assert captured.out.endswith("result: difference=undefined\n")
        else:
            assert captured.out.count("first_crossing=1") == 2

    @pytest.mark.parametrize("second", ["distributed", "ragged"])
    def test_runs_without_numpy(self, tmp_path, capsys, second):
        a, b = self._make_run(tmp_path)
        if second == "ragged":
            b.write_text("k,err_norm_sq\n0,1.0,2\n")
        argv = ["compare", "--a", str(a), "--b", str(b)]
        capsys.readouterr()
        code = main(argv)
        expected = capsys.readouterr()
        proc = _python("-c", "import sys; from misoid.cli import main; code = main(%r); "
                             "print('numpy' in sys.modules, file=sys.stderr); "
                             "sys.exit(code)" % argv)
        assert (proc.returncode, proc.stdout) == (code, expected.out)
        assert proc.stderr == expected.err + "False\n"

    def test_package_root_imports_nothing(self):
        proc = _python("-c", "import sys, misoid; print(sorted(m for m in sys.modules "
                             "if m.startswith('misoid')), 'numpy' in sys.modules, "
                             "hasattr(misoid, 'MisoSystem'))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['misoid'] False False\n", "")

    # this process imported misoid.cli, so its own environment holds the value already
    @pytest.mark.parametrize("exported, seen", [(None, "20"), ("7", "7")],
                             ids=["default", "exported"])
    def test_cli_import_shortens_the_blas_spin_before_numpy(self, exported, seen):
        proc = _python("-c", "import os, sys, misoid.cli; print(os.environ.get("
                             "'OPENBLAS_THREAD_TIMEOUT'), 'numpy' in sys.modules)",
                       OPENBLAS_THREAD_TIMEOUT=exported)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{seen} False\n", "")

    # the monitor and the CSV module load only in the commands that run them
    @pytest.mark.parametrize("statement, loaded", [
        ("import misoid.cli", "False False False"),
        ("import misoid.csvcolumns", "False True False"),
        ("import misoid.experiment", "True False False"),
        ("from misoid.cli import main; main(RUN)", "True True False"),
        ("from misoid.cli import main; main(RUN + ['--monitor'])", "True True True"),
    ], ids=["cli", "csvcolumns", "experiment", "run", "run-monitor"])
    def test_each_command_imports_what_it_runs(self, tmp_path, statement, loaded):
        argv = _run_argv(_gen_system(tmp_path), "both", tmp_path / "x")
        proc = _python("-c", f"import sys; RUN = {argv!r}; {statement}; print(*(name in "
                             "sys.modules for name in ('numpy', 'misoid.csvcolumns', "
                             "'misoid.lyapunov')))")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == loaded

    def test_unread_column_is_not_parsed(self, tmp_path, capsys):
        # a full read rejects the dirty file (test_malformed_csv_names_the_file)
        clean = tmp_path / "clean.csv"
        clean.write_text("k,err_norm_sq,eps\n0,1.0,0\n1,0.5,0\n2,0.001,0\n")
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("k,err_norm_sq,eps\n0,1.0,0\n1,0.5,x\n2,0.001,0\n")
        outputs = []
        for path in (clean, dirty):
            assert main(["compare", "--a", str(path), "--b", str(path)]) == 0
            outputs.append(capsys.readouterr().out.replace(str(path), "FILE"))
        assert outputs[0] == outputs[1]
        assert "first_crossing=2" in outputs[0]

    @pytest.mark.parametrize("metric,flags", [
        ("err_norm_sq", []),
        ("W", ["--monitor", "--sigma", "0"]),
    ], ids=["err_norm_sq", "monitor-W"])
    def test_metric_crossing_matches_full_read(self, tmp_path, capsys, metric, flags):
        system = _gen_system(tmp_path)
        prefix = tmp_path / "rt"
        assert main(["run", "--system", str(system), "--mode", "both", "--samples", "300",
                     "--seed", "6", "--out-prefix", str(prefix), *flags]) == 0
        paths = [f"{prefix}-central.csv", f"{prefix}-distributed.csv"]
        capsys.readouterr()
        assert main(["compare", "--a", paths[0], "--b", paths[1], "--metric", metric,
                     "--threshold-frac", "0.01"]) == 0
        out = capsys.readouterr().out
        for label, path in zip("ab", paths):
            crossing = first_crossing(read_columns(path, [metric])[metric], 0.01)
            assert crossing is not None and crossing > 0
            assert f"result: {label}={path} first_crossing={crossing}\n" in out


class TestErrorContract:
    """Malformed files and flags end in a documented exit code, never a traceback."""

    def test_overflow_in_a_fresh_process_prints_one_line(self, tmp_path):
        # numpy loads only once the command runs, and its overflow warning
        # would repeat the error line
        path = tmp_path / "ovf.json"
        path.write_text('{"modules": [[1.7e308], [1.7e308]]}')
        proc = _python("-m", "misoid.cli", "run", "--system", str(path), "--mode", "both",
                       "--samples", "20", "--out-prefix", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("content", [
        "not json",
        '{"noise_std": 0.1}',
        '{"modules": [[1.0, "a"]]}',
    ])
    def test_malformed_system_file_exit_1(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code = main(["run", "--system", str(path), "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        assert str(path) in capsys.readouterr().err

    def test_ragged_csv_exit_1(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("k,err_norm_sq\n0,1.0\n1\n")
        assert main(["compare", "--a", str(path), "--b", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "1e-200"), ("--gamma", "1e200"), ("--sigma", "nan"),
        ("--sigma", "inf"), ("--init-c", "nan"), ("--seed", "-1"),
    ])
    def test_out_of_range_flag_exit_1(self, tmp_path, flag, value):
        system = _gen_system(tmp_path)
        assert main(["run", "--system", str(system), "--samples", "5", flag, value,
                     "--out-prefix", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("flag,value,need", [
        ("--init-c", "1e-300", "init_c > 0 and 0 < init_c^2 < inf and 1/init_c^2 < inf"),
        ("--sigma", "1e200",
         "noise_std >= 0 and, unless it is 0, 0 < noise_std^2 < inf and 1/noise_std^2 < inf"),
        # 1e-160^2 = 1e-320 is a positive float, but 1/1e-320 overflows: the
        # central kernel would run with gamma^2 = 1/(1/gamma^2) = 0
        ("--gamma", "1e-160", "gamma > 0 and 0 < gamma^2 < inf and 1/gamma^2 < inf"),
        ("--sigma", "1e-160",
         "noise_std >= 0 and, unless it is 0, 0 < noise_std^2 < inf and 1/noise_std^2 < inf"),
    ], ids=["nonzero-scale", "zero-allowed-scale", "gamma-reciprocal-square",
            "sigma-reciprocal-square"])
    def test_out_of_range_scale_names_its_own_condition(self, tmp_path, capsys, flag, value,
                                                         need):
        system = _gen_system(tmp_path)
        assert main(["run", "--system", str(system), "--samples", "5", flag, value,
                     "--out-prefix", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.endswith(f" is out of range: need {need}\n")

    @pytest.mark.parametrize("command,coeff,flags,step", [
        (["monitor", "--mode", "distributed", "--out", "{dir}/m.csv"],
         1e152, ["--gamma", "0.001"], "distributed monitor: .* at step 1"),
        (["run", "--mode", "both", "--monitor", "--out-prefix", "{dir}/x"],
         1e152, ["--gamma", "0.001"], "distributed monitor: .* at step 1"),
        (["monitor", "--mode", "central", "--out", "{dir}/m.csv"],
         1e150, ["--init-c", "1e-10"], "central monitor: .* at step 0"),
        (["monitor", "--mode", "distributed", "--out", "{dir}/m.csv"],
         1e150, ["--init-c", "1e-10"], "distributed monitor: .* at step 0"),
    ], ids=["monitor-gamma", "run-gamma", "central-init-c", "distributed-init-c"])
    def test_non_finite_lyapunov_value_exit_2(self, tmp_path, capsys, command, coeff, flags,
                                              step):
        # the squared errors stay finite, W = e'Ie does not: the monitor would
        # certify deltaW = nan, which no violation check flags
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"modules": [[coeff, -coeff], [coeff]]}))
        argv = [arg.format(dir=tmp_path) for arg in command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--system", str(path), "--samples", "20"] + flags)
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert re.match(f"^error: {step}$", lines[0])
        assert not list(tmp_path.glob("*.csv"))

    def test_gain_collapse_in_monitor_exit_2(self, tmp_path, capsys):
        # gamma -> 0 turns each node's update into a projection, so with
        # sigma = 0 the shared gain denominator reaches 0 after max order steps
        system = _gen_system(tmp_path, modules=3, max_order=2)
        code = main(["monitor", "--system", str(system), "--mode", "distributed",
                     "--samples", "20", "--sigma", "0", "--gamma", "1e-150",
                     "--out", str(tmp_path / "m.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha denominator" in err and "Traceback" not in err

    @pytest.mark.parametrize("samples,code", [("1000000000000000", 2),
                                              ("99999999999999999999", 1)])
    def test_unallocatable_samples_exit_without_traceback(self, tmp_path, capsys, samples,
                                                         code):
        # numpy refuses the 1e15-sample input array before touching memory, so
        # it fails as an allocation (exit 2); a count whose bytes exceed what an
        # array can address is a usage error naming samples (exit 1)
        system = _gen_system(tmp_path)
        assert main(["run", "--system", str(system), "--samples", samples,
                     "--out-prefix", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert code == 2 or f"samples={samples}" in err

    @pytest.mark.parametrize("command", [
        ["run", "--mode", "both", "--monitor", "--out-prefix", "{dir}/x"],
        ["monitor", "--mode", "distributed", "--out", "{dir}/m.csv"],
    ], ids=["run", "monitor"])
    def test_overflowing_error_exit_2_without_warnings(self, tmp_path, capsys, command):
        # the estimates stay finite; only the squared estimation error overflows
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"modules": [[1e200, -1e200], [1e200]]}))
        argv = [arg.format(dir=tmp_path) for arg in command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--system", str(path), "--samples", "20"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "overflows at step 0" in lines[0]


_SANE_NUMBERS = st.sampled_from(["0", "0.1", "1", "100"])
_NUMBERS = st.one_of(
    _SANE_NUMBERS,
    _SANE_NUMBERS,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-200", "1e-150", "1e200", "1e150", "-1", "abc"]),
)
_VALID_SYSTEM = st.lists(st.lists(st.floats(-10, 10), min_size=1, max_size=3),
                         min_size=1, max_size=3).map(lambda mods: {"modules": mods})
_SYSTEM_DOCS = st.one_of(
    _VALID_SYSTEM.map(lambda doc: json.dumps(doc).encode()),
    _VALID_SYSTEM.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=40),
    st.text(max_size=40).map(str.encode),
    st.fixed_dictionaries(
        {},
        optional={
            "modules": st.one_of(
                st.lists(st.lists(st.one_of(st.floats(), st.integers(), st.text(max_size=2),
                                            st.none()), max_size=3), max_size=3),
                st.integers(),
                st.text(max_size=3),
            ),
            "noise_std": st.one_of(st.floats(), st.text(max_size=3), st.none()),
        },
    ).map(lambda doc: json.dumps(doc).encode()),
)
_CSV_FIELDS = st.sampled_from(["0", "1.5", "2", "nan", "inf", "x", ""])
_CSV_DOCS = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]).encode(),
    st.sampled_from(["", "k,err_norm_sq", "k,err_norm_sq,eps", "k"]),
    st.lists(st.lists(_CSV_FIELDS, min_size=1, max_size=4), max_size=5),
)


@st.composite
def _invocations(draw):
    """A CLI argv and the file contents it refers to."""
    command = draw(st.sampled_from(["gen-system", "run", "monitor", "compare"]))
    if command == "gen-system":
        return {}, ["gen-system", "--seed", str(draw(st.integers(-2, 2**64))),
                    "--modules", str(draw(st.integers(-1, 4))),
                    "--min-order", str(draw(st.integers(-1, 4))),
                    "--max-order", str(draw(st.integers(-1, 70))),
                    "--param-std", draw(_NUMBERS), "--out", "{dir}/sys-out.json"]
    if command == "compare":
        files = {"a.csv": draw(_CSV_DOCS), "b.csv": draw(_CSV_DOCS)}
        return files, ["compare", "--a", "{dir}/a.csv", "--b", "{dir}/b.csv",
                       "--threshold-frac", draw(_NUMBERS)]
    argv = [command, "--system", "{dir}/sys.json",
            "--samples", str(draw(st.integers(-1, 15))),
            "--sigma", draw(_NUMBERS), "--gamma", draw(_NUMBERS),
            "--init-c", draw(_NUMBERS), "--seed", str(draw(st.integers(-2, 2**64)))]
    mode = draw(st.sampled_from(["central", "distributed", "both", None]))  # None: omitted
    if mode:
        argv += ["--mode", mode]
    if command == "run":
        argv += ["--out-prefix", "{dir}/out"] + (["--monitor"] if draw(st.booleans()) else [])
    else:
        argv += ["--out", "{dir}/mon.csv"]
    return {"sys.json": draw(_SYSTEM_DOCS)}, argv


@settings(max_examples=80, deadline=None, database=None)
@given(_invocations())
def test_fuzzed_invocations_end_in_exit_code(invocation):
    files, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", tmp) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
