"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_sor_info(self, capsys):
        rc = main(["info", "--app", "sor", "-s", "6", "8",
                   "-t", "2", "3", "4", "--shape", "nonrect"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CC vector" in out
        assert "tile volume     : 24" in out

    def test_wrong_size_count(self):
        with pytest.raises(SystemExit):
            main(["info", "--app", "sor", "-s", "6",
                  "-t", "2", "3", "4"])

    def test_unknown_shape(self):
        with pytest.raises(SystemExit):
            main(["info", "--app", "sor", "-s", "6", "8",
                  "-t", "2", "3", "4", "--shape", "nr3"])


class TestCodegen:
    def test_mpi_kind(self, capsys):
        rc = main(["codegen", "--app", "adi", "-s", "6", "8",
                   "-t", "2", "3", "3", "--shape", "nr3", "--kind", "mpi"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MPI_Send" in out

    def test_sequential_kind(self, capsys):
        rc = main(["codegen", "--app", "jacobi", "-s", "4", "6", "6",
                   "-t", "2", "4", "3", "--shape", "nonrect",
                   "--kind", "sequential"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "for (long jS0" in out

    def test_python_kind_is_loadable(self, capsys):
        rc = main(["codegen", "--app", "sor", "-s", "6", "8",
                   "-t", "2", "3", "4", "--shape", "rect",
                   "--kind", "python"])
        out = capsys.readouterr().out
        assert rc == 0
        from repro.codegen import load_generated_module
        mod = load_generated_module(out)
        assert hasattr(mod, "SCHEDULES")


class TestSimulate:
    def test_prints_speedup(self, capsys):
        rc = main(["simulate", "--app", "sor", "-s", "6", "8",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--ranks", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out
        assert "efficiency" in out

    def test_overlap_flag(self, capsys):
        rc = main(["simulate", "--app", "sor", "-s", "6", "8",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--overlap"])
        assert rc == 0


class TestVerify:
    def test_verified_exit_zero(self, capsys):
        rc = main(["verify", "--app", "adi", "-s", "4", "5",
                   "-t", "2", "3", "3", "--shape", "nr3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFIED" in out
        assert "array X" in out and "array B" in out

    def test_sor_nonrect(self, capsys):
        rc = main(["verify", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect"])
        assert rc == 0

    def test_sub_tolerance_difference_is_a_mismatch(self, capsys,
                                                    monkeypatch):
        # Every engine is bitwise equal to the interpreter, so a
        # reference shifted by far less than any float tolerance is
        # still a wrong result.
        from repro.runtime import interpreter

        exact = interpreter.run_sequential

        def shifted(nest, init_value):
            ref = exact(nest, init_value)
            cells = ref[next(iter(ref))]
            cell = min(cells)
            cells[cell] += 1e-12
            return ref

        monkeypatch.setattr(interpreter, "run_sequential", shifted)
        rc = main(["verify", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "MISMATCH" in out and "VERIFIED" not in out

    @pytest.mark.parametrize("argv", [
        ["verify", "--engine", "dense"],
        ["run", "--engine", "sparse"],
    ], ids=["verify-engine", "run-sparse"])
    def test_sparse_engine_options_are_gone(self, capsys, argv):
        """One in-process data engine: ``verify`` always runs it, and
        ``run`` offers no per-cell engine."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--app", "sor", "-s", "4", "6",
                  "-t", "2", "3", "4"])
        assert exc.value.code == 2


class TestRunNamedErrors:
    """Named runtime errors end in one stderr message and exit code 2,
    not a traceback."""

    ARGS = ["run", "--app", "sor", "-s", "6", "9", "-t", "2", "3", "4",
            "--shape", "rect", "--engine", "parallel", "--workers", "2",
            "--protocol", "rendezvous"]

    def test_certify_refuses_the_rendezvous_cycle(self, capsys):
        # Refused before any worker is forked: the HB certificate of
        # this configuration carries the 4 -> 1 -> 5 wait cycle.
        rc = main(self.ARGS + ["--certify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("[HB02]") == 1
        assert "4 -> 1 -> 5 -> 4" in err
        assert "Traceback" not in err

    def test_runtime_error_is_one_line(self, capsys, monkeypatch):
        from repro.runtime.executor import DistributedRun
        from repro.runtime.parallel import ParallelTimeoutError

        def hang(self, *args, **kwargs):
            raise ParallelTimeoutError("parallel run did not complete")

        monkeypatch.setattr(DistributedRun, "execute_parallel", hang)
        rc = main(self.ARGS)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "run aborted: parallel run did not complete\n"


class TestRunOverlapFlag:
    """``--overlap`` selects the runtime *schedule*; the cost model's
    NIC-offload flag of the same name stays off, so threshold
    rendezvous and the certificate key are those of every other
    command."""

    ARGS = ["run", "--app", "sor", "-s", "6", "9", "-t", "2", "3", "4",
            "--shape", "nonrect", "--engine", "parallel", "--workers",
            "2", "--overlap", "--certify"]

    def test_spec_and_certificate_key(self, capsys, monkeypatch):
        from repro.runtime.executor import DistributedRun, TiledProgram
        from repro.runtime.machine import ClusterSpec

        seen = {}
        real_cert = TiledProgram.hb_certificate
        real_exec = DistributedRun.execute_parallel

        def spy_cert(self, **kwargs):
            seen["prog"] = self
            return real_cert(self, **kwargs)

        def spy_exec(self, *args, **kwargs):
            seen["spec"], seen["overlap"] = self.spec, kwargs["overlap"]
            return real_exec(self, *args, **kwargs)

        monkeypatch.setattr(TiledProgram, "hb_certificate", spy_cert)
        monkeypatch.setattr(DistributedRun, "execute_parallel", spy_exec)
        rc = main(self.ARGS)
        assert rc == 0, capsys.readouterr()
        assert seen["overlap"] is True
        assert seen["spec"] == ClusterSpec() and not seen["spec"].overlap
        # one certificate, keyed on (protocol, schedule, depth) and the
        # default spec's (threshold, bytes/element, NIC offload off)
        assert set(seen["prog"].stage("hb_certificates")) == {
            ("spec", True, 8, (None, 8, False))}


class TestFigure:
    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure", "nonsense"])

    def test_rejects_non_figure_attribute(self):
        with pytest.raises(SystemExit):
            main(["figure", "FigureResult"])
