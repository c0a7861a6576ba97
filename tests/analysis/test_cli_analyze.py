"""The ``repro analyze`` CLI: exit codes and report formats."""

import json

import pytest

from repro.cli import main


class TestCleanAnalysis:
    def test_clean_config_exits_zero(self, capsys):
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "4", "--shape", "nonrect"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean: no diagnostics" in out
        assert "passes: legality, races, hb, bounds" in out

    def test_json_output_parses(self, capsys):
        rc = main(["analyze", "--app", "adi", "-s", "4", "5",
                   "-t", "2", "3", "3", "--shape", "rect", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["ok"] is True
        assert blob["counts"]["error"] == 0
        assert blob["passes"] == ["legality", "races", "hb", "bounds"]
        assert blob["meta"]["processors"] >= 1


class TestFailingAnalysis:
    def test_unskewed_nest_exits_nonzero(self, capsys):
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "3", "--shape", "rect", "--unskewed"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "error[LEG01]" in out
        assert "tiling cone" in out

    def test_unskewed_json_structured(self, capsys):
        rc = main(["analyze", "--app", "jacobi", "-s", "3", "6", "6",
                   "-t", "2", "3", "3", "--shape", "rect", "--unskewed",
                   "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert blob["ok"] is False
        codes = {d["code"] for d in blob["diagnostics"]}
        assert codes == {"LEG01"}
        first = blob["diagnostics"][0]
        assert first["severity"] == "error"
        assert first["pass"] == "legality"
        assert "row" in first["subject"] and "dep" in first["subject"]
        assert first["equation"].startswith("H D >= 0")

    def test_warning_only_config_still_exits_zero(self, capsys):
        # sor rect carries an --hb rendezvous warning but no errors
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "3", "--shape", "rect", "--hb"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warning[HB02]" in out

    def test_unknown_shape_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--app", "sor", "-s", "8", "12",
                  "-t", "2", "3", "3", "--shape", "diamond"])


class TestTransvalFlag:
    def test_transval_adds_tv_passes_and_stays_clean(self, capsys):
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "4", "--shape", "nonrect", "--transval"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean: no diagnostics" in out
        for p in ("transval-dependences", "transval-loops",
                  "transval-subscripts", "transval-constants"):
            assert p in out

    def test_transval_json_lists_passes(self, capsys):
        rc = main(["analyze", "--app", "adi", "-s", "4", "5",
                   "-t", "2", "3", "3", "--shape", "rect",
                   "--transval", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["ok"] is True
        assert "transval-constants" in blob["passes"]

    def test_transval_skipped_on_failing_base_report(self, capsys):
        # unskewed sor + rect tiling fails legality; the TV passes must
        # not run (there is no buildable program to emit and parse)
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "3", "--shape", "rect", "--unskewed",
                   "--transval"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "error[LEG01]" in out
        assert "transval-loops" not in out


class TestHbFlag:
    def test_hb_adds_pass_and_stays_clean(self, capsys):
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "4", "--shape", "nonrect", "--hb"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean: no diagnostics" in out
        assert "hb" in out.split("passes: ")[1]

    def test_hb_off_by_default(self, capsys):
        # the default schedule pass is the eager blocking certificate
        # alone: sor rect's rendezvous-only cycle needs --hb
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "3", "--shape", "rect"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "passes: legality, races, hb, bounds" in out
        assert "clean: no diagnostics" in out

    def test_hb_warns_on_rendezvous_cycle(self, capsys):
        # sor rect deadlocks only under forced rendezvous: the HB pass
        # reports demoted warnings, exit 0, cycle reported.
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "3", "--shape", "rect", "--hb",
                   "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["ok"] is True
        assert "hb" in blob["passes"]
        hb02 = [d for d in blob["diagnostics"] if d["code"] == "HB02"]
        assert hb02
        assert all(d["severity"] == "warning" for d in hb02)
        assert any("rendezvous" in d["message"] for d in hb02)


class TestSanitizeCommand:
    def test_sanitize_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "run.json")
        rc = main(["run", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--engine", "parallel", "--workers", "2",
                   "--trace-out", trace])
        assert rc == 0
        capsys.readouterr()
        rc = main(["sanitize", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--trace", trace])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean: no diagnostics" in out

    def test_sanitize_mode_mismatch_fails(self, capsys, tmp_path):
        trace = str(tmp_path / "run.json")
        rc = main(["run", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--engine", "parallel", "--workers", "2",
                   "--overlap", "--trace-out", trace])
        assert rc == 0
        capsys.readouterr()
        # replay the overlap trace against the blocking certificate
        rc = main(["sanitize", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--trace", trace])
        out = capsys.readouterr().out
        assert rc == 1
        assert "error[HB04]" in out

    def test_sanitize_missing_trace_aborts(self, capsys, tmp_path):
        rc = main(["sanitize", "--app", "sor", "-s", "4", "6",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--trace", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "sanitize aborted" in err


class TestFailOnWarn:
    def test_warning_config_fails_with_flag(self, capsys):
        # sor rect carries an --hb HB02 warning: rc flips from 0 to 1
        argv = ["analyze", "--app", "sor", "-s", "8", "12",
                "-t", "2", "3", "3", "--shape", "rect", "--hb"]
        assert main(argv) == 0
        capsys.readouterr()
        rc = main(argv + ["--fail-on-warn"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "warning[HB02]" in out

    def test_clean_config_unaffected_by_flag(self, capsys):
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--fail-on-warn"])
        assert rc == 0
        assert "clean: no diagnostics" in capsys.readouterr().out
