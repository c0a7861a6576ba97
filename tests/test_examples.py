"""Smoke tests: every example script runs to completion.

Examples are imported and driven with reduced parameters so the whole
file stays fast; their internal assertions (result verification) do the
real checking.
"""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamples:
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "matches the sequential reference" in out

    def test_sor_cluster_small(self, capsys):
        _load("sor_cluster").main(20, 30, 4)
        out = capsys.readouterr().out
        assert "non-rectangular tiling is" in out
        assert "faster" in out

    def test_adi_tile_shapes_small(self, capsys):
        _load("adi_tile_shapes").main(16, 20, 2)
        out = capsys.readouterr().out
        assert "winner: nr3" in out

    def test_codegen_tour(self, capsys):
        _load("codegen_tour").main()
        out = capsys.readouterr().out
        assert "MPI_Send" in out
        assert "Sequential tiled code" in out

    def test_custom_stencil(self, capsys):
        _load("custom_stencil").main()
        out = capsys.readouterr().out
        assert "best shape" in out
        assert "max |distributed - sequential|" in out

    def test_tile_size_tuning_small(self, capsys):
        _load("tile_size_tuning").main(20, 24)
        out = capsys.readouterr().out
        assert "ratio-balanced" in out
        assert "best simulated extent" in out
