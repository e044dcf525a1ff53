"""The example scripts must stay runnable (they are documentation)."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def load_example(name: str):
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVlsiCells:
    def test_traversals_agree_and_bfs_wins(self):
        example = load_example("vlsi_cells.py")
        from repro.storage.catalog import Catalog

        catalog = Catalog(buffer_pages=24)
        cells, paths, rectangles = example.build_library(catalog)
        chip = example.NUM_LEAF_CELLS

        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        dfs_count = example.draw_cell_dfs(catalog, cells, paths, rectangles, chip)
        dfs_io = catalog.disk.snapshot().total

        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        bfs_count = example.draw_cell_bfs(catalog, cells, paths, rectangles, chip)
        bfs_io = catalog.disk.snapshot().total

        assert dfs_count == bfs_count > 0
        assert bfs_io < dfs_io


class TestQuickstart:
    def test_matrix_section_prints(self, capsys):
        example = load_example("quickstart.py")
        example.show_representation_matrix()
        out = capsys.readouterr().out
        assert "shaded" in out
        assert "DFSCLUST" in out
