"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.cli import main


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "EDwP" in out
        assert "paper: 80" in out

    def test_fig5a_tiny(self, capsys):
        code = main(["fig5a", "--classes", "2", "3", "--instances", "3",
                     "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 5(a)" in out
        assert "EDwP" in out

    def test_fig5b_tiny(self, capsys):
        code = main(["fig5b", "--db-size", "10", "--queries", "1",
                     "--no-edr-i"])
        assert code == 0
        out = capsys.readouterr().out
        assert "inter robustness" in out

    def test_fig6c_tiny(self, capsys):
        code = main(["fig6c", "--vps", "5", "--db-size", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UB-factor" in out
        assert "Beijing Random" in out

    def test_serve_selftest(self, capsys):
        # --backend mutates the process-wide backend; restore it so later
        # test files still see the default
        from repro.core.edwp import get_backend, set_backend

        previous = get_backend()
        try:
            code = main(["--backend", "numpy", "serve", "--synthetic", "12",
                         "--port", "0", "--selftest"])
        finally:
            set_backend(previous)
        assert code == 0
        out = capsys.readouterr().out
        assert "selftest knn" in out
        assert "selftest stats" in out

    def test_serve_requires_an_index_source(self):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "0"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_backend_choices_come_from_the_table(self, capsys):
        from repro.core.edwp import get_backend, use_backend

        with use_backend("numpy"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--backend", "native", "table1"])
            assert get_backend() == "numpy"
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "native" in err
        assert "python" in err and "numpy" in err


class TestStorePipeline:
    """The build-store → build-forest → serve --forest pipeline."""

    def test_build_store(self, capsys, tmp_path):
        out_dir = tmp_path / "store"
        assert main(["build-store", "--synthetic", "14", "--seed", "7",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "14 trajectories" in out
        assert "mmap" in out
        from repro.store import ColumnarStore

        store = ColumnarStore.load(out_dir)
        assert len(store) == 14

    def test_build_store_requires_a_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build-store", "--out", str(tmp_path / "s")])

    def test_build_forest_and_serve(self, capsys, tmp_path):
        store_dir, forest_dir = tmp_path / "store", tmp_path / "forest"
        assert main(["build-store", "--synthetic", "14", "--seed", "7",
                     "--out", str(store_dir)]) == 0
        assert main(["build-forest", "--store", str(store_dir),
                     "--out", str(forest_dir), "--shards", "3",
                     "--num-vps", "4", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "3-shard forest" in out
        assert "14 trajectories" in out
        from repro.index import load_forest

        forest = load_forest(forest_dir)
        assert forest.num_shards == 3
        assert len(forest) == 14

        from repro.core.edwp import get_backend, set_backend

        previous = get_backend()
        try:
            code = main(["--backend", "numpy", "serve", "--forest",
                         str(forest_dir), "--port", "0", "--selftest"])
        finally:
            set_backend(previous)
        assert code == 0
        out = capsys.readouterr().out
        assert "forest snapshot" in out
        assert "3 shards" in out
        assert "selftest knn" in out

    def test_build_forest_rejects_bad_store(self, capsys, tmp_path):
        code = main(["build-forest", "--store", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "forest")])
        assert code != 0
        err = capsys.readouterr().err
        assert "store" in err

    def test_serve_rejects_tree_pickle_as_forest(self, capsys, tmp_path):
        """--forest on a single-tree pickle: clean error naming the fix."""
        import numpy as np

        from helpers import random_walk_trajectory
        from repro.index import TrajTree, save_tree

        rng = np.random.default_rng(5)
        db = [random_walk_trajectory(rng, 6) for _ in range(8)]
        path = tmp_path / "index.pkl"
        save_tree(TrajTree(db, num_vps=2, seed=1), path)
        code = main(["serve", "--forest", str(path), "--port", "0",
                     "--selftest"])
        assert code != 0
        err = capsys.readouterr().err
        assert "single-tree snapshot" in err
