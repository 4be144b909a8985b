"""TrajTree and TrajForest save/load round-trip and fault tests."""

import json
import pickle

import numpy as np
import pytest

from repro.core import Trajectory, UnknownBackendError, use_backend
from repro.index import TBoxSeq, TrajForest, TrajTree
from repro.index.persistence import (
    ShardLoadError,
    load_forest,
    load_tree,
    save_forest,
    save_tree,
)
from repro.store.atomic import IntegrityError, sha256_bytes, write_envelope

from helpers import random_walk_trajectory


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(61)
    return [random_walk_trajectory(rng, int(rng.integers(4, 9)))
            for _ in range(30)]


@pytest.fixture(scope="module")
def tree(database):
    return TrajTree(database, num_vps=8, min_node_size=6, seed=4)


@pytest.fixture(scope="module")
def forest(database):
    return TrajForest(database, num_shards=3, num_vps=4, min_node_size=6,
                      seed=4)


class TestRoundTrip:
    def test_results_identical(self, tree, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        loaded = load_tree(path)
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = random_walk_trajectory(rng, 7)
            assert loaded.knn(q, 5) == tree.knn(q, 5)

    def test_structure_preserved(self, tree, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert loaded.height() == tree.height()
        assert loaded.node_count() == tree.node_count()
        assert sorted(loaded.ids()) == sorted(tree.ids())
        assert loaded.storage_summary() == tree.storage_summary()

    def test_loaded_tree_supports_updates(self, tree, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        loaded = load_tree(path)
        rng = np.random.default_rng(5)
        tid = loaded.insert(random_walk_trajectory(rng, 6))
        assert tid in loaded
        q = random_walk_trajectory(rng, 7)
        assert [t for t, _ in loaded.knn(q, 5)] == [
            t for t, _ in loaded.knn_scan(q, 5)
        ]

    def test_strided_trajectory_data_round_trips(self, tmp_path):
        """Non-contiguous point arrays pickle through numpy's other
        reconstructor (``_reconstruct`` + ``ndarray``, not
        ``_frombuffer``): the decoder's allow-list must admit both."""
        rng = np.random.default_rng(8)
        wide = np.abs(rng.normal(size=(12, 8, 6))).cumsum(axis=1)
        db = [Trajectory(block[:, ::2]) for block in wide]
        assert not db[0].data.flags["C_CONTIGUOUS"]
        built = TrajTree(db, num_vps=2, min_node_size=4, seed=1)
        save_tree(built, tmp_path / "index.pkl")
        loaded = load_tree(tmp_path / "index.pkl")
        for q in db[:3]:
            assert loaded.knn(q, 4) == built.knn(q, 4)


def rewrite_header(path, field, value):
    """Replace one space-separated field of a snapshot's envelope header."""
    header, _, payload = path.read_bytes().partition(b"\n")
    fields = header.split(b" ")
    fields[field] = value
    path.write_bytes(b" ".join(fields) + b"\n" + payload)


class TestValidation:
    def test_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as f:
            pickle.dump({"something": "else"}, f)
        with pytest.raises(ValueError, match="no repro-trajtree header"):
            load_tree(path)
        # an envelope of another kind is not a tree snapshot either
        write_envelope(path, "repro-other", "1.3.0", b"payload")
        with pytest.raises(ValueError,
                           match="repro-other.*reads repro-trajtree"):
            load_tree(path)

    def test_rejects_version_mismatch(self, tree, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        rewrite_header(path, 1, b"0.0.1")
        with pytest.raises(ValueError, match="0.0.1.*rebuild") as excinfo:
            load_tree(path)
        # a version mismatch is not damage: the file is what its writer
        # wrote, so it is not reported as an integrity failure
        assert not isinstance(excinfo.value, IntegrityError)

    def test_rejects_fingerprint_mismatch(self, tree, tmp_path):
        """What the fingerprint guarded — the payload not being the one
        that was written — is now the sha256's job, over every byte."""
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        raw = bytearray(path.read_bytes())
        raw[-len(raw) // 3] ^= 0x04
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="integrity"):
            load_tree(path)
        # a header that lies about the checksum is caught the same way
        save_tree(tree, path)
        rewrite_header(path, 2, b"sha256:" + b"0" * 64)
        with pytest.raises(IntegrityError, match="integrity"):
            load_tree(path)

    def test_rejects_hostile_payload_in_valid_envelope(self, tree, tmp_path,
                                                       monkeypatch):
        """A payload whose ``__reduce__`` names ``os.system`` sits behind
        a header that checks out: the decoder refuses the name before it
        is imported, so the command never runs.  A tree whose node
        summary is malformed decodes through the ``TBoxSeq`` constructor,
        whose checks raise the typed error at load, not a crash in a
        later query."""
        monkeypatch.chdir(tmp_path)

        class Hostile:
            def __reduce__(self):
                import os
                return (os.system, ("touch sentinel",))

        path = tmp_path / "hostile.pkl"
        write_envelope(path, "repro-trajtree", "1.6.0",
                       pickle.dumps(Hostile()))
        with pytest.raises(ValueError, match="does not decode to a TrajTree"):
            load_tree(path)
        assert not (tmp_path / "sentinel").exists()
        # allowed names alone, but not a tree
        write_envelope(path, "repro-trajtree", "1.6.0",
                       pickle.dumps(np.arange(3)))
        with pytest.raises(ValueError, match="does not decode to a TrajTree"):
            load_tree(path)
        # a tree, but one box sequence's arrays are malformed
        for rects, min_len, match in [
            (np.zeros((2, 4)), np.zeros((2, 4)), r"\(m, 4\) rects"),
            (np.zeros((0, 4)), np.zeros(0), "at least one box"),
            ([[1.0, 0.0, 0.0, 1.0]], [1.0], "degenerate"),
            ([[np.nan, 0.0, 1.0, 1.0]], [1.0], "degenerate"),
            ([[0.0, 0.0, 1.0, np.inf]], [1.0], "degenerate"),
            ([[0.0, 0.0, 1.0, 1.0]], [np.nan], "min_len"),
            ("boxes", [1.0], "must be floats"),
        ]:
            class Malformed:
                def __reduce__(self):
                    return TBoxSeq, (rects, min_len)

            damaged = pickle.loads(pickle.dumps(tree))
            damaged.root.children[-1].boxseq = Malformed()
            write_envelope(path, "repro-trajtree", "1.6.0",
                           pickle.dumps(damaged))
            with pytest.raises(ValueError, match=match):
                load_tree(path)

    def test_load_forest_takes_no_verify(self):
        import inspect
        assert list(inspect.signature(load_forest).parameters) == [
            "path", "on_shard_error"]


class TestForestRoundTrip:
    def test_results_identical(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded.num_shards == forest.num_shards
        assert loaded.scheme == forest.scheme
        assert loaded.seed == forest.seed
        assert loaded.ids() == forest.ids()
        rng = np.random.default_rng(3)
        for _ in range(4):
            q = random_walk_trajectory(rng, 7)
            assert loaded.knn(q, 5) == forest.knn(q, 5)
            radius = forest.knn(q, 4)[-1][1] * 1.1
            assert loaded.range_query(q, radius) == \
                forest.range_query(q, radius)

    def test_snapshot_layout(self, forest, tmp_path):
        """ForestSnapshot on disk: forest.json + one pickle per shard,
        each shard loadable by load_tree on its own."""
        path = tmp_path / "forest"
        save_forest(forest, path)
        manifest = json.loads((path / "forest.json").read_text())
        assert manifest["magic"] == "repro-trajforest"
        assert manifest["version"] == "1.2.0"
        assert manifest["scheme"] == forest.scheme
        assert manifest["trajectories"] == len(forest)
        assert len(manifest["shards"]) == forest.num_shards
        for i, entry in enumerate(manifest["shards"]):
            assert entry["file"] == f"shard_{i:04d}.pkl"
            # the manifest records each shard's sha256 and nothing else:
            # the checksum of the payload behind the shard's own envelope
            # header, which names it too (the checksum contract)
            assert set(entry) == {"file", "sha256"}
            header, _, payload = \
                (path / entry["file"]).read_bytes().partition(b"\n")
            assert entry["sha256"] == sha256_bytes(payload)
            assert header.split(b" ") == [
                b"repro-trajtree", b"1.6.0", entry["sha256"].encode(),
                str(len(payload)).encode()]
            shard = load_tree(path / entry["file"])
            assert shard.ids() == forest.shards[i].ids()


class TestCrossBackendRoundTrip:
    """Snapshots are backend-portable: a tree built under one backend loads
    and answers under another exactly as a tree built there does (the
    backend a query runs under fixes its bits, not the one that built the
    tree).  A snapshot naming a backend this package no longer has (the
    ``"native"`` tier of earlier versions) still loads: the typed
    :class:`~repro.core.backend.UnknownBackendError` surfaces at first
    *query*, and re-pointing the loaded tree's ``backend`` recovers it
    without a rebuild.
    """

    def _probes(self, n=4):
        rng = np.random.default_rng(17)
        return [random_walk_trajectory(rng, 7) for _ in range(n)]

    @staticmethod
    def _assert_unknown_at_first_query(index, q):
        with pytest.raises(UnknownBackendError) as excinfo:
            index.knn(q, 5)
        assert isinstance(excinfo.value, ValueError)
        assert "('python', 'numpy')" in str(excinfo.value)

    def test_numpy_built_tree_answers_under_python(self, database, tree,
                                                   tmp_path):
        built = TrajTree(database, num_vps=8, min_node_size=6, seed=4,
                         backend="numpy")
        save_tree(built, tmp_path / "numpy.pkl")
        loaded = load_tree(tmp_path / "numpy.pkl")
        assert loaded.backend == "numpy"
        loaded.backend = "python"
        for q in self._probes():
            assert loaded.knn(q, 5) == tree.knn(q, 5)
            assert loaded.subtrajectory_knn(q, 3) == \
                tree.subtrajectory_knn(q, 3)

    def test_python_built_tree_answers_under_numpy(self, database, tree,
                                                   tmp_path):
        save_tree(tree, tmp_path / "python.pkl")
        loaded = load_tree(tmp_path / "python.pkl")
        loaded.backend = "numpy"
        oracle = TrajTree(database, num_vps=8, min_node_size=6, seed=4,
                          backend="numpy")
        for q in self._probes():
            assert loaded.knn(q, 5) == oracle.knn(q, 5)
            assert loaded.subtrajectory_knn(q, 3) == \
                oracle.subtrajectory_knn(q, 3)

    def test_native_snapshot_loads_without_numba(self, database, tmp_path):
        built = TrajTree(database, num_vps=8, min_node_size=6, seed=4,
                         backend="numpy")
        built.backend = "native"    # what an earlier native build saved
        save_tree(built, tmp_path / "native.pkl")
        built.backend = "numpy"
        # loading does not validate the name (pickle restores state, it
        # does not re-run the constructor)...
        loaded = load_tree(tmp_path / "native.pkl")
        assert loaded.backend == "native"
        # ...the typed error surfaces at first query...
        self._assert_unknown_at_first_query(loaded, self._probes(1)[0])
        # ...and following the global switch recovers without a rebuild
        loaded.backend = None
        with use_backend("numpy"):
            for q in self._probes():
                assert loaded.knn(q, 5) == built.knn(q, 5)
                assert loaded.subtrajectory_knn(q, 3) == \
                    built.subtrajectory_knn(q, 3)

    def test_forest_cross_backend_incl_degraded(self, database, tmp_path):
        built = TrajForest(database, num_shards=3, num_vps=4,
                           min_node_size=6, seed=4, backend="numpy")
        for shard in built.shards:
            shard.backend = "native"
        save_forest(built, tmp_path / "forest")
        oracle = TrajForest(database, num_shards=3, num_vps=4,
                            min_node_size=6, seed=4, backend="python")
        # healthy load: the typed error at first query, then queried
        # under python it answers as the python-built forest
        loaded = load_forest(tmp_path / "forest")
        self._assert_unknown_at_first_query(loaded, self._probes(1)[0])
        for shard in loaded.shards:
            assert shard.backend == "native"
            shard.backend = "python"
        for q in self._probes():
            assert loaded.knn(q, 5) == oracle.knn(q, 5)
        # degraded load (one shard gone): the forest assembles, and after
        # the backend flip it matches the same-shards python oracle exactly
        (tmp_path / "forest" / "shard_0001.pkl").unlink()
        degraded = load_forest(tmp_path / "forest", on_shard_error="skip")
        assert degraded.degraded
        self._assert_unknown_at_first_query(degraded, self._probes(1)[0])
        for shard in degraded.shards:
            shard.backend = None
        sub_oracle = TrajForest.from_shards(
            [oracle.shards[0], oracle.shards[2]],
            scheme=oracle.scheme, seed=oracle.seed,
        )
        for q in self._probes():
            assert degraded.knn(q, 5) == sub_oracle.knn(q, 5)


class TestForestValidation:
    """The two snapshot formats must version-gate each other cleanly,
    and shard damage must name the shard (ISSUE 7 fault surface)."""

    def test_load_forest_rejects_single_tree_pickle(self, tree, tmp_path):
        """A current-format single-tree pickle pointed at load_forest:
        clean ValueError naming the right loader, not a manifest parse
        crash."""
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        with pytest.raises(ValueError, match="single-tree snapshot.*load_tree"):
            load_forest(path)

    def test_load_forest_rejects_legacy_tree_pickle(self, tree, tmp_path):
        """Same for *legacy* single-tree files — an older envelope
        version and the header-less 1.2.0 pickle (the format gate lives
        in load_tree; load_forest must not get that far)."""
        path = tmp_path / "legacy.pkl"
        save_tree(tree, path)
        rewrite_header(path, 1, b"1.1.0")
        with pytest.raises(ValueError, match="single-tree snapshot"):
            load_forest(path)
        path.write_bytes(pickle.dumps(
            {"magic": "repro-trajtree", "version": "1.2.0", "tree": None}))
        with pytest.raises(ValueError, match="single-tree snapshot"):
            load_forest(path)

    def test_load_tree_rejects_forest_directory(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        with pytest.raises(ValueError, match="forest snapshot.*load_forest"):
            load_tree(path)
        with pytest.raises(ValueError, match="directory"):
            load_tree(tmp_path)

    def test_rejects_non_forest_paths(self, tmp_path):
        with pytest.raises(ValueError, match="not a forest snapshot"):
            load_forest(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="not a forest snapshot"):
            load_forest(empty)

    def test_rejects_manifest_version_mismatch(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        manifest = json.loads((path / "forest.json").read_text())
        manifest["version"] = "9.0.0"
        (path / "forest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="9.0.0.*rebuild the forest"):
            load_forest(path)

    def test_rejects_corrupt_manifest(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        (path / "forest.json").write_text("{broken")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_forest(path)

    def test_missing_shard_names_the_shard(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        (path / "shard_0001.pkl").unlink()
        with pytest.raises(ShardLoadError, match="shard 1.*shard_0001.pkl") \
                as excinfo:
            load_forest(path)
        assert excinfo.value.shard == 1
        assert excinfo.value.filename == "shard_0001.pkl"
        assert "missing" in str(excinfo.value)

    def test_truncated_shard_names_the_shard(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        raw = (path / "shard_0002.pkl").read_bytes()
        (path / "shard_0002.pkl").write_bytes(raw[: len(raw) // 3])
        # the envelope catches the truncation before anything is decoded
        with pytest.raises(ShardLoadError, match="shard 2.*integrity") \
                as excinfo:
            load_forest(path)
        assert "failed to load" in str(excinfo.value)
        assert "truncated or corrupt" in str(excinfo.value)
        # cut inside the header: still the shard, still typed
        (path / "shard_0002.pkl").write_bytes(raw[:40])
        with pytest.raises(ShardLoadError, match="shard 2.*failed to load"):
            load_forest(path)

    def test_shard_fingerprint_mismatch_names_the_shard(self, forest,
                                                        tmp_path):
        """A shard swapped for another *valid* shard — intact on its own,
        which is all a fingerprint of its contents could vouch for — is
        not the file the manifest was written with."""
        path = tmp_path / "forest"
        save_forest(forest, path)
        (path / "shard_0000.pkl").write_bytes(
            (path / "shard_0001.pkl").read_bytes())
        load_tree(path / "shard_0000.pkl")       # fine on its own
        with pytest.raises(ShardLoadError,
                           match="shard 0.*manifest records") as excinfo:
            load_forest(path)
        assert "integrity" in str(excinfo.value)
        degraded = load_forest(path, on_shard_error="skip")
        assert [e.shard for e in degraded.missing_shards] == [0]

    def test_manifest_count_mismatch(self, forest, tmp_path):
        path = tmp_path / "forest"
        save_forest(forest, path)
        manifest = json.loads((path / "forest.json").read_text())
        manifest["trajectories"] = 999
        (path / "forest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="promises 999"):
            load_forest(path)

    def test_shard_load_error_is_a_value_error(self):
        err = ShardLoadError(3, "shard_0003.pkl", "is missing")
        assert isinstance(err, ValueError)
        assert str(err) == "forest shard 3 (shard_0003.pkl) is missing"
