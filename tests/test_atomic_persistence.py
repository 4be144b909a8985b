"""Crash-safe persistence: atomic writes, checksums, corruption matrix.

The acceptance contract of DESIGN.md ("Fault model and degraded
serving"): a crash simulated at *any byte offset* during a save never
yields a load that silently succeeds with wrong data — every outcome is
either the previous intact version or a typed error (``StoreError``,
``ShardLoadError``, ``ValueError``).  Plus the on-disk corruption matrix:
truncated arrays, bit-flipped payloads caught by sha256, missing shard
files, and stale temp siblings from a crashed save being ignored on load
and swept on the next save.  ``TestCorruptionMatrix`` holds index files to
the same contract under seeded bit flips and truncations at every offset.
"""

import json
import pickle
import subprocess

import numpy as np
import pytest

from repro.index import TrajForest, TrajTree
from repro.index.persistence import (
    ShardLoadError,
    load_forest,
    load_tree,
    save_forest,
    save_tree,
)
from repro.store import ColumnarStore, StoreError
from repro.store.atomic import (
    IntegrityError,
    TMP_SUFFIX,
    atomic_write_bytes,
    cleanup_stale_temps,
    read_envelope,
    sha256_bytes,
    sha256_file,
    verify_checksum,
    write_envelope,
)
from repro.testing.faults import CrashInjected, FaultPlan, injected

from helpers import random_walk_trajectory


def make_db(seed, n=16):
    rng = np.random.default_rng(seed)
    return [random_walk_trajectory(rng, int(rng.integers(4, 9)))
            for _ in range(n)]


def assert_stores_identical(a: ColumnarStore, b: ColumnarStore):
    np.testing.assert_array_equal(np.asarray(a.points),
                                  np.asarray(b.points))
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.ids, b.ids)


class TestAtomicWrite:
    def test_write_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "blob.bin"
        checksum = atomic_write_bytes(path, b"first version")
        assert path.read_bytes() == b"first version"
        assert checksum == sha256_bytes(b"first version")
        assert checksum == sha256_file(path)

        # crash at every byte offset of the replacement payload: the
        # final name must keep the first version, bit for bit
        payload = b"second version, longer"
        for nbytes in range(len(payload) + 1):
            plan = FaultPlan().on(f"atomic.write:{path.name}",
                                  "truncate", nbytes)
            with injected(plan):
                with pytest.raises(CrashInjected):
                    atomic_write_bytes(path, payload)
            assert path.read_bytes() == b"first version"

    def test_crash_between_fsync_and_rename(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old")
        plan = FaultPlan().on(f"atomic.rename:{path.name}", "crash")
        with injected(plan):
            with pytest.raises(CrashInjected):
                atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"old"

    def test_crash_leaves_temp_sibling_for_next_sweep(self, tmp_path):
        path = tmp_path / "blob.bin"
        with injected(FaultPlan().on("atomic.write:blob.bin",
                                     "truncate", 3)):
            with pytest.raises(CrashInjected):
                atomic_write_bytes(path, b"payload")
        temps = list(tmp_path.glob(f".*{TMP_SUFFIX}"))
        assert len(temps) == 1
        assert temps[0].read_bytes() == b"pay"
        removed = cleanup_stale_temps(tmp_path)
        assert removed == [temps[0].name]
        assert not list(tmp_path.glob(f".*{TMP_SUFFIX}"))

    def test_verify_checksum_raises_caller_type(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"data")
        verify_checksum(path, sha256_bytes(b"data"))
        with pytest.raises(IntegrityError, match="integrity"):
            verify_checksum(path, sha256_bytes(b"other"))
        with pytest.raises(StoreError):
            verify_checksum(path, sha256_bytes(b"other"),
                            error_cls=StoreError)


class TestStoreCrashSafety:
    """Crashes during ColumnarStore.save over an existing store."""

    @pytest.mark.parametrize("target", ["points.npy", "offsets.npy",
                                        "ids.npy", "meta.json"])
    def test_crash_mid_save_never_loads_wrong(self, tmp_path, target):
        root = tmp_path / "db.store"
        old = ColumnarStore.from_trajectories(make_db(1))
        old.save(root)
        new = ColumnarStore.from_trajectories(make_db(2))

        for nbytes in (0, 1, 57):
            with injected(FaultPlan().on(f"atomic.write:{target}",
                                         "truncate", nbytes)):
                with pytest.raises(CrashInjected):
                    new.save(root)
            # The one legal pair of outcomes: the old store, intact —
            # or a typed StoreError.  Never a quiet mixed/partial load.
            try:
                loaded = ColumnarStore.load(root, mmap=False)
            except StoreError:
                continue
            assert_stores_identical(loaded, old)

    def test_completed_save_overwrites_cleanly(self, tmp_path):
        root = tmp_path / "db.store"
        ColumnarStore.from_trajectories(make_db(1)).save(root)
        new = ColumnarStore.from_trajectories(make_db(2))
        new.save(root)
        assert_stores_identical(ColumnarStore.load(root, mmap=False), new)

    def test_stale_temps_ignored_on_load_and_swept_on_save(self, tmp_path):
        root = tmp_path / "db.store"
        store = ColumnarStore.from_trajectories(make_db(1))
        store.save(root)
        # a crashed save from some other process left temp siblings
        (root / f".points.npy.99999{TMP_SUFFIX}").write_bytes(b"garbage")
        (root / f".meta.json.99999{TMP_SUFFIX}").write_bytes(b"{")
        loaded = ColumnarStore.load(root, mmap=False)
        assert_stores_identical(loaded, store)
        store.save(root)      # next save sweeps them
        assert not list(root.glob(f".*{TMP_SUFFIX}"))

    def test_bit_flip_in_points_caught_by_checksum(self, tmp_path):
        root = tmp_path / "db.store"
        ColumnarStore.from_trajectories(make_db(1)).save(root)
        raw = bytearray((root / "points.npy").read_bytes())
        raw[len(raw) // 2] ^= 0x40    # flip one bit mid-data
        (root / "points.npy").write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="integrity"):
            ColumnarStore.load(root, mmap=False)
        # without the checksum pass the flip would load silently — the
        # hash is what stands between bit rot and wrong answers
        ColumnarStore.load(root, mmap=False, verify=False)

    def test_missing_checksums_refused(self, tmp_path):
        root = tmp_path / "db.store"
        ColumnarStore.from_trajectories(make_db(1)).save(root)
        meta = json.loads((root / "meta.json").read_text())
        del meta["checksums"]
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="checksums"):
            ColumnarStore.load(root, mmap=False)


class TestTreeCrashSafety:
    """Crashes during save_tree over an existing snapshot."""

    def test_crash_mid_save_keeps_old_tree(self, tmp_path):
        path = tmp_path / "index.pkl"
        db = make_db(3)
        old_tree = TrajTree(db[:10], num_vps=4, min_node_size=4, seed=1)
        save_tree(old_tree, path)
        new_tree = TrajTree(db, num_vps=4, min_node_size=4, seed=2)
        payload_len = len(pickle.dumps(
            {"magic": "x"}, protocol=pickle.HIGHEST_PROTOCOL))
        for nbytes in (0, 1, payload_len, 4096):
            with injected(FaultPlan().on("atomic.write:index.pkl",
                                         "truncate", nbytes)):
                with pytest.raises(CrashInjected):
                    save_tree(new_tree, path)
            loaded = load_tree(path)
            assert loaded.ids() == old_tree.ids()
            q = random_walk_trajectory(np.random.default_rng(9), 6)
            assert loaded.knn(q, 3) == old_tree.knn(q, 3)

    def test_truncated_pickle_is_a_typed_error(self, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(TrajTree(make_db(3), num_vps=4, seed=1), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_tree(path)


class TestForestCrashSafety:
    @pytest.fixture()
    def forests(self):
        db = make_db(4, n=20)
        old = TrajForest(db[:12], num_shards=3, num_vps=4,
                         min_node_size=4, seed=1)
        new = TrajForest(db, num_shards=3, num_vps=4,
                         min_node_size=4, seed=2)
        return old, new

    def probe(self):
        return random_walk_trajectory(np.random.default_rng(8), 6)

    @pytest.mark.parametrize("target", ["shard_0000.pkl", "shard_0002.pkl",
                                        "forest.json"])
    def test_crash_mid_save_never_loads_wrong(self, tmp_path, target,
                                              forests):
        old, new = forests
        root = tmp_path / "forest"
        save_forest(old, root)
        with injected(FaultPlan().on(f"atomic.write:{target}",
                                     "truncate", 100)):
            with pytest.raises(CrashInjected):
                save_forest(new, root)
        # manifest-last ordering: either the old manifest still matches
        # its (old) shards, or the mix is detected as a shard error
        try:
            loaded = load_forest(root)
        except (ShardLoadError, ValueError):
            return
        assert loaded.ids() == old.ids()
        assert loaded.knn(self.probe(), 4) == old.knn(self.probe(), 4)

    def test_bit_flip_in_shard_caught_by_checksum(self, tmp_path, forests):
        old, _ = forests
        root = tmp_path / "forest"
        save_forest(old, root)
        raw = bytearray((root / "shard_0001.pkl").read_bytes())
        raw[len(raw) // 2] ^= 0x01
        (root / "shard_0001.pkl").write_bytes(bytes(raw))
        with pytest.raises(ShardLoadError, match="shard 1.*integrity"):
            load_forest(root)

    def test_stale_temps_swept_on_next_save(self, tmp_path, forests):
        old, _ = forests
        root = tmp_path / "forest"
        save_forest(old, root)
        (root / f".shard_0000.pkl.12345{TMP_SUFFIX}").write_bytes(b"junk")
        loaded = load_forest(root)       # temp sibling is invisible
        assert loaded.ids() == old.ids()
        save_forest(old, root)
        assert not list(root.glob(f".*{TMP_SUFFIX}"))

    def test_save_tree_returns_manifest_checksum(self, tmp_path, forests):
        """The checksum is of the *payload*: the value the envelope
        header carries, so manifest and file vouch for the same bytes."""
        old, _ = forests
        path = tmp_path / "one.pkl"
        checksum = save_tree(old.shards[0], path)
        assert checksum.startswith("sha256:")
        header, _, payload = path.read_bytes().partition(b"\n")
        assert checksum == sha256_bytes(payload)
        assert header.split(b" ")[2] == checksum.encode()
        assert read_envelope(path, "repro-trajtree", "1.4.0",
                             expected=checksum) == payload


class TestLiveWriterTemps:
    def test_running_writers_temp_survives_every_sweep(self, tmp_path):
        """A temp named with a running process's pid is a save in flight:
        neither a load nor another save may delete it (its writer's
        rename would fail); once that process is gone it is stale."""
        store_root, forest_root = tmp_path / "db.store", tmp_path / "forest"
        ColumnarStore.from_trajectories(make_db(1)).save(store_root)
        forest = TrajForest(make_db(4, n=12), num_shards=3, num_vps=4,
                            min_node_size=4, seed=1)
        save_forest(forest, forest_root)
        writer = subprocess.Popen(["sleep", "60"])
        temps = [store_root / f".points.npy.{writer.pid}{TMP_SUFFIX}",
                 forest_root / f".shard_0000.pkl.{writer.pid}{TMP_SUFFIX}"]
        try:
            for temp in temps:
                temp.write_bytes(b"in flight")
            ColumnarStore.load(store_root, mmap=False)
            load_forest(forest_root)
            save_forest(forest, forest_root)
            assert all(temp.exists() for temp in temps)
        finally:
            writer.kill()
            writer.wait(timeout=10)
        ColumnarStore.load(store_root, mmap=False)
        load_forest(forest_root)
        assert not any(temp.exists() for temp in temps)


def flips(raw, count, seed):
    """``count`` seeded single-bit flips of ``raw``: ``(offset, bytes)``."""
    rng = np.random.default_rng(seed)
    for offset, bit in zip(rng.integers(0, len(raw), count),
                           rng.integers(0, 8, count)):
        damaged = bytearray(raw)
        damaged[offset] ^= 1 << bit
        yield int(offset), bytes(damaged)


class TestCorruptionMatrix:
    """The gate of ISSUE 23: damage anywhere in an index file is a typed
    error raised before anything is decoded — never a load, never an
    exception outside ``ValueError``.  (At the parent commit 276 of 400
    such flips of a tree file loaded, 6 with different answers.)"""

    @pytest.fixture(scope="class")
    def tree(self):
        return TrajTree(make_db(5, n=30), num_vps=4, min_node_size=6,
                        seed=1)

    @pytest.fixture(scope="class")
    def forest(self):
        return TrajForest(make_db(6, n=30), num_shards=3, num_vps=4,
                          min_node_size=4, seed=1)

    def assert_typed(self, path, raw, damaged, offset):
        path.write_bytes(damaged)
        with pytest.raises(ValueError) as excinfo:
            load_tree(path)
        # past the header every byte is under the checksum: damage there
        # is named as damage, not as "another kind of file"
        if offset > raw.index(b"\n"):
            assert isinstance(excinfo.value, IntegrityError), offset

    def test_tree_file_bit_flips(self, tree, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        raw = path.read_bytes()
        header = raw.index(b"\n") + 1
        for offset, damaged in flips(raw, 2000, seed=23):
            self.assert_typed(path, raw, damaged, offset)
        # and every bit of the header itself
        for offset in range(header):
            for bit in range(8):
                damaged = bytearray(raw)
                damaged[offset] ^= 1 << bit
                self.assert_typed(path, raw, bytes(damaged), offset)

    def test_tree_file_truncations(self, tree, tmp_path):
        path = tmp_path / "index.pkl"
        save_tree(tree, path)
        raw = path.read_bytes()
        header = raw.index(b"\n") + 1
        lengths = set(range(header + 16)) | set(range(0, len(raw), 41)) \
            | {len(raw) - 1}
        for length in sorted(lengths):
            self.assert_typed(path, raw, raw[:length], length)
        # appended bytes are damage too
        self.assert_typed(path, raw, raw + b"\0", len(raw))

    def test_forest_shard_flips_name_the_shard(self, forest, tmp_path):
        root = tmp_path / "forest"
        save_forest(forest, root)
        for shard in range(3):
            file = root / f"shard_{shard:04d}.pkl"
            raw = file.read_bytes()
            cases = [d for _, d in flips(raw, 40, seed=shard)]
            cases += [raw[:n] for n in range(0, len(raw), len(raw) // 12)]
            for damaged in cases:
                file.write_bytes(damaged)
                with pytest.raises(ShardLoadError) as excinfo:
                    load_forest(root)
                assert excinfo.value.shard == shard
                assert excinfo.value.filename == file.name
                degraded = load_forest(root, on_shard_error="skip")
                assert [(e.shard, e.filename)
                        for e in degraded.missing_shards] == [
                    (shard, file.name)]
                assert degraded.num_shards == 2
            file.write_bytes(raw)
        assert load_forest(root).ids() == forest.ids()

    def test_forest_manifest_flips(self, forest, tmp_path):
        """``forest.json`` carries no checksum of its own: a flipped bit
        there is a typed error (bad JSON, a renamed key, a checksum or a
        count that no longer matches) or lands in a field no answer
        depends on — never an untyped exception, never other answers."""
        root = tmp_path / "forest"
        save_forest(forest, root)
        raw = (root / "forest.json").read_bytes()
        probe = make_db(7, n=1)[0]
        want = forest.knn(probe, 4)
        for _, damaged in flips(raw, 150, seed=5):
            (root / "forest.json").write_bytes(damaged)
            try:
                loaded = load_forest(root)
            except ValueError:
                continue
            assert loaded.ids() == forest.ids()
            assert loaded.knn(probe, 4) == want

    def test_parent_format_snapshots_say_rebuild(self, tree, forest,
                                                 tmp_path):
        """What older releases wrote: a bare pickled dict (tree format
        1.2.0), a 1.3.0 envelope (trees with vantage descriptors) and a
        1.1.0 manifest over such shards.  Each loader gives its typed
        message; nothing of the old file is decoded."""
        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps(
            {"magic": "repro-trajtree", "version": "1.2.0",
             "fingerprint": {"count": len(tree)}, "tree": tree},
            protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(ValueError,
                           match="predates format 1.4.0; rebuild") as excinfo:
            load_tree(path)
        assert not isinstance(excinfo.value, IntegrityError)
        write_envelope(path, "repro-trajtree", "1.3.0",
                       pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(ValueError, match="repro-trajtree 1.3.0 file, "
                           "this library reads repro-trajtree 1.4.0; "
                           "rebuild it") as excinfo:
            load_tree(path)
        assert not isinstance(excinfo.value, IntegrityError)
        with pytest.raises(ValueError,
                           match="single-tree snapshot.*load_tree"):
            load_forest(path)
        root = tmp_path / "forest"
        save_forest(forest, root)
        manifest = json.loads((root / "forest.json").read_text())
        manifest["version"] = "1.1.0"
        (root / "forest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="1.1.0.*rebuild the forest"):
            load_forest(root)
