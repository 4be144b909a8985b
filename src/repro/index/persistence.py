"""TrajTree and TrajForest persistence.

Index construction is the expensive phase (`O(|D|^2 / bf)` EDwPsub
alignments, Sec. IV-F), so a production deployment builds once and reloads
thereafter.  Two snapshot formats exist:

* **Single tree** — one file: the pickled tree (a plain object graph of
  floats/ints/numpy arrays) behind the :mod:`repro.store.atomic` envelope
  header ``repro-trajtree <version> sha256:<hex> <payload length>\\n``
  (:func:`save_tree` / :func:`load_tree`).
* **Forest** — a directory: a ``forest.json`` manifest (magic, format
  version, shard scheme, one ``{file, sha256}`` entry per shard) next to
  one single-tree file per shard (:func:`save_forest` /
  :func:`load_forest`; DESIGN.md, "Snapshot format").  Shards load
  independently, so a damaged snapshot fails with a
  :class:`ShardLoadError` *naming the shard* — or, with
  ``on_shard_error="skip"``, loads **degraded** over the healthy shards
  (DESIGN.md, "Fault model and degraded serving").

Check, then decode: a file reaches the decoder only after
:func:`~repro.store.atomic.read_envelope` has matched its magic, format
version, payload length and sha256 — and, for a shard, the checksum its
manifest recorded: each shard file is intact on its own, so only that
record tells new shards beside an old manifest (a save that crashed
before the manifest, which is written last) from a snapshot.  Every write
is temp-sibling/fsync/atomic-rename.  A crash at any byte offset, a
truncation or a flipped bit therefore leaves an intact snapshot or a
typed error, and a file of the other kind or of another format version —
every pre-1.3.0 pickle included — names the right loader or says to
rebuild; never a load with wrong data, never a half-read file.

The decoder resolves only the names a tree contains
(:data:`_TREE_GLOBALS`): a payload naming anything else — ``os.system``
behind a ``__reduce__`` — is a typed ``ValueError`` and the name is never
imported or called.  Not guaranteed: the checksum detects damage, not
forgery (whoever can write the file can write a matching header), and a
payload forged from the allowed classes alone can still decode to a tree
of nonsense or raise from inside them.  The index is a cache, not an
interchange format; trajectory *data* has portable formats in
:mod:`repro.datasets.io` and :mod:`repro.store`.
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path
from typing import Optional

from ..store.atomic import (
    PathLike,
    atomic_write_json,
    cleanup_stale_temps,
    read_envelope,
    read_manifest,
    write_envelope,
)
from .forest import SHARD_SCHEMES, TrajForest
from .trajtree import TrajTree

__all__ = [
    "save_tree",
    "load_tree",
    "save_forest",
    "load_forest",
    "ShardLoadError",
]

_MAGIC = "repro-trajtree"
#: bumped whenever the pickled state of a class in _TREE_GLOBALS changes
#: (1.3.0: the bare pickled tree behind the envelope header, no build RNG;
#: 1.4.0: no vantage descriptors)
_FORMAT_VERSION = "1.4.0"

_FOREST_MAGIC = "repro-trajforest"
#: the manifest's own version, bumped with its schema (1.2.0: shard
#: entries are ``{file, sha256}``, the sha256 the shard's envelope's)
_FOREST_VERSION = "1.2.0"
_FOREST_MANIFEST = "forest.json"

#: the ``on_shard_error`` policies of :func:`load_forest`
ON_SHARD_ERROR = ("fail", "skip")

#: every global a tree's pickle names (recorded over numpy- and
#: python-built trees, inserts and ``from_store`` shards); numpy moved
#: its reconstructors from ``numpy.core`` to ``numpy._core`` in 2.0
_TREE_GLOBALS = frozenset({
    ("repro.core.trajectory", "Trajectory"),
    ("repro.index.stbox", "STBox"),
    ("repro.index.tboxseq", "TBoxSeq"),
    ("repro.index.trajtree", "TrajTree"),
    ("repro.index.trajtree", "TrajTreeStats"),
    ("repro.index.trajtree", "_Node"),
    ("numpy", "dtype"),
    ("numpy", "ndarray"),
    ("numpy.core.numeric", "_frombuffer"),
    ("numpy._core.numeric", "_frombuffer"),
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "_reconstruct"),
})


class _TreeUnpickler(pickle.Unpickler):
    """Refuses any name outside :data:`_TREE_GLOBALS` before it is
    imported, let alone called."""

    def find_class(self, module: str, name: str):
        if (module, name) not in _TREE_GLOBALS:
            raise ValueError(
                f"snapshot payload does not decode to a TrajTree: it names "
                f"{module}.{name}"
            )
        return super().find_class(module, name)


class ShardLoadError(ValueError):
    """One shard of a forest snapshot is missing or unreadable.

    Carries ``shard`` (the shard index) and ``filename`` so operators can
    see exactly which piece of the snapshot to restore.
    """

    def __init__(self, shard: int, filename: str, reason: str):
        self.shard = shard
        self.filename = filename
        super().__init__(
            f"forest shard {shard} ({filename}) {reason}"
        )


def save_tree(tree: TrajTree, path: PathLike) -> str:
    """Serialize a TrajTree (including its trajectory database) to disk.

    Crash-safe (temp sibling + fsync + atomic rename): an interrupted
    save leaves any previous snapshot at ``path`` intact.  Returns the
    pickled payload's ``sha256:<hex>`` checksum, the one the envelope
    header carries — :func:`save_forest` records it in the manifest.
    """
    return write_envelope(
        path, _MAGIC, _FORMAT_VERSION,
        pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL),
    )


def load_tree(path: PathLike, expected: Optional[str] = None) -> TrajTree:
    """Load a TrajTree written by :func:`save_tree`.

    Raises ``ValueError`` before anything is decoded for files that are
    not TrajTree snapshots or are of another format version (rebuild:
    bounds and defaults may have changed) and for forest directories
    (:func:`load_forest`), its subclass :class:`~repro.store.atomic.
    IntegrityError` for truncated or corrupt files or a checksum other
    than ``expected`` (a forest manifest's record of it), and
    ``ValueError`` again for a payload that is not a tree's.
    """
    p = Path(path)
    if p.is_dir():
        if (p / _FOREST_MANIFEST).is_file():
            raise ValueError(
                f"{p!s} is a forest snapshot; load it with load_forest "
                f"(or serve it with --forest)"
            )
        raise ValueError(f"{p!s} is a directory, not a TrajTree snapshot")
    payload = read_envelope(p, _MAGIC, _FORMAT_VERSION, expected)
    tree = _TreeUnpickler(io.BytesIO(payload)).load()
    if not isinstance(tree, TrajTree):
        raise ValueError(f"{p!s} does not decode to a TrajTree")
    return tree


# ---------------------------------------------------------------------- #
# ForestSnapshot
# ---------------------------------------------------------------------- #


def save_forest(forest: TrajForest, path: PathLike) -> None:
    """Write a TrajForest as a snapshot directory (the ForestSnapshot
    layout): ``forest.json`` + one single-tree file per shard.

    Shards are written through :func:`save_tree`, so each is a
    self-checking envelope and lands crash-safely; the manifest pins the
    shard count, the assignment scheme and every shard's checksum, and is
    written **last**, so a save that dies mid-way leaves either the
    previous intact snapshot or a manifest/shard mismatch the loader
    reports as a typed error.  Stale temp files from an earlier
    interrupted save are swept first.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    cleanup_stale_temps(root)
    shards = []
    for i, tree in enumerate(forest.shards):
        filename = f"shard_{i:04d}.pkl"
        checksum = save_tree(tree, root / filename)
        shards.append({"file": filename, "sha256": checksum})
    manifest = {
        "magic": _FOREST_MAGIC,
        "version": _FOREST_VERSION,
        "scheme": forest.scheme,
        "seed": forest.seed,
        "trajectories": len(forest),
        "shards": shards,
    }
    atomic_write_json(root / _FOREST_MANIFEST, manifest, indent=1)


def _load_shard(root: Path, shard: int, entry: dict) -> TrajTree:
    """Load one shard by its manifest entry, every failure a ShardLoadError."""
    file = root / entry["file"]
    if not file.is_file():
        raise ShardLoadError(shard, entry["file"], "is missing")
    try:
        return load_tree(file, expected=entry["sha256"])
    except (ValueError, OSError) as exc:
        raise ShardLoadError(
            shard, entry["file"], f"failed to load: {exc}"
        ) from None


def load_forest(path: PathLike, on_shard_error: str = "fail") -> TrajForest:
    """Load a TrajForest written by :func:`save_forest`.

    Every shard is checked before it is decoded: file present, envelope
    intact and of this format version, checksum the manifest's.

    ``on_shard_error`` decides what a damaged shard means:

    * ``"fail"`` (default) — raise the :class:`ShardLoadError` naming the
      shard; nothing loads.
    * ``"skip"`` — load **degraded**: the forest is assembled over the
      healthy shards only, with the failures recorded on
      ``forest.missing_shards`` (the ``ShardLoadError`` instances),
      ``forest.degraded`` true, and ``forest.snapshot_path`` remembering
      where to retry loading from (the service layer's background reload
      leans on it).  All shards damaged is still an error — there is no
      forest to serve.

    Raises ``ValueError`` for paths that are not forest snapshots —
    including single-tree files of any format version, which get a
    message pointing at :func:`load_tree`.
    """
    if on_shard_error not in ON_SHARD_ERROR:
        raise ValueError(
            f"unknown on_shard_error policy {on_shard_error!r}; "
            f"expected one of {ON_SHARD_ERROR}"
        )
    root = Path(path)
    if root.is_file():
        # A single-tree file (any format version): point at the right
        # loader rather than fail inside the manifest parse.
        raise ValueError(
            f"{root!s} is a single-tree snapshot, not a forest snapshot "
            f"directory; load it with load_tree (or serve it with --index)"
        )
    manifest = read_manifest(
        root / _FOREST_MANIFEST, _FOREST_MAGIC, _FOREST_VERSION, ValueError,
        "a forest snapshot", "rebuild the forest",
    )
    scheme = manifest.get("scheme", "round_robin")
    if scheme not in SHARD_SCHEMES:
        raise ValueError(
            f"{root!s}: unknown shard scheme {scheme!r} in manifest"
        )
    entries = manifest.get("shards")
    if not isinstance(entries, list) or not entries or not all(
            isinstance(e, dict) and {"file", "sha256"} <= set(e)
            for e in entries):
        raise ValueError(
            f"{root!s}: forest manifest lists no {{file, sha256}} shards")

    trees = []
    missing = []
    for i, entry in enumerate(entries):
        try:
            trees.append(_load_shard(root, i, entry))
        except ShardLoadError as exc:
            if on_shard_error == "fail":
                raise
            missing.append(exc)
    if not trees:
        raise ValueError(
            f"{root!s}: all {len(entries)} shards failed to load "
            f"(first: {missing[0]}); nothing to serve"
        )

    forest = TrajForest.from_shards(
        trees, scheme=scheme, seed=int(manifest.get("seed", 0))
    )
    forest.total_shards = len(entries)
    forest.missing_shards = missing
    forest.snapshot_path = str(root)
    if not missing and len(forest) != manifest.get("trajectories"):
        raise ValueError(
            f"{root!s}: manifest promises {manifest.get('trajectories')} "
            f"trajectories, shards hold {len(forest)}"
        )
    return forest
