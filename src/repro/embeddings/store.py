"""Embedding store: pre-computed vectors for all graph elements.

The paper pre-computes embeddings for every node and edge of the policy
graphs and caches them alongside the other pipeline artifacts.  The store
keeps an insertion-ordered matrix for fast batched cosine search and can be
persisted to ``.npz``.

The store is thread-safe: concurrent batch queries read (and lazily
insert) vectors from many workers, so all index mutations and matrix
reads are lock-guarded.  Embedding itself happens outside the lock — the
model is deterministic, so a racing double-computation of the same key
yields identical vectors and only one wins the insert.
"""

from __future__ import annotations

import io
import threading
from pathlib import Path

import numpy as np

from repro.embeddings.model import EmbeddingModel


class EmbeddingStore:
    """Ordered map of text keys to embedding vectors."""

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self.model = model or EmbeddingModel()
        self._lock = threading.RLock()
        self._keys: list[str] = []
        self._index: dict[str, int] = {}
        self._rows: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    @property
    def keys(self) -> list[str]:
        with self._lock:
            return list(self._keys)

    def add(self, key: str) -> np.ndarray:
        """Embed and store ``key``; idempotent and thread-safe."""
        with self._lock:
            idx = self._index.get(key)
            if idx is not None:
                return self._rows[idx]
        vec = self.model.embed(key)
        with self._lock:
            idx = self._index.get(key)
            if idx is not None:  # another thread won the race
                return self._rows[idx]
            self._index[key] = len(self._keys)
            self._keys.append(key)
            self._rows.append(vec)
            self._matrix = None
            return vec

    def add_many(self, keys: list[str]) -> None:
        for key in keys:
            self.add(key)

    def get(self, key: str) -> np.ndarray:
        """Vector for ``key``, embedding on demand if absent."""
        with self._lock:
            idx = self._index.get(key)
            if idx is not None:
                return self._rows[idx]
        return self.add(key)

    def matrix(self) -> np.ndarray:
        """All stored vectors stacked row-wise (cached until mutation)."""
        with self._lock:
            if self._matrix is None:
                if self._rows:
                    self._matrix = np.stack(self._rows)
                else:
                    self._matrix = np.zeros((0, self.model.dim))
            return self._matrix

    def snapshot(self) -> tuple[list[str], np.ndarray]:
        """Consistent (keys, matrix) pair taken under one lock hold.

        Concurrent searchers need the key list and the row matrix to line
        up; grabbing them in two separate calls could interleave with an
        insert.
        """
        with self._lock:
            return list(self._keys), self.matrix()

    def to_bytes(self) -> bytes:
        """Serialize keys and vectors to ``.npz`` bytes (snapshot payload)."""
        buffer = io.BytesIO()
        keys, matrix = self.snapshot()
        np.savez_compressed(
            buffer,
            keys=np.array(keys, dtype=object),
            matrix=matrix,
            model_name=np.array(self.model.name),
            dim=np.array(self.model.dim),
        )
        return buffer.getvalue()

    def save(self, path: str | Path) -> None:
        """Persist keys and vectors to an ``.npz`` file, atomically.

        The write goes through :func:`repro.store.atomic.atomic_write_bytes`,
        so an existing store file is either fully replaced or left
        untouched — never truncated by a crash mid-write.
        """
        # Imported here: repro.store imports the pipeline, which imports us.
        from repro.store.atomic import atomic_write_bytes

        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def from_bytes(
        cls, payload: bytes, model: EmbeddingModel | None = None
    ) -> "EmbeddingStore":
        """Reconstruct a store from :meth:`to_bytes` output."""
        return cls._from_npz(np.load(io.BytesIO(payload), allow_pickle=True), model)

    @classmethod
    def load(cls, path: str | Path, model: EmbeddingModel | None = None) -> "EmbeddingStore":
        """Load a store persisted by :meth:`save`."""
        return cls._from_npz(np.load(Path(path), allow_pickle=True), model)

    @classmethod
    def _from_npz(cls, data, model: EmbeddingModel | None) -> "EmbeddingStore":
        store = cls(model or EmbeddingModel(dim=int(data["dim"]), name=str(data["model_name"])))
        keys = [str(k) for k in data["keys"]]
        matrix = data["matrix"]
        store._keys = keys
        store._index = {k: i for i, k in enumerate(keys)}
        store._rows = [matrix[i] for i in range(len(keys))]
        store._matrix = matrix if len(keys) else None
        return store
