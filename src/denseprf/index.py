"""Immutable document-embedding store with exact top-k inner-product search.

Vectors are quantized to float32 at build time (the on-disk precision) and
scored in float64.  Search scans every row exhaustively, then selects
partially: a partition finds the k-th best score and only the rows at or
above it are sorted.  Ties break by doc_id ascending, exactly as a full sort
would order them.  The stored arrays are read-only, so the index both rounds
search cannot change, and doc ids are unique whether built or loaded.  A
64-bit digest over the canonical byte layout guards the file format.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

INDEX_MAGIC = b"PRFIDX1"


@dataclass(frozen=True, slots=True)
class SearchResult:
    doc_id: str
    score: float
    rank: int


class VectorIndex:
    def __init__(self, doc_ids: Sequence[str], vectors32: np.ndarray):
        if vectors32.ndim != 2 or len(doc_ids) != vectors32.shape[0]:
            raise ValueError("ids and vectors disagree")
        self._ids = list(doc_ids)
        self._row_of: dict[str, int] = {}
        for i, d in enumerate(self._ids):
            if self._row_of.setdefault(d, i) != i:
                raise ValueError(f"duplicate doc_id {d}")
        self._ids_arr = np.asarray(self._ids)
        # Read-only views: nothing handed out can change what search scores
        # or what the checksum covers, and the caller's array stays writable.
        self._vec32 = np.ascontiguousarray(vectors32, dtype="<f4").view()
        self._vec64 = self._vec32.astype(np.float64)
        self._vec32.flags.writeable = False
        self._vec64.flags.writeable = False
        self._checksum = self._digest()

    @classmethod
    def build(cls, pairs: Iterable[tuple[str, np.ndarray]]) -> "VectorIndex":
        ids: list[str] = []
        vecs: list[np.ndarray] = []
        dim = None
        for doc_id, vec in pairs:
            vec = np.asarray(vec, dtype=np.float64)
            if vec.ndim != 1:
                raise ValueError("vectors must be 1-D")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ValueError(f"dimension mismatch for doc_id {doc_id}")
            ids.append(doc_id)
            vecs.append(vec.astype("<f4"))
        if not ids:
            raise ValueError("empty index")
        return cls(ids, np.stack(vecs))

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorIndex):
            return NotImplemented
        return self._ids == other._ids and np.array_equal(
            self._vec32, other._vec32
        )

    def __hash__(self):
        return hash(self._checksum)

    @property
    def dim(self) -> int:
        return self._vec32.shape[1]

    @property
    def checksum(self) -> int:
        return self._checksum

    def vector(self, doc_id: str) -> np.ndarray:
        """Read-only float64 view of one stored embedding (KeyError if absent)."""
        return self._vec64[self._row_of[doc_id]]

    def search(self, q: np.ndarray, k: int) -> list[SearchResult]:
        """Exact top-k by inner product, ties by doc_id ascending.

        Every row is scored (one matrix-vector product), but only the rows
        scoring at least the k-th best score are sorted by (-score, doc_id),
        so the sort grows with k and the ties at the cut, not with the index.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self._vec64 @ q
        neg = -scores
        cut = min(k, len(neg)) - 1
        # Every row scoring at least the k-th score, ties at the cut included;
        # ``~(>)`` also keeps NaN rows, which sort last anyway.
        kth = np.partition(neg, cut)[cut]
        rows = np.flatnonzero(~(neg > kth))
        order = rows[np.lexsort((self._ids_arr[rows], neg[rows]))][:k]
        return [
            SearchResult(doc_id=self._ids[i], score=float(scores[i]), rank=r)
            for r, i in enumerate(order, start=1)
        ]

    # -- persistence --------------------------------------------------------

    def _payload_parts(self) -> Iterator[bytes]:
        """The canonical byte layout, header then one part per row."""
        yield struct.pack("<ii", self.dim, len(self._ids))
        for i, doc_id in enumerate(self._ids):
            raw = doc_id.encode("utf-8")
            yield struct.pack("<i", len(raw)) + raw + self._vec32[i].tobytes()

    def _digest(self) -> int:
        h = hashlib.blake2b(digest_size=8)
        for part in self._payload_parts():
            h.update(part)
        return int.from_bytes(h.digest(), "little")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(INDEX_MAGIC)
            fh.writelines(self._payload_parts())
            fh.write(struct.pack("<Q", self._checksum))

    @classmethod
    def load(cls, path) -> "VectorIndex":
        with open(path, "rb") as fh:
            data = memoryview(fh.read())  # slices below share these bytes
        if data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
            raise ValueError("not an index file")
        body = data[len(INDEX_MAGIC):]
        if len(body) < 16:
            raise ValueError("corrupt index")
        payload, (stored,) = body[:-8], struct.unpack("<Q", body[-8:])
        digest = int.from_bytes(
            hashlib.blake2b(payload, digest_size=8).digest(), "little"
        )
        if digest != stored:
            raise ValueError("corrupt index")
        try:
            dim, count = struct.unpack_from("<ii", payload, 0)
            # Bound the loop by the bytes present: each row holds at least
            # its id length and its vector.
            if dim < 1 or count < 1 or count * (4 + 4 * dim) > len(payload) - 8:
                raise ValueError("corrupt index")
            off = 8
            ids = []
            vectors = np.empty((count, dim), dtype="<f4")
            for row in vectors:
                (id_len,) = struct.unpack_from("<i", payload, off)
                off += 4
                if not 0 <= id_len <= len(payload) - off - 4 * dim:
                    raise ValueError("corrupt index")
                ids.append(str(payload[off:off + id_len], "utf-8"))
                off += id_len
                row[:] = np.frombuffer(payload, dtype="<f4", count=dim, offset=off)
                off += 4 * dim
            if off != len(payload):
                raise ValueError("corrupt index")
        except (struct.error, UnicodeDecodeError) as exc:
            raise ValueError("corrupt index") from exc
        return cls(ids, vectors)
