"""Embedding store and exact top-k cosine retrieval for dynamic few-shot selection.

The embedder is a deterministic hashed bag-of-words model (case-folded
tokens, FNV-1a hashed into a fixed 256-dim count vector, L2-normalized)
with one method, ``embed_one(text)``, which ``build_index`` calls per item
and few-shot selection per query document. Each embedder hashes a distinct
token once, caching at most 65,536 tokens, and the vectors are bit for bit
those of hashing every occurrence. An index is rebuilt from its texts on
every run and is never persisted. Search is exact and exhaustive; corpora
here are at most a few thousand items. numpy is imported on first use, so
only ``extract --policy dynamic-fewshot`` loads it.
"""

from __future__ import annotations

import collections
import functools
import math
import re
from typing import Sequence

from .errors import DomainError

DEFAULT_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class HashedEmbedder:
    """Deterministic hashed bag-of-words embedder (pure integer hashing) into ``DEFAULT_DIM`` dimensions."""

    def __init__(self) -> None:
        # per embedder, so a new one starts cold as a one-shot run does; bounded, as queries bring new tokens
        self._bucket = functools.lru_cache(maxsize=1 << 16)(lambda token: _fnv1a64(token) % DEFAULT_DIM)

    def embed_one(self, text: str) -> list[float]:
        counts = collections.Counter(map(self._bucket, _TOKEN_RE.findall(text.casefold())))
        vec = [0.0] * DEFAULT_DIM  # no tokens: zero vector, cosine treats it as 0 similarity
        # integer counts: the sum of squares is exact, so the vector does not depend on bucket order
        norm = math.sqrt(sum(c * c for c in counts.values()))
        for bucket, count in counts.items():
            vec[bucket] = count / norm
        return vec


class EmbeddingIndex:
    """Immutable id -> vector store with uniform dimensionality.

    An empty vector, a dimension unlike the first's or a repeated id raises ``DomainError`` at the first
    such item, before the matrix is checked for non-finite entries, so it wins over a non-finite entry.
    """

    def __init__(self, items: Sequence[tuple[str, Sequence[float]]]):
        import numpy as np
        self._ids: list[str] = []
        self._rows: dict[str, int] = {}
        vectors = []
        self.dim: int | None = None
        for item_id, vec in items:
            if len(vec) == 0:
                raise DomainError("embedding vector must be nonempty")
            if self.dim is None:
                self.dim = len(vec)
            elif len(vec) != self.dim:
                raise DomainError(f"vector for {item_id!r} has dim {len(vec)}, index dim is {self.dim}")
            if item_id in self._rows:
                raise DomainError(f"duplicate item id {item_id!r}")
            self._rows[item_id] = len(self._ids)
            self._ids.append(item_id)
            vectors.append(vec)
        self._matrix = np.array(vectors, dtype=np.float64) if vectors else np.zeros((0, 0))
        if not np.isfinite(self._matrix).all():
            raise DomainError("embedding vector contains non-finite entries")
        self._norms = np.linalg.norm(self._matrix, axis=1) if vectors else np.zeros(0)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._rows


def build_index(embedder, items: dict[str, str] | Sequence[tuple[str, str]]) -> EmbeddingIndex:
    """Embed a mapping of item_id -> text into an index (insertion order kept), one ``embed_one`` per text."""
    pairs = list(items.items()) if isinstance(items, dict) else list(items)
    if not pairs:
        raise DomainError("cannot build an index from zero items")
    return EmbeddingIndex([(item_id, embedder.embed_one(text)) for item_id, text in pairs])


def top_k(
    index: EmbeddingIndex,
    query: Sequence[float],
    k: int,
    exclude: set[str] | frozenset[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Exact top-k by cosine similarity, descending; ties broken by ascending id.

    Items rank by score rounded to 12 decimals, then by ascending id.
    Items with equal scores, such as duplicate vectors, therefore come out
    in ascending id order whatever the index's insertion order. Scores
    that differ below 1e-12 share a rank only when they round to the same
    12-decimal value: 0.3000000000014999 and 0.3000000000015 straddle a
    rounding edge and are not tied. Returned scores are unquantized.
    Returns min(k, remaining items) entries; zero-norm vectors score 0;
    ``exclude`` drops item ids before ranking (query self-exclusion) and
    ignores ids the index does not hold.
    """
    import numpy as np
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        raise DomainError("index is empty")
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or (index.dim is not None and q.shape[0] != index.dim):
        raise DomainError(f"query dim {q.shape} does not match index dim {index.dim}")
    if not np.all(np.isfinite(q)):
        raise DomainError("query vector contains non-finite entries")
    q_norm = float(np.linalg.norm(q))
    # einsum runs in numpy's own loop: a BLAS gemv here would wake the BLAS
    # thread pool on every query
    dots = np.einsum("ij,j->i", index._matrix, q)
    denom = index._norms * q_norm
    safe = np.where(denom == 0.0, 1.0, denom)
    scores = np.where(denom == 0.0, 0.0, dots / safe)
    keep = np.ones(len(index), dtype=bool)
    keep[[index._rows[item_id] for item_id in exclude if item_id in index._rows]] = False
    live = int(np.count_nonzero(keep))
    if k < live:
        # every item that can reach the top k under the 12-decimal rounding
        # scores within 1e-12 of the k-th best raw score
        kth = np.partition(np.where(keep, scores, -np.inf), len(index) - k)[len(index) - k]
        candidates = np.flatnonzero(keep & (scores >= kth - 1e-11))
    else:
        candidates = np.flatnonzero(keep)
    ranked = [(index._ids[row], float(scores[row])) for row in candidates.tolist()]
    ranked.sort(key=lambda pair: (-round(pair[1], 12), pair[0]))
    return ranked[:k]
