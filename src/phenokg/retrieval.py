"""Embedding store and exact top-k cosine retrieval for dynamic few-shot selection.

The embedder is a deterministic hashed bag-of-words model (case-folded
tokens, FNV-1a hashed into a fixed 256-dim count vector, L2-normalized).
``build_index`` embeds the whole pool with one ``embed_many(texts)``,
which hashes each distinct token once and fills one count matrix with a
single ``np.bincount``; few-shot selection embeds each query document with
``embed_one(text)``, the one-text case of the same code. Each embedder
caches at most 65,536 token buckets, and the vectors are bit for bit
those of hashing every occurrence. The index matrix is column-major, so a
query is scored on the columns of its non-zero buckets only. An index is
rebuilt from its texts on every run and is never persisted. Search is
exact and exhaustive; corpora here are at most a few thousand items.
numpy is imported on first use, so only ``extract --policy
dynamic-fewshot`` loads it.
"""

from __future__ import annotations

import functools
import itertools
import string
from typing import Sequence

from .errors import DomainError

DEFAULT_DIM = 256

# every byte but a-z and 0-9 becomes a space
_SEPARATORS = bytes(b if chr(b) in string.ascii_lowercase + string.digits else 0x20 for b in range(256))

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _tokens(text: str) -> list[bytes]:
    """The UTF-8 bytes of each maximal ``[a-z0-9]+`` run of the case-folded text. Every byte of a non-ASCII
    character's UTF-8 form is at least 0x80, so such a character separates tokens, as in a ``str`` regex."""
    return text.casefold().encode("utf-8", "surrogatepass").translate(_SEPARATORS).split()


def _fnv1a64(token: bytes) -> int:
    h = _FNV_OFFSET
    for byte in token:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class HashedEmbedder:
    """Deterministic hashed bag-of-words embedder (pure integer hashing) into ``DEFAULT_DIM`` dimensions."""

    def __init__(self) -> None:
        # per embedder, so a new one starts cold as a one-shot run does; bounded, as queries bring new tokens
        self._bucket = functools.lru_cache(maxsize=1 << 16)(lambda token: _fnv1a64(token) % DEFAULT_DIM)

    def embed_one(self, text: str) -> list[float]:
        return self.embed_many([text])[0].tolist()

    def embed_many(self, texts: Sequence[str]):
        """The vectors of ``texts`` as the rows of one column-major float64 matrix. A token is hashed once per
        call, through this embedder's cache. A text with no token embeds to the zero vector, which cosine
        treats as 0 similarity."""
        import numpy as np
        bucket_of = _BucketTable(self._bucket)
        buckets: list[int] = []
        lengths = []
        for text in texts:  # one text's tokens at a time: the pool's would all be alive at once
            tokens = _tokens(text)
            lengths.append(len(tokens))
            buckets += map(bucket_of.__getitem__, tokens)
        n = len(texts)
        # bucket b of row i is flat entry b * n + i, so the (dim, n) counts transposed are column-major;
        # float counts (no int64 copy) are exact, and so are their sums of squares below 2**53
        flat = np.array(buckets, dtype=np.intp) * n + np.repeat(np.arange(n), lengths)
        counts = np.bincount(flat, np.ones(len(flat)), DEFAULT_DIM * n)
        # with no token at all, bincount returns integer zeros whatever the weights
        matrix = counts.astype(np.float64, copy=False).reshape(DEFAULT_DIM, n).T
        # integer counts: the sum of squares is exact, so a vector does not depend on bucket order
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        norms[norms == 0.0] = 1.0  # no tokens: the row stays zero
        matrix /= norms[:, None]
        return matrix


class _BucketTable(dict):
    """token -> bucket for one ``embed_many`` call; a token met for the first time goes through ``bucket``."""

    __slots__ = ("_bucket",)

    def __init__(self, bucket):
        super().__init__()
        self._bucket = bucket

    def __missing__(self, token: bytes) -> int:
        value = self[token] = self._bucket(token)
        return value


class EmbeddingIndex:
    """Immutable id -> vector store with uniform dimensionality; the vectors are the rows of one
    column-major float64 matrix.

    An empty vector, a dimension unlike the first's or a repeated id raises ``DomainError`` at the first
    such item, before the matrix is checked for non-finite entries, so it wins over a non-finite entry.
    ``from_matrix`` runs the same checks in the same order.
    """

    def __init__(self, items: Sequence[tuple[str, Sequence[float]]]):
        import numpy as np
        pairs = list(items)
        self._check_rows([item_id for item_id, _ in pairs], [len(vec) for _, vec in pairs])
        vectors = [vec for _, vec in pairs]
        self._set_matrix(np.array(vectors, dtype=np.float64, order="F") if vectors else np.zeros((0, 0)))

    @classmethod
    def from_matrix(cls, ids: Sequence[str], matrix) -> EmbeddingIndex:
        """An index whose item ``ids[i]`` has the vector ``matrix[i]``, for a column-major float64 matrix."""
        index = cls.__new__(cls)
        index._check_rows(ids, itertools.repeat(matrix.shape[1]))
        index._set_matrix(matrix)
        return index

    def _check_rows(self, ids: Sequence[str], dims) -> None:
        self._ids: list[str] = list(ids)
        self._rows: dict[str, int] = {}
        self.dim: int | None = None
        for item_id, dim in zip(self._ids, dims):
            if dim == 0:
                raise DomainError("embedding vector must be nonempty")
            if self.dim is None:
                self.dim = dim
            elif dim != self.dim:
                raise DomainError(f"vector for {item_id!r} has dim {dim}, index dim is {self.dim}")
            if item_id in self._rows:
                raise DomainError(f"duplicate item id {item_id!r}")
            self._rows[item_id] = len(self._rows)

    def _set_matrix(self, matrix) -> None:
        import numpy as np
        if not np.isfinite(matrix).all():
            raise DomainError("embedding vector contains non-finite entries")
        self._matrix = matrix
        # einsum writes no squared copy of the matrix, as np.linalg.norm would
        self._norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._rows


def build_index(embedder, items: dict[str, str] | Sequence[tuple[str, str]]) -> EmbeddingIndex:
    """Embed a mapping of item_id -> text into an index (insertion order kept), with one ``embed_many``."""
    pairs = list(items.items()) if isinstance(items, dict) else list(items)
    if not pairs:
        raise DomainError("cannot build an index from zero items")
    return EmbeddingIndex.from_matrix([item_id for item_id, _ in pairs], embedder.embed_many([t for _, t in pairs]))


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

    A dot product sums only the query's non-zero buckets, over those
    columns of the index matrix. A zero bucket adds nothing to the exact
    dot product, but the floating sum runs in another order than a dense
    product over every bucket would, so a score can differ from the dense
    one in its last bits; equal vectors still get equal scores.
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
    nonzero = np.flatnonzero(q)
    # a gather of whole columns of the column-major matrix; einsum runs in
    # numpy's own loop, where a BLAS gemv would wake the BLAS thread pool on
    # every query
    dots = np.einsum("ij,j->i", index._matrix[:, nonzero], q[nonzero])
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
