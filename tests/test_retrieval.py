import hashlib
import math
import random
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phenokg.errors import DomainError
from phenokg.retrieval import (
    DEFAULT_DIM,
    EmbeddingIndex,
    HashedEmbedder,
    build_index,
    top_k,
)


def brute_force_ranking(items, query, exclude=frozenset()):
    """Independent oracle: pure-python cosine over every pair, full sort.

    Ranks with the documented comparison rule (scores at 1e-12 resolution,
    ties by ascending id).
    """

    def cosine(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return dot / (nu * nv)

    scored = [(item_id, cosine(query, vec)) for item_id, vec in items if item_id not in exclude]
    scored.sort(key=lambda pair: (-round(pair[1], 12), pair[0]))
    return scored


def test_fallback_embedder_deterministic():
    embedder = HashedEmbedder()
    a, b = embedder.embed_one("a b"), embedder.embed_one("a b")
    assert a == b
    again = HashedEmbedder().embed_one("a b")
    assert again == a


def test_fallback_embedder_unit_norm():
    vec = HashedEmbedder().embed_one("x")
    assert abs(math.sqrt(sum(v * v for v in vec)) - 1.0) <= 1e-9
    assert len(vec) == DEFAULT_DIM


def test_fallback_embedder_overlap_orders_similarity():
    embedder = HashedEmbedder()
    base, close, far = (embedder.embed_one(text) for text in ["the cat sat", "the cat sat on", "quantum flux"])

    def cosine(u, v):
        return sum(a * b for a, b in zip(u, v))  # unit-norm vectors

    # hand-expanded token counts: 3 shared tokens of 3 vs 4 -> 3/sqrt(12);
    # zero shared tokens -> 0 (assuming no bucket collisions among these tokens)
    assert cosine(base, close) == pytest.approx(3 / math.sqrt(12), abs=1e-9)
    assert cosine(base, far) == pytest.approx(0.0, abs=1e-9)
    assert cosine(base, close) > cosine(base, far)


def test_embed_rejects_empty_input():
    with pytest.raises(DomainError):
        build_index(HashedEmbedder(), [])


def test_empty_text_embeds_to_zero_vector():
    vec = HashedEmbedder().embed_one("   ")
    assert all(v == 0.0 for v in vec)


def test_top_k_self_similarity_first():
    embedder = HashedEmbedder()
    index = build_index(embedder, {"a": "seizure onset in infancy", "b": "entirely different words"})
    query = embedder.embed_one("seizure onset in infancy")
    ranked = top_k(index, query, k=2)
    assert ranked[0][0] == "a"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_top_k_truncates_to_index_size():
    index = EmbeddingIndex([("x", [1.0, 0.0]), ("y", [0.0, 1.0])])
    assert len(top_k(index, [1.0, 1.0], k=10)) == 2


def test_top_k_matches_brute_force_on_random_vectors():
    rng = random.Random(42)
    items = [(f"item-{i:03d}", [float(rng.randint(-5, 5)) for _ in range(16)]) for i in range(50)]
    index = EmbeddingIndex(items)
    for _ in range(20):
        query = [float(rng.randint(-5, 5)) for _ in range(16)]
        expected = brute_force_ranking(items, query)[:5]
        assert top_k(index, query, k=5) == [(i, pytest.approx(s, abs=1e-12)) for i, s in expected]


def test_top_k_ties_break_by_ascending_id():
    vec = [1.0, 2.0, 3.0]
    index = EmbeddingIndex([("zeta", vec), ("alpha", vec), ("mid", [3.0, 2.0, 1.0])])
    ranked = top_k(index, vec, k=3)
    assert [item_id for item_id, _ in ranked] == ["alpha", "zeta", "mid"]


def test_top_k_scale_invariant():
    rng = random.Random(7)
    items = [(f"i{i}", [rng.uniform(-1, 1) for _ in range(8)]) for i in range(30)]
    index = EmbeddingIndex(items)
    query = [rng.uniform(-1, 1) for _ in range(8)]
    base = [item_id for item_id, _ in top_k(index, query, k=30)]
    scaled = [item_id for item_id, _ in top_k(index, [3.7 * v for v in query], k=30)]
    assert base == scaled


def test_top_k_exclusion():
    index = EmbeddingIndex([("a", [1.0, 0.0]), ("b", [0.9, 0.1]), ("c", [0.0, 1.0])])
    ranked = top_k(index, [1.0, 0.0], k=2, exclude={"a"})
    assert [item_id for item_id, _ in ranked] == ["b", "c"]


def test_top_k_errors():
    index = EmbeddingIndex([("a", [1.0, 0.0])])
    with pytest.raises(DomainError):
        top_k(index, [1.0, 0.0], k=0)
    with pytest.raises(DomainError):
        top_k(index, [1.0, 0.0, 0.0], k=1)
    with pytest.raises(DomainError):
        top_k(EmbeddingIndex([]), [1.0], k=1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "items, message",
    [
        ([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, NAN])], "non-finite"),
        ([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [INF, 0.0])], "non-finite"),
        ([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [-INF, 0.0])], "non-finite"),
        ([("a", [1.0, 0.0]), ("b", [1.0])], r"vector for 'b' has dim 1, index dim is 2"),
        ([("a", [1.0]), ("b", [])], "embedding vector must be nonempty"),
        ([("a", [1.0]), ("a", [2.0])], r"duplicate item id 'a'"),
        # two faults in one input: the structural fault wins over a non-finite entry
        ([("a", [NAN, 0.0]), ("b", [1.0])], r"vector for 'b' has dim 1, index dim is 2"),
        ([("a", [1.0]), ("a", [NAN])], r"duplicate item id 'a'"),
        ([("a", [INF]), ("b", [])], "embedding vector must be nonempty"),
    ],
)
def test_index_validation_messages(items, message):
    with pytest.raises(DomainError, match=message):
        EmbeddingIndex(items)


def test_index_rejects_dim_mismatch_and_duplicates():
    with pytest.raises(DomainError):
        EmbeddingIndex([("a", [1.0, 0.0]), ("b", [1.0])])
    with pytest.raises(DomainError):
        EmbeddingIndex([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(DomainError):
        EmbeddingIndex([("a", [float("nan")])])


def test_fallback_embedder_frozen_buckets():
    # pure integer hashing pins these bucket positions across runs,
    # platforms, and interpreter versions
    vec = HashedEmbedder().embed_one("the cat sat")
    nonzero = {i for i, v in enumerate(vec) if v != 0.0}
    assert nonzero == {39, 124, 247}
    assert all(vec[i] == pytest.approx(1 / math.sqrt(3), abs=1e-12) for i in nonzero)


def dense_embed_one(text: str) -> list[float]:
    """Reference embedder: hashes every token occurrence byte by byte and divides every slot."""
    counts = [0.0] * DEFAULT_DIM
    for token in re.findall(r"[a-z0-9]+", text.casefold()):
        h = 0xCBF29CE484222325
        for byte in token.encode("utf-8"):
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        counts[h % DEFAULT_DIM] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        return counts
    return [c / norm for c in counts]


# case-folding expanders (ß -> ss, ﬁ -> fi, İ -> i + U+0307), punctuation, and few
# letters, so tokens repeat within a text and buckets collide
_EMBED_TEXTS = st.one_of(
    st.text(alphabet=st.sampled_from(list("abAB1 ßﬁİ.,;-!\n\t")), max_size=60),
    st.text(max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EMBED_TEXTS, min_size=1, max_size=6))
@example(["", "   ", "-- ; !", "Straße ﬁt İstanbul STRASSE", "ß ss SS"])
def test_embed_one_is_bit_identical_to_the_dense_reference(texts):
    embedder = HashedEmbedder()  # one embedder: later texts hit tokens cached by earlier ones
    for text in texts:
        vec, expected = embedder.embed_one(text), dense_embed_one(text)
        assert vec == expected
        assert struct.pack("256d", *vec) == struct.pack("256d", *expected)


_FOLDING_TEXTS = ["", "   ", "-- ; !", "Straße ﬁt İstanbul", "Straße ﬁt İstanbul STRASSE", "ß ss SS", "a\ud800b"]


def _assert_rows_are_embed_one(texts):
    index = build_index(HashedEmbedder(), [(f"d{i}", text) for i, text in enumerate(texts)])
    assert index._matrix.flags.f_contiguous
    reference = HashedEmbedder()
    for row, text in zip(index._matrix, texts):
        assert row.tobytes() == struct.pack("256d", *reference.embed_one(text)) == struct.pack("256d", *dense_embed_one(text))


@settings(max_examples=200, deadline=None)
@given(st.lists(_EMBED_TEXTS, min_size=1, max_size=8))
@example(_FOLDING_TEXTS)
def test_bulk_built_rows_are_bit_identical_to_embed_one(texts):
    _assert_rows_are_embed_one(texts)


@settings(max_examples=100, deadline=None)
@given(st.lists(_EMBED_TEXTS, min_size=1, max_size=5), st.randoms(use_true_random=False))
@example(_FOLDING_TEXTS, random.Random(0))
def test_bulk_built_rows_of_duplicated_texts_are_bit_identical_to_embed_one(texts, rng):
    doubled = texts * 2
    rng.shuffle(doubled)
    _assert_rows_are_embed_one(doubled)


def test_top_k_on_a_hashed_pool_ranks_as_a_dense_reference(synth_docs):
    texts = {d.document.doc_id: d.document.text for d in synth_docs}
    texts |= {"twin-a": "seizure fever seizure", "twin-b": "seizure fever seizure", "empty": "", "fold": "SEIZURE Fever"}
    embedder = HashedEmbedder()
    index = build_index(embedder, texts)
    dense = [(item_id, dense_embed_one(text)) for item_id, text in texts.items()]
    for query_id, text in [*texts.items(), ("q", "fever and seizure onset"), ("none", "!!")]:
        for k in (1, 5, len(texts)):
            got = top_k(index, embedder.embed_one(text), k=k, exclude={query_id})
            expected = brute_force_ranking(dense, dense_embed_one(text), exclude={query_id})[:k]
            assert [item_id for item_id, _ in got] == [item_id for item_id, _ in expected]
            assert [score for _, score in got] == pytest.approx([score for _, score in expected], abs=1e-12)


def test_index_matrix_bytes_are_pinned(synth_docs):
    pool = [(d.document.doc_id, d.document.text) for d in synth_docs] + [
        ("empty", ""),
        ("punct", "-- ; !"),
        ("fold", "Straße ﬁt İstanbul STRASSE"),
        ("repeat", "seizure seizure seizure fever"),
    ]
    matrix = build_index(HashedEmbedder(), pool)._matrix
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
        "54fdd13ebf4e3a6495291cce7e499874e76d95fad8dac50b39d9260b9cb736e5"
    )


def test_each_embedder_has_its_own_bounded_token_cache():
    first, second = HashedEmbedder(), HashedEmbedder()
    first.embed_one("seizure onset in infancy, seizure")
    assert first._bucket.cache_info().currsize == 4
    assert second._bucket.cache_info().currsize == 0
    text = " ".join(f"t{i}" for i in range(70_000))
    assert first.embed_one(text) == dense_embed_one(text)
    info = first._bucket.cache_info()
    assert info.maxsize == 65_536 and info.currsize == 65_536
    assert second._bucket.cache_info().currsize == 0


@pytest.mark.threads
def test_concurrent_embeds_on_one_embedder_equal_serial_ones():
    rng = random.Random(5)
    vocabulary = [f"w{i}" for i in range(600)]
    texts = [" ".join(rng.choices(vocabulary, k=40)) for _ in range(200)]
    serial = [HashedEmbedder().embed_one(text) for text in texts]
    shared = HashedEmbedder()  # cold, so the threads miss on the same tokens at once
    results = [None] * 4

    def work(slot: int) -> None:
        order = list(range(slot * 50, 200)) + list(range(slot * 50))
        vectors = {i: shared.embed_one(texts[i]) for i in order}
        results[slot] = [vectors[i] for i in range(200)]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == [serial] * 4


# -- top_k against an exhaustive oracle (property-based) ------------------------


def exact_oracle(items, query, k, exclude=frozenset()):
    """Exhaustive ranking with the documented key, (-round(score, 12), id).

    On small-integer vectors every dot product and squared norm is exact, so
    this computes bit-identical scores to ``top_k``.
    """
    q_norm = math.sqrt(sum(v * v for v in query))
    scored = []
    for item_id, vec in items:
        if item_id in exclude:
            continue
        denom = math.sqrt(sum(v * v for v in vec)) * q_norm
        dot = sum(a * b for a, b in zip(vec, query))
        scored.append((item_id, 0.0 if denom == 0.0 else dot / denom))
    scored.sort(key=lambda pair: (-round(pair[1], 12), pair[0]))
    return scored[:k]


_IDS = st.text(alphabet="abcxyz", min_size=1, max_size=4)


@st.composite
def retrieval_cases(draw):
    dim = draw(st.integers(1, 6))
    vector = st.lists(st.integers(-3, 3).map(float), min_size=dim, max_size=dim)
    palette = draw(st.lists(vector, min_size=1, max_size=5))
    if draw(st.booleans()):
        palette.append([0.0] * dim)  # zero-norm rows
    ids = draw(st.lists(_IDS, min_size=1, max_size=30, unique=True))
    # drawing rows from a small palette makes duplicate vectors (exact ties) common
    items = [(item_id, palette[draw(st.integers(0, len(palette) - 1))]) for item_id in ids]
    query = draw(st.one_of(vector, st.sampled_from(palette), st.just([0.0] * dim)))
    exclude = set(draw(st.lists(st.sampled_from(ids), max_size=len(ids))))
    exclude |= set(draw(st.lists(st.text(alphabet="QR", min_size=1, max_size=3), max_size=3)))  # unknown ids
    if draw(st.integers(0, 9)) == 0:
        exclude |= set(ids)
    k = draw(st.integers(1, len(ids) + 5))
    return items, query, exclude, k


@settings(max_examples=300, deadline=None)
@given(retrieval_cases())
def test_top_k_equals_exhaustive_oracle(case):
    items, query, exclude, k = case
    index = EmbeddingIndex(items)
    got = top_k(index, query, k=k, exclude=exclude)
    assert got == exact_oracle(items, query, k, exclude)
    live = sum(1 for item_id, _ in items if item_id not in exclude)
    assert len(got) == min(k, live)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_duplicate_vectors_rank_by_id_under_any_insertion_order(data):
    dim = data.draw(st.sampled_from([3, 7, 256]))
    vector = st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim)
    palette = data.draw(st.lists(vector, min_size=1, max_size=3))
    ids = data.draw(st.lists(_IDS, min_size=2, max_size=12, unique=True))
    items = [(item_id, palette[data.draw(st.integers(0, len(palette) - 1))]) for item_id in ids]
    shuffled = data.draw(st.permutations(items))
    query = data.draw(vector)
    ranked = top_k(EmbeddingIndex(items), query, k=len(items))
    assert top_k(EmbeddingIndex(shuffled), query, k=len(items)) == ranked
    vector_of = dict(items)
    for (a, _), (b, _) in zip(ranked, ranked[1:]):
        if vector_of[a] == vector_of[b]:
            assert a < b


def _bucket_edge_pair(m: int) -> tuple[float, float]:
    """Adjacent floats (lo, hi) that round to different 12-decimal values at
    the edge between the buckets m * 1e-12 and (m + 1) * 1e-12."""
    hi = (m + 0.5) / 10**12
    while True:
        lo = math.nextafter(hi, 0.0)
        if round(lo, 12) < round(hi, 12):
            return lo, hi
        # hi rounded down: the edge is above it; otherwise lo rounded up too
        hi = math.nextafter(hi, 1.0) if round(hi, 12) < hi else lo


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6 * 10**11))
def test_scores_straddling_a_rounding_edge_are_not_tied(m):
    lo, hi = _bucket_edge_pair(m)
    assert round(lo, 12) < round(hi, 12) and math.nextafter(lo, 1.0) == hi
    # one-hot items and a unit query make the scores exactly the query's entries
    rest = math.sqrt(1.0 - lo * lo - hi * hi)
    query = [lo, hi, rest]
    assume(float(np.linalg.norm(query)) == 1.0)
    index = EmbeddingIndex([("a", [1.0, 0.0, 0.0]), ("b", [0.0, 1.0, 0.0])])
    # one ulp apart, but in different buckets: "b" outranks the smaller id "a"
    assert top_k(index, query, k=2) == [("b", hi), ("a", lo)]
