"""Seeded input generation for the three workloads (untimed).

Run as ``python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR [--smoke]``. It
writes the files the ``phenokg`` CLI reads (ontology OBO, JSON Lines corpora,
graph JSONL, rubric JSON, replay cassette) plus ``expected.json``, the exact
outputs the timed run must reproduce. The same seed gives the same files.

Every workload carries an exact, seeded number of deviations: replies that
are fenced or wrapped in prose (they must parse), off-list terms (they must
be dropped and audited), unparseable or out-of-range replies (they must be
audited failures) and, for the graph, writes that break referential
integrity (they must be rejected).
"""

from __future__ import annotations

import random
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DISCOVER_KEYWORDS,
    DRAVET_ICD10,
    FULL,
    MAX_IN_FLIGHT,
    OTHER_ICD10,
    SMOKE,
    UNKNOWN_TERMS,
    BPAN_GENERIC_ICD10,
    share,
    use_source_tree,
    write_json,
    write_jsonl,
)

_SENTENCES = ("Examination documents {}.", "The note describes {}.", "Assessment is notable for {}.")
_FILLERS = (
    "Follow-up visit recorded today.",
    "Family reports no new concerns since the last encounter.",
    "Vitals were within normal limits.",
    "Care plan reviewed with the guardians.",
    "Referral to the specialty clinic remains open.",
)
_CONFIDENCES = (0.6, 0.7, 0.8, 0.9, 0.95)

DISEASE_CONTEXT = (
    "Dravet syndrome is a severe infant-onset epilepsy that begins with prolonged "
    "fever-triggered seizures; developmental delay, ataxia and hypotonia follow."
)

RUBRIC = {
    "disease_name": "Beta-propeller protein-associated neurodegeneration (BPAN)",
    "disease_context": (
        "BPAN is a progressive neurodegenerative disorder with brain iron accumulation, "
        "early seizures of several types, global developmental delay and later dystonia "
        "and parkinsonism."
    ),
    "criteria": [
        {"description": "Early-onset seizures of multiple types", "weight": 2.0},
        {"description": "Global developmental delay or intellectual disability", "weight": 2.0},
        {"description": "Movement disorder: dystonia, parkinsonism, or rigidity", "weight": 2.0},
        {"description": "Imaging language suggesting brain iron accumulation", "weight": 3.0},
    ],
    "scale_note": "Scores of 7-9 indicate a very high-probability candidate warranting review.",
}


def _data_text(name: str) -> str:
    return resources.files("phenokg").joinpath("data", name).read_text(encoding="utf-8")


def _write_ontology(out: Path):
    """Copy the bundled ontology and annotations; return (ontology, annotation terms)."""
    from phenokg.ontology import load_annotations, load_ontology

    (out / "ontology.obo").write_text(_data_text("dravet_hpo.obo"), encoding="utf-8")
    (out / "annotations.tsv").write_text(_data_text("dravet_annotations.tsv"), encoding="utf-8")
    ontology = load_ontology(out / "ontology.obo")
    terms = sorted({a.phenotype for a in load_annotations(out / "annotations.tsv", ontology)})
    return ontology, terms


def _note(rng: random.Random, key: str, names: list[str]) -> str:
    parts = [f"Patient record {key}."]
    for name in names:
        parts.append(rng.choice(_SENTENCES).format(name))
        if rng.random() < 0.4:
            parts.append(rng.choice(_FILLERS))
    return " ".join(parts)


def _plan_doc(rng: random.Random, terms: list[str], n_terms: int) -> dict:
    gold = rng.sample(terms, n_terms)
    return {
        "gold": gold,
        "confidence": {t: rng.choice(_CONFIDENCES) for t in gold},
        "styles": {},
        "extra": {},
    }


def _deal(rng: random.Random, keys: list[str], counts: dict[str, int]) -> dict[str, list[str]]:
    """Disjoint seeded subsets of ``keys`` of the given sizes."""
    shuffled = list(keys)
    rng.shuffle(shuffled)
    out, start = {}, 0
    for name, count in counts.items():
        out[name] = sorted(shuffled[start : start + count])
        start += count
    if start > len(shuffled):
        raise ValueError(f"{start} deviations requested from {len(shuffled)} items")
    return out


def gen_extract(out: Path, seed: int, sizes) -> None:
    """Dynamic few-shot HPO extraction over a pool, answered by the stub."""
    ontology, allowed = _write_ontology(out)
    disallowed = sorted(t.id for t in ontology if t.id not in set(allowed))
    rng = random.Random(f"extract|{seed}")

    def doc(key: str) -> tuple[dict, dict]:
        plan = _plan_doc(rng, allowed, 4)
        names = [ontology.name_of(t) for t in plan["gold"]]
        return {"doc_id": key, "text": _note(rng, key, names), "hpo_ids": sorted(plan["gold"])}, plan

    write_jsonl(out / "pool.jsonl", [doc(f"pool-{i:05d}")[0] for i in range(sizes.pool_docs)])
    queries = [doc(f"q-{i:05d}") for i in range(sizes.query_docs)]
    write_jsonl(out / "corpus.jsonl", [record for record, _ in queries])
    (out / "allowed_terms.txt").write_text("\n".join(allowed) + "\n", encoding="utf-8")
    (out / "disease_context.txt").write_text(DISEASE_CONTEXT + "\n", encoding="utf-8")

    plans = {record["doc_id"]: plan for record, plan in queries}
    n = len(plans)
    dealt = _deal(
        rng,
        sorted(plans),
        {
            "garbage": share(n, 0.02),
            "fenced": share(n, 0.10),
            "prose": share(n, 0.10),
            "disallowed": share(n, 0.05),
            "unknown": share(n, 0.025),
        },
    )
    for key in dealt["garbage"]:
        plans[key]["styles"]["0"] = "garbage"
    for style in ("fenced", "prose"):
        for key in dealt[style]:
            plans[key]["styles"][str(rng.randrange(3))] = style
    for key in dealt["disallowed"]:
        plans[key]["extra"][str(rng.randrange(3))] = [rng.choice(disallowed)]
    for key in dealt["unknown"]:
        plans[key]["extra"][str(rng.randrange(3))] = [UNKNOWN_TERMS[0]]
    write_json(out / "plan.json", {"seed": seed, "docs": plans})

    failed = set(dealt["garbage"])
    write_json(
        out / "expected.json",
        {
            "items": n,
            "gold": {k: sorted(p["gold"]) for k, p in plans.items() if k not in failed},
            "audit": {
                "document_round_failed": len(failed),
                "dropped_disallowed_term": len(dealt["disallowed"]),
                "dropped_unknown_term": len(dealt["unknown"]),
            },
        },
    )


def _score_reply(style: str, score: int) -> str:
    body = f'{{"score": {score}, "rationale": "rubric criteria reviewed"}}'
    if style == "garbage":
        return "Score: high likelihood, see rationale."
    if style == "range":
        return '{"score": 12, "rationale": "rubric criteria reviewed"}'
    if style == "fenced":
        return f"```json\n{body}\n```"
    if style == "prose":
        return f"Assessment follows.\n{body}\nEnd of assessment."
    return body


def gen_discover(out: Path, seed: int, sizes) -> None:
    """A haystack graph plus a replay cassette recorded from a seeded oracle."""
    from phenokg.discovery import load_rubric, run_funnel
    from phenokg.extraction import AuditLog, GleanConfig
    from phenokg.fixtures import build_discovery_graph
    from phenokg.kg import load_graph, save_graph
    from phenokg.llm import ScriptedBackend, request_hash

    from stub import reply_text

    ontology, phenotypes = _write_ontology(out)
    graph, planted = build_discovery_graph(n_patients=sizes.haystack, seed=seed, n_positive=sizes.planted)
    save_graph(graph, out / "graph.jsonl")
    write_json(out / "rubric.json", RUBRIC)
    keys = graph.patient_keys()
    del graph

    rng = random.Random(f"discover|{seed}")
    planted_set = set(planted)
    n = len(keys)
    scores = {k: rng.choice((7, 8, 9)) if k in planted_set else rng.randint(0, 6) for k in keys}
    others = [k for k in keys if k not in planted_set]
    bad = _deal(rng, others, {"garbage": share(n, 0.0025), "range": share(n, 0.0025)})
    score_style = {k: style for style, ks in bad.items() for k in ks}
    rest = [k for k in keys if k not in score_style]
    for style, ks in _deal(rng, rest, {"fenced": share(n, 0.01), "prose": share(n, 0.01)}).items():
        score_style.update({k: style for k in ks})

    plans = {}
    for key in planted:
        plan = _plan_doc(rng, phenotypes, 4)
        plan["confidence"] = dict(zip(plan["gold"], rng.sample((0.95, 0.9, 0.8, 0.7), 4)))
        plans[key] = plan
    p = len(plans)
    dealt = _deal(rng, planted, {"fenced": share(p, 0.1), "prose": share(p, 0.1)})
    for style, ks in dealt.items():
        for key in ks:
            plans[key]["styles"][str(rng.randrange(2))] = style
    unknown = sorted(rng.sample(planted, share(p, 0.05)))
    for key in unknown:
        plans[key]["extra"]["0"] = [UNKNOWN_TERMS[1]]

    cassette: dict[str, str] = {}

    def oracle(request) -> str:
        kind, key = request.request_tag.split(":")[:2]
        if kind == "score":
            text = _score_reply(score_style.get(key, "bare"), scores[key])
        else:
            plan = plans[key]
            text = reply_text(key, plan, sum(1 for t in plan["gold"] if t in request.user))
        cassette.setdefault(request_hash(request.system, request.user), text)
        return text

    run_funnel(
        load_graph(out / "graph.jsonl", ontology),
        load_rubric(out / "rubric.json"),
        keywords=DISCOVER_KEYWORDS,
        generic_icd=BPAN_GENERIC_ICD10,
        threshold=7,
        allowed_terms=frozenset(t.id for t in ontology),
        backend=ScriptedBackend(responder=oracle, max_in_flight=MAX_IN_FLIGHT),
        ontology=ontology,
        glean=GleanConfig(1),
        audit=AuditLog(),
    )
    write_jsonl(out / "cassette.jsonl", [{"hash": h, "response": r} for h, r in sorted(cassette.items())])

    ranked = sorted(planted, key=lambda k: (-scores[k], k))
    finalists = []
    for key in ranked:
        conf = plans[key]["confidence"]
        top = sorted(conf.items(), key=lambda pair: (-pair[1], pair[0]))
        finalists.append([key, scores[key], [[t, c] for t, c in top[:5]]])
    n_failed = len(bad["garbage"]) + len(bad["range"])
    write_json(
        out / "expected.json",
        {
            "items": n,
            "stage_counts": [
                ["candidates", n],
                ["scored", n - n_failed],
                ["filtered", p],
                ["extracted", p],
                ["finalists", p],
            ],
            "finalists": finalists,
            "audit": {"scoring_failed": n_failed, "dropped_unknown_term": len(unknown)},
        },
    )


def _assertion_record(patient: str, term: str, confidence: float, version: str, note: str | None) -> dict:
    return {
        "kind": "assertion",
        "patient": patient,
        "term": term,
        "confidence": confidence,
        "reasoning": "documented in the note",
        "source_note": note,
        "extractor_version": version,
    }


def gen_kg(out: Path, seed: int, sizes) -> None:
    """A patient graph with a Dravet cohort, plus the extraction writes to apply."""
    from phenokg.kg import Demographics, NoteNode, PatientNode, build_graph, record_to_node, save_graph

    ontology, phenotypes = _write_ontology(out)
    rng = random.Random(f"kg|{seed}")
    keys = [f"K{i:06d}" for i in range(1, sizes.kg_patients + 1)]
    cohort = sorted(rng.sample(keys, round(0.3 * len(keys))))
    cohort_set = set(cohort)

    records = []
    asserted: dict[str, dict[str, float]] = {}
    for i, key in enumerate(keys):
        in_cohort = key in cohort_set
        records.append(
            PatientNode(
                key=key,
                demographics=Demographics(age_years=rng.randint(1, 40), state=rng.choice(("PA", "MD", "NY"))),
                icd10=frozenset({rng.choice(DRAVET_ICD10) if in_cohort else OTHER_ICD10[i % len(OTHER_ICD10)]}),
                cpt=frozenset({f"9921{i % 5}"}),
            )
        )
        records.append(NoteNode(note_id=f"{key}-n1", patient=key, text=rng.choice(_FILLERS)))
        n_terms = 4 if in_cohort else (2 if rng.random() < 0.1 else 0)
        if n_terms:
            chosen = {t: rng.choice(_CONFIDENCES) for t in rng.sample(phenotypes, n_terms)}
            asserted[key] = dict(chosen)
            for term, conf in chosen.items():
                records.append(record_to_node(_assertion_record(key, term, conf, "seed-1", f"{key}-n1")))
    graph = build_graph(records, ontology)
    save_graph(graph, out / "graph.jsonl")
    initial_assertions = graph.assertion_count
    del graph, records

    writes = []
    for key in cohort:
        have = asserted[key]
        fresh = rng.sample([t for t in phenotypes if t not in have], 2)
        again = rng.choice(sorted(have))
        for term in fresh + [again]:
            conf = rng.choice(_CONFIDENCES)
            writes.append(_assertion_record(key, term, conf, "bench-extract-2", f"{key}-n1"))
            have[term] = max(have.get(term, 0.0), conf)
    n_bad = share(len(cohort), 0.01)
    for j, key in enumerate(rng.sample(cohort, n_bad)):
        if j % 2:
            bad = _assertion_record(key, UNKNOWN_TERMS[0], 0.9, "bench-extract-2", f"{key}-n1")
        else:
            bad = _assertion_record(key, rng.choice(phenotypes), 0.9, "bench-extract-2", f"{key}-missing")
        writes.insert(rng.randrange(len(writes) + 1), bad)
    write_jsonl(out / "writes.jsonl", writes)

    def counts(threshold: float) -> dict[str, int]:
        return {
            t: sum(1 for k in cohort if asserted[k].get(t, -1.0) >= threshold) for t in phenotypes
        }

    write_json(
        out / "expected.json",
        {
            "items": len(keys),
            "cohort": cohort,
            "writes": len(writes),
            "failed_writes": n_bad,
            "assertions": initial_assertions + len(writes) - n_bad,
            "counts": {"0.0": counts(0.0), "0.8": counts(0.8)},
        },
    )


GENERATORS = {"extract-dynamic": gen_extract, "discover-replay": gen_discover, "kg-cohort": gen_kg}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    use_source_tree()
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](out, seed, SMOKE if "--smoke" in argv else FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
