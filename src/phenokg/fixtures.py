"""Bundled synthetic demo data: a Dravet-style cohort and a discovery haystack.

Everything here is generated or hand-authored demo material shipped so the
toolkit runs end to end without restricted clinical data. Builders are
deterministic for a fixed seed; the demo cohort's per-term patient counts
are fixed reference values so frequency analyses produce stable output.
A replay cassette for this data is recorded by wrapping a scripted oracle in
``llm.CassetteBackend`` and saving it after one run.
"""

from __future__ import annotations

import random
from importlib import resources

from .cohortstats import derive_groups
from .discovery import RubricCriterion, ScoringRubric
from .kg import (
    Demographics,
    Graph,
    NoteKind,
    NoteNode,
    PatientNode,
    PhenotypeAssertion,
    build_graph,
    cohort_by_icd,
    upsert_assertion,
)
from .ontology import DiseaseAnnotation, Ontology, TermId, load_annotations, parse_obo

DRAVET_ICD10_CODES: tuple[str, ...] = ("G40.83", "G40.833", "G40.834")

# Generic codes a BPAN-style discovery sweep starts from.
BPAN_GENERIC_ICD10: tuple[str, ...] = ("R62.50", "G40.219", "G23.8", "F79", "G40.824", "G31.9")

DRAVET_COHORT_SIZE = 38

# Distinct-patient count per phenotype in the bundled 38-patient demo cohort.
DRAVET_COHORT_COUNTS: dict[str, int] = {
    "HP:0011172": 34,
    "HP:0002373": 24,
    "HP:0100543": 23,
    "HP:0006813": 16,
    "HP:0010818": 13,
    "HP:0007010": 12,
    "HP:0011185": 11,
    "HP:0008947": 9,
    "HP:0011198": 8,
    "HP:0000729": 6,
    "HP:0002376": 6,
    "HP:0000736": 4,
    "HP:0012847": 4,
    "HP:0100710": 4,
    "HP:0001763": 3,
    "HP:0011468": 3,
    "HP:0031475": 3,
    "HP:0001300": 2,
    "HP:0002063": 2,
    "HP:0002311": 2,
    "HP:0002396": 2,
    "HP:0000739": 1,
    "HP:0001336": 1,
    "HP:0002067": 1,
    "HP:0002307": 1,
    "HP:0002349": 1,
    "HP:0007207": 1,
    "HP:0007240": 1,
    "HP:0007359": 1,
    "HP:0010841": 1,
    "HP:0011169": 1,
    "HP:0011182": 1,
    "HP:0000466": 0,
    "HP:0000980": 0,
    "HP:0001327": 0,
    "HP:0002123": 0,
    "HP:0002283": 0,
    "HP:0002345": 0,
    "HP:0002384": 0,
    "HP:0003066": 0,
    "HP:0007270": 0,
    "HP:0008081": 0,
    "HP:0008770": 0,
    "HP:0025101": 0,
    "HP:0100694": 0,
    "HP:0200048": 0,
}

GROUP_SUBTREE_ROOTS = {
    "HP:0000707": "nervous system",
    "HP:0000708": "behavior",
    "HP:0000152": "head and neck",
    "HP:0040064": "limbs",
}

_OTHER_ICD10 = ("J45.909", "E66.9", "I10", "K21.9", "M54.5", "R51.9")
_RACES = ("white", "black", "asian", "other")
_STATES = ("PA", "DC", "MD", "VA", "NY")


def _data_text(name: str) -> str:
    return resources.files("phenokg").joinpath("data", name).read_text(encoding="utf-8")


def dravet_ontology() -> Ontology:
    """The bundled demo ontology subset (46 phenotype terms plus structure)."""
    return parse_obo(_data_text("dravet_hpo.obo"))


def dravet_allowed_terms() -> frozenset[TermId]:
    """The 46 phenotype terms the demo extraction prompts are restricted to."""
    return frozenset(TermId(t) for t in DRAVET_COHORT_COUNTS)


def dravet_annotations(ontology: Ontology | None = None) -> list[DiseaseAnnotation]:
    """Expected frequency categories for the demo disease (bundled TSV)."""
    ontology = ontology or dravet_ontology()
    with resources.as_file(resources.files("phenokg").joinpath("data", "dravet_annotations.tsv")) as path:
        return load_annotations(path, ontology)


def dravet_groups(ontology: Ontology | None = None) -> dict[TermId, str]:
    """Organ-system groups derived from the demo ontology's subtree roots."""
    return derive_groups(ontology or dravet_ontology(), GROUP_SUBTREE_ROOTS)


def dravet_disease_context() -> str:
    """Hand-authored disease background embedded in demo extraction prompts."""
    return (
        "Dravet syndrome is a severe infant-onset epilepsy, usually caused by SCN1A "
        "mutations, that begins with prolonged fever-triggered seizures in the first "
        "year of life. Additional seizure types, episodes of status epilepticus, "
        "developmental delays, speech impairment, ataxia, and hypotonia typically "
        "emerge over the following years, and most patients need lifelong caregiver "
        "support."
    )


def build_demo_graph(n_patients: int = 100, seed: int = 7) -> Graph:
    """Deterministic 100-patient graph containing the 38-patient demo cohort.

    Exactly 38 patients carry one of DRAVET_ICD10_CODES (the first of them
    carries both G40.833 and G40.834, and only it carries both); two
    non-cohort patients mention BPAN in a note. Phenotype assertions follow
    DRAVET_COHORT_COUNTS exactly.
    """
    if n_patients < DRAVET_COHORT_SIZE + 2:
        raise ValueError(f"n_patients must be at least {DRAVET_COHORT_SIZE + 2}")
    rng = random.Random(seed)
    keys = [f"P{i:04d}" for i in range(1, n_patients + 1)]
    cohort = sorted(rng.sample(keys, DRAVET_COHORT_SIZE))
    cohort_set = set(cohort)
    others = [k for k in keys if k not in cohort_set]
    bpan_mentions = others[:2]

    records: list = []
    for i, key in enumerate(keys):
        if key in cohort_set:
            rank = cohort.index(key)
            codes = {DRAVET_ICD10_CODES[rank % 3]}
            if rank == 0:
                codes = {"G40.833", "G40.834"}
        else:
            codes = {_OTHER_ICD10[i % len(_OTHER_ICD10)]}
        records.append(
            PatientNode(
                key=key,
                demographics=Demographics(
                    age_years=rng.randint(1, 40),
                    race=rng.choice(_RACES),
                    state=rng.choice(_STATES),
                ),
                icd10=frozenset(codes),
                cpt=frozenset({f"9921{i % 5}"}),
                rxnorm=frozenset({"RX" + str(1000 + (i % 7))}),
            )
        )
    for key in keys:
        if key in cohort_set:
            text = (
                "Recurrent prolonged seizures with fever since infancy. "
                "Multiple seizure types documented; development reviewed at each visit."
            )
        elif key in bpan_mentions:
            text = (
                "Progressive motor difficulties; differential includes BPAN given "
                "iron accumulation pattern on imaging."
            )
        else:
            text = "Routine visit. No acute findings; continue current management."
        records.append(NoteNode(note_id=f"{key}-n1", patient=key, text=text, kind=NoteKind.CLINICAL_NOTE))
    graph = build_graph(records)

    ontology = dravet_ontology()
    for term_str, count in DRAVET_COHORT_COUNTS.items():
        term = TermId(term_str)
        for patient in cohort[:count]:
            upsert_assertion(
                graph,
                PhenotypeAssertion(
                    patient=patient,
                    term=term,
                    confidence=0.9,
                    reasoning=f"noted {ontology.name_of(term).lower()} in record",
                    source_note=f"{patient}-n1",
                    extractor_version="demo-fixture-1",
                ),
                ontology,
            )
    return graph


def demo_cohort_keys(graph: Graph) -> list[str]:
    """The demo graph's Dravet cohort (any-mode match on the three codes)."""
    return sorted(cohort_by_icd(graph, DRAVET_ICD10_CODES, mode="any"))


def bpan_rubric() -> ScoringRubric:
    """Hand-authored scoring rubric standing in for a proprietary scorer."""
    return ScoringRubric(
        disease_name="Beta-propeller protein-associated neurodegeneration (BPAN)",
        disease_context=(
            "BPAN is a progressive neurodegenerative disorder with brain iron "
            "accumulation. It typically begins in infancy or early childhood with "
            "seizures of several types and global developmental delay, often with "
            "Rett-like features such as stereotypic hand movements and sleep "
            "disturbance. Late adolescence brings cognitive decline, dystonia, and "
            "parkinsonism."
        ),
        criteria=(
            RubricCriterion("Early-onset seizures of multiple types", 2.0),
            RubricCriterion("Global developmental delay or intellectual disability", 2.0),
            RubricCriterion("Movement disorder: dystonia, parkinsonism, or rigidity", 2.0),
            RubricCriterion("Cognitive decline beginning in adolescence or early adulthood", 1.5),
            RubricCriterion("Imaging or report language suggesting brain iron accumulation", 3.0),
            RubricCriterion("Rett-like features (stereotypies, regression) without MECP2 confirmation", 1.0),
        ),
        scale_note="Scores of 7-9 indicate a very high-probability candidate warranting review.",
    )


BPAN_ALLOWED_TERMS: frozenset[TermId] = frozenset(
    TermId(t)
    for t in (
        "HP:0002376",  # developmental regression
        "HP:0001300",  # parkinsonism
        "HP:0002063",  # rigidity
        "HP:0001336",  # myoclonus
        "HP:0007270",  # atypical absence seizure
        "HP:0010818",  # generalized tonic seizure
        "HP:0008947",  # infantile muscular hypotonia
        "HP:0100543",  # cognitive impairment
    )
)


def build_discovery_graph(
    n_patients: int = 1000, seed: int = 11, n_positive: int = 12
) -> tuple[Graph, list[str]]:
    """A haystack graph: every patient carries a generic code, few are positives.

    Returns (graph, planted_keys). Planted patients' notes describe
    BPAN-consistent presentations (two mention the disease name outright);
    everyone else reads as an unremarkable generic-code patient.
    """
    rng = random.Random(seed)
    keys = [f"D{i:04d}" for i in range(1, n_patients + 1)]
    planted = sorted(rng.sample(keys, n_positive))
    planted_set = set(planted)

    records: list = []
    for i, key in enumerate(keys):
        codes = {BPAN_GENERIC_ICD10[i % len(BPAN_GENERIC_ICD10)]}
        if rng.random() < 0.3:
            codes.add(BPAN_GENERIC_ICD10[(i + 3) % len(BPAN_GENERIC_ICD10)])
        records.append(
            PatientNode(
                key=key,
                demographics=Demographics(age_years=rng.randint(1, 30), state=rng.choice(_STATES)),
                icd10=frozenset(codes),
            )
        )
    for key in keys:
        if key in planted_set:
            idx = planted.index(key)
            text = (
                "Early-onset mixed seizures with global developmental delay. "
                "Progressive rigidity and parkinsonian features; imaging shows "
                "iron deposition in the basal ganglia."
            )
            if idx < 2:
                text += " Differential explicitly raises BPAN."
            records.append(NoteNode(note_id=f"{key}-n1", patient=key, text=text, kind=NoteKind.CLINICAL_NOTE))
            records.append(
                NoteNode(
                    note_id=f"{key}-n2",
                    patient=key,
                    text="Genetics report: variant of interest in WDR45 under review.",
                    kind=NoteKind.GENETICS_REPORT,
                )
            )
        else:
            records.append(
                NoteNode(
                    note_id=f"{key}-n1",
                    patient=key,
                    text="Nonspecific developmental concerns; plan reassessment in six months.",
                    kind=NoteKind.CLINICAL_NOTE,
                )
            )
    return build_graph(records), planted
