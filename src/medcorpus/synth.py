"""Synthetic corpus generators for tests and experiments.

Everything here is deterministic given a seed. The generators produce
data at desk scale with planted structure (duplicates, names, dates,
codes) whose ground truth is returned alongside the documents, so tests
can check recovery rates instead of eyeballing output.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .corpus import Document

GERMAN_FIRST_NAMES = (
    "Anna", "Bernd", "Claudia", "Dieter", "Elke", "Frank", "Gisela",
    "Hans", "Ingrid", "Jürgen", "Karin", "Lothar", "Monika", "Norbert",
    "Ottilie", "Peter", "Renate", "Stefan", "Thomas", "Ursula",
)

GERMAN_LAST_NAMES = (
    "Müller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer",
    "Wagner", "Becker", "Schulz", "Hoffmann", "Koch", "Bauer",
    "Richter", "Klein", "Wolf", "Schröder", "Neumann", "Schwarz",
    "Zimmermann", "Braun",
)

_MONTH_NAMES = (
    "Januar", "Februar", "März", "April", "Mai", "Juni", "Juli",
    "August", "September", "Oktober", "November", "Dezember",
)

_REPORT_PHRASES = (
    "Keine Hinweise auf frische Infiltrate.",
    "Herz normal groß, keine Stauung.",
    "Unauffällige Darstellung der Oberbauchorgane.",
    "Kein Nachweis einer Raumforderung.",
    "Degenerative Veränderungen der Wirbelsäule.",
    "Regelrechte Belüftung beider Lungen.",
    "Kein Pleuraerguss, kein Pneumothorax.",
    "Die Untersuchung erfolgte in zwei Ebenen.",
)


def random_word(rng: random.Random, min_len: int = 3, max_len: int = 9) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


def make_vocab(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add(random_word(rng))
    return sorted(words)


@dataclass
class PlantedCorpus:
    documents: list[Document]
    duplicate_ids: set[str] = field(default_factory=set)
    # maps planted duplicate id -> id of the original it was copied from
    duplicate_of: dict[str, str] = field(default_factory=dict)


def _plant_duplicates(
    rng: random.Random,
    n_docs: int,
    dup_rate: float,
    draw_base: Callable[[], list[str]],
    pool: Sequence[str],
    n_swaps: int,
    prefixes: tuple[str, str],
    source: str,
) -> PlantedCorpus:
    """Draw the base documents, then the duplicates, each a copy of a random
    base with ``n_swaps`` positions replaced by words from ``pool``, and
    shuffle them together. Ids are ``<prefix>-<number>``, the base prefix
    first."""
    if not 0.0 <= dup_rate < 1.0:
        raise ValueError(f"dup_rate must be in [0, 1), got {dup_rate}")
    n_dups = int(round(n_docs * dup_rate))
    n_bases = n_docs - n_dups
    if n_bases <= 0:
        raise ValueError("dup_rate leaves no base documents")
    base_prefix, dup_prefix = prefixes
    bases = [draw_base() for _ in range(n_bases)]
    order: list[tuple[str, list[str], str | None]] = [
        (f"{base_prefix}-{i:06d}", words, None) for i, words in enumerate(bases)
    ]
    for j in range(n_dups):
        src = rng.randrange(n_bases)
        words = list(bases[src])
        for pos in rng.sample(range(len(words)), min(n_swaps, len(words))):
            words[pos] = rng.choice(pool)
        order.append((f"{dup_prefix}-{j:06d}", words, f"{base_prefix}-{src:06d}"))
    rng.shuffle(order)
    docs = [Document(id=doc_id, source=source, text=" ".join(words)) for doc_id, words, _ in order]
    dup_of = {doc_id: origin for doc_id, _, origin in order if origin is not None}
    return PlantedCorpus(documents=docs, duplicate_ids=set(dup_of), duplicate_of=dup_of)


def bow_corpus(
    n_docs: int,
    vocab_size: int,
    dup_rate: float,
    seed: int,
    doc_len: int = 40,
    n_swaps: int = 2,
    source: str = "other",
) -> PlantedCorpus:
    """Random word-soup corpus with planted near-duplicates.

    A duplicate is a copy of an earlier base document with ``n_swaps``
    positions replaced by fresh vocabulary words, which keeps its cosine
    similarity to the base high (about 1 - n_swaps / doc_len). Base
    documents are drawn with individually shuffled vocab slices so that
    unrelated documents stay far below any realistic threshold.
    """
    rng = random.Random(seed)
    vocab = make_vocab(rng, vocab_size)
    return _plant_duplicates(
        rng, n_docs, dup_rate, lambda: [rng.choice(vocab) for _ in range(doc_len)],
        vocab, n_swaps, ("base", "dup"), source,
    )


def radiology_corpus(n_docs: int, dup_rate: float, seed: int) -> PlantedCorpus:
    """Short clinical-sounding reports with planted near-duplicates.

    Reports are built from a fixed phrase inventory plus random filler
    words, so the term distribution is skewed like real report text (a
    few very common phrases, a long tail of rare tokens).
    """
    rng = random.Random(seed)
    filler = make_vocab(rng, 8000)

    def report() -> list[str]:
        words: list[str] = []
        # distinct phrases, and filler outweighing them: two unrelated
        # reports sharing even a full phrase set stay far below 0.75
        for phrase in rng.sample(_REPORT_PHRASES, rng.randint(3, 5)):
            words.extend(phrase.split())
        words.extend(rng.choice(filler) for _ in range(rng.randint(25, 40)))
        return words

    return _plant_duplicates(
        rng, n_docs, dup_rate, report, filler, 2, ("rad", "raddup"), "radiology-report"
    )


@dataclass
class PlantedPii:
    documents: list[Document]
    names: list[str]
    # doc id -> number of planted name / date surfaces
    n_names: dict[str, int]
    n_dates: dict[str, int]


def _random_date_surface(rng: random.Random) -> str:
    day = rng.randint(1, 28)
    month = rng.randint(1, 12)
    year = rng.randint(1995, 2024)
    style = rng.randrange(5)
    if style == 0:
        return f"{day}.{month}.{year}"
    if style == 1:
        return f"{day:02d}.{month:02d}.{year % 100:02d}"
    if style == 2:
        return f"{year}-{month:02d}-{day:02d}"
    if style == 3:
        return f"{day}. {_MONTH_NAMES[month - 1]} {year}"
    return f"{_MONTH_NAMES[month - 1]} {year}"


def pii_corpus(n_docs: int, seed: int, names_per_doc: int = 2, dates_per_doc: int = 2) -> PlantedPii:
    """Documents with planted person names and dates in every supported
    date format, for anonymization round trips."""
    rng = random.Random(seed)
    names = sorted(
        {f"{rng.choice(GERMAN_FIRST_NAMES)} {rng.choice(GERMAN_LAST_NAMES)}" for _ in range(60)}
    )
    name_parts = sorted({part for n in names for part in n.split()})

    docs: list[Document] = []
    n_names: dict[str, int] = {}
    n_dates: dict[str, int] = {}
    for i in range(n_docs):
        doc_id = f"pii-{i:05d}"
        parts: list[str] = []
        planted_names = 0
        planted_dates = 0
        for _ in range(rng.randint(2, 4)):
            parts.append("Befund " + random_word(rng) + " " + random_word(rng) + ".")
        for _ in range(names_per_doc):
            name = rng.choice(names)
            planted_names += len(name.split())
            parts.append(f"Patient {name} wurde vorgestellt.")
        for _ in range(dates_per_doc):
            surface = _random_date_surface(rng)
            planted_dates += 1
            parts.append(f"Aufnahme am {surface}.")
        rng.shuffle(parts)
        docs.append(Document(id=doc_id, source="ehr", text=" ".join(parts)))
        n_names[doc_id] = planted_names
        n_dates[doc_id] = planted_dates
    return PlantedPii(documents=docs, names=name_parts, n_names=n_names, n_dates=n_dates)


@dataclass
class PlantedBenchmark:
    documents: list[Document]
    code_rows: list[dict]


def benchmark_corpus(
    n_patients: int,
    docs_per_patient: int,
    seed: int,
    n_codes: int = 40,
    chapter: str = "5-",
) -> PlantedBenchmark:
    """Patients with surgery-coded documents for split construction.

    Every document gets 1 to 3 codes from a shared pool of ``n_codes``
    chapter codes, drawn with a skewed distribution so that some labels
    are frequent and some are rare. Each code row carries the document's
    own date, so date-matched assignment recovers exactly the planted
    labels. A handful of non-chapter codes are mixed in to exercise the
    chapter filter.
    """
    rng = random.Random(seed)
    pool = [f"{chapter}{100 + i}" for i in range(n_codes)]
    noise_pool = [f"3-{200 + i}" for i in range(5)]
    weights = [1.0 / (i + 1) for i in range(n_codes)]

    docs: list[Document] = []
    rows: list[dict] = []
    for p in range(n_patients):
        patient = f"pat-{p:05d}"
        for d in range(docs_per_patient):
            doc_id = f"{patient}-doc-{d}"
            day = datetime.date(
                2010 + rng.randint(0, 9), rng.randint(1, 12), rng.randint(1, 28)
            )
            text = " ".join(random_word(rng) for _ in range(30))
            docs.append(
                Document(
                    id=doc_id,
                    source="ehr",
                    text=text,
                    doc_date=day,
                    patient_ref=patient,
                )
            )
            chosen = rng.choices(pool, weights=weights, k=rng.randint(1, 3))
            for code in set(chosen):
                rows.append(
                    {
                        "patient_ref": patient,
                        "code": code,
                        "system": "ops",
                        "date": day.isoformat(),
                    }
                )
            if rng.random() < 0.1:
                rows.append(
                    {
                        "patient_ref": patient,
                        "code": rng.choice(noise_pool),
                        "system": "ops",
                        "date": day.isoformat(),
                    }
                )
    return PlantedBenchmark(documents=docs, code_rows=rows)


def morpheme_domain_texts(
    seed: int, n_texts: int = 200, domain: str = "clinical"
) -> list[str]:
    """Texts whose words are concatenations of a closed morpheme set.

    The two domains use disjoint morpheme inventories, so a vocabulary
    trained on one domain keeps long familiar pieces for it but falls
    back to short pieces on the other. That makes subword fertility
    strictly lower in-domain, which is what the fertility experiment
    checks.
    """
    inventories = {
        "clinical": (
            "kardio", "gastro", "hepato", "nephro", "pneumo", "dermato",
            "skopie", "pathie", "logie", "gramm", "itis", "tomie",
        ),
        "news": (
            "wirtschaft", "politik", "regierung", "minister", "wahl",
            "markt", "krise", "debatte", "reform", "haushalt", "partei",
            "umfrage",
        ),
    }
    if domain not in inventories:
        raise ValueError(f"unknown domain {domain!r}")
    morphemes = inventories[domain]
    rng = random.Random(seed)
    texts = []
    for _ in range(n_texts):
        words = []
        for _ in range(rng.randint(20, 40)):
            k = rng.randint(1, 3)
            words.append("".join(rng.choice(morphemes) for _ in range(k)))
        texts.append(" ".join(words))
    return texts
