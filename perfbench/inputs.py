"""Seeded workload inputs and the verdict digests that check them.

The question universes are frozen in ``reference.json`` (written by
``make_reference.py`` from the models' own ``extraction.practices``), so
a change to Phase 1 cannot silently change what the benchmark asks.  A
run's ``--seed`` chooses the order of cold_verify's questions,
served_zipf's arrivals and requests, and fleet_churn's questions and
revisions; the same seed always yields the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: cold_verify asks TikTak, TikTak, MetaBook, ... so the mix of cheap and
#: expensive models is the same in every prefix of a run.
COLD_PATTERN = ("TikTak", "TikTak", "MetaBook")

#: served_zipf: a fleet twice the server's warm-model bound, one fixed
#: Poisson arrival rate and Zipf-ranked (company, question) pairs.  One
#: keep-alive connection sustains 120-185 req/s on a 2-core x86-64 machine
#: (slow and fast minutes); 60 req/s is half of the slow figure.  At 90
#: req/s a slow minute pushed the server near saturation and the p99
#: latency from 65 to 150 ms.
SERVED_MAX_WARM = 4
SERVED_FLEET = dict(count=2 * SERVED_MAX_WARM, seed=3)
SERVED_RATE_PER_S = 60.0
SERVED_ZIPF_S = 1.1

#: fleet_churn: a fleet larger than the registry's default warm bound (8).
CHURN_FLEET = dict(count=12, seed=5)
CHURN_VARIANTS = 3

#: fleet_churn: one fan-out read, then this many revisions (cycled).
CHURN_WRITES_AFTER_READ = (1, 0, 2, 1, 0)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text("utf-8"))


def outcome_digest(key: list, outcome) -> str:
    """Digest of one answer: (input, verdict, conditionally_valid, depends_on)."""
    verification = outcome.verification
    payload = json.dumps(
        [
            key,
            outcome.verdict.value,
            verification.conditionally_valid,
            sorted(verification.depends_on.items()),
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def statement_from_practice(practice, subject: str) -> str | None:
    """A declarative question built from one extracted practice.

    ``subject`` names the company as the question should ("TikTak" or
    "The company"); practices whose data type is a long phrase or
    contains digits (dates, clause numbers) are skipped.
    """
    from repro.core.questions import _third_person

    params = practice.params
    if len(params.data_type.split()) > 4 or any(c.isdigit() for c in params.data_type):
        return None
    if params.sender == "user":
        who = "The user"
    else:
        who = subject
    text = f"{who} {_third_person(params.action)} {params.data_type}"
    if params.receiver:
        text += f" with {params.receiver}"
    return text + "."


def company_statements(model, subject: str) -> list[str]:
    """Every distinct statement question one model's practices yield."""
    out = set()
    for practice in model.extraction.practices:
        if practice.params.sender not in (model.company, "user"):
            continue
        text = statement_from_practice(practice, subject)
        if text is not None:
            out.add(text)
    return sorted(out)


# ----------------------------------------------------------------------
# Per-workload generators: pure functions of (reference, seed).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColdInputs:
    #: (model name, question) in asking order; a run cycles through it.
    sequence: tuple[tuple[str, str], ...]


def cold_inputs(reference: dict, seed: int) -> ColdInputs:
    rng = random.Random(f"cold_verify:{seed}")
    per_model = {}
    # Every run asks the whole universe, in the seed's order: question cost
    # is heavy-tailed, so with any smaller sample the figures depended on
    # which questions a seed happened to draw.
    for name in sorted(set(COLD_PATTERN)):
        universe = sorted(reference["cold_verify"]["questions"][name])
        per_model[name] = rng.sample(universe, len(universe))
    cursors = {name: 0 for name in per_model}
    sequence = []
    for step in range(sum(len(q) for q in per_model.values()) * 2):
        name = COLD_PATTERN[step % len(COLD_PATTERN)]
        if cursors[name] >= len(per_model[name]):
            break
        sequence.append((name, per_model[name][cursors[name]]))
        cursors[name] += 1
    return ColdInputs(sequence=tuple(sequence))


@dataclass(frozen=True)
class ServedInputs:
    #: Arrival offsets in seconds from the start of the timed window.
    arrivals: tuple[float, ...]
    #: (company, question) per arrival.
    pairs: tuple[tuple[str, str], ...]


def served_inputs(reference: dict, seed: int, seconds: float) -> ServedInputs:
    spec = reference["served_zipf"]
    universe = sorted(
        (company, question)
        for company, questions in spec["questions"].items()
        for question in questions
    )
    # Popularity is a property of the fleet, not of the run: a seed-drawn
    # ranking would make the figures depend on how costly the few hottest
    # pairs happen to be.  The seed draws arrivals and requests.
    ranked = random.Random("served_zipf:popularity").sample(universe, len(universe))
    rng = random.Random(f"served_zipf:{seed}")
    weights = [1.0 / (rank + 1) ** SERVED_ZIPF_S for rank in range(len(ranked))]
    arrivals = []
    at = 0.0
    while True:
        at += rng.expovariate(SERVED_RATE_PER_S)
        if at >= seconds:
            break
        arrivals.append(at)
    picks = rng.choices(ranked, weights=weights, k=len(arrivals))
    return ServedInputs(arrivals=tuple(arrivals), pairs=tuple(picks))


@dataclass(frozen=True)
class ChurnOp:
    kind: str  # "read" | "write"
    #: read: the fan-out question; write: the company revised.
    target: str
    #: write only: which pre-generated revision of the company to apply.
    variant: int = 0


def churn_ops(reference: dict, seed: int, count: int) -> list[ChurnOp]:
    """The first ``count`` operations of a fleet_churn run.

    Variants are drawn so a company never gets the revision it already
    has; the schedule is a pure function of the seed.
    """
    spec = reference["fleet_churn"]
    rng = random.Random(f"fleet_churn:{seed}")
    companies = sorted(churn_companies())
    questions = sorted(spec["questions"])
    current = {company: 0 for company in companies}
    ops: list[ChurnOp] = []
    step = 0
    while len(ops) < count:
        ops.append(ChurnOp("read", rng.choice(questions)))
        for _ in range(CHURN_WRITES_AFTER_READ[step % len(CHURN_WRITES_AFTER_READ)]):
            company = rng.choice(companies)
            choices = [v for v in range(CHURN_VARIANTS + 1) if v != current[company]]
            variant = rng.choice(choices)
            current[company] = variant
            ops.append(ChurnOp("write", company, variant))
        step += 1
    return ops[:count]


def mint_spec(params: dict):
    from repro.registry import MintSpec

    return MintSpec(count=params["count"], seed=params["seed"])


def churn_companies() -> list[str]:
    spec = mint_spec(CHURN_FLEET)
    return [spec.company_of(i) for i in range(spec.count)]


def churn_texts() -> dict[str, list[str]]:
    """Every fleet_churn company's policy text: index 0 is the minted
    base, 1..CHURN_VARIANTS are ``make_version`` revisions of it."""
    from repro.corpus.generator import PolicyGenerator
    from repro.corpus.versions import make_version

    spec = mint_spec(CHURN_FLEET)
    texts = {}
    for index in range(spec.count):
        base = PolicyGenerator(spec.profile_of(index)).generate(spec.words_of(index)).text
        texts[spec.company_of(index)] = [base] + [
            make_version(base, seed=1000 * index + v).text
            for v in range(1, CHURN_VARIANTS + 1)
        ]
    return texts


def key_string(key: list) -> str:
    """The reference table's key for one input."""
    return json.dumps(key)
