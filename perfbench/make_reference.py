"""Regenerate ``reference.json``: the frozen question universes and the
verdict digest of every input a workload can ask.

Run from the repository root (takes a few minutes)::

    python3 -B perfbench/make_reference.py

Questions come from each model's own ``extraction.practices`` in
statement form.  A candidate the query parser cannot turn into a data
practice is not an input (it raises ``QueryError`` before any layer
under test runs), so it is left out of the universe.  fleet_churn's
digests come from processing each revision from scratch; the script
also checks that the incremental ``PolicyPipeline.update`` path, which
the workload drives, gives the same answers.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

COLD_UNIVERSE = {"TikTak": 90, "MetaBook": 45}
SERVED_PER_COMPANY = 24
CHURN_QUESTIONS = 30


def answer(pipeline, model, question):
    from repro.errors import QueryError

    try:
        return pipeline.query(model, question)
    except QueryError:
        return None


def pick(pipeline, model, candidates, size, key_of, digests, rng):
    chosen = []
    for question in rng.sample(candidates, len(candidates)):
        outcome = answer(pipeline, model, question)
        if outcome is None:
            continue
        digests[inputs.key_string(key_of(question))] = inputs.outcome_digest(
            key_of(question), outcome
        )
        chosen.append(question)
        if len(chosen) == size:
            break
    return sorted(chosen)


def cold_reference(pipeline) -> dict:
    from repro.corpus import metabook_policy, tiktak_policy

    rng = random.Random("reference:cold_verify")
    questions, digests = {}, {}
    for text in (tiktak_policy().text, metabook_policy().text):
        model = pipeline.process(text)
        candidates = inputs.company_statements(model, model.company)
        questions[model.company] = pick(
            pipeline, model, candidates, COLD_UNIVERSE[model.company],
            lambda q, c=model.company: [c, q], digests, rng,
        )
    return {"questions": questions, "digests": digests}


def served_reference(pipeline, scratch: Path) -> dict:
    from repro.registry import PolicyRegistry

    registry = PolicyRegistry(scratch / "served", pipeline=pipeline)
    registry.mint(inputs.mint_spec(inputs.SERVED_FLEET))
    rng = random.Random("reference:served_zipf")
    questions, digests = {}, {}
    for company in registry.companies():
        model = registry.get_model(company)
        candidates = inputs.company_statements(model, "The company")
        questions[company] = pick(
            pipeline, model, candidates, SERVED_PER_COMPANY,
            lambda q, c=company: [c, q], digests, rng,
        )
    return {"questions": questions, "digests": digests}


def churn_reference(pipeline) -> dict:
    texts = inputs.churn_texts()
    models = {
        company: [pipeline.process(text, company=company) for text in versions]
        for company, versions in texts.items()
    }
    candidates = sorted(
        {
            q
            for versions in models.values()
            for q in inputs.company_statements(versions[0], "The company")
        }
    )
    rng = random.Random("reference:fleet_churn")
    first = next(iter(models.values()))[0]
    chosen = []
    for question in rng.sample(candidates, len(candidates)):
        if answer(pipeline, first, question) is not None:
            chosen.append(question)
        if len(chosen) == CHURN_QUESTIONS:
            break
    digests = {}
    for company, versions in models.items():
        for variant, model in enumerate(versions):
            for question in chosen:
                key = [company, variant, question]
                digests[inputs.key_string(key)] = inputs.outcome_digest(
                    key, pipeline.query(model, question)
                )
    # The workload revises a company from whatever revision it holds.
    mismatches = 0
    for company, versions in models.items():
        for source, model in enumerate(versions):
            for target in range(len(versions)):
                if target == source:
                    continue
                updated, _ = pipeline.update(model, texts[company][target])
                for question in chosen:
                    key = [company, target, question]
                    got = inputs.outcome_digest(key, pipeline.query(updated, question))
                    mismatches += got != digests[inputs.key_string(key)]
    if mismatches:
        raise SystemExit(f"update path disagrees with a rebuild on {mismatches} answers")
    return {"questions": sorted(chosen), "digests": digests}


def main() -> None:
    from repro import PolicyPipeline

    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        reference = {
            "cold_verify": cold_reference(PolicyPipeline()),
            "served_zipf": served_reference(PolicyPipeline(), Path(scratch)),
            "fleet_churn": churn_reference(PolicyPipeline()),
        }
    inputs.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", "utf-8"
    )
    for name, part in reference.items():
        print(f"{name}: {len(part['digests'])} reference answers")


if __name__ == "__main__":
    main()
