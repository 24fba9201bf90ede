"""Define a dataset, intents, and labels by hand and run the full ER pipeline.

This example shows the library as a downstream user would adopt it,
without the synthetic benchmark generators:

1. define records (an online-shop catalog excerpt, mirroring Table 1 of
   the paper);
2. run the blocking phase (shared 4-gram blocker) to build candidate
   pairs;
3. label the candidates for two custom intents — equivalence and "same
   product family" — exactly as a user would label pairs from implicit
   feedback;
4. train FlexER and inspect the per-intent resolutions, the intent
   interrelationships derived from the labels (overlap / subsumption),
   and the clean views.

Run with::

    python examples/custom_intents_pipeline.py
"""

from __future__ import annotations

from repro import (
    CandidateSet,
    Dataset,
    FlexERConfig,
    GNNConfig,
    GraphConfig,
    LabeledPair,
    MatcherConfig,
    QGramBlocker,
    Record,
    Resolver,
    SplitRatio,
    split_candidates,
)
from repro.core import IntentSet
from repro.evaluation import evaluate_solution, format_table

#: A hand-written catalog: four product families, several variants and
#: duplicated listings each (title-only records, like AmazonMI).
CATALOG = {
    # family: list of (variant base title, number of duplicated listings)
    "lunar-force": [
        ("Nike Men's Lunar Force 1 Duckboot", 3),
        ("Nike Men's Lunar Force 1 Duckboot Low Black", 2),
    ],
    "air-max": [
        ("Nike Men's Air Max 2016 Running Shoe", 3),
        ("Nike Men's Air Max Stutter Step Basketball Shoe", 2),
    ],
    "d-rose": [
        ("adidas Performance Men's D Rose 6 Boost Primeknit Basketball", 3),
        ("adidas Performance Men's D Rose 7 Low Basketball Shoe", 2),
    ],
    "ultraboost": [
        ("adidas Men's Ultraboost 21 Running Shoe", 2),
        ("adidas Men's Ultraboost DNA Running Shoe White", 2),
    ],
    "gel-kayano": [
        ("ASICS Men's Gel Kayano 27 Running Shoe", 3),
        ("ASICS Men's Gel Kayano Lite Running Shoe Blue", 2),
    ],
    "fresh-foam": [
        ("New Balance Men's Fresh Foam 1080 V11 Running Shoe", 3),
        ("New Balance Men's Fresh Foam Arishi V3 Trail Shoe", 2),
    ],
    "court-vision": [
        ("Nike Men's Court Vision Low Sneaker", 3),
        ("Nike Men's Court Vision Mid Basketball Shoe White", 2),
    ],
    "charged-assert": [
        ("Under Armour Men's Charged Assert 9 Running Shoe", 3),
    ],
}

#: Duplicate-listing noise: suffixes appended by different sellers.
SELLER_SUFFIXES = ["", ", Black/White size 10", " - official store", " (2021 model)"]


def build_dataset() -> tuple[Dataset, dict[str, tuple[str, str]]]:
    """Create records and remember (family, variant) ground truth per record."""
    records = []
    truth: dict[str, tuple[str, str]] = {}
    counter = 0
    for family, variants in CATALOG.items():
        for variant_index, (title, copies) in enumerate(variants):
            variant_key = f"{family}/{variant_index}"
            for copy_index in range(copies):
                counter += 1
                record_id = f"r{counter:03d}"
                listing = title + SELLER_SUFFIXES[copy_index % len(SELLER_SUFFIXES)]
                records.append(Record(record_id=record_id, values={"title": listing}))
                truth[record_id] = (family, variant_key)
    return Dataset(records=records, name="shop-catalog", attributes=("title",)), truth


def main() -> None:
    dataset, truth = build_dataset()
    print(f"records: {len(dataset)}")

    # Blocking: keep pairs sharing at least one character 4-gram.
    blocker = QGramBlocker(q=4, min_shared=2)
    pairs = blocker.block(dataset)
    print(f"candidate pairs after blocking: {len(pairs)}")

    # Intent labeling from the ground truth:
    #   equivalence  — same variant (same real-world product)
    #   same_family  — same product family (a broader interpretation)
    candidates = CandidateSet(dataset, intents=("equivalence", "same_family"))
    for pair in pairs:
        left_family, left_variant = truth[pair.left_id]
        right_family, right_variant = truth[pair.right_id]
        candidates.add(
            LabeledPair(
                pair=pair,
                labels={
                    "equivalence": int(left_variant == right_variant),
                    "same_family": int(left_family == right_family),
                },
            )
        )

    # Intent interrelationships derived from the labels (Definitions 3-4).
    intent_set = IntentSet.from_candidates(candidates)
    relationships = intent_set.relationships(candidates)
    print(
        "equivalence is a sub-intent of same_family:",
        relationships.is_sub_intent("equivalence", "same_family"),
    )

    # Split and run FlexER.  The catalog is tiny, so a slightly stronger
    # matcher configuration than the test preset is used.
    split = split_candidates(candidates, SplitRatio(2, 1, 1), stratify_intent="equivalence", seed=5)
    config = FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(48, 24), n_features=192, epochs=30, seed=3),
        graph=GraphConfig(k_neighbors=4),
        gnn=GNNConfig(hidden_dim=32, epochs=60, seed=3),
    )
    result = Resolver(config).resolve(split, intents=candidates.intents)
    evaluation = evaluate_solution(result.solution)

    rows = [
        [intent, metrics.precision, metrics.recall, metrics.f1]
        for intent, metrics in evaluation.per_intent.items()
    ]
    print(format_table(["Intent", "P", "R", "F1"], rows, title="\nTest-split results"))

    # Per-intent clean views over the full dataset.
    print("\nClean views:")
    for intent in candidates.intents:
        resolution = result.solution.resolution(intent)
        clean = resolution.clean_view(dataset)
        print(f"  {intent:<12s}: {len(dataset)} listings -> {len(clean)} representatives")


if __name__ == "__main__":
    main()
