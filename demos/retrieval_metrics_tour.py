"""Retrieval metrics on toy rankings, then on a real trained embedding.

Run:  python3 demos/retrieval_metrics_tour.py
"""

import numpy as np

from cipbench import encoder
from cipbench.data import SyntheticSpec, generate, split
from cipbench.retrieval import (
    average_precision, evaluate_run, f1_at, ndcg, pool_descriptors, pr_auc, rank,
)
from cipbench.trainer import TrainConfig, train

# Metrics take a binary relevance list in rank order, best first.
for rel in ([1, 1, 1, 0, 0], [1, 0, 1, 0, 0], [0, 0, 1, 1, 1]):
    print(f"relevance {rel}:  AP={average_precision(rel):.4f}  "
          f"PR-AUC={pr_auc(rel):.4f}  NDCG={ndcg(rel):.4f}  F1={f1_at(rel):.4f}")

# Leave-one-out retrieval over a trained embedding: every object descriptor
# (mean of its view embeddings) queries all the others; same label counts
# as relevant.  The data and the run are the standard benchmark's defaults,
# which the CLI's defaults are too.
dataset = split(generate(SyntheticSpec()), 0.5, 0)
result = train(dataset, TrainConfig())

mask = dataset.eval_mask()  # the test rows
inputs, object_ids, view_labels = (dataset.inputs[mask], dataset.object_ids[mask],
                                   dataset.labels[mask])
features, _ = encoder.forward_batch(result.params, inputs)
descriptors, labels, _ = pool_descriptors(features, object_ids, view_labels)
summary = evaluate_run(rank(descriptors, labels))

print(f"\ntrained embedding, {summary.total_queries} leave-one-out queries "
      f"({summary.skipped_queries} skipped):")
print("  micro:", {k: round(v, 4) for k, v in summary.micro.to_dict().items() if k != "aggregation"})
print("  macro:", {k: round(v, 4) for k, v in summary.macro.to_dict().items() if k != "aggregation"})

# Raw inputs as a reference point: the embedding should do better.
raw_desc, raw_labels, _ = pool_descriptors(inputs, object_ids, view_labels)
raw = evaluate_run(rank(raw_desc, raw_labels))
print(f"  raw-input MAP for comparison: {raw.micro.map:.4f}")
