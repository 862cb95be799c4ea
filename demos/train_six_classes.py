"""Train six classes into a 3-D embedding and inspect the geometry.

Six classes can share three dimensions only by pairing up along axes with
opposite signs; the combined pull/push objective finds exactly that layout.

Run:  python3 demos/train_six_classes.py
"""

import numpy as np

from cipbench import encoder
from cipbench.data import SyntheticSpec, generate
from cipbench.losses import LossConfig
from cipbench.retrieval import geometry_report
from cipbench.trainer import TrainConfig, train

np.set_printoptions(precision=2, suppress=True)

dataset = generate(SyntheticSpec(
    num_classes=6, objects_per_class=50, views_per_object=6, input_dim=3,
    class_separation=2.0, object_noise_std=0.2, view_noise_std=0.1,
    prototype_scheme="antipodal", seed=0,
))
print(f"dataset: {dataset.num_views} views of {len(np.unique(dataset.object_ids))} objects")

# the default schedule on batches of 20, pull+push alone, a linear 3-D encoder
config = TrainConfig(batch_size=20, seed=0, loss=LossConfig(), hidden_dims=(),
                     embedding_dim=3, init_std=0.2)
result = train(dataset, config)

for row in result.history[::6] + [result.history[-1]]:
    print(f"epoch {row['epoch']:2d}  lr {row['lr']:.4f}  "
          f"pull {row['cluster']:7.3f}  push {row['ortho']:8.3f}")

features, _ = encoder.forward_batch(result.params, dataset.inputs)
geo = geometry_report(features, dataset.labels, result.bank)

print("\npairwise centerline cosines (want: <= 0 everywhere off-diagonal):")
print(geo.centerline_cosines)
print("\nmax pairwise centerline cosine:", round(geo.max_pairwise_centerline_cosine, 4))
print("mean feature-to-own-centerline cosine:", round(geo.mean_own_cosine, 4))
print("per-class feature norms:", geo.norm_mean)
