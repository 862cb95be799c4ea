"""Sweep the push weight and the stability constant on one fixed dataset.

Each d prints the spread of MAP (max - min) across lambda from 0.1 to 10.
On this seed (0) d=1 spreads wider than the d=2 default, 0.3400 against
0.2198, and neither is flat.  The sign is not stable: with the same
protocol on seeds 0-9, d=1 spreads wider on only 4 of the 10, and on the
other 6 its lambda=10 run diverges, so its spread covers four points.

Run:  python3 demos/sensitivity_sweep.py
"""

from cipbench.data import SyntheticSpec, generate, split
from cipbench.losses import LossConfig
from cipbench.trainer import DivergenceError, TrainConfig, evaluate_map, train

dataset = split(generate(SyntheticSpec(
    num_classes=10, objects_per_class=24, views_per_object=8, input_dim=24,
    class_separation=2.0, object_noise_std=0.7, view_noise_std=0.35, seed=0,
)), 0.5, 0)

print(f"{'lambda':>8} {'d':>4} {'final loss':>12} {'MAP':>8}")
for d in (2.0, 1.0):
    maps = []
    for lam in (0.1, 0.5, 1.0, 5.0, 10.0):
        cfg = TrainConfig(
            batch_size=25, epochs=30, seed=0, loss=LossConfig(lam=lam, d=d),
            hidden_dims=(32,), embedding_dim=16, init_std=0.3,
            centerline_collapse_cosine=2.0,  # sweep cares about finiteness only
        )
        try:
            result = train(dataset, cfg)
        except DivergenceError as e:
            print(f"{lam:8.1f} {d:4.1f} {'diverged: ' + e.signal:>12}")
            continue
        map_value = evaluate_map(result.params, dataset)
        maps.append(map_value)
        print(f"{lam:8.1f} {d:4.1f} {result.history[-1]['total']:12.3f} {map_value:8.4f}")
    if maps:
        print(f"          d={d}: MAP spread {max(maps) - min(maps):.4f}\n")
