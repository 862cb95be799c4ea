"""What happens when only one half of the objective trains.

Pull-only: every centerline chases its class mean, the directions merge
onto one line, and the embedding stops carrying class information.
Push-only: nothing ever pulls the centerlines toward their classes, the
bank never grows from its tiny initialization, and it is abandoned.
The trainer detects both and aborts with the last healthy snapshot.

Run:  python3 demos/divergence_modes.py
"""

from cipbench.data import SyntheticSpec, generate, split
from cipbench.losses import LossConfig
from cipbench.trainer import DivergenceError, TrainConfig, train

dataset = split(generate(SyntheticSpec(
    num_classes=10, objects_per_class=24, views_per_object=8, input_dim=24,
    class_separation=2.0, object_noise_std=0.7, view_noise_std=0.35, seed=0,
)), 0.5, 0)


def attempt(name):
    cfg = TrainConfig(batch_size=50, epochs=30, seed=0,
                      loss=LossConfig.from_name(name),
                      hidden_dims=(32,), embedding_dim=16, init_std=0.3)
    try:
        train(dataset, cfg)
        print(f"{name:12s}: completed all epochs")
    except DivergenceError as e:
        print(f"{name:12s}: {e.signal} at epoch {e.epoch} -- {e}")
        print(f"{'':12s}  last healthy snapshot: epoch {len(e.last_good.history)}")


attempt("cluster")      # pull only
attempt("ortho")        # push only
attempt("cip")          # both: trains fine
