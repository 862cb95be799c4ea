"""A guided tour of the loss family on tiny hand-checkable fixtures.

Run:  python3 demos/loss_playground.py
"""

import numpy as np

from cipbench.losses import (
    CenterlineBank,
    LabeledBatch,
    LossConfig,
    loss_report,
)

np.set_printoptions(precision=4, suppress=True)

# Two classes in the plane. Class 1 features should live on the x axis,
# class 2 on the y axis; the bank carries one direction per class.
bank = CenterlineBank(np.array([[2.0, 0.0], [0.0, 2.0]]))
batch = LabeledBatch(
    np.array([[1.5, 0.2], [1.0, -0.1], [0.3, 2.0]]),
    np.array([1, 1, 2]),
)

# a config with one term enabled gives that term's value and gradients
pull = LossConfig.from_name("cluster", d=2.0)
push = LossConfig.from_name("ortho", lam=1.0)
own = np.einsum("ij,ij->i", batch.features, bank.centers[batch.labels - 1])
print("pull term (clipped):   ", loss_report(batch, bank, pull).per_term["cluster"])
print("pull term (literal):   ", float(np.sum(1.0 / (own + 2.0))))
print("push term:             ", loss_report(batch, bank, push).per_term["ortho"])
print("combined, lambda=1:    ", loss_report(batch, bank, LossConfig(lam=1.0, d=2.0)).total)

# The pull gradient is clipped so a feature on the wrong side of its
# centerline gets a bounded nudge. The unclipped original explodes as the
# inner product approaches -d.
axes = CenterlineBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
c = axes.centers[0]
print("\n  f.c      surrogate         unclipped original")
for x in (3.0, 0.0, -1.0, -1.9, -1.999):
    f = np.array([x, 0.0])
    s = loss_report(LabeledBatch(f[None], np.array([1])), axes, pull).feature_grads[0]
    o = -c / (f @ c + 2.0) ** 2
    print(f"  {x:6.3f}  {s}  {o}")

# The averaged centerline push: one violator moves the centerline by half
# its vector, many violators by (roughly) their mean.
violators = LabeledBatch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2, 2]))
tilted = CenterlineBank(np.array([[1.0, 1.0], [0.0, -1.0]]))
print("\naveraged push on a centerline with 2 violators:",
      loss_report(violators, tilted, push).center_grads[0])

# Why the losses avoid weight normalization: the normalized-weight gradient
# scales as 1/|w|, so a small weight vector produces a huge update.
print("\nnormalized-weight gradient norm as |w| shrinks (f fixed):")
f = np.array([0.0, 1.0])
for scale in (1.0, 0.1, 0.01):
    w = np.array([scale, 0.0])
    nw = np.linalg.norm(w)
    g = f / nw - (w @ f) * w / nw**3
    print(f"  |w|={scale:5.2f}  ->  |grad| = {np.linalg.norm(g):.1f}")
print("(the plain inner-product gradient is just f, no matter how small w is)")
