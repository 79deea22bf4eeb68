"""Workload definitions: corpus shape, training config and evaluation.

Every workload uses a synthetic corpus with two item groups, item shares
0.75/0.25 and group popularity 0.75/0.25, the corpus family the paper's
experiments and the acceptance tests use.  The workload seed drives both
the generator and the training/split seed; the program only ever sees the
generated files and the config built here.

``SMOKE_SHAPE`` shrinks every shape to a toy corpus so that a full pass over all
workloads and both trace modes takes seconds (see ``test_smoke.py``).
"""

from dataclasses import dataclass, field

ITEM_SHARES = (0.75, 0.25)
POPULARITY = (0.75, 0.25)
RATIOS = (0.6, 0.2, 0.2)
EVAL_KS = (5, 10, 15)
EVAL_EXCLUDE = "train+val"
JS_USER_PAIRS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    num_users: int
    num_items: int
    interactions_per_user: int
    train: dict = field(default_factory=dict)
    smoke_train: dict = field(default_factory=dict)
    # figure -> (lo, hi) of a trained model, for checks.trained_level; how
    # the windows were measured is in README.md, "Trained level"
    quality_window: dict = None


WORKLOADS = {
    w.name: w
    for w in (
        # the theta step with no adversary: per-batch O(N+M) gather,
        # scatter and Adam plus negative sampling dominate train_s
        Workload(
            "bpr-m",
            5000,
            2000,
            20,
            train=dict(kind="bpr", dim=20, epochs=8, eval_every=0),
            smoke_train=dict(epochs=1),
            quality_window=dict(
                f1_vs_random=(0.66, 1.69),
                rsp_at_15=(0.41, 0.81),
                user_factor_rms=(0.057, 0.105),
            ),
        ),
        # the acceptance corpus at alpha 40 with fewer rounds: the
        # discriminator sweep and adversary term dominate train_s, and
        # evaluation is tiny
        Workload(
            "dpr-rsp-s",
            2000,
            200,
            30,
            train=dict(
                kind="dpr-rsp",
                dim=20,
                lr_bpr=0.01,
                lr_adv=0.005,
                pretrain_epochs=2,
                epochs=10,
                theta_batches_per_round=8,
                eval_every=0,
                weights=dict(lambda_theta=0.1, alpha=40.0, beta=0.0),
            ),
            smoke_train=dict(pretrain_epochs=1, epochs=2),
            quality_window=dict(
                f1_vs_random=(0.54, 1.10),
                rsp_at_15=(0.31, 0.70),
                user_factor_rms=(0.054, 0.104),
            ),
        ),
        # evaluation of a 0.8 GB score matrix dominates, plus the largest
        # set-up; FATR's transposed item block and the KL term in training
        Workload(
            "fatr-l",
            20000,
            5000,
            20,
            train=dict(
                kind="fatr",
                dim=20,
                epochs=1,
                eval_every=0,
                weights=dict(lambda_theta=0.1, lambda_model=1.0, beta=1.0),
            ),
            quality_window=dict(
                f1_vs_random=(0.55, 1.14),
                rsp_at_15=(0.37, 0.63),
                user_factor_rms=(0.021, 0.036),
            ),
        ),
    )
}

# Toy shape shared by every workload in smoke mode: big enough that each
# group keeps test positives, small enough to run in well under a second.
SMOKE_SHAPE = dict(num_users=100, num_items=40, interactions_per_user=10)


def shape(workload, smoke):
    """(num_users, num_items, interactions_per_user) of a workload."""
    if smoke:
        return (
            SMOKE_SHAPE["num_users"],
            SMOKE_SHAPE["num_items"],
            SMOKE_SHAPE["interactions_per_user"],
        )
    return (
        workload.num_users,
        workload.num_items,
        workload.interactions_per_user,
    )


def train_kwargs(workload, smoke):
    """Keyword arguments of TrainConfig, weights as a plain dict."""
    out = dict(workload.train)
    if smoke:
        out.update(workload.smoke_train)
    return out
