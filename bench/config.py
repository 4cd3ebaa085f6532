"""Workload sizes and solver settings, shared by the parent and the workers.

This module imports nothing from dynmr, so run.py can read it without
loading the package.  `op_s` is a nominal op time on a 2-core x86 machine,
used only to size traced runs; it is not a baseline.
"""

import math

SIZES = {
    "full": {
        "admm": dict(shape=(64, 64, 16), spokes=16, iters=50, n_inputs=4, n_val=2, op_s=0.65),
        "net_infer": dict(
            shape=(32, 32, 8), spokes=8, n_phases=15, nc=16, n_inputs=4, n_val=2, op_s=0.95
        ),
        "net_train": dict(
            shape=(32, 32, 8), spokes=4, n_phases=3, nc=8, samples=8, n_val=4,
            eval_epoch=2, op_s=0.51,
        ),
    },
    "tiny": {
        "admm": dict(shape=(16, 16, 4), spokes=4, iters=5, n_inputs=3, n_val=2, op_s=0.01),
        "net_infer": dict(
            shape=(16, 16, 4), spokes=4, n_phases=2, nc=4, n_inputs=3, n_val=2, op_s=0.02
        ),
        "net_train": dict(
            shape=(16, 16, 4), spokes=4, n_phases=2, nc=4, samples=2, n_val=2,
            eval_epoch=1, op_s=0.03,
        ),
    },
}

# Network weights start from one fixed seeded init, and psnr_db is scored on
# a validation set drawn from one fixed seed, so psnr_db compares across
# workload seeds; the timed ops' inputs all come from the workload seed.
NET_INIT_SEED = 0
VALIDATION_SEED = 0

ADMM_LAMBDA = "0.002"
ADMM_MU = "1.0"
TRAIN_LR0 = 1e-3
TRAIN_DECAY = 0.95
TRAIN_ZETA = 0.01
# train_loop runs until the benchmark's sampler stops it.
TRAIN_EPOCHS = 10**6


def trace_ops(name, size, seconds):
    """Fixed op count of a traced run: a third of the run time, at least a minimum.

    A traced run has a fixed op count so two traced runs give identical work
    counts; net_train needs two epoch ends inside it.
    """
    p = SIZES[size][name]
    minimum = 2 * p["samples"] if name == "net_train" else 4
    return max(minimum, math.ceil(seconds / 3 / p["op_s"]))
