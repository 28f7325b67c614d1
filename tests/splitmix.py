"""A reference SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014) in plain Python integers,
and the one-draw sampler that simulate's counts are checked against.

Nothing here is shared with maxconf.measurement: the stream is stepped one
state at a time, with Python integers masked to 64 bits, and each trial's
outcome is found by comparing its uniform with its row of cumulative
probabilities as floats.
"""

import numpy as np

from maxconf.linalg import real_trace

from helpers import outcome_matrices

_MASK = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list:
    """The first `count` outputs of SplitMix64 started from state `seed`."""
    state, out = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def uniforms(seed: int, trials: int) -> np.ndarray:
    """(trials, 2) uniforms u = (x >> 11) 2^-53: trial i takes outputs 2i
    (its prepared label) and 2i + 1 (its outcome).  Each x >> 11 is below
    2^53, so the floats are exact."""
    m = np.array([x >> 11 for x in splitmix64(seed, 2 * trials)], dtype=np.float64)
    return m.reshape(trials, 2) * 2.0 ** -53


def one_shot_sample(ens, pom, trials, seed):
    """(outcome counts, correct counts) from a single (trials, 2) draw."""
    matrices = outcome_matrices(pom)
    prob = np.array([[real_trace(rho @ e) for e in matrices] for rho in ens.states])
    prob = np.clip(prob, 0.0, None)
    prob /= prob.sum(axis=1, keepdims=True)
    u = uniforms(seed, trials)
    prepared = np.searchsorted(np.cumsum(ens.priors), u[:, 0], side="right")
    prepared = np.minimum(prepared, ens.n_states - 1)
    cum = np.cumsum(prob, axis=1)
    cum[:, -1] = 1.0
    outcome = (u[:, 1:] >= cum[prepared]).sum(axis=1)
    counts = np.bincount(outcome, minlength=len(matrices))
    correct = [
        int(np.count_nonzero((outcome == k) & (prepared == label)))
        for k, (label, _) in enumerate(pom.effects)
    ]
    return tuple(int(c) for c in counts), tuple(correct)
