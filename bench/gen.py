"""Seeded input generator for the benchmark workloads.

Every spec and Kraus file is drawn from numpy generators seeded with the
workload seed and written under ``bench/_inputs/<workload>/``.  maxconf's own
``randomgen`` is deliberately not used: the inputs of a seed must stay the
same when the library under test changes.  Each family gets its own
generator stream, so adding a family never shifts the draws of another.

No input is dropped because the program fails on it; failures are counted by
the runner.
"""

from __future__ import annotations

import json
import os

import numpy as np

FIXTURES = ("fixtures/trine.json", "fixtures/worked_example.json")

# Kraus singular values are drawn from [_KRAUS_MIN_SINGULAR, 1]: a contraction
# is a valid operation element for any ensemble, and the floor keeps a
# "full-rank" element well conditioned.
_KRAUS_MIN_SINGULAR = 0.3


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def random_ket(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2


def random_members(rng, d, ranks):
    """(states, kets, priors): kets[j] is None for a mixed member."""
    states, kets = [], []
    for r in ranks:
        if r == 1:
            k = random_ket(rng, d)
            kets.append(k)
            states.append(np.outer(k, k.conj()))
        else:
            kets.append(None)
            states.append(random_density(rng, d, r))
    priors = 0.1 + rng.random(len(ranks))
    return states, kets, priors / priors.sum()


def random_kraus(rng, d, rank):
    """Haar unitary times a diagonal contraction with `rank` nonzero entries."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    c = _KRAUS_MIN_SINGULAR + (1.0 - _KRAUS_MIN_SINGULAR) * rng.random(d)
    c[rank:] = 0.0
    return u * c


def _pairs(a):
    a = np.asarray(a)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def spec_doc(states, kets, priors, kets_as_kets):
    entries = []
    for rho, k, p in zip(states, kets, priors):
        if k is not None and kets_as_kets:
            entries.append({"prior": float(p), "ket": _pairs(k)})
        else:
            entries.append({"prior": float(p), "matrix": _pairs(rho)})
    return {"dimension": int(states[0].shape[0]), "states": entries}


def write_json(path, doc):
    # json.dumps runs the C encoder; json.dump streams through the slow
    # pure-Python one.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def alternating(n, rank):
    return [1 if j % 2 == 0 else rank for j in range(n)]


# ---------------------------------------------------------------- workloads


def _fixture_family_specs(seed):
    """Small seeded specs for cli-fixtures: (name, states, kets, priors).

    Shapes are fixed and only the draws follow the seed, so every seed costs
    the same; together with the fixtures they cover d in {2, 3, 5, 7} and
    n from 2 to 6.
    """
    # Overcomplete pure qutrits: full-rank average, every confidence below 1,
    # so the measurement carries a real inconclusive outcome.
    pure_over = random_members(rng_for(seed, 1), 3, [1] * 6)
    # Mixed members of rank 1 to 3 whose ranks sum past d: exercises the
    # top-eigenspace branch of the bound and purification blocks wider than
    # one column, with confidences below 1.
    mixed = random_members(rng_for(seed, 2), 5, [1, 2, 3, 2])
    # Linearly independent pure members (n < d): rank-deficient average and
    # confidences of exactly 1, the edge where the shipped simulate report
    # can take the square root of a negative roundoff.
    pure_indep = random_members(rng_for(seed, 3), 7, [1] * 5)
    # The fixed reproducer of that crash (|0> and 0.6|0> + 0.8|1> at d=3,
    # equal priors), so the known failure is counted on every seed.
    k0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    k1 = np.array([0.6, 0.8, 0.0], dtype=complex)
    known = ([np.outer(k0, k0.conj()), np.outer(k1, k1.conj())], [k0, k1], np.array([0.5, 0.5]))
    return [("pure-overcomplete", *pure_over), ("mixed", *mixed),
            ("pure-independent", *pure_indep), ("pure-independent-known", *known)]


def cli_fixtures(seed, root, out_dir):
    """Both fixtures plus one spec per small family, each with two Kraus files."""
    inputs = [{"name": os.path.splitext(os.path.basename(f))[0],
               "spec": os.path.join(root, f)} for f in FIXTURES]
    for name, states, kets, priors in _fixture_family_specs(seed):
        path = os.path.join(out_dir, f"{name}.json")
        write_json(path, spec_doc(states, kets, priors, kets_as_kets=True))
        inputs.append({"name": name, "spec": path})
    rng = rng_for(seed, 4)
    for item in inputs:
        with open(item["spec"], encoding="utf-8") as fh:
            d = json.load(fh)["dimension"]
        for kind, rank in (("full", d), ("deficient", max(1, d // 2))):
            path = os.path.join(out_dir, f"{item['name']}.kraus-{kind}.json")
            write_json(path, {"matrix": _pairs(random_kraus(rng, d, rank))})
            item[f"kraus_{kind}"] = path
    return inputs


def cli_large(seed, out_dir):
    """d=128 n=32 with pure and rank-4 members alternating (the ROADMAP
    baseline shape, about 25 MB written as matrices) and d=64 n=32 with every
    member rank 4 (overcomplete, full-rank average)."""
    inputs = []
    for stream, (name, d, ranks) in enumerate(
        (("d128-n32-alt4", 128, alternating(32, 4)),
         ("d64-n32-rank4", 64, [4] * 32)), start=10):
        states, kets, priors = random_members(rng_for(seed, stream), d, ranks)
        path = os.path.join(out_dir, f"{name}.json")
        write_json(path, spec_doc(states, kets, priors, kets_as_kets=False))
        inputs.append({"name": name, "spec": path})
    return inputs


def simulate_trials(seed, root, out_dir):
    """trine (4 outcomes) and a d=16 n=32 pure spec (33 outcomes)."""
    states, kets, priors = random_members(rng_for(seed, 20), 16, [1] * 32)
    path = os.path.join(out_dir, "d16-n32-pure.json")
    write_json(path, spec_doc(states, kets, priors, kets_as_kets=True))
    return [{"name": "trine", "spec": os.path.join(root, FIXTURES[0])},
            {"name": "d16-n32-pure", "spec": path}]


def library_sweep(seed):
    """In-memory ensembles over d in {16, 32, 64} and n in {8, 32}.

    Overcomplete: pure and mixed members alternate, with the mixed rank chosen
    so the total rank exceeds d (full-rank average, confidences below 1).
    Undercomplete: n < d linearly independent pure members (rank-deficient
    average, confidences exactly 1); impossible when n >= d, so skipped there.
    """
    out = []
    stream = 30
    for d in (16, 32, 64):
        for n in (8, 32):
            mixed_rank = d // 2 if n == 8 else (4 if d == 64 else 2)
            families = [("over", alternating(n, mixed_rank))]
            if n < d:
                families.append(("under", [1] * n))
            for fam, ranks in families:
                rng = rng_for(seed, stream)
                stream += 1
                states, _, priors = random_members(rng, d, ranks)
                out.append({
                    "name": f"d{d}-n{n}-{fam}",
                    "dim": d,
                    "states": states,
                    "priors": priors,
                    "kraus_full": random_kraus(rng, d, d),
                    "kraus_deficient": random_kraus(rng, d, d // 2),
                })
    return out
