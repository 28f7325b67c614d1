"""Correctness checks that share no code with maxconf.

Bounds are recomputed here from the spec file with plain numpy: on the
support of the average state rho (eigenvalues above 1e-12 of the largest),
with W = rho^{-1/2} there, the maximum confidence of member j is the top
eigenvalue of p_j W^dagger rho_j W (Croke et al., PRL 96, 070401, 2006).
Reports are read by value, from machine JSON or from the text layout, so a
later change of rendering format is not a failure.
"""

from __future__ import annotations

import json
import re

import numpy as np

BOUND_TOL = 1e-9
FLAT_TOL = 1e-9
_RANK_TOL = 1e-12


def _complex_array(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def spec_members(path):
    """(states, priors) of a spec file, kets normalized, priors summing to 1."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    states, priors = [], []
    for entry in doc["states"]:
        priors.append(float(entry["prior"]))
        if "ket" in entry:
            k = _complex_array(entry["ket"])
            k = k / np.linalg.norm(k)
            states.append(np.outer(k, k.conj()))
        else:
            states.append(_complex_array(entry["matrix"]))
    priors = np.asarray(priors)
    return states, priors / priors.sum()


def bounds(states, priors):
    rho = sum(p * s for p, s in zip(priors, states))
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    keep = vals > _RANK_TOL * vals[-1]
    w = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
    out = []
    for p, s in zip(priors, states):
        x = p * (w.conj().T @ s @ w)
        out.append(float(np.linalg.eigvalsh((x + x.conj().T) / 2)[-1]))
    return out


# ------------------------------------------------------------ report reading


def _text_values(text, key):
    return [m.group(1).strip()
            for m in re.finditer(rf"^\s*{re.escape(key)}: (.*)$", text, re.M)]


def read_report(output: str, machine: bool) -> dict:
    """The fields the checks need, from either rendering."""
    if machine:
        return json.loads(output)
    states = [{"label": int(lab), "bound": float(b)}
              for lab, b in zip(_text_values(output, "label"),
                                _text_values(output, "bound"))]
    out = {"states": states,
           "counts": [int(c) for c in _text_values(output, "count")]}
    for key in ("status", "trials"):
        vals = _text_values(output, key)
        if vals:
            out[key] = vals[0]
    after = _text_values(output, "schmidt_after")
    if after:
        out["schmidt_after"] = json.loads(after[0])
    return out


def _counts(report):
    if "outcomes" in report:
        return [o["count"] for o in report["outcomes"]] + [report["fail"]["count"]]
    return report["counts"]


# --------------------------------------------------------------- the checks


def check_bounds(report, expected):
    states = report.get("states") or []
    if len(states) != len(expected):
        return f"{len(states)} states reported, expected {len(expected)}"
    for entry in states:
        label = int(entry["label"])
        gap = abs(float(entry["bound"]) - expected[label])
        if not gap <= BOUND_TOL:
            return f"state {label} bound {entry['bound']!r} is {gap:.3g} from oracle {expected[label]!r}"
    return None


def check_status(report):
    status = report.get("status")
    return None if status == "pass" else f"status {status!r}, expected 'pass'"


def check_counts(report, trials):
    total = sum(int(c) for c in _counts(report))
    if total != trials:
        return f"outcome counts sum to {total}, expected {trials} trials"
    if int(report.get("trials", trials)) != trials:
        return f"report says {report['trials']} trials, expected {trials}"
    return None


def check_flat(report):
    after = np.asarray(report.get("schmidt_after") or [], dtype=float)
    if after.size == 0:
        return "no schmidt_after spectrum"
    spread = float(np.max(np.abs(after - 1.0 / after.size)))
    return None if spread <= FLAT_TOL else f"schmidt_after deviates from flat by {spread:.3g}"


def self_test():
    """The oracle must catch a bound perturbed by 1e-6; returns an error or None."""
    rng = np.random.default_rng(0)
    kets = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    states = [np.outer(k, k.conj()) for k in kets]
    priors = np.array([0.2, 0.3, 0.5])
    expected = bounds(states, priors)
    # Pure members have the closed form p_j <psi_j| rho^{-1} |psi_j> on a
    # full-rank average; the eigenvalue route must agree with it.
    rho = sum(p * s for p, s in zip(priors, states))
    closed = [float(p * (k.conj() @ np.linalg.solve(rho, k)).real)
              for p, k in zip(priors, kets)]
    if not np.allclose(expected, closed, rtol=0, atol=1e-12):
        return f"oracle disagrees with the closed form: {expected} vs {closed}"
    report = {"states": [{"label": j, "bound": b} for j, b in enumerate(expected)]}
    if check_bounds(report, expected) is not None:
        return "oracle rejects exact bounds"
    report["states"][1]["bound"] += 1e-6
    if check_bounds(report, expected) is None:
        return "oracle missed a bound perturbed by 1e-6"
    return None
