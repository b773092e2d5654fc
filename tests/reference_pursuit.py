"""Naive from-scratch pursuit used as an oracle in tests.

Recomputes every atom/offset correlation from the residual on every
iteration with explicit Python loops and dot products: no caching, no
block maxima, no incremental updates. Selection rule: maximize |c| with
ties broken by lowest offset, then lowest atom index (offsets in the outer
loop, atoms in the inner one, and only a strictly larger |c| replaces the
best so far). Neighborhoods and quotas follow the same definitions as the
engine under test, but every quantity is derived independently here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def naive_match(
    waveforms: list[np.ndarray],
    x: np.ndarray,
    variant: str,
    p: float,
    floor_ratio: float = 1e-12,
):
    """Run the reference pursuit; returns a list of event dicts and the residual."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    m = len(waveforms)
    # p as the decimal it prints as, in exact rational arithmetic.
    q = math.floor(Fraction(repr(float(p))) * n / m)
    equi = variant in ("emp", "eomp")
    local = variant in ("omp", "eomp")
    budget = None if equi else m * q
    counts = [0] * m
    events: list[dict] = []
    residual = x.copy()
    floor = floor_ratio * float(np.linalg.norm(x))
    if float(np.linalg.norm(x)) == 0.0:
        return events, residual

    k = 0
    while budget is None or k < budget:
        if equi and all(c >= q for c in counts):
            break
        best_val = -1.0
        best = None
        for off in range(n - min(len(w) for w in waveforms) + 1):
            for i, w in enumerate(waveforms):
                if equi and counts[i] >= q:
                    continue
                L = len(w)
                if off + L > n:
                    continue
                c = float(np.dot(residual[off : off + L], w))
                if abs(c) > best_val:
                    best_val = abs(c)
                    best = (i, off)
        if best is None or best_val < floor:
            break
        i, off = best
        new_event = {"atom": i, "offset": off, "coeff": 0.0}

        if local:
            L_new = len(waveforms[i])
            psi = [
                ev
                for ev in events
                if ev["offset"] < off + L_new
                and ev["offset"] + len(waveforms[ev["atom"]]) > off
            ]
            psi.append(new_event)
        else:
            psi = [new_event]

        if len(psi) == 1:
            w = waveforms[i]
            chi = [float(np.dot(residual[off : off + len(w)], w))]
        else:
            u0 = min(ev["offset"] for ev in psi)
            u1 = max(ev["offset"] + len(waveforms[ev["atom"]]) for ev in psi)
            A = np.zeros((len(psi), u1 - u0))
            for j, ev in enumerate(psi):
                w = waveforms[ev["atom"]]
                A[j, ev["offset"] - u0 : ev["offset"] - u0 + len(w)] = w
            G = A @ A.T
            b = A @ residual[u0:u1]
            try:
                np.linalg.cholesky(G)
                chi = list(np.linalg.solve(G, b))
            except np.linalg.LinAlgError:
                lam = 1e-10 * np.trace(G) / len(psi)
                chi = list(np.linalg.solve(G + lam * np.eye(len(psi)), b))

        for ev, c in zip(psi, chi):
            ev["coeff"] += float(c)
            w = waveforms[ev["atom"]]
            residual[ev["offset"] : ev["offset"] + len(w)] -= float(c) * w

        events.append(new_event)
        counts[i] += 1
        k += 1
    return events, residual
