"""The reference kernel that every timed piece of the benchmark is divided by.

It imports nothing from koopeq and does a fixed amount of work of the kinds the
program does: a Python loop of small NumPy calls with per-step checks (like
`iterate`), a small SVD, `eig` and `eigh` (like `dmd`), and float formatting
and parsing (like the CSV and JSON layers). Dividing program time by its time,
measured right beside it, cancels most of the machine's drift in speed.
"""
from __future__ import annotations

import numpy as np

BLOCKS = 48
STEPS = 40
_A = np.array([[0.9, -0.3], [0.3, 0.9]])


def reference_kernel() -> float:
    """Run the fixed work once and return a checksum that depends on all of it."""
    acc = 0.0
    for b in range(BLOCKS):
        x = np.array([1.0, 0.5 + 1e-3 * b])
        states = [x]
        for _ in range(STEPS):
            prev = states[-1]
            y = np.asarray(_A @ prev + 0.01 * np.sin(prev), dtype=float)
            if not np.all(np.isfinite(y)):
                raise FloatingPointError("reference kernel produced a non-finite state")
            if np.linalg.norm(y - prev) <= 1e-12:
                break
            states.append(y)
        X = np.array(states).T
        U, s, Vh = np.linalg.svd(X[:, :-1], full_matrices=False)
        reduced = U.T @ X[:, 1:] @ Vh.T / s
        acc += float(np.abs(np.linalg.eigvals(reduced)).sum())
        acc += float(np.linalg.eigh(reduced + reduced.T)[0].sum())
        text = ",".join(repr(float(v)) for v in X.ravel())
        acc += sum(float(t) for t in text.split(","))
    return acc
