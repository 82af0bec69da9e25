"""Shared pytest hooks and test states.

The acceptance tests register one verdict per criterion; printing them
from a terminal-summary hook keeps the lines out of reach of pytest's
file-descriptor capture, so they show up for passing runs too.
"""

import numpy as np

_VERDICTS = []


def w_class_state(n, seed):
    """Random real weights on |0...0> and the n single-excitation states.

    Every pair concurrence of such a state is nonzero, unlike a Haar
    state's at more than a few qubits.
    """
    weights = np.random.default_rng(seed).standard_normal(n + 1)
    psi = np.zeros(2 ** n)
    psi[[0] + [1 << k for k in range(n)]] = weights / np.linalg.norm(weights)
    return psi


def record_verdict(label, ok):
    _VERDICTS.append((label, ok))


def pytest_terminal_summary(terminalreporter):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in _VERDICTS:
        terminalreporter.write_line(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
