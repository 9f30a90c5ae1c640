"""Shared fixtures and the acceptance-summary reporting hook."""

import numpy as np

ACCEPTANCE_RESULTS = []


class ZeroRng:
    """A generator stand-in whose standard normal draws are all zero: `transmit` with it is noiseless."""

    @staticmethod
    def standard_normal(size=None, out=None):
        if out is None:
            return np.zeros(size)
        out.fill(0.0)
        return out


def record_acceptance(name: str, passed: bool, detail: str = ""):
    """Collect one acceptance-criterion verdict for the terminal summary."""
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_RESULTS.append(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
