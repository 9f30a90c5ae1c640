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


def argmax_decisions(zeta, symbols):
    """Reference decisions: the index m of the symbol v_m that maximizes Re{conj(v_m) zeta}, ties to the
    lowest index.  For unit-modulus symbols this is the minimum-distance decision."""
    zeta = np.asarray(zeta)
    return np.argmax(np.real(zeta[..., None] * np.conj(symbols)), axis=-1)


def argmax_errors(zeta, data, constellation):
    """Reference bit errors per frame (last axis): popcounts of the sent Gray patterns `data` xor those of the
    argmax decisions on zeta, where symbol index m carries the pattern m ^ (m >> 1)."""
    m = argmax_decisions(zeta, constellation.symbols)
    popcount = np.array([bin(i).count("1") for i in range(constellation.M)])
    return popcount[np.asarray(data) ^ (m ^ (m >> 1))].sum(axis=-1)


def record_acceptance(name: str, passed: bool, detail: str = ""):
    """Collect one acceptance-criterion verdict for the terminal summary."""
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_RESULTS.append(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
