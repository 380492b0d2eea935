"""Secure, energy-efficient ISAC network simulator.

A discrete-slot simulator of a single-cell mmWave/THz ISAC downlink in which
a base station (Stackelberg leader), hybrid edge nodes (generalized-Nash
followers that transmit or jam), and a Bayesian eavesdropper-bearing tracker
jointly adapt power splitting, incentive prices, node roles, and cooperative
jamming geometry against worst-case eavesdroppers.
"""

__version__ = "0.1.0"


class InvariantError(RuntimeError):
    """A simulation invariant failed; checked whatever the interpreter's -O flag."""
