"""Desk-scale lab for MTJ stochastic neurons, stochastic-computing
arithmetic, crossbar networks, and SC decoding of polar codes."""

__version__ = "0.2.0"
