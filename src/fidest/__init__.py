"""Numerical toolkit for pure-state fidelity estimation.

Demonstrates that no test operator samples the fidelity distribution of two
unknown pure states exactly, reproduces the optimal universal approximation
(worst-case deviation 1/3, attained by 2/3 times the symmetric projector),
and attacks the general n-copy / m-sample minimax problem numerically.
"""

__version__ = "0.1.0"
