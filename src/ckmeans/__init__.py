"""Constrained k-means toolkit.

Candidate-list generation by D^2 sampling, constrained partitioning by
an exact kernel per variant, hyperbucket stream compression, and
clustering-stability checks, plus brute-force oracles small enough to
trust.
"""

__version__ = "0.1.0"
