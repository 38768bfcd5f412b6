"""Synthetic benchmark for aggregate multirotor downwash force prediction.

Generates ground-truth 6-DOF downwash wrench fields for formations of K
neighbours around a fixed sufferer vehicle, and trains and compares three
aggregation models: a naive grid-lookup sum, a learnt linear sum and a
permutation-invariant deep-set network.
"""

__version__ = "0.1.0"
