"""Differentially-private, marginal-preserving synthetic tabular data, with
norm-constrained linear-model training and explicit excess-risk bound
calculators."""

__version__ = "0.1.0"
