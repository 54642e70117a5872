"""Variance of arithmetic sequences in arithmetic progressions.

Desk-scale toolkit for the lower-bound method linking the variance of a
sequence over residue classes to minor-arc integrals of its exponential
sum, with exact identity checks, exact arc integrals, smooth sieve
windows, and Euler-product residue predictions.
"""

__version__ = "0.1.0"
