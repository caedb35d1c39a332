"""matmean: matrix-mean majorization checks with exact certificates.

Computes Kubo-Ando and spectral geometric means, quadratic Heron and
Bures-Wasserstein expressions, checks the weak-majorization comparisons
between them on random and fixed instances, and certifies the two
incomparability counterexamples in exact rational arithmetic.
"""

__version__ = "0.1.0"
