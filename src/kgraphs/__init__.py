"""Higher-rank graphs and their equilibrium-state theory.

Combinatorics of degree-graded path categories presented by colored
skeletons, exact Perron eigendata for the commuting adjacency family,
periodicity detection, the distinguished measure on the infinite-path
space, and the equilibrium states of the associated algebra.
"""

__version__ = "0.1.0"
