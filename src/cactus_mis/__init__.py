"""Exact counting of maximal independent sets in polygonal cactus chains.

The package builds eight chain-cactus families and their pendant-gadget
variants, counts their maximal independent sets exactly by size, expands the
catalogued rational generating functions exactly, evaluates the catalogued
recurrences and asymptotic constants, and cross-verifies all of it.
"""

__version__ = "1.0.0"
