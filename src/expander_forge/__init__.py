"""Numerical toolkit for Cayley graph expansion on the semidirect product of
the sum-zero hyperplane mod p by S_n: exponential-sum certificates, character
and dense spectra, BFS diameters, and Kazhdan-constant intervals.

The package root imports nothing: each CLI command loads only the modules it
runs, and library users import the submodules (`expander_forge.expsum`, ...)."""

__version__ = "0.1.0"
