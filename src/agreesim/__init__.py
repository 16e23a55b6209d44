"""Deterministic simulator and checkers for iterative approximate agreement
in partially connected mobile networks."""
