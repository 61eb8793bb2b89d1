"""Exact construction and verification of factored conformally invariant
Laplacian-like operators on weighted differential forms over Einstein
manifolds, with flat-torus and simplicial-sphere numerical oracles."""
