"""surfcond: obstruction computations for condensing surface-operator
symmetries (finite abelian group functors, Steenrod arithmetic, mod-2
cohomology of Eilenberg-MacLane spaces, Atiyah-Hirzebruch spectral
sequences, and pi_0-level condensation bookkeeping)."""
