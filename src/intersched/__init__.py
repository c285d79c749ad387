"""Deterministic intersection-scheduling experiments.

Two models of the same four-way crossing: a grid reservation baseline that
counts conflicting occupancy intervals at crossing cells, and a slot
scheduler that admits speed-banded vehicles into fixed-length moving
containers behind alternating gates. Plus demand patterns, an online
right-turn classifier, and deterministic reporting.

The API is imported from the submodules (`intersched.prodline`,
`intersched.baseline`, ...); this module re-exports nothing, so importing
the slot scheduler does not load the grid model.
"""
