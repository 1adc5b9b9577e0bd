"""Symmetry-aware topology compression (quotient simulation).

Two layers:

* :mod:`repro.symmetry.refine` — structural symmetry detection over a
  declarative :class:`~repro.topology.topo.Topo`: color-refinement
  (1-WL) over node roles, link capacities/delays and pinned
  injection/traffic sites, yielding a :class:`SymmetryMap` of
  automorphism-*candidate* classes (conservative: WL never merges
  nodes an automorphism could not map onto each other... it may only
  fail to split, and every runtime decision re-checks uniformity).
* :mod:`repro.symmetry.quotient` — the runtime quotient layer the
  reallocation engine drives: joint flow/link-direction refinement
  over the cached forwarding walks, class-level solves that hand the
  engine's own scalar kernel a smaller, multiplicity-weighted instance
  (reproducing the concrete float arithmetic bit-for-bit), class-level
  byte accrual, and copy-on-write materialization back to concrete
  flows whenever anything symmetry-breaking happens.
"""

from repro.symmetry.refine import (
    SymmetryMap,
    injection_pins,
    symmetry_map_for_spec,
)
from repro.symmetry.quotient import QuotientState

__all__ = [
    "SymmetryMap",
    "QuotientState",
    "injection_pins",
    "symmetry_map_for_spec",
]
