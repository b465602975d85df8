"""
Orbit indices and the admissibility laws
========================================

The orbit index is a sign invariant of a hyperbolic periodic orbit computed
from the eigenvalues of the return-map differential.  This script walks
through the definition and then prints the full law table per dimension:
which index splittings each bifurcation kind allows.
"""

from bifgraph import (
    COLOR_OF, EigenvalueSpec, builtin_table, index_from_eigenvalues, junction,
    period_doubling, saddle_node, splits_for_child_count, type_m,
)

# ---------------------------------------------------------------------------
# From eigenvalues to an index
# ---------------------------------------------------------------------------
# Count the real eigenvalues above 1 (sigma+) and below -1 (sigma-); complex
# pairs never matter.  An odd sigma- forces index 0, otherwise the index is
# (-1)^sigma+.

examples = [
    EigenvalueSpec(reals=(0.3, 0.5)),                 # attracting orbit
    EigenvalueSpec(reals=(2.0, 0.5)),                 # one expanding direction
    EigenvalueSpec(reals=(-2.0, -0.5)),               # flip saddle
    EigenvalueSpec(reals=(2.0,), complex_pairs=((3.0, 1.1),)),
]
for spec in examples:
    res = index_from_eigenvalues(spec)
    print(f"reals={spec.reals} pairs={spec.complex_pairs}"
          f" -> sigma+={res.sigma_plus} sigma-={res.sigma_minus}"
          f" index={res.index:+d} ({COLOR_OF[res.index]})")

# ---------------------------------------------------------------------------
# The law tables
# ---------------------------------------------------------------------------
# Rules accumulate with dimension and stabilize at d=4.  A kind's child count
# is all a lookup needs.  An empty set means the parent index cannot undergo
# that bifurcation at all.

kinds = [("saddle node", saddle_node()), ("doubling", period_doubling()),
         ("type m", type_m(3)), ("4-junction", junction(4)),
         ("5-junction", junction(5)), ("6-junction", junction(6))]

for d in (1, 2, 3, 4):
    table = builtin_table(d)
    print(f"\ndimension {d}")
    for label, kind in kinds:
        for parent in (-1, 0, 1):
            splits = sorted(splits_for_child_count(table, kind.child_count, parent))
            if splits:
                shown = " | ".join(str(s) for s in splits)
                print(f"  {label:11s} {parent:+d} -> {shown}")

# The never-admissible transitions are rejected at construction time:
from bifgraph import LawEntry

for kind, parent, children in [("period_doubling", 0, (0, 0)),
                               ("type_m", 1, (0, 1, 0))]:
    try:
        LawEntry(kind, parent, children)
    except ValueError as exc:
        print(f"\nforbidden in every dimension: {exc}")
