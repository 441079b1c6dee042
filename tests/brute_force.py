"""The brute-force oracle for the Occam learner, shared by the test modules.

`brute_force_class` materializes every DNF of a grammar's class with
itertools.combinations and sorts it by the candidate order. It shares no
code with the learner's lazy range scan.
"""

import itertools

from pacexplain import FALSE, TRUE, And, Atom, BoolAtom, Not, Or, order_key


def brute_force_class(g):
    lits = []
    for f in g.features:
        if f.kind == "bool":
            lits.append(BoolAtom(f.index))
            lits.append(Not(BoolAtom(f.index)))
        else:
            for op in f.ops:
                for c in f.constants:
                    lits.append(Atom(f.index, op, c))
    clauses = []
    for k in range(1, g.max_literals_per_clause + 1):
        for combo in itertools.combinations(lits, k):
            clauses.append(combo[0] if k == 1 else And(combo))
    out = [FALSE, TRUE] if g.include_constants else []
    for m in range(1, g.max_clauses + 1):
        for chosen in itertools.combinations(clauses, m):
            out.append(chosen[0] if m == 1 else Or(chosen))
    out.sort(key=order_key)
    return out
