"""The library's only search kernel: a resumable, numpy-vectorized DPLL step.

All search state lives in caller-owned arrays, and each call explores at
most `chunk` nodes before yielding control back with status PAUSED.
Unit propagation is vectorized with numpy: each propagated trail entry
updates its whole occurrence slice at once, so no Python loop runs per
clause or per literal.

Clause model: one variable per host edge, value 1 = red.  A clause is a
copy of a forbidden monochromatic structure; red copies are satisfied by
value 0 (some edge must be blue), blue copies by value 1.

Instance (built by `prover._build_instance`):
  clauses  int32 (n_clauses, W) literal matrix; shorter rows are padded
           with the sentinel variable E, which always reads as assigned
  occ      per variable v, a pair of int32 views: occ[v][x] lists, in
           ascending order, the clauses containing v that value x satisfies

Per-clause counter `cnt` (int32): starts at minus the clause length, gains
1 for each propagated literal that falsifies the clause and SAT_W for each
one that satisfies it.  So a clause no propagated literal satisfies has
cnt = -(literals not yet propagated) <= 0: 0 is a conflict, -1 a unit.
Counters reflect exactly the trail entries below QHEAD; entries at or
beyond it are enqueued but not yet propagated.

`assign` (int8, length E + 1): -1 unassigned, else the value; the
sentinel entry assign[E] stays 0.

State vector `st` layout: 0 TLEN, 1 NLEV, 2 QHEAD, 3 NODES, 4 PROPS, 5 HINT.
Status codes: 1 SAT, 2 UNSAT, 3 PAUSED.
"""

import numpy as np

ST_TLEN = 0
ST_NLEV = 1
ST_QHEAD = 2
ST_NODES = 3
ST_PROPS = 4
ST_HINT = 5

SAT = 1
UNSAT = 2
PAUSED = 3

SAT_W = 1 << 16  # counter weight of a satisfying literal; exceeds any length


def dpll_step(assign, trail, dvar, dflip, dtrail, cnt, clauses, occ, sym,
              phase_first, st, chunk):
    """Run the chronological-backtracking search for up to `chunk` nodes.

    A node is a decision or a phase flip.  Branching takes the lowest
    unassigned variable, `phase_first` first.  `sym` holds one
    (moved, image) pair per symmetry generator: the positions the generator
    moves, never none, and their images; a partial assignment is pruned when, at the
    first moved position where it is unassigned or differs from its image,
    it reads blue against red (the lex-leader order puts red first).  An
    empty `sym` turns symmetry breaking off.
    """
    E = assign.shape[0] - 1
    tlen, nlev, qhead, nodes, props, hint = (int(x) for x in st[:6])
    nodes_here = 0

    while True:
        # ---- propagate to fixpoint or conflict -------------------------
        conflict = False
        while qhead < tlen and not conflict:
            v = int(trail[qhead])
            qhead += 1
            val = int(assign[v])
            cnt[occ[v][val]] += SAT_W
            fal = occ[v][1 - val]
            c = cnt[fal] + 1
            cnt[fal] = c
            conflict = bool((c == 0).any())  # the slice's units still enqueue
            units = fal[c == -1]
            if units.size:
                # a unit has one unpropagated literal, which may already be
                # enqueued; row-major order keeps the clause order
                rows = clauses[units]
                free = rows[assign[rows] < 0]
                if free.size > 1:
                    _, first = np.unique(free, return_index=True)
                    free = free[np.sort(first)]
                n = free.size
                assign[free] = 1 - val
                trail[tlen:tlen + n] = free
                tlen += n
                props += n

        # ---- symmetry leader check (red precedes blue) ------------------
        if not conflict:
            for moved, image in sym:
                a = assign[moved]
                b = assign[image]
                stop = (a != b) | (a < 0)
                p = int(stop.argmax())
                if stop[p]:
                    conflict = a[p] == 0 and b[p] == 1
                    if conflict:
                        break

        if conflict:
            # ---- backtrack: undo to the deepest unflipped decision ------
            flipped = False
            while nlev > 0:
                lev = nlev - 1
                target = int(dtrail[lev])
                for t in range(min(qhead, tlen) - 1, target - 1, -1):
                    w = int(trail[t])
                    wv = int(assign[w])
                    cnt[occ[w][wv]] -= SAT_W
                    cnt[occ[w][1 - wv]] -= 1
                if tlen > target:
                    undone = trail[target:tlen]
                    assign[undone] = -1
                    hint = min(hint, int(undone.min()))
                tlen = target
                qhead = min(qhead, target)
                if dflip[lev] == 1:
                    nlev -= 1
                    continue
                dflip[lev] = 1
                v = int(dvar[lev])
                assign[v] = 1 - phase_first
                trail[tlen] = v
                tlen += 1
                nodes += 1
                nodes_here += 1
                flipped = True
                break
            if not flipped:
                rc = UNSAT
                break
            if nodes_here >= chunk:
                rc = PAUSED
                break
            continue

        # ---- decide ------------------------------------------------------
        free = np.flatnonzero(assign[hint:E] < 0)
        if free.size == 0:
            rc = SAT
            break
        v = hint = hint + int(free[0])
        dvar[nlev] = v
        dflip[nlev] = 0
        dtrail[nlev] = tlen
        nlev += 1
        assign[v] = phase_first
        trail[tlen] = v
        tlen += 1
        nodes += 1
        nodes_here += 1
        if nodes_here >= chunk:
            rc = PAUSED
            break

    st[:6] = (tlen, nlev, qhead, nodes, props, hint)
    return rc

