"""The library's only search kernel, a numpy-vectorized DPLL, and the
clause instance it runs on.  Unit propagation updates a propagated
variable's whole occurrence slice at once, so no Python loop runs per
clause or per literal.

Clause model: one variable per host edge, value 1 = red.  A clause is a
copy of a forbidden monochromatic structure; red copies are satisfied by
value 0 (some edge must be blue), blue copies by value 1.

Instance (E, clauses, occ), built by `build_instance`:
  clauses  int32 (n_clauses, W) literal matrix, column-major, red copies
           first; shorter rows are padded with the sentinel variable E,
           which always reads as assigned
  occ      per variable v, a pair of int32 views: occ[v][x] lists, in
           ascending order, the clauses containing v that value x satisfies

Per-clause counter `cnt` (int32): starts at minus the clause length, gains
1 for each propagated literal that falsifies the clause and SAT_W for each
one that satisfies it.  So a clause no propagated literal satisfies has
cnt = -(literals not yet propagated) <= 0: 0 is a conflict, -1 a unit.
Counters reflect exactly the trail entries below the queue head; entries
at or beyond it are enqueued but not yet propagated.

`assign` (int8, length E + 1): -1 unassigned, else the value; the
sentinel entry assign[E] stays 0.
"""

import time

import numpy as np

SAT_W = 1 << 16  # counter weight of a satisfying literal; exceeds any length

_DEADLINE_EVERY = 64  # nodes between deadline checks; well under a second


def build_instance(E: int, red_rows: np.ndarray, blue_rows: np.ndarray):
    """The instance (E, clauses, occ) over E variables, from the two copy
    matrices (one row of edge ranks per copy)."""
    n_red, n_blue = red_rows.shape[0], blue_rows.shape[0]
    width = max(red_rows.shape[1], blue_rows.shape[1])
    clauses = np.full((n_red + n_blue, width), E, dtype=np.int32, order="F")
    clauses[:n_red, :red_rows.shape[1]] = red_rows
    clauses[n_red:, :blue_rows.shape[1]] = blue_rows

    # one scan per variable over the (column-major) matrix keeps every
    # slice in ascending clause order; the padding never matches
    occ_cl = np.empty(red_rows.size + blue_rows.size, dtype=np.int32)
    hit = np.empty(n_red + n_blue, dtype=bool)
    col_hit = np.empty_like(hit)
    occ = []
    pos = 0
    for v in range(E):
        np.equal(clauses[:, 0], v, out=hit)
        for j in range(1, width):
            hit |= np.equal(clauses[:, j], v, out=col_hit)
        ids = np.flatnonzero(hit)
        n_r = int(np.searchsorted(ids, n_red))
        occ_cl[pos:pos + ids.size] = ids
        occ.append((occ_cl[pos:pos + n_r], occ_cl[pos + n_r:pos + ids.size]))
        pos += ids.size
    return E, clauses, occ


def search(instance, sym, max_nodes, deadline):
    """Chronological-backtracking DPLL to a verdict or the budget.

    Returns (status, nodes, propagations, assign): status "SAT", "UNSAT" or
    "UNKNOWN", and assign the E values (-1 unassigned, else 1 = red).  A
    node is a decision or a phase flip.  Branching takes the lowest
    unassigned variable, red first.  The budget is checked before each
    node is propagated: `max_nodes` at every node, the `deadline` (a
    `time.monotonic()` reading) at every _DEADLINE_EVERY-th, from node 0.

    `sym` holds one (moved, image) pair of nonempty intp arrays per
    symmetry generator s, an involution on the variables: `moved` lists,
    ascending, the p with p < s(p), and `image` their s(p).  A partial
    assignment is pruned when, at the first moved position where it is
    unassigned or differs from its image, it reads blue against red (the
    lex-leader order puts red first).  Listing only the lower position of
    each exchanged pair loses no prune: if the upper one, s(p), is
    unassigned or differs from p, so is p, which comes first.  An empty
    `sym` turns symmetry breaking off.
    """
    E, clauses, occ = instance
    assign = np.full(E + 1, -1, dtype=np.int8)
    assign[E] = 0
    if E == 0:  # empty host: nothing to color, nothing forbidden
        return "SAT", 0, 0, assign[:E]
    trail = np.zeros(E, dtype=np.int32)
    cnt = -(clauses != E).sum(axis=1, dtype=np.int32)
    decisions = []  # [var, flipped, trail position] per level
    tlen = qhead = nodes = props = hint = 0

    while True:
        if max_nodes is not None and nodes >= max_nodes or (
                deadline is not None and nodes % _DEADLINE_EVERY == 0
                and time.monotonic() >= deadline):
            return "UNKNOWN", nodes, props, assign[:E]

        # ---- propagate to fixpoint or conflict ---------------------------
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

        # ---- symmetry leader check (red precedes blue) --------------------
        if not conflict:
            for moved, image in sym:
                a, b = assign[moved], assign[image]
                stop = (a != b) | (a < 0)
                p = int(stop.argmax())
                if stop[p] and a[p] == 0 and b[p] == 1:
                    conflict = True
                    break

        if conflict:
            # ---- backtrack to the deepest unflipped decision; flip it -----
            while decisions and decisions[-1][1]:
                decisions.pop()
            if not decisions:
                return "UNSAT", nodes, props, assign[:E]
            v, _, target = level = decisions[-1]
            for w in trail[target:qhead].tolist():
                wv = int(assign[w])
                cnt[occ[w][wv]] -= SAT_W
                cnt[occ[w][1 - wv]] -= 1
            undone = trail[target:tlen]
            assign[undone] = -1
            hint = min(hint, int(undone.min()))
            qhead = min(qhead, target)
            tlen = target
            level[1] = True
            val = 0
        else:
            # ---- decide ----------------------------------------------------
            free = np.flatnonzero(assign[hint:E] < 0)
            if free.size == 0:
                return "SAT", nodes, props, assign[:E]
            v = hint = hint + int(free[0])
            decisions.append([v, False, tlen])
            val = 1
        # ---- branch: v takes val, which makes one node --------------------
        assign[v] = val
        trail[tlen] = v
        tlen += 1
        nodes += 1
