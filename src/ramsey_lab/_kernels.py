"""The library's only search kernel, a chronological DPLL that watches two
literals per clause, and the clause instance it runs on.

Clause model: one variable per host edge, value 1 = red.  A clause is a
copy of a forbidden monochromatic structure; red copies are satisfied by
value 0 (some edge must be blue), blue copies by value 1.

Instance (E, rows, watch, starts), built by `build_instance`:
  rows    (n_clauses, W) matrix in np.min_scalar_type(E + 1), red copies
          first, each row in descending rank order; red rows are padded
          with E, which reads red, blue rows with E + 1, which reads blue
  watch   int32 clause ids sorted by the key 2v + x of each row's first two
          variables v, x the value that falsifies the row (1 if red), by a
          stable counting sort in blocks, so no int64 array spans the keys;
          watch[starts[key]:starts[key + 1]] watch v from the start

A clause watches its first two positions, at first its two highest ranks,
which branching reaches last.  The search copies `rows` once into one flat
buffer in their own dtype, row c at c*W, and a visit swaps a row's two
watches and its other variables in place there, so its memory does not
grow with the clauses it visits; `rows` itself stays as built, the record
of each row's first two.  A watch that moves onto a variable outside them
joins that key's `moved` list.  Backtracking touches no clause state.
"""

import time
from array import array

import numpy as np

_DEADLINE_EVERY = 64  # nodes between deadline checks; well under a second
_FILTER_MIN = 32  # longer watch lists drop satisfied clauses in one gather
_BLOCK = 1 << 14  # watch keys per block of the build's sort: 128 KiB of int64


def _key_blocks(rows: np.ndarray, n_red: int, E: int):
    """(c0, keys) for each block of clauses c0, c0 + 1, ... of at most
    _BLOCK keys: the keys 2v + x of each clause's first two variables, in
    clause order, padding keyed 2E + 1 (red) and 2E + 2 (blue).  One
    buffer serves every block."""
    # numpy radix-sorts narrow keys
    buf = np.empty((_BLOCK // 2, 2), dtype=np.min_scalar_type(2 * E + 2))
    for c0 in range(0, len(rows), _BLOCK // 2):
        block = rows[c0:c0 + _BLOCK // 2]
        keys = buf[:len(block)]
        for j in (0, 1):  # a column at a time: a 2-wide inner loop is slow
            keys[:, j] = block[:, j]
        keys <<= 1
        keys[:max(0, n_red - c0)] += 1
        yield c0, keys.ravel()


def build_instance(E: int, red_rows: np.ndarray, blue_rows: np.ndarray):
    """The instance (E, rows, watch, starts) over E variables, from the two
    copy matrices (one row of distinct edge ranks per copy, ascending).

    `watch` comes from a stable counting sort in blocks of at most _BLOCK
    keys: the keys are counted, then each block is sorted on its own and
    its clause ids go to their keys' next free slots.  So beside `rows`
    and `watch` only one block's keys and indices are held.
    """
    n_red = red_rows.shape[0]
    n = n_red + len(blue_rows)
    width = max(2, red_rows.shape[1], blue_rows.shape[1])
    rows = np.full((n, width), E + 1, np.min_scalar_type(E + 1))
    rows[:n_red] = E
    rows[:n_red, :red_rows.shape[1]] = red_rows[:, ::-1]
    rows[n_red:, :blue_rows.shape[1]] = blue_rows[:, ::-1]
    counts = np.zeros(2 * E + 3, dtype=np.int64)
    for _, keys in _key_blocks(rows, n_red, E):
        counts += np.bincount(keys, minlength=2 * E + 3)
    ends = counts.cumsum()
    free = ends - counts  # each key's next free slot in `watch`
    watch = np.empty(2 * n, dtype=np.int32)
    for c0, keys in _key_blocks(rows, n_red, E):
        here = np.bincount(keys, minlength=2 * E + 3)
        order = np.argsort(keys, kind="stable")
        # the i-th sorted key of a key's run goes to that key's i-th free slot
        slots = np.repeat(free - (here.cumsum() - here), here)
        slots += np.arange(len(keys))
        order >>= 1  # clause ids, from key positions
        order += c0
        watch[slots] = order
        free += here
    return E, rows, watch, [0] + ends[:2 * E].tolist()


def search(instance, sym, max_nodes, deadline):
    """Chronological-backtracking DPLL to a verdict or the budget.

    Returns (status, nodes, propagations, conflicts, max_depth, assign):
    status "SAT", "UNSAT" or "UNKNOWN", assign the E values (-1 unassigned,
    else 1 = red).  A node is a decision or a phase flip; branching takes
    the lowest unassigned variable, red first, and propagation runs the
    trail FIFO.  `propagations` counts the literals implied at each
    conflict-free unit-propagation fixpoint (unique, whatever the visit
    order), `conflicts` the nodes that end in a falsified clause or a
    leader prune, `max_depth` the most decisions open at once.  Budgets
    are checked before each node is propagated: `max_nodes` at every node,
    the `deadline` (a `time.monotonic()` reading) at every
    _DEADLINE_EVERY-th, from node 0.

    `sym` is () or the arrays (lo, hi) of `coloring.swap_pairs`, a row per
    symmetry generator s, an involution on the variables: row g of `lo`
    lists, ascending, the p with p < s(p), and `hi` their s(p).  A partial
    assignment is pruned when, at the first moved position where it is
    unassigned or differs from its image, it reads blue against red.
    Listing only the lower position of each exchanged pair loses no prune:
    if s(p) is unassigned or differs from p, so is p, which comes first.
    After each conflict-free fixpoint each generator's pairs are scanned
    over the assignment bytes up to that first position, which is most
    often among the first few; a stop at blue against unassigned does
    not prune.
    """
    E, rows, watch, starts = instance
    ba = bytearray(b"\2") * E + b"\1\0"  # 2 = unassigned; padding values
    assign = np.frombuffer(ba, dtype=np.uint8)
    W = rows.shape[1]
    rest = range(2, W)  # a row's positions past its two watches
    moved = [[] for _ in range(2 * E)]  # per key: watches moved onto it
    flat = rows.reshape(-1)  # row c at c*W..c*W + W - 1
    buf = array(flat.dtype.char)  # the rows, watches swapped in place
    buf.frombytes(flat.view(np.uint8))
    first = memoryview(flat)  # the rows as built, read as Python ints
    trail = []
    decisions = []  # trail position of each open decision; flipped = blue
    qhead = nodes = props = conflicts = depth = hint = start = 0
    # per generator its (p, s(p)) pairs, ending with (E, E + 1): red, then
    # blue, which stops every scan and does not prune
    gens = [list(zip(lo, hi)) + [(E, E + 1)]
            for lo, hi in zip(*(a.tolist() for a in sym))]

    def result(status):
        out = np.where(assign[:E] == 2, -1, assign[:E]).astype(np.int8)
        return status, nodes, props, conflicts, depth, out

    if E == 0:  # empty host: nothing to color, nothing forbidden
        return result("SAT")
    while True:
        if max_nodes is not None and nodes >= max_nodes or deadline is not None \
                and nodes % _DEADLINE_EVERY == 0 and time.monotonic() >= deadline:
            return result("UNKNOWN")

        # ---- propagate to fixpoint or conflict ---------------------------
        conflict = False
        while qhead < len(trail) and not conflict:
            v = trail[qhead]
            qhead += 1
            val = ba[v]  # falsifies the clauses of `key`, which s satisfies
            s = 1 - val
            key = 2 * v + val
            ids = watch[starts[key]:starts[key + 1]]
            if ids.size >= _FILTER_MIN:  # drop the clauses s satisfies
                unsat = assign.take(rows.take(ids, axis=0)) != s
                keep = unsat[:, 0] & unsat[:, 1]
                for j in rest:  # a column at a time, as in the build
                    keep &= unsat[:, j]
                ids = ids.compress(keep)
            mv = moved[key]
            for c in ids.tolist() + mv if mv else ids.tolist():
                b = c * W
                b1 = b + 1  # the row's watches sit at b and b1
                w = buf[b]
                if w == v:
                    w = buf[b] = buf[b1]
                    buf[b1] = v
                elif buf[b1] != v:
                    continue  # the watch moved off v since c was listed
                if ba[w] == s:
                    continue
                for j in rest:
                    u = buf[b + j]
                    if ba[u] != val:
                        buf[b1] = u
                        buf[b + j] = v
                        # u is no padding, which reads val; rows descend,
                        # so u is one of the row's first two iff u >= first[b1]
                        if u < first[b1]:
                            moved[2 * u + val].append(c)
                        break
                else:
                    if ba[w] != 2:
                        conflict = True
                        break
                    ba[w] = s
                    trail.append(w)
            if mv:
                moved[key] = [c for c in mv
                              if buf[c * W] == v or buf[c * W + 1] == v]

        if not conflict:
            props += len(trail) - start
            # ---- symmetry leader check (red precedes blue) ----------------
            for pairs in gens:
                for p, q in pairs:
                    x = ba[p]
                    if x == 2 or x != ba[q]:
                        break
                if x == 0 and ba[q] == 1:
                    conflict = True
                    break

        if conflict:
            # ---- backtrack to the deepest unflipped decision; flip it -----
            conflicts += 1
            while decisions and ba[trail[decisions[-1]]] == 0:
                decisions.pop()
            if not decisions:
                return result("UNSAT")
            qhead = decisions[-1]
            v = hint = trail[qhead]  # every variable below v stays assigned
            for w in trail[qhead:]:
                ba[w] = 2
            del trail[qhead:]
            ba[v] = 0
        else:  # decide
            v = hint = ba.find(2, hint, E)
            if v < 0:
                return result("SAT")
            decisions.append(len(trail))
            depth = max(depth, len(decisions))
            ba[v] = 1
        trail.append(v)  # the branch literal
        start = len(trail)  # where the literals it implies begin
        nodes += 1
