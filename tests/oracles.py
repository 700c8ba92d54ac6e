"""Independent oracles the test suite trusts over the library.

Everything here is derived from first principles with different
algorithms than the package uses: colex order via characteristic
bitmasks, copy counting via explicit vertex injections, path maximality
by trying every vertex permutation of the longer path, arrowing via
vectorized enumeration of every coloring, a tiny standalone DPLL for
DIMACS text, host twin classes by checking every swapped subset, the
library's search rule as a plain-list loop (for exact node and
propagation counts), and the search kernel's clause instance by one
argsort of every watch key.  No imports from ramsey_lab.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, ...]


# ---------------------------------------------------------------------------
# templates from the definitions
# ---------------------------------------------------------------------------

def oracle_path_edges(k: int, n: int) -> List[Edge]:
    """Edge i covers labels (i-1)(k-1)+1 .. (i-1)(k-1)+k."""
    return [tuple(range((i - 1) * (k - 1) + 1, (i - 1) * (k - 1) + k + 1))
            for i in range(1, n + 1)]


def oracle_cycle_edges(k: int, n: int) -> List[Edge]:
    """Path windows wrapped modulo n(k-1)."""
    M = n * (k - 1)
    out = []
    for i in range(1, n + 1):
        base = (i - 1) * (k - 1)
        out.append(tuple(((base + j - 1) % M) + 1 for j in range(1, k + 1)))
    return out


# ---------------------------------------------------------------------------
# colex order through characteristic bitmasks
# ---------------------------------------------------------------------------

def oracle_colex_subsets(N: int, k: int) -> List[Edge]:
    """Colex order equals numeric order of the subset bitmask."""
    subs = [tuple(sorted(s)) for s in itertools.combinations(range(1, N + 1), k)]
    return sorted(subs, key=lambda e: sum(1 << (v - 1) for v in e))


def oracle_rank(e: Iterable[int], N: int, k: int) -> int:
    order = oracle_colex_subsets(N, k)
    return order.index(tuple(sorted(e)))


def oracle_colex_rank_sum(sorted_edge: Sequence[int]) -> int:
    """sum_i C(a_i - 1, i) over the ascending labels, one math.comb each."""
    return sum(math.comb(a - 1, i) for i, a in enumerate(sorted_edge, start=1))


# ---------------------------------------------------------------------------
# copies via explicit injections
# ---------------------------------------------------------------------------

def _is_loose_layout(edges: Sequence[Edge], cyclic: bool) -> bool:
    m = len(edges)
    for i in range(m):
        for j in range(i + 1, m):
            shared = len(set(edges[i]) & set(edges[j]))
            adjacent = (j == i + 1) or (cyclic and i == 0 and j == m - 1 and m > 2)
            if adjacent and shared != 1:
                return False
            if not adjacent and shared != 0:
                return False
    return True


def oracle_copy_sets(N: int, template_edges: Sequence[Edge],
                     n_template_vertices: int) -> Set[FrozenSet[FrozenSet[int]]]:
    """Distinct edge-set images of the template under all injections."""
    seen: Set[FrozenSet[FrozenSet[int]]] = set()
    hosts = range(1, N + 1)
    for image in itertools.permutations(hosts, n_template_vertices):
        mapped = frozenset(
            frozenset(image[v - 1] for v in e) for e in template_edges)
        seen.add(mapped)
    return seen


def oracle_count_copies(N: int, template_edges: Sequence[Edge],
                        n_template_vertices: int) -> int:
    if n_template_vertices > N:
        return 0
    return len(oracle_copy_sets(N, template_edges, n_template_vertices))


def oracle_embedding_exists(red_edges: Set[Edge], host_vertices: Sequence[int],
                            template_edges: Sequence[Edge],
                            n_template_vertices: int,
                            want_red: bool, all_host_edges: Set[Edge]) -> bool:
    """Brute-force: some injection maps every template edge into the class."""
    for image in itertools.permutations(host_vertices, n_template_vertices):
        ok = True
        for e in template_edges:
            host_e = tuple(sorted(image[v - 1] for v in e))
            is_red = host_e in red_edges
            if is_red != want_red:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_is_maximal(c, P, W: Iterable[int]) -> bool:
    """Maximality of the red loose path P with respect to the reservoir W,
    from the definition: for each (k-1)-subset W' of W, every permutation
    of V(P) + W' is tried as the assignment of a loose path with one edge
    more; P is not maximal when one makes every edge red and puts P's first
    vertex in its first edge and P's last vertex in its last edge.

    Reads only c.k, c.n_vertices, c.bits (colex order) and P's assignment
    and edge count.
    """
    k, n = c.k, P.template.n
    first, last = P.assignment[0], P.assignment[-1]
    red = {frozenset(e) for e, bit in zip(oracle_colex_subsets(c.n_vertices, k), c.bits)
           if bit}
    slots = [tuple(v - 1 for v in e) for e in oracle_path_edges(k, n + 1)]
    for Wp in itertools.combinations(sorted(W), k - 1):
        for image in itertools.permutations(list(P.assignment) + list(Wp)):
            if first not in image[:k] or last not in image[-k:]:
                continue
            if all(frozenset(image[i] for i in e) in red for e in slots):
                return False
    return True


# ---------------------------------------------------------------------------
# arrowing by complete enumeration (bit r of x = red at colex rank r)
# ---------------------------------------------------------------------------

def copy_rank_masks(N: int, k: int, template_edges: Sequence[Edge],
                    n_template_vertices: int) -> List[int]:
    order = {e: r for r, e in enumerate(oracle_colex_subsets(N, k))}
    masks = []
    for copy in oracle_copy_sets(N, template_edges, n_template_vertices):
        mask = 0
        for fs in copy:
            mask |= 1 << order[tuple(sorted(fs))]
        masks.append(mask)
    return masks


def oracle_arrowing(N: int, k: int,
                    red_edges_t: Sequence[Edge], red_nv: int,
                    blue_edges_t: Sequence[Edge], blue_nv: int
                    ) -> Tuple[bool, Optional[int]]:
    """(arrows?, admissible coloring as an int or None).

    Vectorized over all 2^E colorings; E must stay at laptop scale.
    """
    E = len(oracle_colex_subsets(N, k))
    if E > 24:
        raise ValueError(f"2^{E} enumeration out of reach")
    total = 1 << E
    xs = np.arange(total, dtype=np.uint64)
    bad = np.zeros(total, dtype=bool)
    for m in copy_rank_masks(N, k, red_edges_t, red_nv):
        mm = np.uint64(m)
        bad |= (xs & mm) == mm  # fully red copy
    for m in copy_rank_masks(N, k, blue_edges_t, blue_nv):
        mm = np.uint64(m)
        bad |= (xs & mm) == 0  # fully blue copy
    good = np.flatnonzero(~bad)
    if good.size:
        return False, int(good[0])
    return True, None


# ---------------------------------------------------------------------------
# standalone DIMACS DPLL
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> Tuple[int, List[List[int]]]:
    n_vars = 0
    clauses: List[List[int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            n_vars = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if lits:
            clauses.append(lits)
    return n_vars, clauses


def mini_dpll(n_vars: int, clauses: List[List[int]]) -> Optional[Dict[int, bool]]:
    """Model as {var: bool} or None.  Plain recursion + unit propagation."""

    def solve(assign: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        while True:
            unit = None
            for cl in clauses:
                unassigned = []
                satisfied = False
                for lit in cl:
                    v = abs(lit)
                    if v in assign:
                        if assign[v] == (lit > 0):
                            satisfied = True
                            break
                    else:
                        unassigned.append(lit)
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    unit = unassigned[0]
                    break
            if unit is None:
                break
            assign = dict(assign)
            assign[abs(unit)] = unit > 0
        for v in range(1, n_vars + 1):
            if v not in assign:
                for val in (True, False):
                    trial = dict(assign)
                    trial[v] = val
                    res = solve(trial)
                    if res is not None:
                        return res
                return None
        return assign

    return solve({})


def mini_dpll_status(text: str) -> str:
    n_vars, clauses = parse_dimacs(text)
    return "SAT" if mini_dpll(n_vars, clauses) is not None else "UNSAT"


# ---------------------------------------------------------------------------
# host twin classes: every adjacent swap checked subset by subset
# ---------------------------------------------------------------------------

def oracle_twin_classes(N: int, k: int, bits: Sequence[int]) -> Dict[int, int]:
    """Each host vertex mapped to its twin-class representative.

    Labels u, u+1 are twins when swapping them preserves the color of every
    edge T + {u}; classes are the intervals closed under such swaps.
    """
    index = {e: i for i, e in enumerate(oracle_colex_subsets(N, k))}
    rep = list(range(N + 1))
    others = range(1, N + 1)
    for u in range(1, N):
        v = u + 1
        pool = [w for w in others if w != u and w != v]
        twins = True
        for T in itertools.combinations(pool, k - 1):
            eu = tuple(sorted(T + (u,)))
            ev = tuple(sorted(T + (v,)))
            if bits[index[eu]] != bits[index[ev]]:
                twins = False
                break
        if twins:
            rep[v] = rep[u]
    return {w: rep[w] for w in others}


# ---------------------------------------------------------------------------
# the library's search rule as a plain loop: exact node/propagation counts
# ---------------------------------------------------------------------------

def oracle_transpositions(N: int, k: int) -> List[List[int]]:
    """Colex-index permutation of the edges under each swap (u, u+1)."""
    order = oracle_colex_subsets(N, k)
    index = {e: i for i, e in enumerate(order)}
    perms = []
    for u in range(1, N):
        swap = {u: u + 1, u + 1: u}
        perms.append([index[tuple(sorted(swap.get(x, x) for x in e))]
                      for e in order])
    return perms


def counting_dpll(n_vars: int, clauses: List[List[int]],
                  generators: Sequence[Sequence[int]] = ()):
    """(status, nodes, propagations, conflicts, max_depth, model bits)
    under the library's rule.

    Every clause must be all-positive or all-negative.  Chronological
    backtracking branches on the lowest unassigned variable, True first; a
    node is a decision or a flip.  Propagation walks the trail in order:
    each variable visits its clauses in clause order, and a clause no
    propagated literal satisfies with exactly one literal not yet
    propagated enqueues that literal's variable if it is still unassigned.
    A clause with every literal propagated false is a conflict, noticed
    after the variable's clauses are all visited.  After a conflict-free
    fixpoint, the variables it enqueued count as propagations, and each
    generator (a permutation of variable indices) prunes when its first
    moved position that is unassigned or differs from its image reads
    False against True.  A node that ends in a conflict or a prune counts
    as one conflict; max_depth is the most decisions open at once.
    """
    sv = [1 if cl[0] > 0 else 0 for cl in clauses]
    members = [[abs(lit) - 1 for lit in cl] for cl in clauses]
    occ: List[List[int]] = [[] for _ in range(n_vars)]
    for ci, vs in enumerate(members):
        for v in vs:
            occ[v].append(ci)
    sat = [0] * len(clauses)
    seen = [0] * len(clauses)
    assign = [-1] * n_vars
    trail: List[int] = []
    levels: List[Tuple[int, bool, int]] = []  # (variable, flipped, trail start)
    qhead = nodes = props = conflicts = depth = 0
    while True:
        conflict = False
        implied = 0
        while qhead < len(trail) and not conflict:
            v = trail[qhead]
            qhead += 1
            for ci in occ[v]:
                seen[ci] += 1
                if assign[v] == sv[ci]:
                    sat[ci] += 1
                elif sat[ci] == 0:
                    rem = len(members[ci]) - seen[ci]
                    if rem == 0:
                        conflict = True
                    elif rem == 1:
                        free = [u for u in members[ci] if assign[u] < 0]
                        if free:
                            assign[free[0]] = sv[ci]
                            trail.append(free[0])
                            implied += 1
        if not conflict:
            props += implied
            for perm in generators:
                for p, q in enumerate(perm):
                    if p == q:
                        continue
                    a, b = assign[p], assign[q]
                    if a < 0 or b < 0:
                        break
                    if a != b:
                        conflict = a == 0
                        break
                if conflict:
                    break
        if conflict:
            conflicts += 1
            while levels:
                var, flipped, start = levels.pop()
                for t in range(len(trail) - 1, start - 1, -1):
                    w = trail[t]
                    if t < qhead:
                        for ci in occ[w]:
                            seen[ci] -= 1
                            if assign[w] == sv[ci]:
                                sat[ci] -= 1
                    assign[w] = -1
                del trail[start:]
                qhead = min(qhead, start)
                if not flipped:
                    levels.append((var, True, start))
                    assign[var] = 0
                    trail.append(var)
                    nodes += 1
                    break
            else:
                return "UNSAT", nodes, props, conflicts, depth, None
            continue
        free = [v for v in range(n_vars) if assign[v] < 0]
        if not free:
            return "SAT", nodes, props, conflicts, depth, assign
        levels.append((free[0], False, len(trail)))
        depth = max(depth, len(levels))
        assign[free[0]] = 1
        trail.append(free[0])
        nodes += 1


def oracle_build_instance(E: int, red_rows: np.ndarray, blue_rows: np.ndarray):
    """The kernel's instance (E, rows, watch, starts) with its watch lists
    from one stable argsort of all the watch keys at once.

    rows: red rows then blue rows, each reversed into descending order, in
    np.min_scalar_type(E + 1), red padded by E and blue by E + 1, at least
    two wide.  watch: the clause ids of the flattened first-two-column
    keys 2v + x (x = 1 on red rows), sorted stably by key, as int32.
    starts: [0] and the running key counts of keys 0 .. 2E - 1.
    """
    n_red = len(red_rows)
    width = max(2, red_rows.shape[1], blue_rows.shape[1])
    rows = np.full((n_red + len(blue_rows), width), E + 1, np.min_scalar_type(E + 1))
    rows[:n_red] = E
    rows[:n_red, :red_rows.shape[1]] = red_rows[:, ::-1]
    rows[n_red:, :blue_rows.shape[1]] = blue_rows[:, ::-1]
    keys = rows[:, :2].astype(np.int64) * 2
    keys[:n_red] += 1
    keys = keys.ravel()
    watch = (np.argsort(keys, kind="stable") // 2).astype(np.int32)
    counts = np.bincount(keys, minlength=2 * E)[:2 * E]
    return E, rows, watch, [0] + np.cumsum(counts).tolist()
