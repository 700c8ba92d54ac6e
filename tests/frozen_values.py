"""Frozen expected values.

Derived once by the independent oracles in oracles.py (enumeration,
injection counting, complete 2^E sweeps) and committed as literals so
regressions surface as value drift, not silent oracle re-runs.  The
Ramsey values follow the closed forms the package implements; the small
ones are cross-checked by the internal engine in the acceptance suite.
"""

# colex order spot checks: (N, k) -> list of first subsets in rank order
COLEX_PREFIX = {
    (6, 3): [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)],
    (5, 2): [(1, 2), (1, 3), (2, 3), (1, 4)],
}

# (edge, N, k) -> colex rank
COLEX_RANKS = {
    ((4, 5, 6), 6, 3): 19,
    ((1, 2, 4), 6, 3): 1,
    ((1, 2, 3), 6, 3): 0,
}

# (kind, k, length, N) -> copy count in the complete host
COPY_COUNTS = {
    ("cycle", 3, 3, 6): 120,
    ("path", 3, 2, 5): 15,
    ("path", 3, 2, 6): 90,
    ("path", 3, 3, 7): 630,
    ("path", 3, 3, 8): 5040,
    ("cycle", 3, 3, 7): 840,
    ("cycle", 3, 4, 9): 45360,
}

# (kind, k, length, N) -> (rows, sha256 of the int64 bytes) of
# copy_rank_matrix, as produced by the recursive per-copy enumerator it
# replaced: the copy tables of the benchmark's refute and admit instances,
# plus P^3_4 in K^3_10
COPY_MATRIX_SHA256 = {
    ("cycle", 3, 3, 7): (840, "a238329970ebb769ef06c7763564373cdae5ba30d0969b4079ecd93a41ab0331"),
    ("path", 3, 3, 8): (5040, "6d12f421da634d569b99e4b8f2956111a4a5923cdcc2986b40bdfcc70dae156d"),
    ("cycle", 3, 4, 9): (45360, "9097a74796395f11fd7b42af44ec86f54486dce4553339ab1ab1a3b6c132ea44"),
    ("cycle", 3, 3, 9): (10080, "19457873da919ba919262c0c479a0ca870487c804e3cff1f86c9596ef3019c0a"),
    ("path", 3, 4, 9): (45360, "e893b0b459d06c6d354e3afa299829c9c458cdf1008f717f5966d4821513fd9c"),
    ("path", 3, 3, 9): (22680, "1325ad999cdbe6cc418a9aa503cf87f956f7feda3c6d84ea466249be3e83a3a6"),
    ("cycle", 3, 4, 8): (5040, "795e9fc3701b1cf3103dc297df7248e94ec51d8decc2cd7edea90198ca755efe"),
    ("cycle", 4, 3, 9): (7560, "91780d0f8ceb8699e6f1011383f6529143ab8d09e153e2a94d16f70b2b012c7e"),
    ("path", 3, 4, 10): (453600, "12699a5276d053f96b5e225b1cea6d1b65378bbb63b853c1105401e568ae379a"),
    # wider edges, taken from the rank-gathering enumerator that vertex-mask
    # ranks replaced: masks past the low half of the split lookup, and the
    # closing moves of k - 2 vertices at k = 5; spanning and lifted tables
    ("path", 5, 2, 9): (315, "0e027278d7d81a25719067990dfbfb4603da76e6a676ceef976360b2c85a559c"),
    ("path", 5, 2, 10): (3150, "72348ada85a2ddae2e9a91ccbb3cb4ac6cc3bc149c277b6877fc10014794440c"),
    ("path", 6, 2, 11): (1386, "df33711e2d31e9ca91faa6cc58edf0301b80b9fd390f945b5383cc41dddb4be1"),
    ("path", 6, 2, 13): (108108, "00786d5f8b5bdcd930e2c76737f285bf0da61bdc7495819bd2d1cbfaebd6edd3"),
    ("cycle", 5, 3, 12): (369600, "1148b67655ca549eb8913d878abb4a2a68b3ab3638eb02099bd5d4f96ec98357"),
    # lifts over many vertex subsets (2002 and 924), taken from the lift
    # that listed its subsets as a list of tuples
    ("path", 3, 2, 14): (30030, "7fbe7c8a76b943be60bee450df1e021cae1fdbfc93d25351eb7ea993ab18e135"),
    ("cycle", 3, 3, 12): (110880, "922c3b0d1e9f2f74959ecbeac71cecd28f005261aee790a5c637644011b38c3d"),
    # spanning tables, taken from the enumerator that grew partial copies
    # edge by edge, which extending the shorter path's copies replaced
    ("cycle", 3, 3, 6): (120, "343c2af5ea5bc8f1815d8555f72a395183955811b58e19dd426b2936b995321a"),
    ("path", 3, 3, 7): (630, "cd791ee81971094fd5680cd5a92790550bb8302a2722468a154c26bf3a5a0261"),
    ("cycle", 3, 5, 10): (362880, "23632a4fb768045153a47d8b1dc10e60f139e50b477e21df8f2a9e11115b9d0b"),
}

# (N, k) -> (sha256 of lo bytes, sha256 of hi bytes) of coloring.swap_pairs,
# as produced by the per-cell rank build the level recursion replaced: the
# witness hosts of the benchmark plus K^6_30, whose ranks need uint32
SWAP_PAIRS_SHA256 = {
    (20, 5): ("de4cbb25b61ab473e43fc3a7c6e7108dd59156dabdf18fb5abc2368c3189eacc",
              "e3bf69f55b83a2d676d679fad22e007a90bb68c2b14b8ff0eb2c5e00c08b7f6f"),
    (21, 5): ("2c1db2d1fcbe97a3862284825f879144882e47f5f522b803834f5e331b8b33da",
              "12f5cb15037dcad5e0d1127dfc29953a9bb2f33833cedd64aa22015b4637040e"),
    (24, 5): ("dc21d4ae5c882793e9f7bf9aa118cf3c05df2459602e40b7f90e6835fb734f90",
              "a5a059e32cf8c900e44d30912a2c56de572a934c2fdd16918291e82c5d3a3a38"),
    (20, 6): ("fe052b4a0466c6595ada618f3a2612c1b919cc1b60a4e0e474c8df440d08b781",
              "0ce8ca852585d3ce5832bc29321048ee01f88c7754c18823f5eb6a24231e603d"),
    (30, 6): ("6f76ebf0e839d16c975de0e12428b5258b7cf3c3c85b4c798b99183af7f822b5",
              "8d66ae17207a1e562ba287073b41d9f2fe64a403bc55e003b1f0dd42aff239fa"),
}

# complete-enumeration arrowing verdicts at k=3:
# (N, red, blue) -> True iff every coloring has a red copy or blue copy
ARROWING = {
    (5, "P2", "P2"): True,
    (5, "P2", "P3"): False,
    (5, "P2", "C3"): False,
    (5, "P3", "P2"): False,
    (5, "P3", "P3"): False,
    (5, "P3", "C3"): False,
    (5, "C3", "P2"): False,
    (5, "C3", "P3"): False,
    (5, "C3", "C3"): False,
    (6, "P2", "P2"): True,
    (6, "P2", "P3"): False,
    (6, "P2", "C3"): True,
    (6, "P3", "P2"): False,
    (6, "P3", "P3"): False,
    (6, "P3", "C3"): False,
    (6, "C3", "P2"): True,
    (6, "C3", "P3"): False,
    (6, "C3", "C3"): False,
}

# exact Ramsey values at k=3 established by the engine in-suite
EXACT_VALUES = {
    ("cycle", 3, "cycle", 3): 7,   # 3k-2
    ("path", 3, "path", 3): 8,     # 3k-1
    ("cycle", 4, "cycle", 3): 9,   # 4k-3
}


def pp_value(k: int, n: int, m: int) -> int:
    """R for red loose path n vs blue loose path m, n >= m >= 3."""
    return (k - 1) * n + (m + 1) // 2


def pc_value(k: int, n: int, m: int) -> int:
    """R for red loose path n vs blue loose cycle m; equals the path-path value."""
    return (k - 1) * n + (m + 1) // 2


def cc_value(k: int, n: int, m: int) -> int:
    """R for red loose cycle n vs blue loose cycle m, n >= m >= 3."""
    return (k - 1) * n + (m - 1) // 2
