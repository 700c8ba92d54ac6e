"""Loose path and cycle templates over 1-based vertex labels.

A k-uniform loose path with n edges spans n*(k-1) + 1 vertices; consecutive
edges share exactly one vertex and non-consecutive edges are disjoint.  The
loose cycle with n edges (n >= 3) closes up on n*(k-1) vertices.  Edge i of
either template is {1, ..., k} shifted by (i-1)*(k-1), reduced into the label
range for cycles.  All vertex labels are 1-based everywhere in this library.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple

Edge = Tuple[int, ...]

PATH = "path"
CYCLE = "cycle"


def as_edge(vertices: Iterable[int], k: int | None = None,
            n_vertices: int | None = None) -> Edge:
    """Normalize an iterable of labels to a sorted edge tuple, validating it."""
    e = tuple(sorted(int(v) for v in vertices))
    if len(set(e)) != len(e):
        raise ValueError(f"edge has repeated vertices: {e}")
    if k is not None and len(e) != k:
        raise ValueError(f"edge {e} has {len(e)} vertices, expected k={k}")
    if e and e[0] < 1:
        raise ValueError(f"vertex labels are 1-based, got {e[0]}")
    if n_vertices is not None and e and e[-1] > n_vertices:
        raise ValueError(f"vertex {e[-1]} out of range 1..{n_vertices}")
    return e


@dataclass(frozen=True)
class LooseTemplate:
    """A k-uniform loose path (kind="path") or loose cycle (kind="cycle").

    n is the number of edges.  Paths allow n >= 1, cycles n >= 3; k >= 3
    throughout (k = 2 would collapse connectors and interiors).
    """

    kind: str
    k: int
    n: int

    def __post_init__(self):
        if self.kind not in (PATH, CYCLE):
            raise ValueError(f"invalid-parameter: kind must be 'path' or 'cycle', "
                             f"got {self.kind!r}")
        if self.k < 3:
            raise ValueError(f"invalid-parameter: k must be >= 3, got {self.k}")
        if self.kind == PATH and self.n < 1:
            raise ValueError(f"invalid-parameter: path needs n >= 1 edges, got {self.n}")
        if self.kind == CYCLE and self.n < 3:
            raise ValueError(f"invalid-parameter: cycle needs n >= 3 edges, got {self.n}")

    @property
    def n_vertices(self) -> int:
        if self.kind == PATH:
            return self.n * (self.k - 1) + 1
        return self.n * (self.k - 1)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return _template_edges(self.kind, self.k, self.n)

    def __str__(self) -> str:
        return f"{self.kind}:{self.n} (k={self.k})"


def path_template(k: int, n: int) -> LooseTemplate:
    """The loose path P^k_n on n(k-1)+1 vertices."""
    return LooseTemplate(PATH, k, n)


def cycle_template(k: int, n: int) -> LooseTemplate:
    """The loose cycle C^k_n on n(k-1) vertices; needs n >= 3."""
    return LooseTemplate(CYCLE, k, n)


def cycle_value(k: int, n: int, m: int) -> int:
    """The paper's R(C^k_n, C^k_m) = (k-1)n + floor((m-1)/2)."""
    return (k - 1) * n + (m - 1) // 2


def path_value(k: int, n: int, m: int) -> int:
    """The paper's R(P^k_n, P^k_m) = R(P^k_n, C^k_m) = (k-1)n + floor((m+1)/2)."""
    return (k - 1) * n + (m + 1) // 2


@lru_cache(maxsize=None)
def _template_edges(kind: str, k: int, n: int) -> tuple[Edge, ...]:
    edges = []
    for i in range(1, n + 1):
        raw = [(i - 1) * (k - 1) + j for j in range(1, k + 1)]
        if kind == CYCLE:
            m = n * (k - 1)
            raw = [(x - 1) % m + 1 for x in raw]
        edges.append(tuple(sorted(raw)))
    return tuple(edges)


def is_loose_sequence(edges: list[Edge], kind: str) -> bool:
    """Check the pairwise intersection pattern of an edge sequence.

    Consecutive edges (cyclically for kind="cycle") must share exactly one
    vertex; all other pairs must be disjoint.  Single-edge paths are valid.
    The three shared vertices of a 3-cycle must differ: three edges through
    one common vertex pass the pairwise test but are not a cycle.
    """
    n = len(edges)
    if n == 0 or (kind == CYCLE and n < 3):
        return False
    sets = [frozenset(e) for e in edges]
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (kind == CYCLE and i == 0 and j == n - 1)
            want = 1 if adjacent else 0
            if len(sets[i] & sets[j]) != want:
                return False
    return not (n == 3 and kind == CYCLE and sets[0] & sets[1] & sets[2])


def atomic_write(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 through a fresh temp file beside it;
    the library's one writer.

    The whole text is encoded before any path is touched, so a text that
    cannot be encoded raises and creates nothing.  The bytes go to the
    temp file with `os.write`, looping on short writes, and the temp file
    then takes `path`'s place.  The old file is moved aside just before
    that and unlinked after, so for a moment a concurrent reader finds no
    file at `path`, never part of one; a process killed in that moment
    leaves the old content in `<path>.<hex>.tmp.old`.  On any error the
    temp file is deleted and the old file is left as it was.  A rewritten
    file is a new inode owned by the writing user; it keeps the old file's
    permission bits.  A symlink is followed and its target written.  A
    path that exists and is not a regular file (a device, a FIFO), or is a
    regular file with more than one hard link, is opened and written as it
    is, so every link reads the new content; such a write is not atomic.
    Nothing is fsynced: after a crash in the first seconds after a write,
    the new file can be empty.
    """
    data = text.encode("utf-8")
    path = os.fspath(path)
    try:
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            path = os.path.realpath(path)
            st = os.stat(path)
    except FileNotFoundError:
        st = None
    tmp = aside = None
    if st is not None and (not stat.S_ISREG(st.st_mode) or st.st_nlink > 1):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    else:
        head, tail = os.path.split(path)
        while True:
            tmp = os.path.join(head, f"{tail}.{os.urandom(4).hex()}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
    try:
        try:
            if tmp is not None and st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        if tmp is not None:
            # Move the old file to a free name and unlink it instead of
            # renaming over it: ext4 (auto_da_alloc) forces writeback of a
            # file renamed over an existing one, about 0.3 ms per write,
            # and a rename onto a free name or an unlink does not.  The old
            # file is put back if the new one cannot be moved into place.
            aside = tmp + ".old"
            try:
                os.rename(path, aside)
            except FileNotFoundError:
                aside = None
            try:
                os.replace(tmp, path)
            except BaseException:
                if aside is not None:
                    os.rename(aside, path)
                raise
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise
    if aside is not None:
        os.unlink(aside)


def read_json(path):
    """The JSON document in the file at `path`, read as bytes and decoded
    as strict UTF-8.  Line ends are translated as a text-mode read would
    (CR LF and a lone CR become LF), so a file is accepted or refused, and
    an error reads, exactly as with `json.load(open(path))` in a UTF-8
    locale."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)
