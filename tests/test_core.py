"""Template construction laws, loose-sequence recognition, and the one file
writer."""

import ast
import itertools
import os
import pathlib

import pytest

import ramsey_lab
from ramsey_lab import core
from ramsey_lab.core import (
    CYCLE,
    PATH,
    LooseTemplate,
    as_edge,
    atomic_write,
    cycle_template,
    is_loose_sequence,
    path_template,
)

import oracles as O


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("n", range(1, 9))
def test_path_template_laws(k, n):
    t = path_template(k, n)
    assert t.kind == PATH and t.k == k and t.n == n
    assert t.n_vertices == n * (k - 1) + 1
    edges = t.edges
    assert len(edges) == n
    assert all(len(e) == k for e in edges)
    for i, j in itertools.combinations(range(n), 2):
        shared = set(edges[i]) & set(edges[j])
        assert len(shared) == (1 if j == i + 1 else 0)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_template_laws(k, n):
    t = cycle_template(k, n)
    assert t.kind == CYCLE and t.n_vertices == n * (k - 1)
    edges = t.edges
    assert len(edges) == n
    for i, j in itertools.combinations(range(n), 2):
        shared = set(edges[i]) & set(edges[j])
        adjacent = (j == i + 1) or (i == 0 and j == n - 1)
        assert len(shared) == (1 if adjacent else 0)


@pytest.mark.parametrize("k,n", [(3, 2), (3, 5), (4, 3), (5, 4), (6, 3)])
def test_templates_match_oracle_layout(k, n):
    assert [tuple(e) for e in path_template(k, n).edges] == O.oracle_path_edges(k, n)
    if n >= 3:
        got = [tuple(sorted(e)) for e in cycle_template(k, n).edges]
        want = [tuple(sorted(e)) for e in O.oracle_cycle_edges(k, n)]
        assert got == want


def test_cycle_needs_three_edges():
    with pytest.raises(ValueError):
        cycle_template(3, 2)


def test_as_edge_validates():
    assert as_edge([3, 1, 2], k=3, n_vertices=5) == (1, 2, 3)
    with pytest.raises(ValueError):
        as_edge([1, 1, 2], k=3, n_vertices=5)
    with pytest.raises(ValueError):
        as_edge([1, 2, 9], k=3, n_vertices=5)
    with pytest.raises(ValueError):
        as_edge([1, 2], k=3, n_vertices=5)


def test_is_loose_sequence_accepts_template():
    t = path_template(4, 3)
    assert is_loose_sequence([tuple(e) for e in t.edges], kind=PATH)
    c = cycle_template(4, 4)
    assert is_loose_sequence([tuple(e) for e in c.edges], kind=CYCLE)


def test_is_loose_sequence_rejects_bad_overlap():
    assert not is_loose_sequence([(1, 2, 3), (2, 3, 4)], kind=PATH)
    assert not is_loose_sequence([(1, 2, 3), (4, 5, 6)], kind=PATH)
    # a 3-cycle's shared vertices differ; a sunflower is not a cycle
    assert is_loose_sequence([(1, 2, 3), (3, 4, 5), (5, 6, 1)], kind=CYCLE)
    assert not is_loose_sequence([(1, 2, 3), (1, 4, 5), (1, 6, 7)], kind=CYCLE)


def test_template_equality_and_hash():
    assert path_template(3, 4) == path_template(3, 4)
    assert path_template(3, 4) != cycle_template(3, 4)
    assert len({path_template(3, 4), path_template(3, 4)}) == 1


# ------------------------------------------------------------- file writes

def test_atomic_write_creates_and_replaces(tmp_path):
    p = tmp_path / "out.txt"
    with atomic_write(p) as fh:
        fh.write("first\n")
    with atomic_write(str(p)) as fh:
        fh.write("second\n")
    assert p.read_bytes() == b"second\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]
    # the file gets the mode a plain open() would give it, not mkstemp's 0600
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert p.stat().st_mode == plain.stat().st_mode
    # a rewrite keeps the permission bits the old file had
    p.chmod(0o600)
    with atomic_write(p) as fh:
        fh.write("third\n")
    assert p.read_text() == "third\n" and p.stat().st_mode & 0o777 == 0o600


def test_atomic_write_error_keeps_the_old_file(tmp_path, monkeypatch):
    p = tmp_path / "out.txt"
    p.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(p) as fh:
            fh.write("half")
            raise RuntimeError("disk full")
    assert p.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]

    def no_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(core.os, "replace", no_replace)
    with pytest.raises(OSError, match="rename refused"):
        with atomic_write(p) as fh:
            fh.write("new\n")
    assert p.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]
    # a first write fails the same way and leaves nothing behind
    fresh = tmp_path / "fresh.txt"
    with pytest.raises(OSError, match="rename refused"):
        with atomic_write(fresh) as fh:
            fh.write("new\n")
    assert [f.name for f in tmp_path.iterdir()] == [p.name]


def test_atomic_write_follows_symlinks(tmp_path):
    # a symlink keeps pointing at its target, which gets the new content
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    with atomic_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to("made.txt")
    with atomic_write(dangling) as fh:
        fh.write("made\n")
    assert dangling.is_symlink() and (tmp_path / "made.txt").read_text() == "made\n"
    # a directory is not a file to write; nothing is left behind
    with pytest.raises(IsADirectoryError):
        with atomic_write(tmp_path) as fh:
            fh.write("x")
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "dangling.txt", "link.txt", "made.txt", "target.txt"]


def test_atomic_write_keeps_hard_links(tmp_path):
    # a file with a second name is written in place, so both names read
    # the new content
    first = tmp_path / "first.txt"
    first.write_text("x\n")
    second = tmp_path / "second.txt"
    os.link(first, second)
    with atomic_write(first) as fh:
        fh.write("y\n")
    assert first.read_text() == second.read_text() == "y\n"
    assert os.stat(first).st_ino == os.stat(second).st_ino
    assert sorted(f.name for f in tmp_path.iterdir()) == ["first.txt", "second.txt"]


_OPENERS = {"open": 1, "io.open": 1, "os.fdopen": 1}  # name -> mode position
_ARRAY_SAVERS = {"np.save", "np.savez", "np.savez_compressed", "np.savetxt"}
_COPIERS = {"shutil.copy", "shutil.copy2", "shutil.copyfile", "shutil.copytree",
            "shutil.move"}


def _file_writes(source: str, writer: str = None) -> list:
    """Line numbers of the calls in `source` that write a file other than
    through the function named `writer`: json.dump, write_text/write_bytes,
    os.open, shutil copies and moves, open/fdopen/Path.open in a write mode
    or a mode that is not a string literal, np.save/savez/savetxt and
    ndarray.tofile.  `atomic_write` yields only text handles, so an array
    saver is a write even into one of those."""
    tree = ast.parse(source)
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == writer:
            return
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).replace("numpy.", "np.", 1)
            attr = name.rsplit(".", 1)[-1]
            if name in ("json.dump", "os.open") or name in _COPIERS \
                    or name in _ARRAY_SAVERS \
                    or attr in ("write_text", "write_bytes", "tofile"):
                found.append(node.lineno)
            elif name in _OPENERS or attr == "open":
                pos = _OPENERS.get(name, 0)
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            node.args[pos] if len(node.args) > pos else None)
                if mode is not None and not (
                        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_file_write_scan_finds_writes():
    src = "\n".join([
        "json.dump(obj, fh)",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "os.fdopen(fd, 'r+')",
        "path.open('wb')",
        "open(p, mode)",
        "path.write_text('x')",
        "os.open(p, flags)",
        "np.save(fname, arr)",
        "numpy.savez(p, a=arr)",
        "np.savetxt(fname=p, X=arr)",
        "arr.tofile(p)",
        "shutil.copyfile(a, b)",
        "shutil.move(a, b)",
        "open(p)", "open(p, 'rb')", "path.open()", "json.dumps(obj)",
        "np.load(p)", "cert.save(p)",
        "with atomic_write(p) as fh:",
        "    fh.write(text)",
        "    np.save(fh, arr)",
        "def atomic_write(path):",
        "    with os.fdopen(os.open(path, 1), mode) as fh:",
        "        yield fh",
    ])
    direct = list(range(1, 15)) + [23]
    assert _file_writes(src) == direct + [25, 25]
    assert _file_writes(src, writer="atomic_write") == direct


def test_every_file_write_goes_through_atomic_write():
    # a reader of any file the library writes never sees part of one, so
    # no module opens a file for writing itself
    package = pathlib.Path(ramsey_lab.__file__).parent
    writes = {}
    for path in sorted(package.glob("*.py")):
        writer = "atomic_write" if path.name == "core.py" else None
        lines = _file_writes(path.read_text(), writer)
        if lines:
            writes[path.name] = lines
    assert writes == {}
    assert _file_writes(pathlib.Path(core.__file__).read_text()) != []


# Library definitions that only tests call, kept on purpose: tests build
# their colorings with these constructors many times over, and a copy of
# them under tests/ would not shrink the code.
_TEST_ONLY = {
    "all_red",  # the all-red coloring of K^k_N
    "all_blue",  # the all-blue coloring of K^k_N
    "with_edges",  # a copy of a coloring with listed edges recolored
}


def _references(tree: ast.AST) -> set:
    """Every name read as a bare Name or as an attribute in `tree`."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_library_code_has_callers_outside_tests():
    # every function, class and method of the package is used by the
    # package itself (its re-exports aside) or by the benchmark
    package = pathlib.Path(ramsey_lab.__file__).parent
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
        if path.name != "__init__.py":
            used |= _references(tree)
    for path in sorted(perfbench.glob("*.py")):
        used |= _references(ast.parse(path.read_text()))
    assert {name: where for name, where in defined.items()
            if name not in used and name not in _TEST_ONLY} == {}
    assert _TEST_ONLY <= defined.keys() - used
