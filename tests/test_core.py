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

import frozen_values as F
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

def _fds() -> list:
    return sorted(os.listdir("/proc/self/fd"))


def test_atomic_write_creates_and_replaces(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write(p, "first\n")
    atomic_write(str(p), "second\n")
    assert p.read_bytes() == b"second\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]
    # the file gets the mode a plain open() would give it, not mkstemp's 0600
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert p.stat().st_mode == plain.stat().st_mode
    # a rewrite keeps the permission bits the old file had
    p.chmod(0o600)
    atomic_write(p, "third\n")
    assert p.read_text() == "third\n" and p.stat().st_mode & 0o777 == 0o600
    # the text lands as UTF-8 bytes, with no newline translation
    atomic_write(p, "\u00e9\r\n\U0001d4d2")
    assert p.read_bytes() == "\u00e9\r\n\U0001d4d2".encode("utf-8")


def test_atomic_write_error_keeps_the_old_file(tmp_path, monkeypatch):
    p = tmp_path / "out.txt"
    p.write_text("old\n")
    real_write = os.write
    calls = []

    def half_then_fail(fd, data):
        # one partial write lands, the next one fails
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, bytes(data[:2]))
        raise OSError("disk full")

    monkeypatch.setattr(core.os, "write", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(p, "new content\n")
    monkeypatch.undo()
    assert calls == [12, 10]
    assert p.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]

    def no_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(core.os, "replace", no_replace)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(p, "new\n")
    assert p.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]
    # a first write fails the same way and leaves nothing behind
    fresh = tmp_path / "fresh.txt"
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(fresh, "new\n")
    assert [f.name for f in tmp_path.iterdir()] == [p.name]


def test_atomic_write_refuses_an_unencodable_text_before_any_path(tmp_path,
                                                                   monkeypatch):
    p = tmp_path / "out.txt"
    p.write_text("old\n")

    def no_open(*args):
        raise AssertionError("a path was opened")

    monkeypatch.setattr(core.os, "open", no_open)
    monkeypatch.setattr(core.os, "lstat", no_open)
    for target in (p, tmp_path / "fresh.txt"):
        with pytest.raises(UnicodeEncodeError):
            atomic_write(target, "ok \ud800 lone surrogate")
    assert p.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]


def test_atomic_write_loops_on_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    sizes = []

    def three_bytes_at_most(fd, data):
        sizes.append(len(data))
        return real_write(fd, bytes(data[:3]))

    monkeypatch.setattr(core.os, "write", three_bytes_at_most)
    text = "0123456789\u00e9\n"
    p = tmp_path / "out.txt"
    p.write_text("old\n")
    first = tmp_path / "first.txt"
    os.link(p, first)  # written in place, through the same loop
    for target in (tmp_path / "fresh.txt", p):
        atomic_write(target, text)
        assert target.read_bytes() == text.encode("utf-8")
    assert first.read_bytes() == text.encode("utf-8")
    assert sizes == [13, 10, 7, 4, 1] * 2
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "first.txt", "fresh.txt", "out.txt"]


def test_atomic_write_leaves_no_fd_open(tmp_path, monkeypatch):
    before = _fds()
    p = tmp_path / "out.txt"
    atomic_write(p, "a\n")             # a new file
    atomic_write(p, "b\n")             # a rewrite

    def fail(*args):
        raise OSError("refused")

    for name in ("write", "replace"):
        with monkeypatch.context() as m:
            m.setattr(core.os, name, fail)
            for target in (p, tmp_path / "fresh.txt"):
                with pytest.raises(OSError, match="refused"):
                    atomic_write(target, "c\n")
    os.link(p, tmp_path / "second.txt")
    atomic_write(p, "d\n")             # in place, through a hard link
    with monkeypatch.context() as m:
        m.setattr(core.os, "write", fail)
        with pytest.raises(OSError, match="refused"):
            atomic_write(p, "e\n")
    atomic_write(os.devnull, "f\n")    # not a regular file
    with pytest.raises(IsADirectoryError):
        atomic_write(tmp_path, "g\n")
    assert _fds() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.txt", "second.txt"]


def test_atomic_write_follows_symlinks(tmp_path):
    # a symlink keeps pointing at its target, which gets the new content
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    atomic_write(link, "new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to("made.txt")
    atomic_write(dangling, "made\n")
    assert dangling.is_symlink() and (tmp_path / "made.txt").read_text() == "made\n"
    # a directory is not a file to write; nothing is left behind
    with pytest.raises(IsADirectoryError):
        atomic_write(tmp_path, "x")
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "dangling.txt", "link.txt", "made.txt", "target.txt"]


def test_atomic_write_keeps_hard_links(tmp_path):
    # a file with a second name is written in place, so both names read
    # the new content
    first = tmp_path / "first.txt"
    first.write_text("x\n")
    second = tmp_path / "second.txt"
    os.link(first, second)
    atomic_write(first, "y\n")
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
    os.open, os.write, shutil copies and moves, open/fdopen/Path.open in a
    write mode or a mode that is not a string literal, np.save/savez/savetxt
    and ndarray.tofile.  `atomic_write` takes only text, so an array saver
    is always a write of its own."""
    tree = ast.parse(source)
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == writer:
            return
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).replace("numpy.", "np.", 1)
            attr = name.rsplit(".", 1)[-1]
            if name in ("json.dump", "os.open", "os.write") or name in _COPIERS \
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
        "os.write(fd, data)",
        "np.save(fname, arr)",
        "numpy.savez(p, a=arr)",
        "np.savetxt(fname=p, X=arr)",
        "arr.tofile(p)",
        "shutil.copyfile(a, b)",
        "shutil.move(a, b)",
        "open(p)", "open(p, 'rb')", "path.open()", "json.dumps(obj)",
        "np.load(p)", "cert.save(p)", "os.read(fd, n)",
        "atomic_write(p, text)",
        "def atomic_write(path, text):",
        "    fd = os.open(path, 1)",
        "    os.write(fd, text.encode())",
    ])
    direct = list(range(1, 16))
    assert _file_writes(src) == direct + [25, 26]
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


def test_paper_values_match_the_frozen_formulas():
    for k, n, m in itertools.product(range(3, 8), range(1, 12), range(1, 12)):
        assert core.cycle_value(k, n, m) == F.cc_value(k, n, m)
        assert core.path_value(k, n, m) == F.pp_value(k, n, m) == F.pc_value(k, n, m)


@pytest.mark.parametrize("args", [("star", 3, 2), (PATH, 2, 2), (PATH, 3, 0),
                                  (CYCLE, 3, 2)])
def test_template_refusals_name_an_invalid_parameter(args):
    with pytest.raises(ValueError, match="^invalid-parameter: "):
        LooseTemplate(*args)


_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    # README's "Library quick start" block runs as written, and a line
    # whose comment starts with a literal (`# 7`, `# 'UNSAT': ...`) gives
    # that value
    text = (_ROOT / "README.md").read_text()
    section = text.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines, scope, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, scope)
            continue
        value = eval(code, scope)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        head = comment.strip().split(":")[0].split(" ")[0]
        try:
            want = ast.literal_eval(head)
        except (ValueError, SyntaxError):
            continue
        assert value == want, code
        checked += 1
    assert checked >= 3


def test_sources_parse_under_the_python_floor():
    # pyproject.toml and README declare Python >= 3.10; this checks the
    # grammar of every library file against 3.10, not the stdlib APIs it
    # calls, so a function added to the stdlib after 3.10 still passes
    floor = (3, 10)
    assert 'requires-python = ">=3.10"' in (_ROOT / "pyproject.toml").read_text()
    with pytest.raises(SyntaxError):  # the check sees a 3.11 construct
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=floor)
    files = sorted((_ROOT / "src" / "ramsey_lab").glob("*.py"))
    assert len(files) >= 10
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
