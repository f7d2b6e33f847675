"""DESIGN.md §6's file map names only files that exist, and every package."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


def file_map():
    """``{directory: [file, ...]}`` read from the §6 code block.

    A line that starts with ``name/`` opens a directory: at column 0
    relative to the repo root, indented relative to the last column-0
    directory. Other lines continue the previous directory's files.
    Text after ``#`` is a note.
    """
    with open(os.path.join(ROOT, "DESIGN.md")) as fh:
        section = fh.read().split("## 6. Module/file map", 1)[1]
    block = section.split("```", 2)[1]
    entries = {}
    top = current = None
    for raw in block.splitlines()[1:]:
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].endswith("/"):
            name = tokens.pop(0)
            if line[0] != " ":
                top = current = name
            else:
                current = top + name
            entries.setdefault(current, [])
        entries[current] += tokens
    return entries


def test_every_named_file_exists():
    entries = file_map()
    assert "src/repro/" in entries
    missing = [
        d + f
        for d, files in entries.items()
        for f in [""] + files
        if not os.path.exists(os.path.join(ROOT, d, f))
    ]
    assert missing == []


def test_every_package_is_listed():
    packages = {
        f"src/repro/{name}/"
        for name in os.listdir(SRC)
        if os.path.isfile(os.path.join(SRC, name, "__init__.py"))
    }
    assert len(packages) > 10
    assert sorted(packages - set(file_map())) == []
