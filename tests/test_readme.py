"""The README's Quick start commands run as written and exit 0, and its
Library layout table names only what its modules hold.

The commands run in a temporary working directory, so `data/synth` and
`gallery.bin` land there; the dataset is cut to 3 subjects at 8x6.
"""

import builtins
import dataclasses
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

from dtpca import cli

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--subjects", "3", "--width", "8", "--height", "6"]


def quick_start_commands():
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    commands = []
    for block in section.split("```")[1::2]:
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip():
                commands.append(shlex.split(line))
    return commands


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = quick_start_commands()
    assert [argv[:2] for argv in commands] == [
        ["python", "scripts/make_synthetic_dataset.py"],
        ["dtpca", "train"],
        ["dtpca", "recognize"],
        ["dtpca", "evaluate"],
        ["dtpca", "evaluate"],
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "python":
            proc = subprocess.run(
                [sys.executable, str(ROOT / argv[1]), *argv[2:], *TINY],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        else:
            rc = cli.main(argv[1:])
            assert rc == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "gallery.bin").is_file()


def layout_rows():
    """(module name, backticked identifiers) per Library layout row."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    for line in section.splitlines():
        row = re.fullmatch(r"\| `(dtpca\.\w+)` \|(.*)\|", line)
        if row:
            yield row[1], re.findall(r"`([A-Za-z_][\w.]*)`", row[2])


def names_in(module, name):
    """name is an attribute path of module, a field of one of its
    dataclasses, a builtin, or the package itself."""
    if name == "dtpca" or hasattr(builtins, name):
        return True
    fields = {
        f.name
        for v in vars(module).values()
        if isinstance(v, type) and dataclasses.is_dataclass(v)
        for f in dataclasses.fields(v)
    }
    obj = module
    for part in name.split("."):
        if not hasattr(obj, part):
            return name in fields
        obj = getattr(obj, part)
    return True


def test_readme_layout_names_exist():
    rows = list(layout_rows())
    assert len(rows) == 7
    missing = [
        (module, name)
        for module, names in rows
        for name in names
        if not names_in(importlib.import_module(module), name)
    ]
    assert missing == []
