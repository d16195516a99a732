"""Structure rules of the package source, checked on its syntax tree."""
import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "qincoh"


def _private_imports(path: Path) -> list[str]:
    """``from .module import _name`` (or ``from qincoh.module import _name``)
    lines of a file; dunder names such as ``__version__`` are not private."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "qincoh"
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if internal and alias.name.startswith("_") and not dunder:
                source = "." * node.level + (node.module or "")
                found.append(f"{path.name}:{node.lineno}: {source} import {alias.name}")
    return found


def test_no_private_helper_is_imported_across_modules():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [line for path in sources for line in _private_imports(path)]
    assert found == []


def test_private_import_detector_sees_relative_and_absolute_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .liouville import _fix_phases, eig_hermitian\n"
        "from qincoh.spectral import _SIDON_LEVELS\n"
        "from . import __version__, cli\n"
        "from numpy import _globals\n"
    )
    assert [line.split(": ", 1)[1] for line in _private_imports(probe)] == [
        ".liouville import _fix_phases",
        "qincoh.spectral import _SIDON_LEVELS",
    ]
