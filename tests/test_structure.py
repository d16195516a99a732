"""Structure rules of the package source, checked on its syntax tree."""
import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "qincoh"
PERFBENCH_DIR = ROOT / "perfbench"


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


def _internal_imports(path: Path) -> set[str]:
    """The package modules a file imports by ``from .module import ...`` or
    ``from qincoh.module import ...``, at any depth; ``from . import name``
    names the package itself and is not counted."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        parts = node.module.split(".")
        if node.level == 1:
            found.add(parts[0])
        elif node.level == 0 and parts[0] == "qincoh" and len(parts) > 1:
            found.add(parts[1])
    return found


def _import_graph(package: Path) -> dict[str, set[str]]:
    """Each module of a package but ``__init__`` and the modules it imports."""
    return {p.stem: _internal_imports(p) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}


def _modules_on_or_above_cycles(graph: dict[str, set[str]]) -> list[str]:
    """The modules left once those importing no module left are removed, over
    and over: none exactly when the import graph is acyclic."""
    left = graph
    while done := {m for m, deps in left.items() if not deps & left.keys()}:
        left = {m: deps for m, deps in left.items() if m not in done}
    return sorted(left)


def _type_checking_guards(path: Path) -> list[str]:
    """The ``if TYPE_CHECKING:`` (or ``if typing.TYPE_CHECKING:``) blocks of a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.If):
            continue
        if getattr(node.test, "id", getattr(node.test, "attr", None)) == "TYPE_CHECKING":
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_import_graph_is_acyclic_with_no_type_checking_guard():
    graph = _import_graph(PACKAGE_DIR)
    # spectral reads the sample set from nudft, and never the reverse
    assert "nudft" in graph["spectral"] and "spectral" not in graph["nudft"]
    assert _modules_on_or_above_cycles(graph) == []
    assert [line for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _type_checking_guards(path)] == []


def test_importing_the_package_loads_neither_the_cli_nor_argparse():
    # the command line's parser is built and paid for on the CLI path only,
    # so a library caller that imports qincoh never loads qincoh.cli or argparse
    probe = "import sys, qincoh; print(sorted({'qincoh.cli', 'argparse'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_import_graph_detectors_see_a_guarded_back_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text("from .b import g\nfrom . import __version__\nfrom numpy import linalg\n")
    (tmp_path / "b.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "from .c import k\n"
        "if TYPE_CHECKING:\n"
        "    from .a import f\n"
    )
    (tmp_path / "c.py").write_text(
        "import typing\n"
        "def k():\n"
        "    from qincoh.errors import PairingError\n"
        "if typing.TYPE_CHECKING:\n"
        "    pass\n"
    )
    graph = _import_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a", "c"}, "c": {"errors"}}
    assert _modules_on_or_above_cycles(graph) == ["a", "b"]
    assert _modules_on_or_above_cycles({"a": {"b"}, "b": {"c"}, "c": {"errors"}}) == []
    guards = [line for path in sorted(tmp_path.glob("*.py")) for line in _type_checking_guards(path)]
    assert guards == ["b.py:3", "c.py:4"]


# The Hermiticity and unitarity checks; their tolerance is argument 1 or ``tol``.
_TOLERANCE_CHECKS = {"require_hermitian", "hermitian_part", "require_unitary", "unitary_stack"}


def _literal_tolerances(path: Path) -> list[str]:
    """Calls of a check in ``_TOLERANCE_CHECKS`` whose tolerance is a number
    literal rather than a named constant or a parameter."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in _TOLERANCE_CHECKS:
            continue
        for tol in node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "tol"]:
            if isinstance(tol, ast.Constant) and isinstance(tol.value, (int, float)):
                found.append(f"{path.name}:{node.lineno}: {name} tol={tol.value!r}")
    return found


def _literal_tolerance_defaults(path: Path) -> list[str]:
    """Parameters named ``tol`` or ``*_tol`` whose default is a number
    literal (signed or not) rather than a named constant."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for arg, default in pairs:
            if isinstance(default, ast.UnaryOp) and isinstance(default.op, (ast.USub, ast.UAdd)):
                default = default.operand
            literal = isinstance(default, ast.Constant) and type(default.value) in (int, float)
            if (arg.arg == "tol" or arg.arg.endswith("_tol")) and literal:
                found.append(f"{path.name}:{node.lineno}: {arg.arg}={default.value!r}")
    return found


def test_no_private_helper_is_imported_across_modules():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [line for path in sources for line in _private_imports(path)]
    assert found == []


def test_private_import_detector_sees_relative_and_absolute_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .liouville import _fix_phases, choi_spectrum\n"
        "from qincoh.spectral import _SIDON_LEVELS\n"
        "from . import __version__, cli\n"
        "from numpy import _globals\n"
    )
    assert [line.split(": ", 1)[1] for line in _private_imports(probe)] == [
        ".liouville import _fix_phases",
        "qincoh.spectral import _SIDON_LEVELS",
    ]


def test_every_check_tolerance_is_named():
    found = [line for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _literal_tolerances(path)]
    assert found == []


def test_literal_tolerance_detector_sees_positional_and_keyword_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'require_hermitian(h, 1e-12, "h")\n'
        "validation.require_unitary(u, tol=1e-10)\n"
        'hermitian_part(c, CHOI_HERMITIAN_TOL, "Choi matrix")\n'
        "require_hermitian(m, tol, name)\n"
        'unitary_stack(u, name="u")\n'
    )
    assert [line.split(": ", 1)[1] for line in _literal_tolerances(probe)] == [
        "require_hermitian tol=1e-12",
        "require_unitary tol=1e-10",
    ]


def test_every_tolerance_default_is_named():
    found = [
        line for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _literal_tolerance_defaults(path)
    ]
    assert found == []


def test_literal_tolerance_default_detector_sees_each_parameter_kind(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def a(m, tol=1e-10, name='m'): pass\n"
        "def b(s, *, cp_tol=-1e-9): pass\n"
        "def c(x, atol=1e-8, rtol=1e-5, count=3): pass\n"
        "def d(s, tol=CP_TOL, match_tol=None): pass\n"
        "def e(s, tol): pass\n"
        "f = lambda x, k_tol=0: x\n"
    )
    assert [line.split(": ", 1)[1] for line in _literal_tolerance_defaults(probe)] == [
        "tol=1e-10",
        "cp_tol=1e-09",
        "k_tol=0",
    ]


# Public names that no pipeline calls: the physics definitions that the
# tests compare the pipeline against.
DEFINITIONS = {
    "rud_superoperator",  # sum_k p_k conj(U_k) kron U_k of an explicit ensemble
    "unitary_superoperator",  # conj(U) kron U of one unitary
    "partial_trace_b",  # the environment trace of a joint state
}


def _exported_names(path: Path) -> set[str]:
    """The names that ``from .module import name`` lines of a file bind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _called_names(paths: list[Path]) -> set[str]:
    """The names each file binds at its top level or imports by name, and
    then reads; a local, a dataclass field, an attribute (``report.is_cp``)
    or a string of the same name does not count."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(t.id for t in targets if isinstance(t, ast.Name))
        reads = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found |= bound & reads
    return found


def test_every_export_has_a_caller_in_the_package_or_the_benchmark():
    exported = _exported_names(PACKAGE_DIR / "__init__.py")
    callers = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    called = _called_names(callers + sorted(PERFBENCH_DIR.glob("*.py")))
    assert sorted(exported - called - DEFINITIONS) == []
    # the exceptions stay exported, and each is still called by no pipeline
    assert sorted(DEFINITIONS - exported) == []
    assert sorted(DEFINITIONS & called) == []


def test_caller_detector_counts_reads_of_bound_names_only(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .liouville import choi_spectrum, cp_filter\n"
        "LIMIT = 3\n"
        "def run_it(s):\n"
        "    is_cp = s.is_cp\n"
        "    return cp_filter(s), liouville.superop_to_choi, 'choi_spectrum', is_cp, LIMIT\n"
        "class Report:\n"
        "    is_cp: bool\n"
    )
    assert _exported_names(probe) == {"choi_spectrum", "cp_filter"}
    assert _called_names([probe]) == {"cp_filter", "LIMIT"}


def _four_axis_views(path: Path) -> list[str]:
    """Calls of ``reshape`` or ``transpose`` with four or more axes, given
    as separate arguments or as one tuple or list."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in ("reshape", "transpose"):
            continue
        axes = node.args
        if getattr(getattr(node.func, "value", None), "id", None) in ("np", "numpy"):
            axes = axes[1:]  # np.reshape(a, shape): the array comes first
        if len(axes) == 1 and isinstance(axes[0], (ast.Tuple, ast.List)):
            axes = axes[0].elts
        if len(axes) >= 4:
            found.append(f"{path.name}:{node.lineno}: {name} of {len(axes)} axes")
    return found


# The transpose of a superoperator's (n, n, n, n) view whose conjugate is
# its mirror, x[a,b,c,d] = conj x[b,a,d,c].
MIRROR_AXES = (1, 0, 3, 2)


def _mirror_permutations(path: Path) -> list[str]:
    """The places where a file writes :data:`MIRROR_AXES`: as a tuple or
    list, or as the separate arguments of a call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Tuple, ast.List)):
            items = node.elts
        elif isinstance(node, ast.Call):
            items = node.args
        else:
            continue
        if tuple(getattr(item, "value", None) for item in items) == MIRROR_AXES:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_liouville_alone_views_a_superoperator_in_four_axes_and_writes_the_mirror_once():
    # spectral and validation hold no four-axis view; the mirror's axes are
    # written once, in liouville
    assert [line for name in ("spectral.py", "validation.py")
            for line in _four_axis_views(PACKAGE_DIR / name)] == []
    found = [line for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _mirror_permutations(path)]
    assert len(found) == 1 and found[0].startswith("liouville.py:")


def test_four_axis_and_mirror_detectors_see_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "a = s.reshape(n, n, n, n)\n"
        "b = np.transpose(s, (1, 0, 3, 2))\n"
        "c = x.transpose(1, 0, 3, 2).conj()\n"
        "d = s.reshape(*lead, n, n, n, n)\n"
        "e = s.reshape(n, n, n * n)\n"
        "f = np.reshape(s, [n, -1])\n"
        "AXES = [1, 0, 3, 2]\n"
        "g = x.transpose(0, 2, 1, 3)\n"
    )
    assert sorted(_four_axis_views(probe)) == [
        "probe.py:1: reshape of 4 axes",
        "probe.py:2: transpose of 4 axes",
        "probe.py:3: transpose of 4 axes",
        "probe.py:4: reshape of 5 axes",
        "probe.py:8: transpose of 4 axes",
    ]
    assert sorted(_mirror_permutations(probe)) == ["probe.py:2", "probe.py:3", "probe.py:7"]


def _axis_swap(node: ast.expr | None) -> str | None:
    """``swapaxes`` or ``transpose`` when ``node`` calls one (as a method or
    as ``np.swapaxes``), ``T`` when it reads ``.T``, else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return "T"
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        return name if name in ("swapaxes", "transpose") else None
    return None


def _hand_vectorizations(path: Path) -> list[str]:
    """Calls that vectorize matrices by hand: a ``reshape``, ``flatten`` or
    ``ravel`` with ``order="F"``, and a ``reshape`` (method or
    ``np.reshape``) of a ``swapaxes``, ``transpose`` or ``.T`` result."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in ("reshape", "flatten", "ravel"):
            continue
        if any(kw.arg == "order" and getattr(kw.value, "value", None) == "F" for kw in node.keywords):
            found.append(f"{path.name}:{node.lineno}: {name} in F order")
        array = getattr(node.func, "value", None)
        if getattr(array, "id", None) in ("np", "numpy"):
            array = node.args[0] if node.args else None  # np.reshape(a, shape)
        if name == "reshape" and (swap := _axis_swap(array)):
            found.append(f"{path.name}:{node.lineno}: reshape of {swap}")
    return found


def test_liouville_alone_vectorizes_a_matrix():
    # column stacking is liouville.columnize's; every other module calls it
    found = [
        line for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "liouville.py"
        for line in _hand_vectorizations(path)
    ]
    assert found == []


def test_hand_vectorization_detector_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'a = rho.flatten(order="F")\n'
        'b = np.reshape(v, (n, n), order="F")\n'
        'c = np.ravel(rho, order="F")\n'
        "d = stack.swapaxes(-1, -2).reshape(*lead, -1)\n"
        "e = np.reshape(np.transpose(s, (0, 2, 1)), (k, -1))\n"
        "f = m.conj().T.reshape(-1)\n"
        "g = s.reshape(-1, n, n, n, n).transpose(0, 4, 2, 3, 1)\n"
        'h = rho.flatten(order="C")\n'
        "i = np.ascontiguousarray(columnize(x).swapaxes(-1, -2))\n"
    )
    assert _hand_vectorizations(probe) == [
        "probe.py:1: flatten in F order",
        "probe.py:2: reshape in F order",
        "probe.py:3: ravel in F order",
        "probe.py:4: reshape of swapaxes",
        "probe.py:5: reshape of transpose",
        "probe.py:6: reshape of T",
    ]


def _outer_products(path: Path) -> list[str]:
    """Calls of ``multiply.outer`` (``np.multiply.outer`` or a bare
    ``multiply.outer``), the profile sum's kernel."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call) or getattr(node.func, "attr", None) != "outer":
            continue
        ufunc = node.func.value
        if getattr(ufunc, "attr", getattr(ufunc, "id", None)) == "multiply":
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_profile_sum_is_written_once_in_nudft():
    # the characteristic function sum_x p_x exp(-i k x) has one owner,
    # nudft.forward_nudft, which spectral's prediction calls
    found = [line for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _outer_products(path)]
    assert len(found) == 1 and found[0].startswith("nudft.py:")


def test_outer_product_detector_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "a = np.exp(-1j * np.multiply.outer(k_jm, profile.delta_omega)) @ profile.weight\n"
        "b = numpy.multiply.outer(x, y)\n"
        "c = multiply.outer(x, y)\n"
        "d = np.outer(x, y)\n"
        "e = np.add.outer(x, y)\n"
        "f = np.multiply(x, y)\n"
    )
    assert sorted(_outer_products(probe)) == ["probe.py:1", "probe.py:2", "probe.py:3"]


def _named_defaults(path: Path) -> list[str]:
    """Parameters named ``name`` that have a default: a refusal that falls
    back on it names no argument of the caller."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        with_default = positional[len(positional) - len(args.defaults):]
        with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [f"{path.name}:{node.lineno}: {a.arg}" for a in with_default if a.arg == "name"]
    return found


def test_every_refusal_name_is_passed_by_the_caller():
    found = [line for path in sorted(PACKAGE_DIR.glob("*.py")) for line in _named_defaults(path)]
    assert found == []


def test_name_default_detector_sees_each_parameter_kind(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'def a(m, name="matrix"): pass\n'
        'def b(m, tol, *, name="superoperator"): pass\n'
        "def c(m, name): pass\n"
        'def d(m, *, name, label="x"): pass\n'
        'f = lambda m, name="m": m\n'
    )
    assert [line.split(": ", 1)[1] for line in _named_defaults(probe)] == ["name", "name", "name"]
    assert [line.split(":")[1] for line in _named_defaults(probe)] == ["1", "2", "5"]


def _readme_references(text: str, modules: set[str]) -> list[tuple[str, str]]:
    """The backticked ``<module>.<name>`` and ``<module>.<name>.<attr>``
    spans of a markdown text, optionally prefixed ``qincoh.``, whose module
    is one of ``modules``, as (module, dotted path) pairs; a file name such
    as ``nudft.py`` is none, and fenced code blocks are skipped."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    reference = re.compile(rf"(?:qincoh\.)?({'|'.join(sorted(modules))})\.(\w+(?:\.\w+)?)")
    found = []
    for span in re.findall(r"`([^`]+)`", text):
        if (match := reference.fullmatch(span)) and match[2] != "py":
            found.append((match[1], match[2]))
    return found


def _unresolved(references: list[tuple[str, str]]) -> list[str]:
    """The references that ``getattr`` on their ``qincoh`` module does not resolve."""
    found = []
    for module, path in references:
        try:
            functools.reduce(getattr, path.split("."), importlib.import_module(f"qincoh.{module}"))
        except AttributeError:
            found.append(f"{module}.{path}")
    return found


def test_every_module_reference_in_the_readme_resolves():
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"}
    references = _readme_references((ROOT / "README.md").read_text(), modules)
    assert references
    assert _unresolved(references) == []


def test_readme_reference_detector_sees_each_form():
    text = (
        "| `qincoh.nudft` | `nudft.SpectralSampleSet` and `qincoh.spectral.build_samples`, "
        "`nudft.RecoveryGrid.powers`, `nudft.py`, `np.add.reduceat`, `nudft.forward_nudft(profile, ks)`\n"
        "gone: `nudft.SpectralSampleSet.from_raw`, `validation.matching_arrays`,\n"
        "`qincoh.nudft.K_DEDUP_TOL`, `nudft.SpectralSampleSet.k.size`\n"
        "```python\nx = `nudft.gone`\n```\n"
    )
    references = _readme_references(text, {"nudft", "spectral", "validation"})
    assert references == [
        ("nudft", "SpectralSampleSet"),
        ("spectral", "build_samples"),
        ("nudft", "RecoveryGrid.powers"),
        ("nudft", "SpectralSampleSet.from_raw"),
        ("validation", "matching_arrays"),
        ("nudft", "K_DEDUP_TOL"),
    ]
    assert _unresolved(references) == ["nudft.SpectralSampleSet.from_raw", "validation.matching_arrays"]


def test_every_benchmark_record_names_its_machine_and_holds_a_correct_run_per_workload():
    # a BENCH_<commit>.json at the root holds one `perfbench/run.py --workload
    # all` run: its machine context and one result line per workload
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    workloads = sorted(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    for path in records:
        record = json.loads(path.read_text())
        context, results = record["context"], record["results"]
        assert {"nproc", "blas", "commit"} <= context.keys(), path.name
        assert path.stem == f"BENCH_{context['commit'][:7]}"
        assert sorted(r["workload"] for r in results) == workloads
        assert len(results) == 3 and all(r["correct"] is True for r in results), path.name
