"""Release-hygiene checks: docs, exports and artifacts stay coherent.

These meta-tests fail when documentation drifts from the code: a README
that names a missing example, an EXPERIMENTS.md number that its results
file does not print, a results file that no ``repro`` study writes, a
package whose ``__all__`` advertises something it doesn't define, or a
module that no ``repro`` verb, perfbench workload or oracle imports.
"""

import ast
import importlib
import os
import re

import pytest

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

PACKAGES = [
    "repro",
    "repro.bench",
    "repro.cells",
    "repro.dft",
    "repro.experiments",
    "repro.fault",
    "repro.netlist",
    "repro.power",
    "repro.spice",
    "repro.synth",
    "repro.testapp",
    "repro.timing",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_is_honest(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}: __all__ advertises {missing}"
    assert module.__doc__, f"{name}: missing module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_symbols_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for symbol in module.__all__:
        obj = getattr(module, symbol)
        if callable(obj) and getattr(obj, "__doc__", None) is None:
            undocumented.append(symbol)
    assert not undocumented, f"{name}: no docstring on {undocumented}"


SRC = os.path.join(REPO, "src")


def _module_path(name):
    """File of module ``name``, its ``__init__.py`` if a package, or None."""
    base = os.path.join(SRC, *name.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.exists(path):
            return path
    return None


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _resolve(module, path, node):
    """Absolute module named by a ``from`` import inside ``module``."""
    if not node.level:
        return node.module
    parts = module.split(".")
    if not path.endswith("__init__.py"):
        parts.pop()
    base = ".".join(parts[:len(parts) - node.level + 1])
    return f"{base}.{node.module}" if node.module else base


def _source(package, name):
    """Module that ``from package import name`` uses: the submodule
    ``name``, or the module the package ``__init__`` re-exports it from."""
    if _module_path(f"{package}.{name}"):
        return f"{package}.{name}"
    init = _module_path(package)
    if init and init.endswith("__init__.py"):
        for node in _parse(init).body:
            if isinstance(node, ast.ImportFrom) and any(
                    (a.asname or a.name) == name for a in node.names):
                return _source(_resolve(package, init, node), name)
    return package


def _reached_by(module, path):
    """``repro`` modules imported anywhere in the file at ``path``."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names
                        if a.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom):
            target = _resolve(module, path, node)
            if target.split(".")[0] == "repro":
                yield from (_source(target, a.name) for a in node.names)


def test_every_module_is_reached():
    """Every module is reached from a ``repro`` verb, a perfbench
    workload or the reference oracle; package re-exports do not count."""
    todo = ["repro.__main__", "repro.perf.reference"]
    bench_dir = os.path.join(REPO, "perfbench")
    for fname in os.listdir(bench_dir):
        if fname.endswith(".py"):
            path = os.path.join(bench_dir, fname)
            todo.extend(_reached_by("perfbench", path))
    reached = set()
    while todo:
        module = todo.pop()
        path = _module_path(module)
        if module in reached or path is None:
            continue
        reached.add(module)
        if not path.endswith("__init__.py"):
            todo.extend(_reached_by(module, path))
    modules = {
        os.path.relpath(os.path.join(root, f), SRC)[:-3].replace(os.sep, ".")
        for root, _, files in os.walk(os.path.join(SRC, "repro"))
        for f in files if f.endswith(".py") and f != "__init__.py"
    }
    unreached = sorted(modules - reached)
    assert not unreached, f"no verb, workload or oracle imports {unreached}"


def _read(relpath):
    with open(os.path.join(REPO, relpath), encoding="utf-8") as handle:
        return handle.read()


def test_required_documents_exist():
    for relpath in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "LICENSE", "docs/tutorial.md", "pyproject.toml"):
        assert os.path.exists(os.path.join(REPO, relpath)), relpath


def test_readme_examples_exist():
    readme = _read("README.md")
    for match in re.findall(r"`examples/([\w.]+\.py)`", readme):
        assert os.path.exists(
            os.path.join(REPO, "examples", match)
        ), f"README references missing example {match}"


RESULTS = os.path.join(REPO, "benchmarks", "results")


def test_results_files_are_the_studies():
    """One committed results file per ``repro`` study, and no other."""
    from repro.__main__ import EXPERIMENTS

    stems = {f[:-4] for f in os.listdir(RESULTS) if f.endswith(".txt")}
    assert stems == set(EXPERIMENTS)


#: A number standing alone: not part of a name such as ``s5378``.
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?!\w)")


def test_experiments_doc_bold_numbers_are_printed():
    """Every bold number in an EXPERIMENTS.md section appears in the
    results file that the section names."""
    doc = _read("EXPERIMENTS.md")
    for section in re.split(r"^## ", doc, flags=re.M)[1:]:
        title = section.splitlines()[0]
        names = set(re.findall(r"results/(\w+)\.txt", section))
        printed = set()
        for name in names:
            path = os.path.join(RESULTS, f"{name}.txt")
            assert os.path.exists(path), f"{title}: no results/{name}.txt"
            printed.update(NUMBER.findall(_read(path)))
        files = ", ".join(f"results/{n}.txt" for n in sorted(names))
        for bold in re.findall(r"\*\*(.+?)\*\*", section):
            for number in NUMBER.findall(bold):
                assert number in printed, (
                    f"EXPERIMENTS.md {title!r}: **{bold}** is not in "
                    f"{files or 'any results file'}"
                )


def test_examples_have_docstrings_and_mains():
    example_dir = os.path.join(REPO, "examples")
    count = 0
    for fname in sorted(os.listdir(example_dir)):
        if not fname.endswith(".py"):
            continue
        text = _read(os.path.join("examples", fname))
        assert text.lstrip().startswith('"""'), f"{fname}: no docstring"
        assert '__main__' in text, f"{fname}: not runnable"
        count += 1
    assert count >= 3, "the project promises at least three examples"


def test_design_doc_covers_every_table_and_figure():
    design = _read("DESIGN.md")
    for artifact in ("Table I", "Table II", "Table III", "Table IV",
                     "Fig. 2", "Fig. 4", "Fig. 5"):
        assert artifact in design, f"DESIGN.md misses {artifact}"


def test_version_consistent():
    import repro

    pyproject = _read("pyproject.toml")
    assert f'version = "{repro.__version__}"' in pyproject
