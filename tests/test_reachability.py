"""Every library module is reached by code that is not a test.

The guard parses (never imports) every ``.py`` file under ``src/``,
``benchmarks/``, ``examples/`` and ``scripts/``, resolves relative imports
and the names a package ``__init__`` re-exports, and asserts that each
``src/repro`` module other than ``__init__`` and ``__main__`` is imported by
some file other than a package ``__init__``.  A module only tests import is
library surface nothing runs: delete it with its tests instead of keeping it
alive here.
"""

import ast
import os

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")
SCANNED_DIRECTORIES = ("src", "benchmarks", "examples", "scripts")

#: Modules allowed to be unreached, each with its reason.
EXEMPT = {
    # The differential reference of the vectorized replay engine: the replay
    # benchmark imports it only inside the script string it runs in a
    # subprocess.
    "repro.simulator.legacy",
}


def parsed_files():
    for directory in SCANNED_DIRECTORIES:
        for root, _dirs, files in os.walk(os.path.join(REPO_ROOT, directory)):
            for file_name in sorted(files):
                if file_name.endswith(".py"):
                    path = os.path.join(root, file_name)
                    with open(path, encoding="utf-8") as handle:
                        yield path, ast.parse(handle.read(), path)


def module_name(path):
    """Dotted name of a file under ``src/``; ``None`` for any other file."""
    relative = os.path.relpath(path, SOURCE_ROOT)
    if relative.startswith(".."):
        return None
    parts = relative[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class ImportGraph:
    def __init__(self):
        self.trees = dict(parsed_files())
        self.modules = {}
        self.packages = set()
        for path in self.trees:
            name = module_name(path)
            if name is not None:
                self.modules[name] = path
                if path.endswith("__init__.py"):
                    self.packages.add(name)

    def base(self, path, node):
        """The module an ``ImportFrom`` node imports from, absolute."""
        if not node.level:
            return node.module
        package = module_name(path)
        if package is None:
            return None
        parts = package.split(".")
        if not path.endswith("__init__.py"):
            parts.pop()
        parts = parts[:len(parts) - (node.level - 1)]
        return ".".join(parts + ([node.module] if node.module else []))

    def resolve(self, base, name, seen=()):
        """The module that defines ``name`` as imported ``from base``,
        following package re-exports."""
        submodule = "%s.%s" % (base, name)
        if submodule in self.modules:
            return submodule
        if base in self.packages and base not in seen:
            init = self.modules[base]
            for node in ast.walk(self.trees[init]):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            source = self.base(init, node)
                            if source is not None:
                                return self.resolve(source, alias.name, seen + (base,))
        return base

    def imported_modules(self, path):
        for node in ast.walk(self.trees[path]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self.base(path, node)
                if base is None:
                    continue
                yield base
                for alias in node.names:
                    yield self.resolve(base, alias.name)

    def reached(self):
        reached = set()
        for path in self.trees:
            if not path.endswith("__init__.py"):
                reached.update(self.imported_modules(path))
        return reached


def test_every_library_module_is_reached_outside_tests():
    graph = ImportGraph()
    library = {name for name in graph.modules
               if name not in graph.packages and not name.endswith(".__main__")}
    assert "repro.engine.store" in library
    assert EXEMPT <= library, "an exempt module moved or went: drop its exemption"
    unreached = sorted(library - graph.reached() - EXEMPT)
    assert unreached == [], (
        "modules no command, experiment, benchmark, example or script imports: %s"
        % ", ".join(unreached))
