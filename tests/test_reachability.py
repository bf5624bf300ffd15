"""Every library module, every name it exports and every public method of
its classes is reached by code that is not a test.

The guard parses (never imports) every ``.py`` file under ``src/``,
``benchmarks/``, ``examples/`` and ``scripts/``, resolves relative imports
and the names a package ``__init__`` re-exports, and asserts that each
``src/repro`` module other than ``__init__`` and ``__main__`` is imported by
some file other than a package ``__init__``.  A second check does the same
for names: every name in a ``src/repro`` module's ``__all__`` must appear in
some scanned file as a name, an attribute or an imported name — the
module's own ``__all__`` and a package ``__init__``'s re-exports do not
count.  A third check does the same for methods: every public method or
property defined on a class in ``src/repro`` must appear by name in some
scanned file.  Like the module check they are non-transitive: a reference
counts wherever it sits.  A module, name or method only tests reach is
library surface nothing runs: delete it with its tests instead of keeping it
alive here.
"""

import ast
import os

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")
SCANNED_DIRECTORIES = ("src", "benchmarks", "examples", "scripts")

#: Exported names allowed to be unreached, each with its reason.
EXEMPT_NAMES = {
    "repro.engine.blockcache.clear_block_cache":
        "docs/engine.md: drop the decoded-block cache between timed runs",
}

#: Public methods and properties allowed to be unreached, each with its reason.
EXEMPT_METHODS = {
    "repro.simulator.metrics.UtilizationAccumulator.observe":
        "the buffered per-sample entry to the fold the replay engine batches; the legacy "
        "replay oracle records through it",
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
    unreached = sorted(library - graph.reached())
    assert unreached == [], (
        "modules no command, experiment, benchmark, example or script imports: %s"
        % ", ".join(unreached))


def exported_names(tree):
    """The string entries of a module's ``__all__`` (empty without one)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [element.value for element in node.value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)]
    return []


def referenced_names(path, tree):
    """Every identifier ``tree`` loads as a name or attribute, or imports —
    except the imports of a package ``__init__`` (``__all__`` entries are
    strings, so they never count)."""
    package_init = path.endswith("__init__.py")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not package_init:
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def referenced_anywhere(graph):
    """The names every scanned file references (see :func:`referenced_names`)."""
    referenced = set()
    for path, tree in graph.trees.items():
        referenced |= referenced_names(path, tree)
    return referenced


def test_every_exported_name_is_reached_outside_tests():
    graph = ImportGraph()
    referenced = referenced_anywhere(graph)
    exported = {"%s.%s" % (module, name)
                for module, path in graph.modules.items() if module not in graph.packages
                for name in exported_names(graph.trees[path])}
    assert "repro.engine.store.ChunkedTraceStore" in exported
    assert set(EXEMPT_NAMES) <= exported, "an exempt name moved or went: drop its exemption"
    unreached = sorted(name for name in exported - set(EXEMPT_NAMES)
                       if name.rsplit(".", 1)[-1] not in referenced)
    assert unreached == [], (
        "exported names no command, experiment, benchmark, example or script uses: %s"
        % ", ".join(unreached))
    stale = sorted(name for name in EXEMPT_NAMES if name.rsplit(".", 1)[-1] in referenced)
    assert stale == [], "exempt names now reached outside tests: %s" % ", ".join(stale)


def public_methods(tree):
    """``Class.method`` for every public method or property defined directly
    in a class body (classes nested in functions included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield "%s.%s" % (node.name, item.name)


def test_every_public_method_is_reached_outside_tests():
    graph = ImportGraph()
    referenced = referenced_anywhere(graph)
    methods = {"%s.%s" % (module, method)
               for module, path in graph.modules.items()
               for method in public_methods(graph.trees[path])}
    assert "repro.engine.store.ChunkedTraceStore.open_append" in methods
    assert set(EXEMPT_METHODS) <= methods, "an exempt method moved or went: drop its exemption"
    unreached = sorted(name for name in methods - set(EXEMPT_METHODS)
                       if name.rsplit(".", 1)[-1] not in referenced)
    assert unreached == [], (
        "public methods no command, experiment, benchmark, example or script uses: %s"
        % ", ".join(unreached))
    stale = sorted(name for name in EXEMPT_METHODS if name.rsplit(".", 1)[-1] in referenced)
    assert stale == [], "exempt methods now reached outside tests: %s" % ", ".join(stale)
