"""Every name the library offers has a reader outside the tests.

The readers are the code of ``src``, ``demos`` and ``bench``, parsed
into syntax trees: a name is read where it is a variable or an
attribute, so a name that appears only in a string, a docstring or a
comment is not read (one inside an f-string's braces is).  An import
reads nothing, except the bindings marked ``# noqa: F401``, which
``bench/tracer.py`` rebinds and times.  Three checks:

- every public module-level function of ``stgreedy``, and every method
  or property defined in one of its classes, is read outside its own
  ``def``;
- every defaulted parameter of a public module-level function is passed,
  by position or by keyword, by some call of that function's name;
- no module imports a name that it never reads.  A module's ``__all__``
  reads the names it lists, and the ``# noqa: F401`` bindings are
  exempt.

The scan matches names, not objects: a method whose name another class
shares, or that some variable or attribute shares, counts as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "stgreedy"
READERS = [ROOT / "src", ROOT / "demos", ROOT / "bench"]

# the entry point's test seam: console scripts call main() without it
ARGUMENT_EXCEPTIONS = {("main", "argv")}


def _sources():
    return sorted(p for d in READERS for p in d.rglob("*.py"))


def _traced(node, lines):
    return "# noqa: F401" in lines[node.end_lineno - 1]


def _parse(path):
    """(lines, tree, reads): the (name, line) of each read in the file."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.end_lineno))
        elif isinstance(node, ast.ImportFrom) and _traced(node, lines):
            reads += [(alias.name, node.lineno) for alias in node.names]
    return lines, tree, reads


def _defs(tree):
    """(name, first line, last line) of each public module-level function
    and each non-dunder method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append(node)
        elif isinstance(node, ast.ClassDef):
            out += [item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))]
    return [(d.name, d.lineno, d.end_lineno) for d in out]


def test_every_library_function_and_method_has_a_reader():
    parsed = {path: _parse(path) for path in _sources()}
    reads = [(path, name, line) for path, (_, _, found) in parsed.items()
             for name, line in found]
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        for name, lo, hi in _defs(parsed[path][1]):
            if not any(n == name and not (p == path and lo <= line <= hi)
                       for p, n, line in reads):
                unread.append(f"{path.name}:{lo} {name}")
    assert unread == []


def _public_functions():
    out = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                out[node.name] = node.args
    return out


def _defaulted(args):
    """(position or None, name) of each parameter with a default."""
    positional = args.posonlyargs + args.args
    out = [(i, a.arg) for i, a in
           enumerate(positional[len(positional) - len(args.defaults):],
                     start=len(positional) - len(args.defaults))]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_is_passed_by_some_call():
    functions = _public_functions()
    passed = {name: set() for name in functions}
    for path in _sources():
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = _call_name(call)
            if name not in functions:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            spread = any(k.arg is None for k in call.keywords)
            given = {k.arg for k in call.keywords}
            for pos, arg in _defaulted(functions[name]):
                if (arg in given or spread or starred
                        or (pos is not None and pos < len(call.args))):
                    passed[name].add(arg)
    unpassed = [(name, arg) for name, args in functions.items()
                for _, arg in _defaulted(args) if arg not in passed[name]]
    assert sorted(set(unpassed) - ARGUMENT_EXCEPTIONS) == []
    # the exception is still a defaulted, unpassed parameter
    assert ARGUMENT_EXCEPTIONS <= set(unpassed)


def _all_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in _sources():
        lines, tree, found = _parse(path)
        read = {name for name, _ in found} | _all_names(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or _traced(node, lines)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    rel = path.relative_to(ROOT)
                    unread.append(f"{rel}:{node.lineno} {bound}")
    assert unread == []
