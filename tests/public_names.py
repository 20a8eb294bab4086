"""List the public names of a package that no module of the package uses.

A public name is a module-level function or class, or a method or property
of a module-level class, whose name does not start with "_".  A module-level
name counts as used when another module imports it or reads it as an
attribute of its module (`dg.total`), or when its own module reads it
outside its definition.  A method counts as used when any module reads an
attribute of that name outside the method, whatever the object.  Only the
package's own modules are read, so a name that only tests or benchmarks
use is listed.  From the repository root:

    python tests/public_names.py src/kgraphs

prints one `module.name` or `module.Class.method` per line, then the count.
"""

import ast
import sys
from pathlib import Path


def definitions(tree):
    """(qualified name, bare name, node, is a method) of each public def."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node.name, node.name, node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def references(tree, module):
    """(owner, name, node) for each name that this module reads: the owner
    is the package module the name belongs to, or None for an attribute of
    any object."""
    aliases = {}    # local name -> the package module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module:
                    yield node.module, a.name, node
                else:
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id, node
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            if owner in aliases:
                yield aliases[owner], node.attr, node
            yield None, node.attr, node


def unused(package):
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(Path(package).glob("*.py"))}
    refs = {}       # name -> [(owner, node)]
    for module, tree in trees.items():
        for owner, name, node in references(tree, module):
            refs.setdefault(name, []).append((owner, node))
    for module, tree in trees.items():
        for qualified, name, node, method in definitions(tree):
            inside = set(map(id, ast.walk(node)))
            if not any(id(ref) not in inside and owner == (
                    None if method else module)
                       for owner, ref in refs.get(name, ())):
                yield f"{module}.{qualified}"


if __name__ == "__main__":
    names = list(unused(sys.argv[1]))
    for name in names:
        print(name)
    print(f"{len(names)} public names unused in {sys.argv[1]}")
