#!/usr/bin/env python
"""Lint: no module-level mutable state in the kernel or RPC fabric.

Many :class:`Kernel` instances are built back to back in one process:
the benchmark's repeated iterations, the scenario benches and the
test suite each construct kernel after kernel. A run is only
reproducible if *every* piece of simulation state is owned by an
instance: a module-level dict of timers, a class-attribute registry
of channels, or a global counter would silently carry one run's state
into the next, so the same seed would give a different timeline
depending on what ran before it.

This lint enforces the rule structurally for ``src/repro/sim/`` and
``src/repro/grpcnet/``: no assignment at module or class scope may
bind a mutable container — a dict/list/set/bytearray literal or
comprehension, or a call to a well-known mutable-container factory
(``dict``/``list``/``set``/``defaultdict``/``deque``/``Counter``/
``OrderedDict``/``count``). Immutable bindings (constants, strings,
tuples, ``frozenset``) are fine, as are ``__all__`` and ``__slots__``
by convention, and anything inside a function body (instance wiring).

Exits non-zero listing violations; wired into ``scripts/check.sh``
(and thus ``make check``).
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = (
    ROOT / "src" / "repro" / "sim",
    ROOT / "src" / "repro" / "grpcnet",
)

# Conventional module/class-level names that are never mutated.
ALLOWED_NAMES = {"__all__", "__slots__"}

MUTABLE_FACTORIES = {
    "dict", "list", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict",
    "count",  # itertools.count: a hidden global sequence generator
}


def _call_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def is_mutable(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node) in MUTABLE_FACTORIES
    return False


def _target_names(node):
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        yield element.id
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            yield node.target.id


def check_scope(body, path, scope, violations):
    for node in body:
        if isinstance(node, ast.ClassDef):
            check_scope(node.body, path, f"class {node.name}", violations)
            continue
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None or not is_mutable(value):
            continue
        names = list(_target_names(node))
        if names and all(name in ALLOWED_NAMES for name in names):
            continue
        label = ", ".join(names) or ast.unparse(node).split("=")[0].strip()
        violations.append(
            f"{path.relative_to(ROOT)}:{node.lineno}: mutable "
            f"{type(value).__name__.lower()} bound at {scope} scope "
            f"({label}); back-to-back kernels require instance-owned state")


def check_file(path):
    violations = []
    tree = ast.parse(path.read_text(), filename=str(path))
    check_scope(tree.body, path, "module", violations)
    return violations


def main():
    violations = []
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            violations.extend(check_file(path))
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} module/class-level mutable binding(s); "
              f"move them onto the owning instance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
