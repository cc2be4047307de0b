#!/usr/bin/env python3
"""Print the size ledger of the wavecontrol package.

    python scripts/ledger.py

For src/wavecontrol: the lines of each module and their total (as wc -l
counts them), the number of types (class statements at module level,
private ones included), the public names (each module's __all__) and the
settable values: the defaulted parameters of public functions and of the
public methods of public classes, plus the init fields with defaults of
public dataclasses.  The source is parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wavecontrol"


def _defaulted(fn: ast.FunctionDef) -> list:
    """The parameters of fn that carry a default, in signature order."""
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_field(stmt) -> bool:
    """An annotated class-body field with a default that __init__ takes."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return not any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    return True


def _settable(module: str, tree: ast.Module) -> list:
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            out += [f"{module}.{node.name}({p})" for p in _defaulted(node)]
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    out += [f"{module}.{node.name}.{stmt.name}({p})" for p in _defaulted(stmt)]
                elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    out += [f"{module}.{node.name}({p})" for p in _defaulted(stmt)]
                elif _is_dataclass(node) and _init_field(stmt):
                    out.append(f"{module}.{node.name}.{stmt.target.id}")
    return out


def _public_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def main() -> int:
    lines, types, public, settable = {}, [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        module = path.stem
        tree = ast.parse(text)
        lines[path.name] = text.count("\n")
        types += [f"{module}.{n.name}" for n in tree.body if isinstance(n, ast.ClassDef)]
        public += [f"{module}.{name}" for name in _public_names(tree)]
        settable += _settable(module, tree)
    print(f"lines ({len(lines)} modules)")
    for name, n in lines.items():
        print(f"  {n:5d}  {name}")
    print(f"  {sum(lines.values()):5d}  total")
    print(f"types: {len(types)}")
    for name in types:
        print(f"  {name}")
    print(f"public names: {len(public)}")
    for name in public:
        print(f"  {name}")
    print(f"settable values: {len(settable)}")
    for name in settable:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
