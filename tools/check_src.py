"""Source checks that CI runs on src/condgrad; run locally with
`python tools/check_src.py` from anywhere in the repository.

Prints `src lines: N`, the newline count of every source file (what
`wc -l src/condgrad/*.py src/condgrad/domains/*.py` totals), and
`options: N`, the knobs a reader must learn: parameters with defaults
(every def), annotated class-level fields and module-level UPPER_CASE
constants, and `cli options: N`, the command line's knobs: optional
add_argument flags, once per dest (positionals and required=True flags are
not options), plus the distinct literal config keys read through _opt or
_choice.  Then prints `assert statements: K` and the location of each;
the library validates with real exceptions, since `python -O` strips
assert, so any assert makes the exit status 1.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "condgrad"


def options_count(trees) -> int:
    count = 0
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        for s in tree.body:
            targets = (s.targets if isinstance(s, ast.Assign)
                       else [s.target] if isinstance(s, ast.AnnAssign) else [])
            if targets and all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                count += 1
    return count


def _literal(node):
    return node.value if isinstance(node, ast.Constant) else None


def cli_flag_dests(trees) -> set:
    """The dests of optional add_argument flags that are not required=True."""
    dests = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                continue
            flags = [_literal(a) for a in node.args]
            kw = {k.arg: _literal(k.value) for k in node.keywords}
            if not flags or not str(flags[0]).startswith("-") or kw.get("required") is True:
                continue
            long = [f for f in flags if str(f).startswith("--")]
            dests.add(kw.get("dest") or (long or flags)[0].lstrip("-").replace("-", "_"))
    return dests


def cli_config_keys(trees) -> set:
    """The distinct literal keys passed to _opt(cfg, key, ...) or _choice."""
    return {_literal(node.args[1]) for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("_opt", "_choice") and len(node.args) > 1
            and isinstance(_literal(node.args[1]), str)}


def main() -> int:
    paths = sorted(SRC.rglob("*.py"))
    texts = [path.read_text() for path in paths]
    trees = [ast.parse(text) for text in texts]
    lines = sum(text.count("\n") for text in texts)
    print(f"src lines: {lines}")
    print(f"options: {options_count(trees)}")
    print(f"cli options: {len(cli_flag_dests(trees)) + len(cli_config_keys(trees))}")
    found = [f"{path.relative_to(SRC.parent.parent)}:{node.lineno}"
             for path, tree in zip(paths, trees)
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    print(f"assert statements: {len(found)}", *found, sep="\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
