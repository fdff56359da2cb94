"""Source checks that CI runs on src/condgrad; run locally with
`python tools/check_src.py` from anywhere in the repository.

Prints `src lines: N`, the newline count of every source file (what
`wc -l src/condgrad/*.py src/condgrad/domains/*.py` totals), and
`options: N`, the knobs a reader must learn: parameters with defaults
(every def), annotated class-level fields and module-level UPPER_CASE
constants.  Then prints `assert statements: K` and the location of each;
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


def main() -> int:
    paths = sorted(SRC.rglob("*.py"))
    texts = [path.read_text() for path in paths]
    trees = [ast.parse(text) for text in texts]
    lines = sum(text.count("\n") for text in texts)
    print(f"src lines: {lines}")
    print(f"options: {options_count(trees)}")
    found = [f"{path.relative_to(SRC.parent.parent)}:{node.lineno}"
             for path, tree in zip(paths, trees)
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    print(f"assert statements: {len(found)}", *found, sep="\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
