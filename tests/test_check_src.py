"""The counters of tools/check_src.py, on small source snippets."""

import ast
import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_src.py"
_spec = importlib.util.spec_from_file_location("check_src", TOOL)
check_src = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_src)


def _trees(*sources):
    return [ast.parse(s) for s in sources]


def test_cli_flag_dests_count_optional_flags_once_per_dest():
    src = '''
p.add_argument("config")
p.add_argument("--data", required=True)
p.add_argument("--line-search", dest="line_search", action="store_true")
p.add_argument("--no-line-search", dest="line_search", action="store_false")
p.add_argument("-n", "--max-iters", type=int)
p.add_argument("-q")
q.add_argument("--seed", type=int, default=0)
'''
    other = 'r.add_argument("--seed", type=int)\nr.add_argument("--data", required=False)\n'
    assert check_src.cli_flag_dests(_trees(src, other)) == {
        "line_search", "max_iters", "q", "seed", "data"}


def test_cli_config_keys_count_distinct_literal_opt_and_choice_keys():
    src = '''
a = _opt(cfg, "eps", float, None, "config")
b = _opt(spec, "eps", float, None, "objective")
c = _choice(cfg, "mode", ("exact", "approx"), "config")
d = _need(cfg, "kind", str, "config")
e = _opt(cfg, key, int, 0, "config")
f = other(cfg, "seed")
'''
    assert check_src.cli_config_keys(_trees(src)) == {"eps", "mode"}


def test_options_count_counts_defaults_fields_and_constants_only():
    src = '''
LIMIT = 3
def f(a, b=1, *, c=2):
    p.add_argument("--x", default=0)
    return _opt(cfg, "y", int, 0, "config")
class C:
    field: int = 0
'''
    assert check_src.options_count(_trees(src)) == 4
