"""Rules on the package source itself, which no behavioural test sees."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bipower
from bipower.core import graph_to_json
from bipower.intervals import intervals_tsv
from bipower.mca import matrix_text

SRC = Path(bipower.__file__).parent


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so guards on the paper's claims
    # and on inputs must raise explicitly.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src: {found}"


def self_calls(source: str) -> list[str]:
    """``name:line`` of each call by which a function calls itself, by its
    plain name or, as a method, through ``self``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            by_name = isinstance(callee, ast.Name) and callee.id == node.name
            by_self = (
                isinstance(callee, ast.Attribute) and callee.attr == node.name
                and isinstance(callee.value, ast.Name) and callee.value.id == "self"
            )
            if by_name or by_self:
                found.append(f"{node.name}:{call.lineno}")
    return found


def test_self_calls_rule_sees_recursion():
    source = textwrap.dedent("""
        def walk(n):
            return walk(n - 1) if n else 0

        class Tree:
            def depth(self):
                return 1 + self.depth()

        class Error(Exception):
            def __init__(self, msg):
                super().__init__(msg)
    """)
    assert self_calls(source) == ["walk:3", "depth:7"]


def test_no_recursion_in_src():
    # The chordless-cycle search keeps its path on an explicit stack, so a
    # cycle of any length is followed round below Python's recursion limit;
    # no function here calls itself.
    modules = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{hit}" for path in modules for hit in self_calls(path.read_text(encoding="utf-8"))]
    assert found == [], f"recursive calls in src: {found}"


def test_no_pairwise_interval_tests_in_src():
    # Intersection is answered by one row-bitset kernel in intervals; the
    # pairwise form, Interval.intersects, serves the test oracles only.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "intersects"
    ]
    assert found == [], f"Interval.intersects called in src: {found}"


def constructor_bypasses(source: str) -> list[str]:
    """``object.<name>:line`` of each call of ``object.__new__`` or
    ``object.__setattr__``, which build or fill an instance without its
    constructor."""
    return [
        f"object.{node.func.attr}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("__new__", "__setattr__")
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    ]


def test_constructor_bypasses_rule_sees_them():
    source = textwrap.dedent("""
        class Frozen:
            def copy(self):
                other = object.__new__(Frozen)
                object.__setattr__(other, "x", self.x)
                return other

            def __new__(cls):
                return super().__new__(cls)
    """)
    assert constructor_bypasses(source) == ["object.__new__:4", "object.__setattr__:5"]


def test_no_constructor_bypass_in_src():
    # Each type has one construction path, its constructor, which checks
    # what it is given; nothing builds an instance around it.
    found = [
        f"{path.name}:{hit}"
        for path in sorted(SRC.glob("*.py"))
        for hit in constructor_bypasses(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"constructor bypassed in src: {found}"


def uses_of(source: str, names: set[str]) -> list[str]:
    """``scope:name`` of each use of one of ``names`` in ``source``, in
    source order: a read of the plain name (a call or an alias) or of an
    attribute of that name.  ``scope`` is the enclosing definition, as
    ``Class.function``, or ``<module>``."""
    found: list[str] = []
    scope: list[str] = []

    def visit(node: ast.AST) -> None:
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if named:
            scope.append(node.name)
        used = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if used in names:
            found.append(f"{'.'.join(scope) or '<module>'}:{used}")
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            scope.pop()

    visit(ast.parse(source))
    return found


def test_uses_of_rule_sees_them():
    source = textwrap.dedent("""
        def _kernel(a):
            return a

        def public(a):
            return _kernel(a)

        class Value:
            @property
            def labels(self):
                return _kernel(self.a)

        def search(cert):
            alias = _kernel
            return alias(1), cert.labels

        LABELS = _kernel(())
    """)
    assert uses_of(source, {"_kernel", "labels"}) == [
        "public:_kernel", "Value.labels:_kernel", "search:_kernel", "search:labels", "<module>:_kernel",
    ]


def test_zero_labels_are_worked_out_only_when_read():
    # A certificate holds its four runs alone.  Its R/C zero labels are
    # worked out by one kernel, reached through label_zeros and the
    # certificate's zero_labels property, and only the certificate's JSON
    # reads them: neither find_mca nor verify_mca builds them up front.
    found = [
        f"{path.name}:{use}"
        for path in sorted(SRC.glob("*.py"))
        for use in uses_of(path.read_text(encoding="utf-8"), {"_zero_labels", "label_zeros", "zero_labels"})
    ]
    assert found == [
        "mca.py:label_zeros:_zero_labels",
        "mca.py:McaCertificate.zero_labels:_zero_labels",
        "mca.py:certificate_object:zero_labels",
    ]


def integer_draws(source: str) -> list[str]:
    """``name:line`` of each call of a method named ``randint`` or
    ``randrange``, in line order."""
    calls = [
        (node.lineno, f"{node.func.attr}:{node.lineno}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("randint", "randrange")
    ]
    return [site for _, site in sorted(calls)]


def test_integer_draws_rule_sees_them():
    source = textwrap.dedent("""
        import random
        def draw(seed, rng=random):
            bits = random.Random(seed).getrandbits
            n = random.Random(seed).randint(1, 6)
            return rng.randrange(n), _randint(bits, 1, n), rng.random()
    """)
    assert integer_draws(source) == ["randint:5", "randrange:6"]


def test_every_integer_draw_goes_through_one_helper():
    # Campaign draws are pinned by digest, so each integer is drawn by
    # core._randint, which is pinned to random.Random.randint; a second
    # way of drawing one could drift from it unseen.
    found = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in integer_draws(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"integer drawn outside core._randint: {found}"


def refutation_sites(source: str) -> tuple[list[str], list[str]]:
    """Where ``source`` builds a refutation and where it catches one:
    ``name:line`` of each ``TheoremCounterexample`` call and of each dict
    with a ``"kind"`` key (a literal, or ``dict(kind=...)``), and
    ``except:line`` of each handler that names ``TheoremCounterexample``."""

    def name(node: ast.AST) -> str | None:
        return getattr(node, "id", getattr(node, "attr", None))

    built, caught = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and name(node.func) == "TheoremCounterexample":
            built.append(f"TheoremCounterexample:{node.lineno}")
        elif isinstance(node, ast.Call) and name(node.func) == "dict" and any(kw.arg == "kind" for kw in node.keywords):
            built.append(f"dict:{node.lineno}")
        elif isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "kind" for k in node.keys):
            built.append(f"kind:{node.lineno}")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(name(t) == "TheoremCounterexample" for t in types):
                caught.append(f"except:{node.lineno}")
    by_line = lambda site: int(site.rsplit(":", 1)[1])  # noqa: E731
    return sorted(built, key=by_line), sorted(caught, key=by_line)


def test_refutation_sites_rule_sees_them():
    source = textwrap.dedent("""
        from . import errors
        from .errors import TheoremCounterexample
        def trial(check, ks):
            records = []
            for k in ks:
                try:
                    check(k)
                except TheoremCounterexample as exc:
                    records.append({"trial": 0, **exc.report})
                if k > 9:
                    records.append({"kind": "strong-closure", "k": k})
                    records.append(dict(kind="k-chordal-closure"))
                    raise errors.TheoremCounterexample("refuted", {})
            try:
                return records
            except (ValueError, errors.TheoremCounterexample):
                return []
    """)
    assert refutation_sites(source) == (
        ["kind:12", "dict:13", "TheoremCounterexample:14"], ["except:9", "except:17"]
    )


def test_harness_builds_no_refutation():
    # Each closure claim's check, in intervals, mca or chordal_power, raises
    # its own record; the campaign's one trial loop catches it in one place
    # and adds the trial index, so harness knows no record format.
    built, caught = refutation_sites((SRC / "harness.py").read_text(encoding="utf-8"))
    assert built == [], f"refutation built in harness.py: {built}"
    assert len(caught) == 1, f"TheoremCounterexample caught in harness.py at {caught}"


def refutation_handlers(source: str) -> list[str]:
    """``function:line`` of each handler that names ``TheoremCounterexample``,
    by the innermost function it sits in (``<module>`` outside any)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", getattr(t, "attr", None)) == "TheoremCounterexample" for t in types):
                found.append(f"{owner}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_refutation_handlers_rule_sees_them():
    source = textwrap.dedent("""
        from . import errors
        def check(g, k):
            try:
                lift = search(g, k)
            except TheoremCounterexample:
                lift = None
            def replay():
                try:
                    return lift
                except (ValueError, errors.TheoremCounterexample):
                    return None
            return replay
        try:
            check(None, 1)
        except TheoremCounterexample as exc:
            pass
        except ValueError:
            pass
    """)
    assert refutation_handlers(source) == ["check:6", "replay:11", "<module>:16"]


def test_refutations_are_caught_by_the_trial_loop_and_dispatch_alone():
    # A check raises its refutation and nothing on the way catches it: the
    # campaign's trial loop records it, and dispatch prints it with exit 3.
    found = [
        f"{path.stem}.{site.rsplit(':', 1)[0]}"
        for path in sorted(SRC.glob("*.py"))
        for site in refutation_handlers(path.read_text(encoding="utf-8"))
    ]
    assert found == ["cli.dispatch", "harness._trial"]


def json_reads(source: str) -> list[str]:
    """``json.loads:line`` of each reference to ``json.loads``, and
    ``import:line`` of each import of ``loads`` from ``json``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "loads"
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((node.lineno, f"json.loads:{node.lineno}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(a.name == "loads" for a in node.names):
            found.append((node.lineno, f"import:{node.lineno}"))
    return [site for _, site in sorted(found)]


def test_json_reads_rule_sees_them():
    source = textwrap.dedent("""
        import json
        from json import dumps, loads
        def read(text):
            return json.loads(text)
        def read_again(text):
            return loads(text) or json.loads(text, object_pairs_hook=dict)
    """)
    assert json_reads(source) == ["import:3", "json.loads:5", "json.loads:7"]


def test_one_json_reader_in_src():
    # Graph, cycle and campaign files are read by core._read_json alone, so
    # each refuses a repeated key, an over-long number and deep nesting alike.
    found = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in json_reads(path.read_text(encoding="utf-8"))
    ]
    assert len(found) == 1 and found[0].startswith("core.py:json.loads:"), found


def payload_writes(source: str) -> list[str]:
    """``function:line`` of each place outside ``dispatch`` that refers to
    ``sys.stdout`` or calls ``write_text``, and of each ``print`` anywhere
    that does not pass ``file=sys.stderr``."""

    def is_stream(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
        )

    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        where = f"{owner}:{getattr(node, 'lineno', 0)}"
        if owner != "dispatch":
            if is_stream(node, "stdout"):
                found.append(where)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "write_text":
                found.append(where)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            if not any(kw.arg == "file" and is_stream(kw.value, "stderr") for kw in node.keywords):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_payload_writes_rule_sees_stray_writers():
    source = textwrap.dedent("""
        import sys
        def _cmd_power(args):
            sys.stdout.write("x")
            Path(args.output).write_text("x")
            print("x")
            print("x", file=sys.stdout)
            print("x", file=sys.stderr)
        def dispatch(argv):
            sys.stdout.write("x")
            Path(argv[0]).write_text("x")
            print("x")
            print("x", file=sys.stderr)
    """)
    assert payload_writes(source) == [
        "_cmd_power:4", "_cmd_power:5", "_cmd_power:6", "_cmd_power:7", "_cmd_power:7", "dispatch:12",
    ]


def test_only_dispatch_writes_the_cli_payload():
    # One writer: each verb returns its exit code and payload, and dispatch
    # writes the payload once, so a failed write cannot escape as a traceback.
    found = payload_writes((SRC / "cli.py").read_text(encoding="utf-8"))
    assert found == [], f"payload written outside dispatch in cli.py: {found}"


def unreferenced_names(defining: dict[str, str], using: dict[str, str], exported: set[str]) -> list[str]:
    """The public names that nothing in ``using`` refers to, sorted.

    The public names are ``exported`` and the top-level functions and
    classes of the ``defining`` sources whose names have no leading
    underscore.  A reference is an identifier, an attribute, an imported
    name or a string equal to the name (as ``getattr`` takes it), anywhere
    in a ``using`` source except inside the definition of the name itself.
    """
    public = set(exported)
    for source in defining.values():
        public.update(
            node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        )
    seen = set()
    for source in using.values():
        for statement in ast.parse(source).body:
            here = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    here.add(node.id)
                elif isinstance(node, ast.Attribute):
                    here.add(node.attr)
                elif isinstance(node, ast.alias):
                    here.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    here.add(node.value)
            here.discard(getattr(statement, "name", None))
            seen |= here
    return sorted(public - seen)


def test_unreferenced_names_rule_sees_them():
    module = textwrap.dedent("""
        class Used:
            def copy(self) -> Used:
                return Used()

        class OnlyItself:
            def copy(self) -> OnlyItself:
                return OnlyItself()

        def by_getattr():
            pass

        def unused():
            pass

        def _private():
            pass
    """)
    caller = textwrap.dedent("""
        from .module import Used
        import module
        module.Used()
        getattr(module, "by_getattr")
        # unused
        \"\"\"unused, in a docstring\"\"\"
    """)
    found = unreferenced_names({"module": module}, {"module": module, "caller": caller}, {"Used", "exported_only"})
    assert found == ["OnlyItself", "exported_only", "unused"]


def test_every_public_name_is_used_by_the_program_or_the_gate():
    # A public name earns its place when a verb, a campaign, the acceptance
    # gate or the benchmark reaches it.  The export list itself does not
    # count, and a name only the other tests call belongs in tests/oracles.py.
    modules = sorted(SRC.glob("*.py"))
    defining = {path.name: path.read_text(encoding="utf-8") for path in modules}
    users = [path for path in modules if path.name != "__init__.py"]
    users.append(Path(__file__).with_name("test_acceptance.py"))
    users.extend(sorted((SRC.parents[1] / "bench").glob("*.py")))
    using = {str(path): path.read_text(encoding="utf-8") for path in users}
    exported = {name for names in bipower._EXPORTS.values() for name in names.split()}
    assert unreferenced_names(defining, using, exported) == []


def test_core_does_not_import_chordal_power():
    # core holds the graph, the search and the Γ test the search uses;
    # chordal_power builds on it, never the other way round.
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.append(module)
            imported.extend(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert not [name for name in imported if "chordal_power" in name.split(".")]


def test_cli_import_leaves_out_the_process_pool():
    # Only parallel campaigns start a pool; every other command would pay
    # for importing it at start-up.
    script = (
        "import sys\n"
        "import bipower.cli\n"
        "print(*sorted(name for name in ('concurrent.futures.process', 'multiprocessing') if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_harness_import_leaves_out_openssl():
    # Trial seeds hash with blake2b, which the interpreter has built in;
    # importing hashlib would load OpenSSL into every fuzz and gen call.
    script = "import sys\nimport bipower.harness\nprint('_hashlib' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def bipower_modules(code: str, *argv: str, cwd: Path | None = None) -> tuple[int, list[str]]:
    """Run ``python -c CODE ARGV`` in a fresh interpreter and return its exit
    code and the ``bipower`` submodules loaded when CODE is done."""
    script = (
        "import sys\n"
        "status = 0\n"
        "try:\n"
        f"{textwrap.indent(code, '    ')}\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(*sorted(name for name in sys.modules if name.startswith('bipower.')), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr.splitlines()[-1].split()


def test_package_import_loads_no_submodule():
    # The public names load their submodules on first use.
    assert bipower_modules("import bipower") == (0, [])


@pytest.mark.parametrize("argv, home", [
    (["power", "-k", "3", "g.json"], set()),
    (["check-chordal", "g.json"], {"chordal_power"}),
    (["verify-intervals", "g.json", "i.tsv"], {"intervals"}),
    (["mca-find", "m.txt"], {"mca"}),
])
def test_cold_cli_call_loads_only_its_verbs_modules(tmp_path, sample_graph, sample_rep, staircase_matrix, argv, home):
    # A cold call compiles every module it imports; the harness imports all.
    (tmp_path / "g.json").write_text(graph_to_json(sample_graph))
    (tmp_path / "i.tsv").write_text(intervals_tsv(sample_rep, sample_graph.x_labels, sample_graph.y_labels))
    (tmp_path / "m.txt").write_text(matrix_text(staircase_matrix))
    # What python -m bipower.cli does.
    run = "import runpy\nrunpy.run_module('bipower.cli', run_name='__main__', alter_sys=True)"
    code, loaded = bipower_modules(run, *argv, cwd=tmp_path)
    assert code in (0, 1)
    assert loaded == sorted(f"bipower.{name}" for name in {"core", "errors", *home})
