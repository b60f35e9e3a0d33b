"""Every public top-level name of ``src/swphase`` is used by the program,
every field of its report types is read, and every field of its config
types is set.

A public function, class or constant must be read somewhere besides its own
definition: in a module of ``src/swphase`` (the ``__init__`` re-exports do
not count), in a demo or in the benchmark. A name that only the tests use
is test code, and belongs in the tests. Modules are parsed with ``ast``, so
a mention in a docstring or comment is no use.

The same goes for the fields of the types that carry results out of a run
(``REPORTS``): a field that the program fills but never reads is work that
no output shows. This check works by name, not by type: a field counts as
read when any program line reads a name or attribute spelled like it. So it
misses a field whose name is read elsewhere for another purpose: unread
fields named ``fs``, ``n``, ``reps``, ``mean_undefined`` or
``scored_nrem_windows`` pass, since those names are read as parameters,
locals or other types' attributes.

A field of a config type (``CONFIGS``) is a setting only if some command,
grid, demo, benchmark or calibration sets it; one that nothing sets is a
constant that takes a keyword. It counts as set when a program line names
it as a keyword argument or as a string dict key (a grid such as
``default_grid``). This works by name too: ``fs`` passes as a keyword of
many calls. A ``ClassVar`` is a constant, not a field.

A parameter default of a function or method of ``src/swphase`` (private
ones and ``__init__`` included) must be both used and varied: at least one
program call leaves the parameter out, and at least one passes it. A default
every call overrides is a value each caller must state anyway, so the
parameter is required; a parameter no call passes is a constant. Calls are
matched by name: ``f(...)`` and ``x.f(...)`` both call every definition
named ``f``, and a class's ``__init__`` is called by the class name.
``functools.partial(f, ...)`` counts as a call of ``f`` with the arguments it
binds, and ``field(default_factory=f)`` as a call of ``f`` with none. A call
that spreads ``*args`` or ``**kwargs`` passes every parameter. The blind
spots follow from matching by name: a call through another name (a bound
method stored in a local, a function handed over as a value, an operator
such as ``+`` calling ``__add__``) is not seen; calls of two definitions
that share a name (``run``, ``step``) count for both; the arguments a
``partial`` leaves for its later call count as left out; and a method
called through its class with an explicit ``self`` is read as if bound, one
position off.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "swphase"

# public names that no program line reads, each kept for its reason
ALLOWED = {
    "BETA": "a reason code, unpacked with the other four from range(len(REASONS))",
}

# the types that carry results out of a run, and the fields of theirs that
# no program line reads, each kept for its reason
REPORTS = ("SessionResult", "MetricsReport", "CircularSummary", "PasReport",
           "TargetingReport", "SlowWaves", "CostReport", "SynthOutput", "PhaseTrack",
           "CvOutcome", "ComboResult", "ObjectiveTally", "LoggedTrigger", "TriggerEvent")
ALLOWED_FIELDS = {}


# the config types, and the fields of theirs that no program line sets by
# name, each kept for its reason
CONFIGS = ("TrackerConfig", "GateConfig", "SynthSpec")
ALLOWED_UNSET = {
    "sw_pp_range_uv": "the oscillator's amplitude bounds, which `simulate --synth-set` "
                      "varies to make nights of low-amplitude waves",
    "sw_freq_range_hz": "the oscillator's frequency bounds, which `simulate --synth-set` "
                        "varies for the capacity-by-frequency table (ROADMAP)",
}


# parameters with a default that every program call passes, or none, each
# kept for its reason
ALLOWED_DEFAULTS = {
    "read_trigger_log.n_samples": "a log can be read without its recording, as the "
                                  "truncation-invariance acceptance test reads it",
}


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def used_names(tree):
    """Names a module reads, attributes it touches and names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_public_names(modules: dict, users) -> list:
    """"module.name" of each public name in ``modules`` ({module: source})
    that neither those modules nor the ``users`` sources read."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    used = set()
    for tree in [*trees.values(), *map(ast.parse, users)]:
        used.update(used_names(tree))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in public_definitions(tree) if name not in used)


def unread_fields(modules: dict, classes, users) -> list:
    """"Class.field" of each annotated field of a class named in ``classes``
    and defined in ``modules`` ({module: source}) whose name neither those
    modules nor the ``users`` sources read."""
    trees = [ast.parse(source) for source in modules.values()]
    used = set()
    for tree in [*trees, *map(ast.parse, users)]:
        used.update(used_names(tree))
    return sorted(f"{node.name}.{stmt.target.id}" for tree in trees for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name in classes
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in used)


def set_names(tree):
    """Names a module sets: keyword arguments and string dict keys."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Dict):
            yield from (k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))


def is_class_var(stmt) -> bool:
    ann = stmt.annotation
    return isinstance(ann, ast.Subscript) and getattr(ann.value, "id", None) == "ClassVar"


def unset_fields(modules: dict, classes, users) -> list:
    """"Class.field" of each field of a class named in ``classes`` and
    defined in ``modules`` ({module: source}) that neither those modules
    nor the ``users`` sources set by name."""
    trees = [ast.parse(source) for source in modules.values()]
    names = set()
    for tree in [*trees, *map(ast.parse, users)]:
        names.update(set_names(tree))
    return sorted(f"{node.name}.{stmt.target.id}" for tree in trees for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name in classes
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and not is_class_var(stmt)
                  and stmt.target.id not in names)


def defaulted_parameters(tree, prefix="", cls=None):
    """(name, call name, positional parameters, defaulted parameters) of
    each function and method in tree. A method's first parameter is dropped
    unless it is a staticmethod; an ``__init__`` is named and called by its
    class's name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from defaulted_parameters(node, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            if cls and "staticmethod" not in (getattr(d, "id", None)
                                              for d in node.decorator_list):
                positional = positional[1:]
            if cls and node.name == "__init__":
                yield prefix[:-1], cls, positional, defaulted
            else:
                yield prefix + node.name, node.name, positional, defaulted
            yield from defaulted_parameters(node, f"{prefix}{node.name}.")
        else:
            yield from defaulted_parameters(node, prefix, cls)


def _called_name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls(tree):
    """(called name, positional argument count, keyword names, passes
    everything) of each call in tree; ``partial(f, ...)`` is a call of f,
    ``field(default_factory=f)`` a call of f with no arguments."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _called_name(node.func), node.args
        if name == "partial" and args:
            name, args = _called_name(args[0]), args[1:]
        elif name == "field":
            yield from ((_called_name(kw.value), 0, set(), False)
                        for kw in node.keywords if kw.arg == "default_factory")
            continue
        spread = (any(isinstance(a, ast.Starred) for a in args)
                  or any(kw.arg is None for kw in node.keywords))
        yield name, len(args), {kw.arg for kw in node.keywords}, spread


def unvaried_defaults(modules: dict, users) -> list:
    """"module.function.parameter" of each defaulted parameter of a function
    or method in ``modules`` ({module: source}) that no call in those modules
    or the ``users`` sources leaves out, or that none of them passes."""
    by_name = defaultdict(list)
    for source in [*modules.values(), *users]:
        for name, n_args, keywords, spread in calls(ast.parse(source)):
            by_name[name].append((n_args, keywords, spread))
    out = []
    for module, source in modules.items():
        for name, called, positional, defaulted in defaulted_parameters(ast.parse(source)):
            for param in defaulted:
                at = positional.index(param) if param in positional else len(positional)
                passed = [spread or param in keywords or at < n_args
                          for n_args, keywords, spread in by_name[called]]
                if all(passed) or not any(passed):
                    out.append(f"{module}.{name}.{param}")
    return sorted(out)


def program_sources():
    """({module: source} of ``src/swphase`` without ``__init__``, [demo and
    benchmark sources])."""
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    users = [p.read_text(encoding="utf-8")
             for folder in ("demos", "benchmark") for p in sorted((ROOT / folder).rglob("*.py"))]
    return modules, users


def test_the_census_sees_an_unused_public_name():
    modules = {"a": "LIMIT = 3\nLO, HI = 1, 2\n\ndef used():\n    return LIMIT + HI\n\n"
                    "def unused():\n    return 1\n\nclass _Private:\n    pass\n",
               "b": "from .a import used\n"}
    assert unused_public_names(modules, ["import swphase\nswphase.a.used()\n"]) == [
        "a.LO", "a.unused"]


def test_every_public_name_is_used_by_the_program():
    modules, users = program_sources()
    unused = unused_public_names(modules, users)
    assert [name for name in unused if name.partition(".")[2] not in ALLOWED] == []
    # an allowed name that the program has come to use leaves the list
    assert sorted(name.partition(".")[2] for name in unused) == sorted(ALLOWED)


def test_the_census_sees_an_unread_field():
    modules = {"a": "@dataclass\nclass Report:\n    shown: int\n    logged: int\n"
                    "    unread: int = 0\n\n    def total(self):\n        return self.shown\n\n"
                    "class Other:\n    ignored: int\n",
               "b": "def f(report):\n    return report.shown\n"}
    assert unread_fields(modules, ("Report",), ["print(r.logged)\n"]) == ["Report.unread"]


def test_every_report_field_is_read_by_the_program():
    modules, users = program_sources()
    unread = unread_fields(modules, REPORTS, users)
    assert [name for name in unread if name.partition(".")[2] not in ALLOWED_FIELDS] == []
    # an allowed field that the program has come to read leaves the list
    assert sorted(name.partition(".")[2] for name in unread) == sorted(ALLOWED_FIELDS)


def test_the_census_sees_an_unset_field():
    modules = {"a": "@dataclass\nclass Config:\n    by_keyword: int = 0\n"
                    "    in_a_grid: int = 0\n    unset: int = 0\n"
                    "    FIXED: ClassVar[int] = 4\n\n"
                    "def grid():\n    return {\"in_a_grid\": [1, 2]}\n",
               "b": "def f(config):\n    return config.unset + config.FIXED\n"}
    assert unset_fields(modules, ("Config",), ["Config(by_keyword=3)\n"]) == ["Config.unset"]


def test_every_config_field_is_set_by_the_program():
    modules, users = program_sources()
    unset = unset_fields(modules, CONFIGS, users)
    assert [name for name in unset if name.partition(".")[2] not in ALLOWED_UNSET] == []
    # an allowed field that the program has come to set leaves the list
    assert sorted(name.partition(".")[2] for name in unset) == sorted(ALLOWED_UNSET)


def test_the_census_sees_an_unvaried_default():
    modules = {"a": "from functools import partial\n\n"
                    "def f(x, rate=250.0, mode=\"a\", *, span=4, seed=7):\n    return x\n\n"
                    "class Chain:\n    def __init__(self, fs=250.0, order=2):\n        pass\n\n"
                    "    def run(self, x, gain=1.0):\n        return x\n\n"
                    "    @staticmethod\n    def make(kind=\"iir\"):\n        return Chain(1.0)\n\n"
                    "def g(x, both=1):\n    return partial(f, x, 1.0, span=2)\n",
               "b": "from dataclasses import field\n"
                    "f(1, 2.0)\nf(1, 3.0, mode=\"b\")\nChain(100.0).run(3, 2.0)\n"
                    "Chain(fs=50.0, order=1).run(3)\nChain.make(\"fir\")\ng(*[1, 2])\n"
                    "items: list = field(default_factory=Chain.make)\n"}
    assert unvaried_defaults(modules, []) == [
        "a.Chain.fs", "a.f.rate", "a.f.seed", "a.g.both"]


def test_every_parameter_default_is_used_and_varied_by_the_program():
    modules, users = program_sources()
    unvaried = unvaried_defaults(modules, users)
    assert [name for name in unvaried
            if name.partition(".")[2] not in ALLOWED_DEFAULTS] == []
    # an allowed parameter that the program has come to vary leaves the list
    assert sorted(name.partition(".")[2] for name in unvaried) == sorted(ALLOWED_DEFAULTS)
