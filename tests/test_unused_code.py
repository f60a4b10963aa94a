"""No ``src/repro`` code is unused: every import is read, every definition reached.

Package ``__init__`` modules are skipped: their imports are the public
re-exports.  A name counts as used when it is read anywhere in the module,
appears inside a quoted annotation (``Optional["TraceWriter"]``), or is
listed in the module's ``__all__``.

The definition scan goes one step further.  Its subjects are the top-level
functions and classes, and the non-dunder methods and properties, of every
non-``__init__`` module.  A subject is referenced when its name is read by
live ``src/repro`` code outside its own body, as a name, an attribute or an
identifier-only string (``getattr(runtime, "governor")``), or when
it appears in ``perfbench/`` or ``benchmarks/``, which run the package from
outside.  A definition that a decorator call hands to a registry
(``@register_fault("...")``) is referenced by it.  Live code is
module-level code (decorators included) plus the bodies of referenced
subjects, so a definition that only a dead one reads is dead too.
Docstrings, ``__all__`` and ``__init__`` re-exports do not count, nor does
an attribute read on a name that ``import <module>`` binds to a module
outside ``repro`` (``np.ones`` does not reference ``Vec3.ones``).  Whatever
is left must be on ``ALLOWED`` with its reason.

A binding (an assignment, loop or comprehension target, or an argument) is
not a read.  Inside a function or comprehension, a read of a name that it
binds is a local, so ``written = []`` in one function does not keep a
``written`` property alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OUTSIDE_USERS = ("perfbench", "benchmarks")

#: Definitions that no live code references, each with why it stays.
ALLOWED = {
    "sample_ray": "scalar oracle of the packed ray kernels (docs/performance.md)",
    "World.obstacles_near": "scalar oracle of the array obstacle query (docs/performance.md)",
    "voxel_center": "scalar oracle of the packed cell centres (docs/performance.md)",
    "OccupancyOctree.mark_occupied": "builds fixtures for the octree oracle and hypothesis tests",
    "OccupancyOctree.mark_free": "builds fixtures for the octree oracle and hypothesis tests",
    "OccupancyOctree.occupied_keys": "reads the map state the octree oracle tests compare",
    "PointCloudKernel.from_points": "builds fixtures for the point-cloud and octree tests",
    "World.obstacles": "only read of the static obstacle list; the batch oracles and world tests need it",
    "World.dynamic_obstacles": "only read of the mover layer; the fault-matrix signature needs it",
    "Tracer.events": "only read of the recorded events; the tracer and tap tests need it",
    "validate_chrome_trace": "documented API: CI's report-smoke and docs/observability.md",
    "MetricsRegistry.from_snapshot": "documented API: docs/observability.md",
    "World.visibility_along": "reserved for the fidelity fixes (ROADMAP item 2)",
    "fit_stage_model": "reserved for the Eq. 4 fit (ROADMAP item 2f)",
    "model_mse": "reserved for the Eq. 4 fit (ROADMAP item 2f)",
    "profile_grid": "reserved for the Eq. 4 fit (ROADMAP item 2f)",
    "StoppingDistanceModel.fit_from_kinematics": "reserved for the fidelity fixes (ROADMAP item 2)",
    "StoppingDistanceModel.mse_against": "reserved for the fidelity fixes (ROADMAP item 2)",
    "Tracer.instant": "reserved for the campaign trace's retry instants (ROADMAP item 5)",
    "Tracer.lanes": "reserved for the campaign trace's worker lanes (ROADMAP item 5)",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported_names(tree):
    """(line, bound name) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def used_names(tree):
    """Every name the module reads, quotes in an annotation or exports."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif is_all_assignment(node):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    for annotation in annotations:
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                quoted = ast.parse(item.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def is_all_assignment(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def src_modules():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    return modules


def test_no_unused_imports():
    unused = []
    for path in src_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused.extend(
            f"{path.relative_to(SRC)}:{line}: {name}"
            for line, name in imported_names(tree)
            if name not in used
        )
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# -- the definition scan -------------------------------------------------------
def docstrings(tree):
    """The string constants that are docstrings, by node id."""
    owners = (ast.Module, *DEFINITIONS)
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, owners) and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def foreign_modules(tree):
    """Names that ``import <module>`` binds to a module outside ``repro``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "repro"
    }


#: The nodes that open a scope of local names: functions and comprehensions.
SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def bound_names(scope):
    """The names a scope binds: its arguments and every name it stores to.

    Nested scopes are left to themselves; imports are not bindings here, so
    a lazily imported definition is still referenced where it is called.
    """
    names = set()
    arguments = getattr(scope, "args", None)  # comprehensions take none
    if arguments is not None:
        names.update(
            arg.arg for arg in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg,
            ) if arg is not None
        )
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def referenced_names(root, skip=frozenset(), docs=frozenset(), foreign=frozenset()):
    """Names read under ``root``: names, attributes and identifier strings.

    Nodes whose id is in ``skip`` are not entered (the nested subjects, each
    scanned on its own), ``__all__`` lists and docstrings are not read, and
    the decorators of a definition ``root`` are left to its enclosing scope.
    An attribute of a ``foreign`` module name (``np.ones``) is not a read.
    A binding is not a read, and neither is a name read inside a function
    or comprehension that binds it (or inside one nested in it): that name
    is a local, not a reference to the definition of the same name.
    """
    found = set()
    stack = [(root, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, SCOPES):
            local = local | bound_names(node)
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docs):
            found.add(node.value)
        elif is_all_assignment(node):
            continue
        children = list(ast.iter_child_nodes(node))
        if node is root and isinstance(node, DEFINITIONS):
            children = [c for c in children if c not in node.decorator_list]
        for child in children:
            nested = child.decorator_list if id(child) in skip else [child]
            stack.extend((item, local) for item in nested)
    return found


class Subject:
    """One scanned definition: its qualified name and the names its body reads."""

    def __init__(self, module, node, owner=None):
        self.module = module
        self.node = node
        self.name = node.name
        self.owner = owner  # the class Subject of a method, else None
        self.qualname = f"{owner.name}.{node.name}" if owner else node.name
        self.reads = set()
        # A decorator call other than ``@dataclass(...)`` registers the definition.
        self.registered = any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) != "dataclass"
            for d in node.decorator_list
        )

    @property
    def where(self):
        return f"{self.module}:{self.node.lineno}: {self.qualname}"


def scan_src():
    """Every subject under ``SRC``, and the names module-level code reads."""
    subjects, module_reads = [], set()
    for path in src_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        found = []
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            owner = Subject(module, node)
            found.append(owner)
            if isinstance(node, ast.ClassDef):
                found.extend(
                    Subject(module, item, owner) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        docs = docstrings(tree)
        foreign = foreign_modules(tree)
        nested = {id(subject.node) for subject in found}
        module_reads |= referenced_names(tree, nested, docs, foreign)
        for subject in found:
            subject.reads = referenced_names(subject.node, nested, docs, foreign)
        subjects.extend(found)
    return subjects, module_reads


def outside_reads():
    """Every name ``perfbench/`` and ``benchmarks/`` read or quote."""
    names = set()
    for folder in OUTSIDE_USERS:
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names |= referenced_names(tree, foreign=foreign_modules(tree))
    return names


def live_subjects(subjects, always_read, kept):
    """The fixpoint: drop subjects nothing live reads until none is left to drop.

    ``kept`` names (qualified) stay live whether read or not.  A method dies
    with its class, and a class's own methods do not keep the class alive.
    """
    own = {subject: {subject} for subject in subjects}
    for subject in subjects:
        if subject.owner is not None:
            own[subject.owner].add(subject)
    live = set(subjects)
    while True:
        readers = {}
        for subject in live:
            for name in subject.reads:
                readers.setdefault(name, set()).add(subject)

        def is_read(subject):
            return subject.registered or subject.name in always_read or bool(
                readers.get(subject.name, set()) - own[subject]
            )

        dead = {
            subject for subject in live
            if (subject.owner is not None and subject.owner not in live)
            or (subject.qualname not in kept and not is_read(subject))
        }
        if not dead:
            return live
        live -= dead


def test_no_unreferenced_definitions():
    subjects, module_reads = scan_src()
    always_read = module_reads | outside_reads()
    live = live_subjects(subjects, always_read, set(ALLOWED))
    unreferenced = sorted(s.where for s in subjects if s not in live)
    assert not unreferenced, (
        "defined but referenced by no live src/ code, perfbench/ or benchmarks/ "
        "(delete it, or add it to ALLOWED with a reason):\n" + "\n".join(unreferenced)
    )

    qualnames = {s.qualname for s in subjects}
    stale = sorted(name for name in ALLOWED if name not in qualnames)
    for name in sorted(set(ALLOWED) & qualnames):
        others = live_subjects(subjects, always_read, set(ALLOWED) - {name})
        if any(s.qualname == name for s in others):
            stale.append(name)
    assert not stale, "ALLOWED entries that are gone or now referenced:\n" + "\n".join(stale)
