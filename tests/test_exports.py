"""Every name the package exports is used outside the tests.

A public function that only its own tests call is dead API: the scheme's one
path does not need it, yet it must be kept working.  This guard fails when
a name imported by ``vccompress/__init__.py`` has no reference in ``src/``,
``demos/`` or ``perfbench/``.  Its own ``def`` or ``class`` line, import
lines and ``__all__`` entries are not references, and neither is a load of
a name that some function in the same file binds as a local variable or a
parameter.

The same holds one level down: a public method or property defined in the
body of an exported class must be read as an attribute (``x.name``)
somewhere in those directories.  Attributes are matched by name alone, so a
method counts as used when any object's attribute of that name is read.

And no option is dead: every parameter with a default, of an exported
function or of a public method or ``__init__`` of an exported class, must be
passed, by keyword or by position, by some call in those directories.

Nor is any private helper dead: every private function, class or assigned
name at the top level of a module in ``src/`` must be read by some other
top-level statement of ``src/``.

And the public surface is pinned: the names ``vccompress/__init__.py``
imports must equal a literal list, so adding or removing a public name takes
a deliberate edit here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported_names():
    tree = ast.parse((ROOT / "src" / "vccompress" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(path):
    tree = ast.parse(path.read_text())
    local = set()
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(scope):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                    local.add(node.id)
                elif isinstance(node, ast.arg):
                    local.add(node.arg)
    loads, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return (loads - local) | attributes


def referenced_outside_the_tests():
    referenced = set()
    for directory in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            referenced |= referenced_names(path)
    return referenced


def exported_class_members():
    """(class, member) for every public method and property defined in the
    body of a class the package exports."""
    exported = exported_names()
    members = set()
    for path in sorted((ROOT / "src" / "vccompress").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                members |= {
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                }
    return members


PUBLIC_SURFACE = [
    "ApproximationBudgetError",
    "ApproximationCertificate",
    "BudgetExceededError",
    "CompressedSample",
    "ConceptClass",
    "ConfigError",
    "ConvergenceError",
    "DecodeError",
    "ExactSolverCapError",
    "ExperimentReport",
    "GameSolution",
    "HypothesisSet",
    "IntegrityError",
    "LabeledSample",
    "ParseError",
    "ProbabilityVector",
    "SchemeReport",
    "ShatterWitness",
    "SparseEquilibrium",
    "UnrealizableError",
    "VerificationResult",
    "WEAK_AGREEMENT",
    "approximation_deviation",
    "approximation_size_bound",
    "build_hypothesis_set",
    "compress",
    "decode_side_info",
    "deserialize_compressed",
    "dual_class",
    "epsilon_approximation",
    "escalate_budget",
    "full_cube",
    "generalization_experiment",
    "halfspaces_grid",
    "intervals",
    "k_interval_unions",
    "lowest_consistent_concept",
    "make_concept_class",
    "parse_concept_class",
    "parse_payoff_matrix",
    "random_vc_capped",
    "reconstruct",
    "required_sample_size",
    "run_suite",
    "scheme_size_bound",
    "serialize_compressed",
    "serialize_concept_class",
    "shatters",
    "solve_exact",
    "solve_mw",
    "sparse_epsilon_nash",
    "sparsify_mixture",
    "vc_dimension",
    "verify_round_trip",
]


def test_public_surface_is_pinned():
    assert sorted(exported_names()) == PUBLIC_SURFACE


def test_every_export_is_referenced_outside_the_tests():
    assert sorted(exported_names() - referenced_outside_the_tests()) == []


def test_every_public_member_of_an_export_is_referenced_outside_the_tests():
    members = exported_class_members()
    assert ("ProbabilityVector", "weights") in members  # the walk sees the classes
    referenced = referenced_outside_the_tests()
    assert sorted(m for m in members if m[1] not in referenced) == []


def _defaulted(arguments, is_method):
    """(name, position or None) of every parameter with a default; the
    position counts the arguments a call passes, so a method's self or cls
    is not counted, and a keyword-only parameter has none."""
    positional = [*arguments.posonlyargs, *arguments.args][1 if is_method else 0 :]
    first_default = len(positional) - len(arguments.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first_default]
    found += [
        (a.arg, None)
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return found


def exported_optional_parameters():
    """(callable, parameter, position) for every defaulted parameter of an
    exported function, of a public method of an exported class, and of such a
    class's ``__init__``, which a call names by the class."""
    exported = exported_names()
    optional = set()
    for path in sorted((ROOT / "src" / "vccompress").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                optional |= {(node.name, *p) for p in _defaulted(node.args, False)}
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        called_as = node.name
                    elif not item.name.startswith("_"):
                        called_as = item.name
                    else:
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    optional |= {(called_as, *p) for p in _defaulted(item.args, not static)}
    return optional


def parameters_set_outside_the_tests():
    """(callable name, keyword) and (callable name, position) for every
    argument some call in ``src/``, ``demos/`` or ``perfbench/`` passes; a
    call is matched by the name it calls (``f(...)`` or ``x.f(...)``), a
    ``*`` argument counts as passing every position and a ``**`` argument
    every keyword."""
    passed = set()
    for directory in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                for position, arg in enumerate(node.args):
                    passed.add((name, "*" if isinstance(arg, ast.Starred) else position))
                for keyword in node.keywords:
                    passed.add((name, keyword.arg or "**"))
    return passed


def test_every_optional_parameter_of_an_export_is_set_outside_the_tests():
    optional = exported_optional_parameters()
    assert ("random_vc_capped", "seed", 3) in optional  # the walk sees functions
    passed = parameters_set_outside_the_tests()

    def is_set(name, parameter, position):
        by_keyword = {(name, parameter), (name, "**")} & passed
        by_position = position is not None and {(name, position), (name, "*")} & passed
        return bool(by_keyword or by_position)

    assert sorted(f"{n}: {p}" for n, p, i in optional if not is_set(n, p, i)) == []


def module_level_private_definitions():
    """(module, name) for every private function, class or assigned name
    (a constant such as ``_TRIES_PER_CONCEPT``, or an alias) defined at
    the top level of a module in ``src/vccompress``."""
    found = set()
    for path in sorted((ROOT / "src" / "vccompress").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found |= {
                (path.stem, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            }
    return found


def test_every_private_helper_has_a_caller_in_src():
    # a name counts as used when some top-level statement of src/ other than
    # its own definition loads it or reads it as an attribute; import lines
    # bind names and load none
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    private = module_level_private_definitions()
    assert ("learner", "_undominated") in private  # the walk sees the helpers
    assert ("game", "_INT64_SAFE_ENTRY") in private  # and the constants
    assert sorted(f"{m}.{n}" for m, n in private if n not in used) == []
