import ast
import re
from pathlib import Path

import quiverrep
from quiverrep.numerics import DEFAULT_TOL

SOURCES = {path.name: path.read_text()
           for path in sorted(Path(quiverrep.__file__).parent.glob("*.py"))}


def _calls(name):
    """(module, enclosing top-level function) of every use of ``name``."""
    hits = []
    for module, text in SOURCES.items():
        for node in ast.parse(text).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and ast.unparse(sub) == name:
                    hits.append((module, getattr(node, "name", None)))
    return hits


def test_public_names_resolve_and_are_listed_once():
    names = quiverrep.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(quiverrep, n)] == []


# public names that no other package module reaches, each with its reason
KEPT = {
    "decompose": "the benchmark's hidden-decompose entry point",
    "direct_sum": "the benchmark builds its hidden sums with it",
    "canonically_simple": "it builds the S(v) that the canonically-simple verdict names",
    "is_strongly_irreducible": "the paper's notion; it takes a matrix, not a representation",
}


def test_every_public_name_is_reached_or_kept_for_a_reason():
    used = set()
    for module, text in SOURCES.items():
        if module == "__init__.py":
            continue
        for sub in ast.walk(ast.parse(text)):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                used |= {alias.name for alias in sub.names}
    assert set(quiverrep.__all__) - used == set(KEPT)


def test_readme_names_are_public():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bqr\.(\w+)", readme))
    assert named - set(quiverrep.__all__) == set()


def test_every_svd_is_taken_in_numerics():
    # complements, condition ratios and ranges come from numerics' one SVD step
    assert {module for module, _ in _calls("np.linalg.svd")} == {"numerics.py"}
    for name in ("sla.svd", "sla.svdvals"):
        assert {module for module, _ in _calls(name)} <= {"numerics.py"}, name


def _spectral_norms():
    """Modules that call np.linalg.norm or sla.norm with order 2, a hidden SVD."""
    hits = set()
    for module, text in SOURCES.items():
        for sub in ast.walk(ast.parse(text)):
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) in ("np.linalg.norm",
                                                                      "sla.norm"):
                order = [k.value for k in sub.keywords if k.arg == "ord"] + sub.args[1:2]
                if any(ast.unparse(o) in ("2", "-2") for o in order):
                    hits.add(module)
    return hits


def test_no_hidden_svd_outside_numerics():
    # a least-squares solve, a pseudo-inverse, a rank, a condition number and
    # an orthonormal basis are each one SVD; numerics takes it, at the
    # package's cutoff
    for name in ("np.linalg.lstsq", "np.linalg.pinv", "np.linalg.matrix_rank",
                 "np.linalg.cond", "sla.lstsq", "sla.pinv", "sla.null_space", "sla.orth"):
        assert {module for module, _ in _calls(name)} <= {"numerics.py"}, name


def test_no_spectral_norm_outside_numerics():
    assert _spectral_norms() <= {"numerics.py"}


def test_only_kronecker_builds_loop_and_kronecker_quivers():
    # loop_rep and kronecker_rep are the one builder of each canonical shape
    hits = {module for module, text in SOURCES.items() for sub in ast.walk(ast.parse(text))
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "build_canonical"
            and sub.args and isinstance(sub.args[0], ast.Constant)
            and sub.args[0].value in ("loop", "kronecker")}
    assert hits == {"kronecker.py"}


def test_no_json_writer_indents():
    # an indent makes CPython fall back from its C encoder to the pure-Python one
    hits = [module for module, text in SOURCES.items() for sub in ast.walk(ast.parse(text))
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) in ("json.dump", "json.dumps")
            and any(k.arg == "indent" for k in sub.keywords)]
    assert hits == []


def test_size_limit_lives_in_numerics():
    assert {module for module, text in SOURCES.items() if "MAX_UNKNOWNS" in text} \
        == {"numerics.py"}


def _functions_taking(parameter):
    """(module, function) of every function with a parameter named ``parameter``."""
    return [(module, node.name) for module, text in SOURCES.items()
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)
            and any(a.arg == parameter for a in ast.walk(node.args) if isinstance(a, ast.arg))]


def test_no_function_takes_a_size_limit():
    assert _functions_taking("max_unknowns") == []


def test_only_numerics_takes_a_cutoff_callable():
    # every other rank decision names its resolution through Tolerances
    assert [hit for hit in _functions_taking("cutoff_at") if hit[0] != "numerics.py"] == []


def test_qr_only_reorthonormalises_the_eliminated_hom_basis():
    assert _calls("np.linalg.qr") == [("intertwiner.py", "_solve")]


def test_subspaces_builds_no_equations_of_its_own():
    # a system's End is End of its subspace-quiver representation, and Hom's
    # forest is the one solver of both
    tree = ast.parse(SOURCES["subspaces.py"])
    used = {ast.unparse(sub) for sub in ast.walk(tree) if isinstance(sub, (ast.Name, ast.Attribute))}
    used |= {alias.name for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom)
             for alias in sub.names}
    assert used & {"np.kron", "kron", "nullspace", "_kron_on"} == set()


def test_kronecker_builds_and_reduces_nothing():
    # the paper's reduction (A, B) -> (I, A^-1 B) is the step Hom's forest
    # eliminates through; kronecker.py keeps only builders
    tree = ast.parse(SOURCES["kronecker.py"])
    imports = [ast.unparse(sub) for sub in ast.walk(tree)
               if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if "numerics" in line] == []
    called = {ast.unparse(sub.func).split(".")[-1] for sub in ast.walk(tree)
              if isinstance(sub, ast.Call)}
    assert called & {"inverse", "inv", "pinv", "solve"} == set()


def _forwards_to_analyze(function):
    """True when the body, docstring aside, is one return of an attribute or
    a method call of an ``analyze(...)`` result."""
    body = function.body[1:] if ast.get_docstring(function) is not None else function.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value = body[0].value
    if isinstance(value, ast.Call):
        value = value.func
    return (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Call)
            and ast.unparse(value.value.func) == "analyze")


def test_analyze_is_the_one_route_to_a_verdict():
    # decompose is a benchmark entry point, and is_strongly_irreducible takes
    # a matrix, not a representation
    forwards = {node.name for node in ast.parse(SOURCES["structure.py"]).body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and _forwards_to_analyze(node)}
    assert forwards == {"decompose", "is_strongly_irreducible"}


def test_readme_policy_table_lists_every_tolerance_constant():
    # the scale is the one setting, described above the table, not a row of it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Numerical policy\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(set(DEFAULT_TOL.as_dict()) - {"global_scale"})


def test_intertwiners_read_data_not_object_identity():
    # Hom(rep, copy) is Hom(rep, rep): an intertwiner never branches on which
    # object it was handed, and hom takes no private forest from a caller
    tree = ast.parse(SOURCES["intertwiner.py"])
    identity = [ast.unparse(sub) for sub in ast.walk(tree) if isinstance(sub, ast.Compare)
                for op, right in zip(sub.ops, sub.comparators)
                if isinstance(op, (ast.Is, ast.IsNot))
                and not (isinstance(right, ast.Constant) and right.value is None)]
    assert identity == []
    (function,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "hom"]
    assert [a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)] == ["a", "b", "tol"]
