import ast
from pathlib import Path

import quiverrep

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


def test_every_svd_is_taken_in_numerics():
    # complements, condition ratios and ranges come from numerics' one SVD step
    assert {module for module, _ in _calls("np.linalg.svd")} == {"numerics.py"}


def test_qr_only_reorthonormalises_the_eliminated_hom_basis():
    assert _calls("np.linalg.qr") == [("intertwiner.py", "_solve")]
