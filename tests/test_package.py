import quiverrep


def test_public_names_resolve_and_are_listed_once():
    names = quiverrep.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(quiverrep, n)] == []
