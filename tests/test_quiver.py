import pytest

from quiverrep import Arrow, Quiver, ValidationError, build_canonical


def test_duplicate_vertices_rejected():
    with pytest.raises(ValidationError):
        Quiver(("1", "1"), ())


def test_duplicate_arrow_names_rejected():
    with pytest.raises(ValidationError):
        Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "2", "1")))


def test_dangling_arrow_rejected():
    with pytest.raises(ValidationError):
        Quiver(("1",), (Arrow("a", "1", "2"),))


def test_loops_at_two_loop_quiver():
    q = build_canonical("loop", 2)
    assert [a.name for a in q.loops_at("1")] == ["a1", "a2"]


def test_loops_at_kronecker_empty():
    assert build_canonical("kronecker", 2).loops_at("1") == ()


def test_loops_at_unknown_vertex():
    with pytest.raises(ValidationError):
        build_canonical("loop", 1).loops_at("zzz")


def test_build_kronecker_two():
    q = build_canonical("kronecker", 2)
    assert q.vertices == ("1", "2")
    assert [(a.name, a.src, a.dst) for a in q.arrows] == [("a1", "1", "2"), ("a2", "1", "2")]


def test_build_subspace_four():
    q = build_canonical("subspace", 4)
    assert q.vertices == ("1", "2", "3", "4", "5")
    assert all(a.dst == "5" for a in q.arrows)
    assert [a.src for a in q.arrows] == ["1", "2", "3", "4"]


def test_build_loop_one():
    q = build_canonical("loop", 1)
    assert q.vertices == ("1",)
    assert q.arrows == (Arrow("a1", "1", "1"),)


def test_two_inclusions_alias():
    assert build_canonical("two_inclusions") == build_canonical("subspace", 2)


def test_build_canonical_deterministic():
    assert build_canonical("kronecker", 3) == build_canonical("kronecker", 3)


@pytest.mark.parametrize("kind,n", [("loop", 0), ("kronecker", 0), ("subspace", -1),
                                    ("loop", None), ("nonsense", 2)])
def test_build_canonical_invalid(kind, n):
    with pytest.raises(ValidationError):
        build_canonical(kind, n)
