"""The public API surface: ``nilmod.__all__`` lists each exported name
once, and every listed name resolves, so a deleted function cannot stay
exported."""

import nilmod


def test_every_exported_name_resolves():
    missing = [name for name in nilmod.__all__ if not hasattr(nilmod, name)]
    assert missing == []


def test_no_exported_name_appears_twice():
    assert len(nilmod.__all__) == len(set(nilmod.__all__))


def test_star_import_gives_exactly_the_listed_names():
    namespace = {}
    exec("from nilmod import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(nilmod.__all__)
