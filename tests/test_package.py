import seisgof


def test_every_name_in_all_resolves():
    # `from seisgof import *` fails on a name the package no longer has.
    assert [name for name in seisgof.__all__
            if not hasattr(seisgof, name)] == []
    assert len(set(seisgof.__all__)) == len(seisgof.__all__)
