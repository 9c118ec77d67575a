import cdbgmap


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from cdbgmap import *`
    missing = [name for name in cdbgmap.__all__ if not hasattr(cdbgmap, name)]
    assert missing == []
    assert len(set(cdbgmap.__all__)) == len(cdbgmap.__all__)
    namespace = {}
    exec("from cdbgmap import *", namespace)
    assert set(cdbgmap.__all__) <= set(namespace)
