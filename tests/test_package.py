import smoothcore as sc


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from smoothcore import *` with an AttributeError
    assert len(set(sc.__all__)) == len(sc.__all__)
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []
    namespace = {}
    exec("from smoothcore import *", namespace)
    assert set(sc.__all__) <= namespace.keys()
