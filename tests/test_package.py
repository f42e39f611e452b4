import hyperci


# a name left in __all__ after its definition is gone breaks
# `from hyperci import *` with an AttributeError
def test_every_export_resolves_once():
    names = hyperci.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from hyperci import *", namespace)
    assert [name for name in names if name not in namespace] == []
