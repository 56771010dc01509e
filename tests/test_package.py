import hfhat


def test_every_export_resolves():
    # a star import raises on a name in __all__ that the package lacks
    namespace: dict = {}
    exec("from hfhat import *", namespace)
    for name in hfhat.__all__:
        assert namespace[name] is getattr(hfhat, name)
