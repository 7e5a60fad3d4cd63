import paim


def test_every_exported_name_resolves():
    missing = [name for name in paim.__all__ if not hasattr(paim, name)]
    assert missing == []
    namespace = {}
    exec("from paim import *", namespace)
    assert set(paim.__all__) <= set(namespace)
