"""The package's public names: star import and ``__all__``."""

import pseudomodes


def test_star_import_and_every_public_name_resolves():
    namespace = {}
    exec("from pseudomodes import *", namespace)
    for name in pseudomodes.__all__:
        assert name in namespace, name
        assert getattr(pseudomodes, name) is namespace[name]
    assert len(set(pseudomodes.__all__)) == len(pseudomodes.__all__)
