import types

import glsobolev


def test_every_listed_name_resolves():
    missing = [name for name in glsobolev.__all__ if not hasattr(glsobolev, name)]
    assert missing == []


def test_no_name_listed_twice():
    assert len(glsobolev.__all__) == len(set(glsobolev.__all__))


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(glsobolev).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(glsobolev.__all__) == set()
