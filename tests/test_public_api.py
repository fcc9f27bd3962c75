import importlib
import types

import pytest

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


def test_every_listed_name_is_its_submodules_object():
    # the package holds no copy: glsobolev.bump is glsobolev.profiles.bump
    for name in glsobolev.__all__:
        if name == "__version__":
            continue
        value = getattr(glsobolev, name)
        module = importlib.import_module(f"glsobolev.{glsobolev._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        # the table names the module that defines it, not one that imports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_extremal_profile_is_still_read_off_verify():
    import glsobolev.verify

    assert glsobolev.extremal_profile is glsobolev.verify.extremal_profile


def test_dir_covers_every_listed_name():
    assert set(glsobolev.__all__) <= set(dir(glsobolev))


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from glsobolev import *", namespace)
    assert len(glsobolev.__all__) == 77
    assert set(namespace) - {"__builtins__"} == set(glsobolev.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        glsobolev.no_such_name
