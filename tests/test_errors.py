"""The package's error list: exported, defined and raised stay in step."""

import glob
import os
import re

import gapeig
from gapeig import errors

SRC = os.path.dirname(gapeig.__file__)


def _error_classes():
    return {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.GapeigError)
    }


def test_all_names_exactly_the_error_classes():
    # __all__ holds the submodules, __version__ and the errors, nothing else
    modules = {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py"))}
    exported = set(gapeig.__all__) - modules - {"__version__"}
    assert exported == _error_classes()
    for name in exported:
        assert getattr(gapeig, name) is getattr(errors, name)


def test_every_error_is_raised():
    # a subclass nothing raises is dead: it should leave errors.py and __all__
    source = ""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) != "errors.py":
            with open(path, encoding="utf-8") as f:
                source += f.read()
    dead = [
        name
        for name in sorted(_error_classes() - {"GapeigError"})
        if not re.search(r"\braise\s+%s\b" % name, source)
    ]
    assert dead == []
