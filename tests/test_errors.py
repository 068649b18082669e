"""The error families named in the errors module docstring."""

import re

from bhlink import errors
from bhlink.errors import BhlinkError

FAMILIES = ("Invalid input", "Not applicable", "Internal")


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def family_lists():
    """The class names listed under each family heading of the docstring."""
    doc = errors.__doc__
    starts = [doc.index(f"\n{family}: ") for family in FAMILIES]
    sections = [doc[start:end] for start, end in zip(starts, starts[1:] + [len(doc)])]
    listed = (re.findall(r"^\* :class:`(\w+)`$", section, re.M) for section in sections)
    return dict(zip(FAMILIES, listed))


def test_every_error_is_in_exactly_one_family():
    lists = family_lists()
    names = [name for listed in lists.values() for name in listed]
    package_errors = {cls.__name__ for cls in subclasses(BhlinkError) if cls.__module__.startswith("bhlink")}
    assert len(names) == len(set(names))
    assert set(names) == package_errors
    assert lists["Internal"] == ["CrossCheckFailed"]
