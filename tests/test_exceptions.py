"""Every exception class ``carboncert`` defines survives pickling.

A forked worker (``model.Forked``) sends back what it raised by pickle, so an
exception that does not round-trip reaches the parent with another message,
or fails to unpickle at all. A class whose ``__init__`` takes other arguments
than the message needs a ``__reduce__``; its sample arguments are listed here."""

import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import carboncert

MODULES = [importlib.import_module(f"carboncert.{m.name}") for m in pkgutil.iter_modules(carboncert.__path__)]

CLASSES = sorted(
    (
        cls
        for module in MODULES
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)

SAMPLE_ARGS = {  # by class name: the arguments of a class with an __init__ of its own
    "IoFailure": ("/data/collector-a/2025-06-01/SEM1.csv", FileNotFoundError(2, "No such file or directory")),
    "MissingData": ("2025-06-01",),
    "UnreadableCsv": (Path("collector-a/2025-06-01/SEM1.csv"), 4, ValueError("12 cells, expected 10")),
    "Rejected": ("plant-1-20250601-007", "batch window does not match its aggregates"),
}


def _own_init(cls) -> bool:
    return any("__init__" in vars(base) for base in cls.__mro__ if base.__module__.startswith("carboncert."))


def _comparable(value):
    """An exception compares by identity: compare its type and arguments instead."""
    if isinstance(value, BaseException):
        return type(value), value.args
    return value


def _attributes(exc):
    return {name: _comparable(value) for name, value in vars(exc).items()}


def test_the_walk_finds_the_exception_classes():
    names = {cls.__name__ for cls in CLASSES}
    assert {"MissingData", "UnreadableCsv", "Rejected", "IoFailure", "ChainDamaged", "ChaincodeError"} <= names


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}")
def test_an_exception_round_trips_through_pickle(cls):
    if _own_init(cls):
        assert cls.__name__ in SAMPLE_ARGS, f"{cls.__name__} defines __init__: give sample arguments"
        exc = cls(*SAMPLE_ARGS[cls.__name__])
    else:
        exc = cls("what went wrong")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert _attributes(back) == _attributes(exc)


def test_an_audit_exception_keeps_its_message_and_attributes():
    from carboncert.audit import MissingData, UnreadableCsv

    back = pickle.loads(pickle.dumps(MissingData("2025-06-01")))
    assert str(back) == "no collector CSV data for 2025-06-01" and back.date == "2025-06-01"
    back = pickle.loads(pickle.dumps(UnreadableCsv(Path("SEM1.csv"), None, "Permission denied")))
    assert str(back) == "SEM1.csv: Permission denied"
    assert (back.path, back.line, back.cause) == (Path("SEM1.csv"), None, "Permission denied")
