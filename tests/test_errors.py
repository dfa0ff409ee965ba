"""The package's one refusal type: every raise names an allowed class."""

import ast
from pathlib import Path

import adncount
from adncount import errors

# InvalidParameters refuses an input, RoundLimitExceeded carries a partial
# record, OSError names a file, ArithmeticError guards the exact division
# of the tree-count recurrence, and argparse reads its own flag errors
ALLOWED = {"InvalidParameters", "RoundLimitExceeded", "OSError", "ArithmeticError",
           "argparse.ArgumentTypeError"}


def raised_names(source):
    """The name each ``raise`` in ``source`` raises, None for a re-raise."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc
            yield None if exc is None else ast.unparse(getattr(exc, "func", exc))


def test_every_raise_is_an_allowed_class():
    found = {}
    for module in sorted(Path(adncount.__file__).parent.glob("*.py")):
        for name in raised_names(module.read_text()):
            found.setdefault(name, []).append(module.name)
    assert found.keys() <= ALLOWED, {name: found[name] for name in found.keys() - ALLOWED}


def test_the_guard_sees_each_kind_of_raise():
    source = "raise ValueError('x')\nraise KeyError\ntry:\n    pass\nexcept Exception:\n    raise\n"
    assert list(raised_names(source)) == ["ValueError", "KeyError", None]


def test_errors_defines_three_classes():
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {"CountingError", "InvalidParameters", "RoundLimitExceeded"}
    assert issubclass(errors.InvalidParameters, ValueError)
