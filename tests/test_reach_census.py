"""The reachability census's exception list stays honest without running
the runners (``python -m tests.reach_census`` runs them, in CI's censuses
step): every entry names a ``def`` or a module of ``src/repro`` that
exists, and gives a reason."""

from tests import reach_census
from tests.test_module_census import module_name


def test_every_exception_names_an_existing_function_or_module():
    functions = {name for name, _ in reach_census.definitions().values()}
    modules = {module_name(path) for path in (reach_census.SRC / "repro").rglob("*.py")}
    assert len(functions) > 1000  # the walk really covered the package
    named = set(reach_census.EXCEPTIONS)
    assert named - functions - modules == set()


def test_every_exception_gives_a_reason():
    assert all(
        isinstance(reason, str) and reason.strip()
        for reason in reach_census.EXCEPTIONS.values()
    )


def test_no_exception_is_covered_by_the_blanket_rule():
    """A short ``@property`` or dunder passes without a name; naming one
    would hide it if it grew."""
    blanket = {name for name, short in reach_census.definitions().values() if short}
    assert blanket & set(reach_census.EXCEPTIONS) == set()
