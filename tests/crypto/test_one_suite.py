"""The hash suite is one decision, made in ``crypto/hashes.py``.

No function under ``src/repro`` takes a ``suite`` (or ``digest_suite``)
parameter, no module can look a suite up by its wire name (so no decoder
can obey a ``"suite"`` tag), and outside ``crypto/hashes.py`` only
``crypto/verifycache.py`` (which keys its table with SHA-256 whatever
the suite is) names ``SHA1``, ``SHA256`` or ``HashSuite``. Everything
else reads ``hashes.SUITE`` at call time.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

SUITE_PARAMETERS = {"suite", "digest_suite"}
SUITE_NAMES = {"SHA1", "SHA256", "HashSuite"}
#: A lookup from a wire name to a suite is how a decoder obeys the tag.
SUITE_LOOKUPS = {"suite_by_name", "_SUITES"}


def suite_parameters(source: str) -> list:
    """``(line, function)`` of every function with a suite parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if SUITE_PARAMETERS & set(names):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return found


def suite_mentions(source: str) -> list:
    """Lines that name a suite object: as a name, an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in SUITE_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in SUITE_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name in SUITE_NAMES for alias in node.names
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


def suite_lookups(source: str) -> list:
    """Lines that define, assign, import or read a name-to-suite lookup."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        if SUITE_LOOKUPS & set(names):
            lines.append(node.lineno)
    return sorted(set(lines))


def package_sources() -> dict:
    root = pathlib.Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in root.rglob("*.py")
    }
    assert len(sources) > 100  # the walk really covered the package
    return sources


class TestOneSuite:
    def test_no_function_takes_a_suite(self):
        found = {
            path: params
            for path, source in package_sources().items()
            if (params := suite_parameters(source))
        }
        assert found == {}

    def test_only_the_hash_module_and_the_cache_name_a_suite(self):
        naming = {
            path for path, source in package_sources().items() if suite_mentions(source)
        }
        assert naming == {"crypto/hashes.py", "crypto/verifycache.py"}

    def test_no_decoder_can_look_a_suite_up_by_name(self):
        found = {
            path: lines
            for path, source in package_sources().items()
            if (lines := suite_lookups(source))
        }
        assert found == {}

    @pytest.mark.parametrize(
        "source, lines",
        [
            ("def suite_by_name(name): pass", [1]),
            ("_SUITES = {}", [1]),
            ("from repro.crypto.hashes import suite_by_name", [1]),
            ("from repro.crypto import hashes\nx = hashes.suite_by_name('sha1')", [2]),
            ("x = data['suite']", []),
        ],
    )
    def test_lookup_guard_sees_every_spelling(self, source, lines):
        assert suite_lookups(source) == lines

    @pytest.mark.parametrize(
        "source, found",
        [
            ("def f(data, suite=None): pass", [(1, "f")]),
            ("class C:\n    def g(self, *, digest_suite): pass", [(2, "g")]),
            ("h = lambda suite: suite", [(1, "<lambda>")]),
            ("def f(data, hashes=None): pass", []),
        ],
    )
    def test_parameter_guard_sees_every_spelling(self, source, found):
        assert suite_parameters(source) == found

    @pytest.mark.parametrize(
        "source, lines",
        [
            ("from repro.crypto.hashes import SHA1", [1]),
            ("from repro.crypto import hashes\nx = hashes.SHA256", [2]),
            ("def f(s: HashSuite): pass", [1]),
            ("from repro.crypto import hashes\nx = hashes.SUITE", []),
            ('"""SHA1 in prose."""', []),
        ],
    )
    def test_name_guard_sees_every_spelling(self, source, lines):
        assert suite_mentions(source) == lines
