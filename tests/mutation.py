"""Seeded mutants for the tests that must kill them: a method (or a
property's setter) recompiled from its own source with one fragment
replaced, installed for the duration of one test."""

import __future__
import inspect
import textwrap


def mutate(monkeypatch, owner, attribute, old, new, name):
    """Replace ``owner.attribute`` (a method or a property's setter) by
    its own source with ``old`` replaced by ``new``."""
    current = inspect.getattr_static(owner, attribute)
    function = current.fset if isinstance(current, property) else current
    source = textwrap.dedent(inspect.getsource(function))
    source = "\n".join(line for line in source.splitlines() if not line.startswith("@"))
    assert source.count(old) == 1, f"mutation site of {name!r} moved"
    namespace = dict(vars(inspect.getmodule(function)))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), f"<{name}>", "exec", flags=flags, dont_inherit=True), namespace)
    mutant = namespace[function.__name__]
    if isinstance(current, property):
        mutant = property(current.fget, mutant)
    monkeypatch.setattr(owner, attribute, mutant)
