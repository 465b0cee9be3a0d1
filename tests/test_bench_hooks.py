"""The benchmark's tracer installs against the package and uninstalls cleanly.

``perfbench/tracing.install`` binds public functions and methods by name,
so renaming one of them breaks the traced benchmark run.  This installs the
tracer against the imported package, runs one command under it, and checks
that ``uninstall`` puts every original back.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys

import pytest

from clusterufd import cli, factoriality

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def package_bindings() -> dict[tuple[object, str], object]:
    """Every attribute of every package module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "clusterufd"
                                  or name.startswith("clusterufd.")):
            continue
        for attr, value in vars(module).items():
            out[(module, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cls_attr, cls_value in vars(value).items():
                    out[(value, cls_attr)] = cls_value
    return out


TRACED = [
    (factoriality, "conjecture_check"),
    (factoriality, "inductive_prover"),
    (factoriality, "necessary_conditions"),
    (factoriality, "brute_force_factor"),
    (factoriality.SupportCertificate, "verify"),
    (factoriality.ExchangeIdeals, "power_membership"),
    (cli._Report, "emit"),
    (cli, "main"),
]


def test_install_wraps_and_uninstall_restores(tracing, capsys):
    before = package_bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for owner, attr in TRACED:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
        assert cli.main(["verdict", "--builtin", "A:2", "--bound", "2",
                         "--json"]) == 0
        summary = tracer.summary()
        for name in ("cli.main", "cli.render", "factoriality.necessary",
                     "factoriality.prover", "factoriality.verify",
                     "factoriality.conjecture_check"):
            assert summary[name]["calls"] >= 1, name
        # prove-ufd imports the prover and the verifier when it runs, so it
        # calls the wrapped ones: one more call of each after the verdict's
        assert cli.main(["prove-ufd", "--builtin", "A:2", "--json"]) == 0
        summary = tracer.summary()
        for name in ("factoriality.prover", "factoriality.verify"):
            assert summary[name]["calls"] == 2, name
    finally:
        tracer.uninstall()
    capsys.readouterr()
    after = package_bindings()
    changed = [key[1] for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []
