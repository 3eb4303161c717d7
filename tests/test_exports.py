"""The public names of the package."""

import importlib
import pkgutil

import pytest

import tricert

MODULES = ["tricert"] + [f"tricert.{m.name}" for m in pkgutil.iter_modules(tricert.__path__)]


def test_every_module_is_listed():
    assert {"tricert.dynamics", "tricert.verify", "tricert.scan", "tricert.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # tools that look the exports up by name skip a missing one silently,
    # so a stale entry would go unnoticed
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [attr for attr in exports if not hasattr(module, attr)] == []


def test_scalar_arithmetic_names_are_gone():
    # BoxArray is the one arithmetic: no scalar map, no reciprocal error;
    # OMEGA lives with the centers that use it
    from tricert import combinatorics, dynamics, intervals

    assert "ZeroDivisionBoxError" not in set(tricert.__all__) | set(intervals.__all__)
    assert not {"eval_f", "OMEGA"} & set(dynamics.__all__)
    assert "OMEGA" in combinatorics.__all__


def test_claim_protocol_is_reexported():
    # the scan engine defines the statuses and results that its claims
    # return; verify, which defines the claims, re-exports them
    from tricert import scan, verify

    assert {"Status", "ClaimResult"} <= set(scan.__all__) & set(verify.__all__)
    assert verify.Status is scan.Status and verify.ClaimResult is scan.ClaimResult
