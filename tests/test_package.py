"""Package surface: every exported name resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["viterbipar", "viterbipar.models"])
def test_all_names_resolve(module):
    # ``from module import *`` fails on a listed name the module lacks
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
