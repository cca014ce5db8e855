"""Run the doctest examples embedded in module docstrings.

Keeps every ``>>>`` example in the documentation honest.
"""

import doctest

import pytest

import repro.experiments.timing
import repro.graph.graph


@pytest.mark.parametrize(
    "module",
    [
        repro.graph.graph,
        repro.experiments.timing,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests collected from {module.__name__}"
