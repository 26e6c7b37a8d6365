"""Claim-check knobs.

Every ``benchmarks/test_*.py`` regenerates one figure of the paper on
scaled-down defaults (DESIGN.md documents the scaling), prints its
paper-style rows and asserts the claim's direction.  Nothing here is
timed: speed is the repo benchmark's business (``benchmarks/suite``,
DESIGN.md §7).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the claim checks at closer-to-paper scale (much slower)",
    )


@pytest.fixture(scope="session")
def paper_scale(request):
    return request.config.getoption("--paper-scale")
