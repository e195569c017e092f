import faulthandler
import os

import pytest

from k3enriques.checker import gamma2_in_k3

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # fd 2 as it is between tests; output capture redirects it during a test
    config.stash[_STDERR] = os.dup(2)


def pytest_collectstart(collector):
    # importing a test module runs its module-level code: watched like a test
    faulthandler.dump_traceback_later(30, exit=True, file=collector.config.stash[_STDERR])


def pytest_collectreport(report):
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def watchdog(request):
    # a test past 30 s ends the run with a traceback that names it; a process
    # exit, unlike an exception, cannot be caught by the test or by hypothesis
    faulthandler.dump_traceback_later(30, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def gamma2_report():
    # several tests read the same gamma2_in_k3 report; build it once
    return gamma2_in_k3()
