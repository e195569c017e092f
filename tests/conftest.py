import pytest

from k3enriques.checker import gamma2_in_k3


@pytest.fixture(scope="session")
def gamma2_report():
    # several tests read the same gamma2_in_k3 report; build it once
    return gamma2_in_k3()
