import multiprocessing
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "circnet",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=int(os.environ.get("CIRCNET_HYPOTHESIS_EXAMPLES", "100")),
)
settings.load_profile("circnet")


def pytest_runtest_logreport(report):
    """One visible PASS/FAIL line per acceptance check."""
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
        print(f"\n[ACCEPTANCE] {name}: {status}", flush=True)
    elif report.when == "setup" and report.skipped:
        print(f"\n[ACCEPTANCE] {name}: SKIP", flush=True)


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Every process pool a test starts is shut down by the end of the run."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the tests: {left}"
