import os

import pytest

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_outcomes.items():
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Ingest forks a child per extra part and must reap every one: fail a
    test that leaves a child running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"a child process outlived the test: {'still running' if pid == 0 else pid}")
