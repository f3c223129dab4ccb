import pytest

# nodeid -> (criterion id, description); filled by the `criterion` fixture
_labels: dict[str, tuple[str, str]] = {}
# nodeid -> outcome string
_outcomes: dict[str, str] = {}


@pytest.fixture
def criterion(request):
    """Tag the running test as one acceptance criterion for the summary table."""

    def _tag(cid: str, description: str) -> None:
        _labels[request.node.nodeid] = (cid, description)

    return _tag


@pytest.fixture
def analysis_work(monkeypatch):
    """Count Family.validate calls, and the evolve calls and steps the analysis engines make."""
    import zenoport.analysis as analysis
    counts = {"validate": 0, "evolve": 0, "steps": 0}
    validate, evolve = analysis.Family.validate, analysis.evolve

    def counted_validate(self, c):
        counts["validate"] += 1
        return validate(self, c)

    def counted_evolve(c, s, i0, i1, live=False, keep=()):
        counts["evolve"] += 1
        counts["steps"] += abs(i1 - i0)
        return evolve(c, s, i0, i1, live, keep)

    monkeypatch.setattr(analysis.Family, "validate", counted_validate)
    monkeypatch.setattr(analysis, "evolve", counted_evolve)
    return counts


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or item.nodeid not in _labels:
        return
    if hasattr(report, "wasxfail"):
        _outcomes[item.nodeid] = "XPASS" if report.passed else "XFAIL"
    elif report.passed:
        _outcomes[item.nodeid] = "PASS"
    elif report.skipped:
        _outcomes[item.nodeid] = "SKIP"
    else:
        _outcomes[item.nodeid] = "FAIL"


def _sort_key(nodeid: str):
    cid = _labels[nodeid][0]
    digits = "".join(ch for ch in cid if ch.isdigit())
    return (int(digits) if digits else 0, cid)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tagged = [n for n in _labels if n in _outcomes]
    if not tagged:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(tagged, key=_sort_key):
        cid, description = _labels[nodeid]
        terminalreporter.write_line(f"[{_outcomes[nodeid]:>5}] criterion {cid}: {description}")
