import re
import threading

import numpy as np
import pytest

from maqd import parallel

_CRITERION = re.compile(r"test_acceptance\.py.*test_criterion_(\d+)")
_SEVERITY = {"passed": 1, "skipped": 2, "failed": 3, "error": 3}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL/SKIP line per acceptance criterion at the end of the run."""
    results = {}
    for status, severity in _SEVERITY.items():
        for rep in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not match:
                continue
            n = int(match.group(1))
            label = {"passed": "PASS", "skipped": "SKIP"}.get(status, "FAIL")
            if label == "SKIP":
                try:
                    label += f" ({rep.longrepr[2]})"
                except Exception:
                    pass
            if n not in results or severity > results[n][0]:
                results[n] = (severity, label)
    if results:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria summary")
        for n in sorted(results):
            terminalreporter.write_line(f"CRITERION {n}: {results[n][1]}")


@pytest.fixture
def across_threads(monkeypatch):
    """check(run, counts): run() with the pool at one thread, then at each of
    `counts` threads; every returned array must be bitwise the one-thread
    one, and at each count some part must have run on a helper thread."""
    real = parallel.map_parts
    ran_on = set()

    def spy(fn, parts, make=None):
        return real(lambda *args: ran_on.add(threading.get_ident()) or fn(*args), parts, make)

    def check(run, counts=(2, 3)):
        monkeypatch.setattr(parallel, "map_parts", spy)
        monkeypatch.setattr(parallel, "THREADS", 1)
        want = run()
        for count in counts:
            monkeypatch.setattr(parallel, "THREADS", count)
            ran_on.clear()
            got = run()
            assert ran_on - {threading.get_ident()}, f"no part ran on a helper at {count} threads"
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    return check
