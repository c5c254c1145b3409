import sys

import numpy as np
import pytest

import netcontract.balancing


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion PASS/FAIL lines after capture ends."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(params=["triplet", "csr"])
def product_path(request, monkeypatch):
    """Run Newton balancing's products on one path whatever the input's size:
    the (row, column) triplet scatters or the CSR mat-vecs."""
    threshold = 0 if request.param == "csr" else np.iinfo(np.intp).max
    monkeypatch.setattr(netcontract.balancing, "_CSR_MIN_ENTRIES", threshold)
    return request.param
