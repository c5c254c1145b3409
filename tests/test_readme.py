"""The Python examples of README.md run as written, in order, in one
namespace, and give the values their comments state."""

import re
from pathlib import Path

from numpy.testing import assert_allclose

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    text = README.read_text(encoding="utf-8")
    namespace = {}
    blocks = 0
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M):
        # Leading newlines keep traceback line numbers those of README.md.
        source = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
        exec(compile(source, str(README), "exec"), namespace)
        blocks += 1
    assert blocks == 3
    res, cert = namespace["res"], namespace["cert"]
    assert_allclose(res.ell_star, [2.0, 0.5], rtol=1e-9)
    assert_allclose(res.cost, 4.0, rtol=1e-9)
    assert_allclose(res.d_star, [1.0, 2.0], rtol=1e-9)
    assert cert.passed
    assert_allclose(cert.eta_certified, 0.05, rtol=1e-6)
