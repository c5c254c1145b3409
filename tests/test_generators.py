import os
import subprocess
import sys
import textwrap


def test_generators_import_without_hypothesis():
    # perfbench/workloads.py imports generators, and every benchmark
    # process would pay for hypothesis in its setup time and peak RSS.
    script = textwrap.dedent("""
        import sys
        import generators
        generators.random_connected_adjacency
        print("hypothesis" in sys.modules)
    """)
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [tests, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]
