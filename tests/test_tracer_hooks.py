import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Install the benchmark's tracer; fail if a wrapped name is missing, including
# one that install() would silently create on a module instead of wrapping.
INSTALL = """
import sys
import hetsim
import tracer

before = {name: set(vars(m)) for name, m in sys.modules.items() if name.startswith("hetsim")}
tracer.install(tracer.Tracer(sys.argv[1]))
created = [f"{n}.{attr}" for n in before for attr in vars(sys.modules[n]).keys() - before[n]]
sys.exit(f"tracer created names hetsim lacks: {sorted(created)}" if created else 0)
"""


def test_benchmark_tracer_finds_every_function_it_wraps(tmp_path):
    """perfbench/tracer.py wraps hetsim functions by module and name; a
    renamed or deleted one would break the traced benchmark."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(tmp_path)],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
