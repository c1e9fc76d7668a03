"""The canonical-outputs script runs whole, and quickly."""

import resource
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().with_name("canonical_outputs.py")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_canonical_outputs_run_whole(tmp_path):
    # CPU seconds of the script and the interpreters it starts, which a busy
    # host stretches less than wall time; the wall timeout only stops a hang.
    before = _children_cpu_s()
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert _children_cpu_s() - before <= 10.0
    assert done.returncode == 0, done.stderr
    exits = sorted(tmp_path.glob("*.exit"))
    assert len(exits) == 20
    for path in exits:
        # The perturbed coincidence probe is DISTINCT: an audit failure.
        code = "1\n" if path.name == "audit-coincidence-perturbed.exit" else "0\n"
        assert path.read_text(encoding="utf-8") == code, path.name
    cold = sorted(p.name for p in (tmp_path / "audit-all-cold").glob("*.json"))
    assert cold and cold == sorted(p.name for p in (tmp_path / "audit-all-warm").glob("*.json"))
    for name in cold:
        warm = (tmp_path / "audit-all-warm" / name).read_bytes()
        assert warm == (tmp_path / "audit-all-cold" / name).read_bytes(), name
    assert (tmp_path / "library.txt").stat().st_size > 0
