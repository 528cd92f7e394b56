import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEASURE = os.path.join(ROOT, "src", "mfctrl", "measure.py")


def _line_of(text):
    """The number of the line of ``measure.py`` that holds ``text``."""
    with open(MEASURE) as fh:
        return next(k for k, line in enumerate(fh, 1) if text in line)


def _listing(*selection):
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "untested_lines.py"),
                          os.path.join(ROOT, "tests", "test_measure.py"), "-q",
                          "-p", "no:cacheprovider", *selection],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    return run.returncode, run.stdout


def test_lists_the_lines_a_test_module_never_reaches():
    status, out = _listing("-k", "short_values")
    assert status == 0
    ran = _line_of("return repr(value) if len(text) <= REPR_CHARS")       # short_repr
    never = _line_of('return np.einsum("i,ij,ik->jk", self.weights')      # covariance
    assert f"src/mfctrl/measure.py:{ran}:" not in out
    assert (f"src/mfctrl/measure.py:{never}: return np.einsum(\"i,ij,ik->jk\", self.weights"
            in out)
    assert out.rstrip().endswith("(the CLI subprocess tests, the tools/ tests) are listed too")


def test_exits_with_the_status_of_pytest():
    status, _ = _listing("-k", "no_test_has_this_name")
    assert status == 5   # pytest's "no tests collected"
