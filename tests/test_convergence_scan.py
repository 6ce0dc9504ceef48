import ast
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convergence_scan.py"


def scan(run_python, *argv):
    """Run the scan's main(argv) in a fresh interpreter with every warning
    raised as an error; return (exit code, stdout, stderr) of main."""
    out = run_python(f"""
import contextlib, io, runpy, warnings
warnings.simplefilter("error")
main = runpy.run_path({str(SCRIPT)!r})["main"]
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main({list(argv)!r})
print(repr((code, out.getvalue(), err.getvalue())))
""")
    return ast.literal_eval(out)


def test_bad_Ns_is_config_error(run_python):
    for ns in ("4", "24,x"):
        code, out, err = scan(run_python, "--Ns", ns)
        assert code == 2
        assert err.startswith("config error: ")
        assert "Traceback" not in err


def test_zero_epsilon_order_is_undefined(run_python):
    code, out, err = scan(run_python, "--Ns", "8,12", "--epsilon", "0")
    assert code == 0
    assert err == ""
    assert "max_dist=0.000000e+00" in out
    assert "fitted log-log order: undefined" in out
    assert "nan" not in out
