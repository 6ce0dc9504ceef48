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


def test_repeated_N_order_is_undefined(run_python):
    # two points at the same N determine no slope (numpy's polyfit would
    # warn that the fit is poorly conditioned)
    code, out, err = scan(run_python, "--Ns", "8,8")
    assert code == 0
    assert err == ""
    assert out.count("N=   8") == 2
    assert "fitted log-log order: undefined" in out


def test_numeric_failure_is_3(run_python):
    # f = I^3 - I folds at I = 1/sqrt(3): the action inversion misses and
    # the scan must report the failing stage, as the CLI does
    code, out, err = scan(run_python, "--symbol",
                          "I^3 - I + i*epsilon*cos(theta)",
                          "--epsilon", "0.05", "--Ns", "8,12")
    assert code == 3
    assert err.startswith("numeric failure: stage=predict")
    assert "Traceback" not in err
