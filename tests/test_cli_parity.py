"""tools/cli_parity.py's summary of how far the numbers of two outputs moved."""

import importlib.util
from pathlib import Path

_PARITY = importlib.util.spec_from_file_location(
    "cli_parity", Path(__file__).parents[1] / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(_PARITY)
_PARITY.loader.exec_module(cli_parity)


def test_moved_counts_ulps_within_one_sign():
    before = "alpha,y1\n2,0.1\n"
    after = "alpha,y1\n2,0.10000000000000002\n"  # the next float above 0.1
    assert cli_parity._moved(before, after) == "only numbers moved (1), largest by 1.39e-17, 1 ulp"


def test_moved_through_zero_is_counted_not_measured_in_ulps():
    before = "2,-2.7755575615628914e-17,0.5\n"
    assert (cli_parity._moved(before, "2,0,0.5\n")
            == "only numbers moved (1), largest by 2.78e-17, 1 to, from or through zero")
    assert (cli_parity._moved(before, "2,2.7755575615628914e-17,0.5000000000000001\n")
            == "only numbers moved (2), largest by 1.11e-16, 1 ulp, 1 to, from or through zero")


def test_moved_reports_other_text_and_nan():
    assert cli_parity._moved("a,1\n", "b,1\n") == "text other than numbers differs"
    assert cli_parity._moved("1,2", "1,nan") == ("only numbers moved (1), "
                                                  "one of them to or from NaN")
