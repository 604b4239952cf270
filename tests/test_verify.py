import pytest

from lshapearc.verify import CHECKS


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=[name for name, _ in CHECKS])
def test_invariant_check(check):
    ok, detail = check()
    assert ok, detail
