"""Shared test setup."""
import logging

import pytest


@pytest.fixture(autouse=True)
def package_logger_at_rest(monkeypatch):
    """Run each test with logging off, as a fresh CLI process would.

    ``main`` run in-process under ``OLG_LOG`` leaves its handler (bound to
    that test's since-closed capture stream) and its level on the package
    logger, so later tests would see logging errors on standard error.
    """
    monkeypatch.delenv("OLG_LOG", raising=False)
    logger = logging.getLogger("olghousing")
    for handler in logger.handlers[:]:
        logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
