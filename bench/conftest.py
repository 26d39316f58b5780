"""Lets ``python3 -m pytest bench -q`` collect ``selftest.py`` (not a ``test_*.py`` name)."""

import pytest


def pytest_collect_file(file_path, parent):
    # A file named on the command line is collected by pytest itself.
    if file_path.name == "selftest.py" and not parent.session.isinitpath(file_path):
        return pytest.Module.from_parent(parent, path=file_path)
    return None
