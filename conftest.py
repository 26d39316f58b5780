"""Repository-root pytest bootstrap.

Makes ``python -m pytest`` work from a plain checkout by putting ``src`` on
``sys.path`` when the ``repro`` package is not installed.  With an editable
install (``pip install -e .``, see pyproject.toml) this is a no-op.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden emitted-kernel sources under tests/goldens/",
    )
